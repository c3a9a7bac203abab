import csv
import json
import math
from dataclasses import fields
from pathlib import Path

import pytest

from melrecon.cli import DEFAULT_CONFIG, main
from melrecon.tensor import melt_read, melt_write
from melrecon.train import TrainConfig


def test_cli_default_mu_matches_train_config():
    # deep mel runs need mu around 0.3; the CLI must not default below it
    mu_default = next(f.default for f in fields(TrainConfig) if f.name == "mu")
    assert DEFAULT_CONFIG["mu"] == mu_default


def tiny_config(tmp_path, **kw):
    cfg = {
        "image_size": 16,
        "coils": 2,
        "accel": 2.0,
        "calib": 4,
        "noise_sigma": 0.0,
        "cases_train": 2,
        "cases_val": 1,
        "cases_test": 1,
        "epochs": 1,
        "batch_size": 2,
        "lr": 1e-3,
        "unrolls": 2,
        "cg_iters": 8,
        "mu": 0.3,
        "channels": 4,
        "layers": 2,
        "val_every": 1,
        "bench_size": 16,
        "bench_cg_iters": 8,
        "seed": 9,
        "data": "data",
        "out": "out",
    }
    cfg.update(kw)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    return p


def run_cli(*argv):
    return main(list(argv))


def read_tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


# --- gen-data ---------------------------------------------------------------


def test_gen_data_creates_manifest_and_disjoint_splits(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    assert run_cli("--config", str(cfg), "gen-data") == 0
    manifest = json.loads((tmp_path / "data" / "manifest.json").read_text())
    splits = {}
    for c in manifest["cases"]:
        splits.setdefault(c["split"], set()).add(c["id"])
    assert len(splits["train"]) == 2 and len(splits["val"]) == 1 and len(splits["test"]) == 1
    assert not (splits["train"] & splits["val"]) and not (splits["train"] & splits["test"])
    out = capsys.readouterr().out
    assert out.count("realized_R=") == 4


def test_gen_data_rerun_is_bit_identical(tmp_path):
    cfg = tiny_config(tmp_path)
    run_cli("--config", str(cfg), "gen-data")
    first = read_tree_bytes(tmp_path / "data")
    run_cli("--config", str(cfg), "gen-data")
    assert read_tree_bytes(tmp_path / "data") == first


def test_gen_data_reports_realized_r_near_target(tmp_path, capsys):
    cfg = tiny_config(tmp_path, image_size=32, accel=4.0, calib=6)
    run_cli("--config", str(cfg), "gen-data")
    for line in capsys.readouterr().out.splitlines():
        if "realized_R=" in line:
            r = float(line.split("realized_R=")[1])
            assert 3.4 <= r <= 4.6


# --- config handling -----------------------------------------------------------


def test_unknown_config_key_rejected(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"image_sizes": 16}))
    assert run_cli("--config", str(p), "gen-data") == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_paths_resolve_relative_to_config(tmp_path):
    sub = tmp_path / "nested"
    sub.mkdir()
    cfg = tiny_config(sub)
    run_cli("--config", str(cfg), "gen-data")
    assert (sub / "data" / "manifest.json").exists()


def test_flag_overrides_config_and_logs(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    other = tmp_path / "other_data"
    assert run_cli("--config", str(cfg), "--data", str(other), "gen-data") == 0
    assert "config override: data=" in capsys.readouterr().err
    assert (other / "manifest.json").exists()


# --- train / recon / eval --------------------------------------------------------


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_run")
    cfg = tiny_config(tmp)
    run_cli("--config", str(cfg), "gen-data")
    assert run_cli("--config", str(cfg), "train") == 0
    ckpt = tmp / "out" / "checkpoint_best"
    assert ckpt.is_dir()
    return tmp, cfg, ckpt


def test_train_writes_log_and_checkpoint(trained):
    tmp, cfg, ckpt = trained
    log = tmp / "out" / "train_log.csv"
    rows = list(csv.reader(log.open()))
    assert rows[0][:4] == ["epoch", "step", "engine", "train_loss"]
    assert len(rows) == 2  # header + 1 epoch
    assert math.isfinite(float(rows[1][3]))
    assert json.loads((ckpt / "manifest.json").read_text())["n_unrolls"] == 2


def test_recon_then_eval_lists_each_val_case_once(trained, capsys):
    tmp, cfg, ckpt = trained
    rdir = tmp / "recon"
    assert run_cli("--config", str(cfg), "--out", str(rdir), "recon", str(ckpt)) == 0
    files = sorted(p.name for p in rdir.glob("*.melt"))
    assert len(files) == 1  # one val case
    assert (rdir / files[0].replace(".melt", ".pgm")).exists()

    mdir = tmp / "metrics"
    rc = run_cli(
        "--config", str(cfg), "--out", str(mdir), "eval",
        "--method", "zero_filled", "--method", "cg_sense", "--method", f"modl={rdir}",
    )
    assert rc == 0
    rows = list(csv.reader((mdir / "metrics_val.csv").open()))
    body = rows[1:]
    for method in ("zero_filled", "cg_sense", "modl"):
        case_rows = [r for r in body if r[0] == method and r[1].startswith("case")]
        assert len(case_rows) == 1
        assert {r[1] for r in body if r[0] == method} == {case_rows[0][1], "mean", "std"}


def test_eval_ground_truth_against_itself(trained):
    tmp, cfg, ckpt = trained
    data = tmp / "data"
    gt_dir = tmp / "gt_recon"
    gt_dir.mkdir()
    manifest = json.loads((data / "manifest.json").read_text())
    for c in manifest["cases"]:
        if c["split"] == "val":
            melt_write(gt_dir / f"{c['id']}.melt", melt_read(data / c["id"] / "x.melt"))
    mdir = tmp / "metrics_gt"
    assert run_cli("--config", str(cfg), "--out", str(mdir), "eval", "--method", f"truth={gt_dir}") == 0
    rows = list(csv.reader((mdir / "metrics_gt" and mdir / "metrics_val.csv").open()))
    case_row = [r for r in rows[1:] if r[1].startswith("case")][0]
    assert case_row[2] == "inf"
    assert float(case_row[3]) == pytest.approx(1.0, abs=1e-12)


def test_recon_architecture_mismatch_fails(trained, tmp_path, capsys):
    tmp, cfg, ckpt = trained
    other = tmp_path / "cine"
    other.mkdir()
    cfg2 = tiny_config(other, kind="cine", mask="kt", frames=3, image_size=16)
    run_cli("--config", str(cfg2), "gen-data")
    rc = run_cli("--config", str(cfg2), "--out", str(other / "r"), "recon", str(ckpt))
    assert rc == 1
    assert "rank" in capsys.readouterr().err


def test_failed_command_marks_output_invalid(trained, tmp_path, capsys):
    tmp, cfg, ckpt = trained
    out = tmp_path / "bad_out"
    out.mkdir()
    rc = run_cli("--config", str(cfg), "--out", str(out), "eval", "--method", "nonsense")
    assert rc == 1
    assert (out / "INVALID").exists()


# --- bench-memory -----------------------------------------------------------------


def test_bench_memory_two_rows(trained, tmp_path, capsys):
    tmp, cfg, _ = trained
    out = tmp_path / "bench2"
    rc = run_cli("--config", str(cfg), "--out", str(out), "bench-memory", "--unroll-list", "2")
    assert rc == 0
    rows = list(csv.reader((out / "bench_memory.csv").open()))
    assert len(rows) == 3  # header + standard + mel
    assert {r[0] for r in rows[1:]} == {"standard", "mel"}


def test_bench_memory_standard_strictly_increasing(trained, tmp_path):
    tmp, cfg, _ = trained
    out = tmp_path / "bench3"
    rc = run_cli("--config", str(cfg), "--out", str(out), "bench-memory", "--unroll-list", "2,4,8")
    assert rc == 0
    rows = list(csv.reader((out / "bench_memory.csv").open()))
    std = [int(r[3]) for r in rows[1:] if r[0] == "standard"]
    assert std[0] < std[1] < std[2]
    mel = [int(r[3]) for r in rows[1:] if r[0] == "mel"]
    assert max(mel) <= 1.1 * min(mel)


def test_bench_memory_budget_feasibility(trained, tmp_path, capsys):
    tmp, cfg, _ = trained
    out = tmp_path / "bench4"
    rc = run_cli("--config", str(cfg), "--out", str(out), "bench-memory", "--unroll-list", "2,4,8,10")
    assert rc == 0
    text = capsys.readouterr().out
    feas = {}
    for line in text.splitlines():
        if "max feasible unrolls" in line:
            engine = line.split("[")[1].split("]")[0]
            feas[engine] = int(line.rsplit(":", 1)[1])
    assert feas["mel"] >= 8
    assert feas["standard"] <= 4


def test_recon_single_case(trained, tmp_path):
    tmp, cfg, ckpt = trained
    manifest = json.loads((tmp / "data" / "manifest.json").read_text())
    train_case = next(c["id"] for c in manifest["cases"] if c["split"] == "train")
    out = tmp_path / "single"
    rc = run_cli("--config", str(cfg), "--out", str(out), "recon", str(ckpt), "--case", train_case)
    assert rc == 0
    assert sorted(p.name for p in out.glob("*.melt")) == [f"{train_case}.melt"]
    rc = run_cli("--config", str(cfg), "--out", str(out), "recon", str(ckpt), "--case", "nope")
    assert rc == 1
