import csv
import json
import math
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import pytest

from melrecon import cli, train
from melrecon.cli import DEFAULT_CONFIG, main
from melrecon.mri import load_dataset
from melrecon.tensor import melt_read, melt_write
from melrecon.train import TrainConfig
from melrecon.unrolled import UnrolledNetParams

# config key -> TrainConfig field, for every field
TRAIN_FIELD_OF_KEY = {
    "data": "dataset_dir", "out": "out_dir", "epochs": "epochs", "batch_size": "batch_size", "seed": "seed",
    "lr": "lr", "unrolls": "n_unrolls", "cg_iters": "n_cg", "mu": "mu", "contraction": "contraction",
    "channels": "channels", "layers": "layers", "engine": "engine", "invert_tol": "invert_tol",
    "val_every": "val_every",
}


def test_cmd_train_passes_every_training_key(monkeypatch):
    got = []

    def fake_train_loop(tc):
        got.append(tc)
        return SimpleNamespace(best_val_psnr=0.0, checkpoint_dir="ckpt", log_path="log")

    monkeypatch.setattr(cli, "train_loop", fake_train_loop)
    assert sorted(TRAIN_FIELD_OF_KEY.values()) == sorted(f.name for f in fields(TrainConfig))
    # a distinct value per key, so two swapped keys fail too
    distinct = {"data": "d", "out": "o", "epochs": 2, "batch_size": 3, "seed": 4, "lr": 0.25, "unrolls": 6,
                "cg_iters": 7, "mu": 0.5, "contraction": 0.75, "channels": 8, "layers": 9, "engine": "mel",
                "invert_tol": 1e-7, "val_every": 11}
    configs = (dict(DEFAULT_CONFIG), {**DEFAULT_CONFIG, **distinct})
    for cfg in configs:
        assert cli.cmd_train(cfg) == 0
    for cfg, tc in zip(configs, got, strict=True):
        for key, name in TRAIN_FIELD_OF_KEY.items():
            assert getattr(tc, name) == cfg[key], (key, name)
    # deep mel runs need mu around 0.3; the CLI must not default below it
    assert got[0].mu == 0.3


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


@pytest.mark.parametrize("kw,err", [(dict(mask="kt"), "unknown config keys"),
                                    (dict(kind="static2d", frames=3), "frames")],
                         ids=["mask_key", "static2d_frames"])
def test_gen_data_rejects_mask_key_and_static2d_frames(tmp_path, capsys, kw, err):
    # the image kind fixes the sampling, so no mask can be named, and a
    # static2d image has exactly one frame
    cfg = tiny_config(tmp_path, **kw)
    assert run_cli("--config", str(cfg), "gen-data") == 1
    assert err in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


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


@pytest.mark.parametrize("methods", [("zero_filled=RECON",), ("cg_sense=RECON",),
                                     ("mine=RECON", "mine=RECON"), ("zero_filled", "zero_filled"),
                                     ("=RECON",), ("modl=",)])
def test_eval_rejects_colliding_labels_before_loading_data(trained, tmp_path, monkeypatch, capsys, methods):
    tmp, cfg, _ = trained
    monkeypatch.setattr(cli, "load_dataset", lambda *a: pytest.fail("dataset loaded"))
    argv = [a for m in methods for a in ("--method", m.replace("RECON", str(tmp / "recon")))]
    out = tmp_path / "metrics"
    assert run_cli("--config", str(cfg), "--out", str(out), "eval", *argv) == 1
    err = capsys.readouterr().err
    assert "baseline" in err or "given twice" in err or "non-empty label and directory" in err
    assert not (out / "metrics_val.csv").exists()


def test_recon_architecture_mismatch_fails(trained, tmp_path, capsys):
    tmp, cfg, ckpt = trained
    other = tmp_path / "cine"
    other.mkdir()
    cfg2 = tiny_config(other, kind="cine", frames=3, image_size=16)
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


def test_failed_report_write_keeps_previous_report(trained, tmp_path, monkeypatch):
    tmp, cfg, _ = trained
    out = tmp_path / "metrics"
    argv = ("--config", str(cfg), "--out", str(out), "eval", "--method", "zero_filled", "--method", "cg_sense")
    assert run_cli(*argv) == 0
    before = (out / "metrics_val.csv").read_bytes()

    def rows_then_fail(self):
        yield [self.method, "case0000", "1.0", "0.5"]
        raise OSError("write failed")

    monkeypatch.setattr(train.MetricsReport, "rows", rows_then_fail)
    assert run_cli(*argv) == 1
    assert (out / "metrics_val.csv").read_bytes() == before
    assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]


def test_successful_command_clears_stale_invalid(trained, tmp_path):
    tmp, cfg, ckpt = trained
    out = tmp_path / "reused_out"
    out.mkdir()
    assert run_cli("--config", str(cfg), "--out", str(out), "eval", "--method", "nonsense") == 1
    assert (out / "INVALID").exists()
    assert run_cli("--config", str(cfg), "--out", str(out), "eval", "--method", "zero_filled") == 0
    assert not (out / "INVALID").exists()


# --- bench-memory -----------------------------------------------------------------


def test_bench_memory_two_rows(trained, tmp_path, capsys):
    tmp, cfg, _ = trained
    out = tmp_path / "bench2"
    rc = run_cli("--config", str(cfg), "--out", str(out), "bench-memory", "--unroll-list", "2")
    assert rc == 0
    rows = list(csv.reader((out / "bench_memory.csv").open()))
    assert len(rows) == 3  # header + standard + mel
    assert {r[0] for r in rows[1:]} == {"standard", "mel"}


def test_bench_memory_rows_are_direct_gradient_evaluations(trained, tmp_path):
    tmp, cfg, _ = trained
    out = tmp_path / "bench_rows"
    assert run_cli("--config", str(cfg), "--out", str(out), "bench-memory", "--unroll-list", "2,3") == 0
    rows = list(csv.reader((out / "bench_memory.csv").open()))
    assert rows[0] == ["engine", "n_unrolls", "shape", "peak_bytes", "heap_peak_bytes", "wall_time_s", "loss"]
    c = cli.load_config(str(cfg), {})
    op, reg, y, target = cli.bench_instance(c)
    case0 = load_dataset(c["data"]).cases[0]  # what gen-data wrote
    assert case0.case_id == "case0000"
    for got, want in ((op.mask, case0.mask), (op.sens, case0.sens), (y, case0.y), (target, case0.x)):
        assert got.data.tobytes() == want.data.tobytes()
    assert [(r[0], r[1]) for r in rows[1:]] == [("standard", "2"), ("mel", "2"), ("standard", "3"), ("mel", "3")]
    for engine, n, shape, peak, heap, wall, loss in rows[1:]:
        net = UnrolledNetParams(reg, float(c["mu"]), int(n), int(c["cg_iters"]))
        r = train._grad_eval(engine, net, op, y, target, float(c["invert_tol"]))
        assert shape == "16x16"
        assert int(peak) == r.peak_tape_bytes
        assert int(heap) >= int(peak)  # the traced call allocates all the tape holds, and more
        assert float(wall) > 0
        assert loss == f"{r.loss_value:.12g}"


def test_bench_memory_one_unroll_count_gives_no_frontier(trained, tmp_path, capsys):
    # one point cannot fix the ledger's slope, so no frontier is reported
    tmp, cfg, _ = trained
    rc = run_cli("--config", str(cfg), "--out", str(tmp_path / "b"), "bench-memory", "--unroll-list", "2")
    assert rc == 0
    text = capsys.readouterr().out
    assert "needs two unroll counts" in text
    assert "max feasible unrolls" not in text


def test_frontier_is_the_line_through_the_extreme_points():
    # the tiny CLI bench instance: standard 1,152 + N * 12,288 B, mel 13,440 B
    std = [(n, 1_152 + n * 12_288) for n in (2, 3, 5)]
    budget = 2.0 * std[0][1]
    assert budget == 51_456
    assert cli.max_feasible_unrolls(std, budget) == 4
    assert cli.max_feasible_unrolls([(2, 13_440), (5, 13_440)], budget) == 64
    assert cli.max_feasible_unrolls([(2, 60_000), (5, 60_000)], budget) == 0
    for pts in ([(2, 25_728)], [(4, 1), (4, 2)]):
        with pytest.raises(ValueError, match="two distinct unroll counts"):
            cli.max_feasible_unrolls(pts, budget)


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


def test_bench_memory_runs_on_the_configured_cine_data(tmp_path):
    # the instance is the configured dataset's case 0: on cine, 3D convs on
    # frames x H x W, where mel's ledger must stay flat in depth too
    cfg = tiny_config(tmp_path, kind="cine", frames=3)
    out = tmp_path / "bench_cine"
    assert run_cli("--config", str(cfg), "--out", str(out), "bench-memory", "--unroll-list", "2,4,6") == 0
    rows = list(csv.reader((out / "bench_memory.csv").open()))
    assert {r[2] for r in rows[1:]} == {"3x16x16"}
    std = [int(r[3]) for r in rows[1:] if r[0] == "standard"]
    assert std[0] < std[1] < std[2]
    assert len({int(r[3]) for r in rows[1:] if r[0] == "mel"}) == 1


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


def test_bench_memory_rejects_unknown_engine_before_any_work(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "_grad_eval", lambda *a: calls.append(a))
    monkeypatch.setattr(cli, "bench_instance", lambda cfg: calls.append(cfg))
    with pytest.raises(ValueError, match="bogus"):
        cli.cmd_bench_memory({}, [2], ["standard", "bogus"])
    assert calls == []


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
