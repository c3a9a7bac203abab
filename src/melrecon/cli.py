"""Command-line surface: dataset generation, training, reconstruction,
evaluation, and the memory/time benchmark.

One flat JSON config file drives every command; individual keys can be
overridden with flags (flags win, and each override is logged to stderr).
Every value takes its ``DEFAULT_CONFIG`` default's type; a float key also
takes an integer, stored as a float, and no NaN or infinity. Relative paths
in the config resolve against the config file's directory, and relative
``--out``/``--data`` flags against the working directory.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .mri import DatasetConfig, build_dataset, load_dataset, realized_acceleration
from .tensor import atomic_write, melt_read, melt_write
from .mel import backprop_mel, backprop_standard
from .train import MetricsReport, TrainConfig, cg_sense, load_checkpoint, train_loop
from .unrolled import RegularizerParams, UnrolledNetParams, modl_forward, project_weights

DEFAULT_CONFIG: dict = {
    # dataset
    "image_size": 32,
    "coils": 4,
    "accel": 4.0,
    "kind": "static2d",  # static2d (Poisson-disk mask) | cine (k-t mask)
    "frames": 1,
    "calib": 6,
    "noise_sigma": 1e-3,
    "cases_train": 16,
    "cases_val": 2,
    "cases_test": 2,
    # model / training
    "epochs": 30,
    "batch_size": 2,
    "lr": 1e-3,
    "unrolls": 5,
    "cg_iters": 10,
    "mu": 0.3,
    "channels": 16,
    "layers": 5,
    "engine": "standard",
    "val_every": 1,
    # io
    "seed": 0,
    "out": "runs/out",
    "data": "runs/data",
}


def load_config(path: str | None, overrides: dict) -> dict:
    cfg = dict(DEFAULT_CONFIG)
    base = Path.cwd()
    if path is not None:
        p = Path(path)
        loaded = json.loads(p.read_text())
        if not isinstance(loaded, dict):
            raise ValueError(f"{path}: a config must be a JSON object, got {type(loaded).__name__}")
        unknown = set(loaded) - set(DEFAULT_CONFIG)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
        base = p.parent.resolve()
    for k, v in cfg.items():  # the flags, applied below, are typed by argparse
        kind = type(DEFAULT_CONFIG[k])
        if kind is float and type(v) is int and abs(v) <= sys.float_info.max:
            v = cfg[k] = float(v)
        if type(v) is not kind:  # a bool is not an int here
            raise ValueError(f"config key {k!r} takes type {kind.__name__}, got {v!r}")
        if kind is float and not math.isfinite(v):  # JSON's NaN and Infinity parse as floats
            raise ValueError(f"config key {k!r} takes a finite number, got {v!r}")
    for k in ("out", "data"):
        cfg[k] = str(base / cfg[k])
    for k, v in overrides.items():
        if v is None:
            continue
        if k in ("out", "data"):
            v = str(Path.cwd() / v)
        if cfg.get(k) != v:
            print(f"config override: {k}={v}", file=sys.stderr)
        cfg[k] = v
    return cfg


def _mark_invalid(out_dir: Path):
    try:
        if out_dir.is_dir():
            (out_dir / "INVALID").write_text("command failed; outputs may be partial\n")
    except OSError:
        pass


def _dataset_config(cfg: dict) -> DatasetConfig:
    return DatasetConfig(
        shape=(cfg["image_size"],) * 2,
        coils=cfg["coils"],
        accel=cfg["accel"],
        kind=cfg["kind"],
        frames=cfg["frames"],
        calib=(cfg["calib"],) * 2,
        noise_sigma=cfg["noise_sigma"],
        n_train=cfg["cases_train"],
        n_val=cfg["cases_val"],
        n_test=cfg["cases_test"],
        seed=cfg["seed"],
    )


def cmd_gen_data(cfg: dict) -> int:
    from .mri import save_dataset

    ds = build_dataset(_dataset_config(cfg))
    out = save_dataset(ds, cfg["data"])
    for c in ds.cases:
        print(f"{c.case_id} split={c.split} realized_R={realized_acceleration(c.mask):.3f}")
    print(f"dataset written to {out}")
    return 0


def cmd_train(cfg: dict) -> int:
    res = train_loop(TrainConfig(**{f.name: cfg[f.name] for f in fields(TrainConfig)}))
    print(f"best val pSNR {res.best_val_psnr:.3f} dB; checkpoint at {res.checkpoint_dir}")
    print(f"log at {res.log_path}")
    return 0


def write_pgm(path, mag: np.ndarray) -> None:
    """8-bit binary PGM of a min-max normalized magnitude image."""
    lo, hi = float(mag.min()), float(mag.max())
    scaled = np.zeros_like(mag) if hi == lo else (mag - lo) / (hi - lo)
    u8 = (scaled * 255).round().astype(np.uint8)
    with atomic_write(path) as tmp, open(tmp, "wb") as f:
        f.write(f"P5\n{u8.shape[1]} {u8.shape[0]}\n255\n".encode())
        f.write(u8.tobytes())


def cmd_recon(cfg: dict, checkpoint: str, split: str, case_id: str | None) -> int:
    net, meta = load_checkpoint(checkpoint)
    ds = load_dataset(cfg["data"])
    cases = ds.split(split)
    if case_id is not None:
        cases = [c for c in ds.cases if c.case_id == case_id]
        if not cases:
            raise ValueError(f"case {case_id!r} not found in dataset")
    if not cases:
        raise ValueError(f"no cases in split {split!r}")
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    conv_rank = len(net.reg.weights[0].shape) - 2
    for c in cases:
        if len(c.x.shape) != conv_rank:
            raise ValueError(
                f"{c.case_id}: checkpoint expects rank-{conv_rank} images, dataset has rank {len(c.x.shape)}"
            )
        op = c.operator()
        rec = modl_forward(net, op, c.y)
        melt_write(out / f"{c.case_id}.melt", rec)
        mag = np.abs(rec.data)
        write_pgm(out / f"{c.case_id}.pgm", mag if mag.ndim == 2 else mag[mag.shape[0] // 2])
        print(f"{c.case_id}: reconstructed")
    print(f"reconstructions written to {out}")
    return 0


def _recon_for_method(method: str, case, recon_dirs: dict):
    op = case.operator()
    if method == "zero_filled":
        return op.adjoint(case.y)
    if method == "cg_sense":
        return cg_sense(op, case.y)
    root = Path(recon_dirs[method])
    return melt_read(root / f"{case.case_id}.melt")


def cmd_eval(cfg: dict, methods: list[str], split: str) -> int:
    recon_dirs = {}
    labels = []
    for m in methods:
        label, is_dir, path = m.partition("=")
        if is_dir:
            if not label or not path:
                raise ValueError(f"method {m!r}: label=recon_dir needs a non-empty label and directory")
            if label in ("zero_filled", "cg_sense"):
                raise ValueError(f"method {m!r}: label {label!r} names a built-in baseline")
            recon_dirs[label] = path
        elif m not in ("zero_filled", "cg_sense"):
            raise ValueError(f"unknown method {m!r} (use zero_filled, cg_sense, or label=recon_dir)")
        if label in labels:
            raise ValueError(f"method label {label!r} given twice")
        labels.append(label)
    ds = load_dataset(cfg["data"])
    cases = ds.split(split)
    if not cases:
        raise ValueError(f"no cases in split {split!r}")
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / f"metrics_{split}.csv"
    reports = [MetricsReport.from_cases(label, cases, lambda c: _recon_for_method(label, c, recon_dirs))
               for label in labels]
    with atomic_write(report_path) as tmp, open(tmp, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["method", "case_id", "psnr_db", "ssim"])
        for rep in reports:
            for row in rep.rows():
                w.writerow(row)
            std_p = float(np.std(rep.scored_psnr)) if rep.scored_psnr else 0.0
            w.writerow([rep.method, "mean", f"{rep.mean_psnr:.4f}", f"{rep.mean_ssim:.6f}"])
            w.writerow([rep.method, "std", f"{std_p:.4f}", f"{np.std(rep.ssim_val):.6f}"])
    for rep in reports:
        print(f"{rep.method}: mean pSNR {rep.mean_psnr:.3f} dB, mean SSIM {rep.mean_ssim:.4f}")
    print(f"metrics written to {report_path}")
    return 0


def bench_instance(cfg: dict):
    """The memory/time benchmark's instance: case 0 of the configured
    dataset, bit-identical to ``gen-data``'s case0000, with ``train``'s
    initial weights drawn at 10x their scale and projected, so the branch
    starts at its contraction bound, mel's hardest inversion. Returns
    (op, reg, y, target)."""
    case = build_dataset(replace(_dataset_config(cfg), n_train=1, n_val=1, n_test=1)).cases[0]
    reg = project_weights(
        RegularizerParams.init(channels=cfg["channels"], layers=cfg["layers"],
                               spatial_rank=len(case.x.shape), seed=cfg["seed"], scale=3.0)
    )
    return case.operator(), reg, case.y, case.x


def max_feasible_unrolls(points: list[tuple[int, int]], budget: float) -> int:
    """Largest N <= 64 whose peak stays within the byte budget, on the line
    through the smallest-N and largest-N (N, peak bytes) points. The tape
    ledger is exactly affine in N, so two points fix it; fewer than two
    distinct N raise ValueError."""
    (n_lo, b_lo), (n_hi, b_hi) = min(points), max(points)
    if n_hi == n_lo:
        raise ValueError("the feasibility frontier needs two distinct unroll counts")
    slope = (b_hi - b_lo) / (n_hi - n_lo)
    if slope <= 0:  # depth-independent
        return 64 if b_hi <= budget else 0
    n = math.floor((budget - b_lo) / slope) + n_lo
    return max(0, min(64, n))


def cmd_bench_memory(cfg: dict, unroll_list: list[int]) -> int:
    if not unroll_list:
        raise ValueError("the unroll list must be non-empty")
    op, reg, y, target = bench_instance(cfg)
    mu, n_cg = cfg["mu"], cfg["cg_iters"]
    engines = {"standard": backprop_standard, "mel": backprop_mel}

    # warm-up so wall times exclude one-time allocation effects
    backprop_standard(UnrolledNetParams(reg, mu, min(unroll_list), n_cg), op, y, target)

    shape = "x".join(str(s) for s in op.image_shape)
    rows = ["engine,n_unrolls,shape,peak_bytes,heap_peak_bytes,wall_time_s,loss,x0_drift,grad_gap".split(",")]
    points: dict[str, list[tuple[int, int]]] = {e: [] for e in engines}
    for n in unroll_list:
        net = UnrolledNetParams(reg, mu, n, n_cg)
        for engine, backprop in engines.items():
            r = backprop(net, op, y, target)
            if engine == "standard":  # it inverts nothing, and is the gap's reference
                std, drift, gap = r.grads, "", ""
            else:
                gap = max(np.abs(r.grads[k].data - g.data).max() / np.abs(g.data).max() for k, g in std.items())
                drift, gap = f"{r.x0_drift:.6g}", f"{gap:.6g}"
                del std  # before the traced call: what is still held moves the heap peak it reads
            # the heap peak comes from a second call: tracing slows one 3-4x;
            # collecting first keeps earlier calls' garbage out of it
            gc.collect()
            tracemalloc.start()
            try:
                backprop(net, op, y, target)
                heap = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            rows.append([engine, n, shape, r.peak_tape_bytes, heap, f"{r.wall_time:.6f}", f"{r.loss_value:.12g}",
                         drift, gap])
            points[engine].append((n, r.peak_tape_bytes))

    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    with atomic_write(out / "bench_memory.csv") as tmp, open(tmp, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)
    csv.writer(sys.stdout, lineterminator="\n").writerows(rows)

    n_lo, n_hi = min(unroll_list), max(unroll_list)
    budget = 2.0 * dict(points["standard"])[n_lo]
    print(f"budget = 2 x standard N={n_lo} peak = {budget:.0f} bytes")
    if n_hi == n_lo:
        print("feasibility frontier: needs two unroll counts")
        return 0
    for engine in engines:
        print(f"max feasible unrolls within budget [{engine}]: {max_feasible_unrolls(points[engine], budget)}")
    std, mel_b = dict(points["standard"]), dict(points["mel"])
    std_growth = std[n_hi] / std[n_lo]
    mel_growth = mel_b[n_hi] / mel_b[n_lo]
    print(f"standard peak growth N={n_lo}->N={n_hi}: x{std_growth:.2f}")
    print(f"mel peak growth N={n_lo}->N={n_hi}: x{mel_growth:.2f}")
    if mel_growth > 1.1:
        raise ValueError(f"mel peak bytes grew x{mel_growth:.2f} with depth; expected flat (<= 1.1x)")
    if std_growth <= 1.0:
        raise ValueError(f"standard peak bytes did not grow with depth (x{std_growth:.2f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="melrecon", description=__doc__)
    ap.add_argument("--config", help="JSON config file")
    ap.add_argument("--seed", type=int, help="override config seed")
    ap.add_argument("--out", help="override output directory")
    ap.add_argument("--data", help="override dataset directory")
    ap.add_argument("--engine", choices=["standard", "mel"], help="override gradient engine")
    ap.add_argument("--unrolls", type=int, help="override unroll count")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("gen-data", help="build and persist a synthetic dataset")
    sub.add_parser("train", help="train an unrolled reconstruction network")

    p_recon = sub.add_parser("recon", help="reconstruct a dataset split (or one case) with a checkpoint")
    p_recon.add_argument("checkpoint")
    p_recon.add_argument("--split", default="val")
    p_recon.add_argument("--case", default=None, help="reconstruct a single case id")

    p_eval = sub.add_parser("eval", help="evaluate reconstruction methods against ground truth")
    p_eval.add_argument("--method", action="append", required=True,
                        help="zero_filled | cg_sense | label=recon_dir (repeatable)")
    p_eval.add_argument("--split", default="val")

    p_bench = sub.add_parser("bench-memory", help="peak-bytes and wall-time comparison of the engines")
    p_bench.add_argument("--unroll-list", default="2,4,8,10")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        "seed": args.seed,
        "out": args.out,
        "data": args.data,
        "engine": args.engine,
        "unrolls": args.unrolls,
    }
    try:
        cfg = load_config(args.config, overrides)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        (Path(cfg["out"]) / "INVALID").unlink(missing_ok=True)
        if args.command == "gen-data":
            return cmd_gen_data(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "recon":
            return cmd_recon(cfg, args.checkpoint, args.split, args.case)
        if args.command == "eval":
            return cmd_eval(cfg, args.method, args.split)
        if args.command == "bench-memory":
            unrolls = [int(s) for s in str(args.unroll_list).split(",") if s]
            return cmd_bench_memory(cfg, unrolls)
        raise ValueError(f"unknown command {args.command!r}")
    except Exception as e:  # contract violations exit nonzero, outputs marked
        _mark_invalid(Path(cfg["out"]))
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
