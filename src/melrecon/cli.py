"""Command-line surface: dataset generation, training, reconstruction,
evaluation, and the memory/time benchmark.

One flat JSON config file drives every command; individual keys can be
overridden with flags (flags win, and each override is logged to stderr).
Relative paths in the config resolve against the config file's directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np

from .mri import DatasetConfig, build_dataset, load_dataset, realized_acceleration
from .tensor import atomic_write, melt_read, melt_write
from .train import MetricsReport, TrainConfig, _grad_eval, cg_sense, load_checkpoint, psnr, ssim, train_loop
from .unrolled import DEFAULT_INVERT_TOL, RegularizerParams, UnrolledNetParams, modl_forward, project_weights

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
    "contraction": 0.9,
    "channels": 16,
    "layers": 5,
    "engine": "standard",
    "invert_tol": DEFAULT_INVERT_TOL,
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
        unknown = set(loaded) - set(DEFAULT_CONFIG)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
        base = p.parent.resolve()
    for k, v in overrides.items():
        if v is None:
            continue
        if cfg.get(k) != v:
            print(f"config override: {k}={v}", file=sys.stderr)
        cfg[k] = v
    for k in ("out", "data"):
        q = Path(cfg[k])
        cfg[k] = str(q if q.is_absolute() else base / q)
    return cfg


def _mark_invalid(out_dir: Path):
    try:
        if out_dir.is_dir():
            (out_dir / "INVALID").write_text("command failed; outputs may be partial\n")
    except OSError:
        pass


def _dataset_config(cfg: dict) -> DatasetConfig:
    n = int(cfg["image_size"])
    return DatasetConfig(
        shape=(n, n),
        coils=int(cfg["coils"]),
        accel=float(cfg["accel"]),
        kind=cfg["kind"],
        frames=int(cfg["frames"]),
        calib=(int(cfg["calib"]), int(cfg["calib"])),
        noise_sigma=float(cfg["noise_sigma"]),
        n_train=int(cfg["cases_train"]),
        n_val=int(cfg["cases_val"]),
        n_test=int(cfg["cases_test"]),
        seed=int(cfg["seed"]),
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
    tc = TrainConfig(
        dataset_dir=cfg["data"],
        out_dir=cfg["out"],
        epochs=int(cfg["epochs"]),
        batch_size=int(cfg["batch_size"]),
        seed=int(cfg["seed"]),
        lr=float(cfg["lr"]),
        n_unrolls=int(cfg["unrolls"]),
        n_cg=int(cfg["cg_iters"]),
        mu=float(cfg["mu"]),
        contraction=float(cfg["contraction"]),
        channels=int(cfg["channels"]),
        layers=int(cfg["layers"]),
        engine=cfg["engine"],
        invert_tol=float(cfg["invert_tol"]),
        val_every=int(cfg["val_every"]),
    )
    res = train_loop(tc)
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
    reports = []
    for label in labels:
        ps, ss = [], []
        for c in cases:
            rec = _recon_for_method(label, c, recon_dirs)
            if rec.shape != c.x.shape:
                raise ValueError(f"{label}/{c.case_id}: recon shape {rec.shape} != truth {c.x.shape}")
            ps.append(psnr(rec, c.x))
            ss.append(ssim(rec, c.x))
        reports.append(MetricsReport(label, [c.case_id for c in cases], ps, ss))
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
        RegularizerParams.init(channels=int(cfg["channels"]), layers=int(cfg["layers"]),
                               spatial_rank=len(case.x.shape), contraction=float(cfg["contraction"]),
                               seed=int(cfg["seed"]), scale=3.0)
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


def cmd_bench_memory(cfg: dict, unroll_list: list[int], engines: list[str]) -> int:
    if not unroll_list or not engines:
        raise ValueError("unroll and engine lists must be non-empty")
    for engine in engines:
        if engine not in ("standard", "mel"):
            raise ValueError(f"unknown engine {engine!r}")
    op, reg, y, target = bench_instance(cfg)
    mu = float(cfg["mu"])
    n_cg = int(cfg["cg_iters"])
    invert_tol = float(cfg["invert_tol"])

    # warm-up so wall times exclude one-time allocation effects
    warm = UnrolledNetParams(reg, mu, min(unroll_list), n_cg)
    _grad_eval("standard", warm, op, y, target, invert_tol)

    shape = "x".join(str(s) for s in op.image_shape)
    rows = [["engine", "n_unrolls", "shape", "peak_bytes", "heap_peak_bytes", "wall_time_s", "loss"]]
    points: dict[str, list[tuple[int, int]]] = {e: [] for e in engines}
    for n in unroll_list:
        net = UnrolledNetParams(reg, mu, n, n_cg)
        for engine in engines:
            r = _grad_eval(engine, net, op, y, target, invert_tol)
            # the heap peak comes from a second call: tracing slows one 3-4x
            tracemalloc.start()
            try:
                _grad_eval(engine, net, op, y, target, invert_tol)
                heap = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            rows.append([engine, n, shape, r.peak_tape_bytes, heap, f"{r.wall_time:.6f}", f"{r.loss_value:.12g}"])
            points[engine].append((n, r.peak_tape_bytes))

    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    with atomic_write(out / "bench_memory.csv") as tmp, open(tmp, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)
    csv.writer(sys.stdout, lineterminator="\n").writerows(rows)

    if "standard" in engines:
        n_min = min(unroll_list)
        budget = 2.0 * dict(points["standard"])[n_min]
        print(f"budget = 2 x standard N={n_min} peak = {budget:.0f} bytes")
        if len(set(unroll_list)) < 2:
            print("feasibility frontier: needs two unroll counts")
        else:
            for engine in engines:
                feas = max_feasible_unrolls(points[engine], budget)
                print(f"max feasible unrolls within budget [{engine}]: {feas}")
    if "standard" in engines and "mel" in engines:
        std, mel_b = dict(points["standard"]), dict(points["mel"])
        n_lo, n_hi = min(std), max(std)
        if n_hi > n_lo:
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
    p_bench.add_argument("--engines", default="standard,mel")
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
            engines = [s for s in str(args.engines).split(",") if s]
            return cmd_bench_memory(cfg, unrolls, engines)
        raise ValueError(f"unknown command {args.command!r}")
    except Exception as e:  # contract violations exit nonzero, outputs marked
        _mark_invalid(Path(cfg["out"]))
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
