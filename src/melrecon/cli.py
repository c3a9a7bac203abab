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
from pathlib import Path

import numpy as np

from .mel import backprop_mel, backprop_standard, engine_report
from .mri import DatasetConfig, build_dataset, load_dataset, make_poisson_disk_mask, make_sensitivities, EncodingOperator
from .tensor import Tensor, melt_read, melt_write
from .train import MetricsReport, TrainConfig, cg_sense, load_checkpoint, psnr, ssim, train_loop, zero_filled
from .unrolled import RegularizerParams, UnrolledNetParams, modl_forward, project_weights

DEFAULT_CONFIG: dict = {
    # dataset
    "image_size": 32,
    "coils": 4,
    "accel": 4.0,
    "mask": "poisson",  # poisson | kt
    "kind": "static2d",  # static2d | cine
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
    "invert_tol": 1e-10,
    "val_every": 1,
    # bench
    "bench_size": 24,
    "bench_coils": 2,
    "bench_cg_iters": 20,
    "bench_mu": 0.3,
    "bench_budget_factor": 2.0,
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
        mask_kind=cfg["mask"],
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
        print(f"{c.case_id} split={c.split} realized_R={c.mask.realized_acceleration:.3f}")
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
    with open(path, "wb") as f:
        f.write(f"P5\n{u8.shape[1]} {u8.shape[0]}\n255\n".encode())
        f.write(u8.tobytes())


def cmd_recon(cfg: dict, checkpoint: str, split: str = "val", case_id: str | None = None) -> int:
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
        return zero_filled(op, case.y)
    if method == "cg_sense":
        return cg_sense(op, case.y)
    root = Path(recon_dirs[method])
    return melt_read(root / f"{case.case_id}.melt")


def cmd_eval(cfg: dict, methods: list[str], split: str = "val") -> int:
    ds = load_dataset(cfg["data"])
    cases = ds.split(split)
    if not cases:
        raise ValueError(f"no cases in split {split!r}")
    recon_dirs = {}
    labels = []
    for m in methods:
        if "=" in m:
            label, path = m.split("=", 1)
            recon_dirs[label] = path
            labels.append(label)
        elif m in ("zero_filled", "cg_sense"):
            labels.append(m)
        else:
            raise ValueError(f"unknown method {m!r} (use zero_filled, cg_sense, or label=recon_dir)")
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
    with open(report_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["method", "case_id", "psnr_db", "ssim"])
        for rep in reports:
            for row in rep.rows():
                w.writerow(row)
            finite = [p for p in rep.psnr_db if math.isfinite(p)]
            mean_p = rep.mean_psnr
            std_p = float(np.std(finite)) if finite else 0.0
            w.writerow([rep.method, "mean", "inf" if math.isinf(mean_p) else f"{mean_p:.4f}", f"{rep.mean_ssim:.6f}"])
            w.writerow([rep.method, "std", f"{std_p:.4f}", f"{np.std(rep.ssim_val):.6f}"])
    for rep in reports:
        print(f"{rep.method}: mean pSNR {rep.mean_psnr:.3f} dB, mean SSIM {rep.mean_ssim:.4f}")
    print(f"metrics written to {report_path}")
    return 0


def bench_instance(cfg: dict):
    """Fixed random instance for the memory/time benchmark."""
    n = int(cfg["bench_size"])
    seed = int(cfg["seed"]) + 90
    rng = np.random.default_rng(seed)
    mask = make_poisson_disk_mask((n, n), 2.0, calib=(6, 6), seed=seed)
    op = EncodingOperator(mask, make_sensitivities((n, n), int(cfg["bench_coils"]), seed=seed + 1))
    reg = project_weights(
        RegularizerParams.init(channels=int(cfg["channels"]), layers=int(cfg["layers"]), seed=seed + 2, scale=3.0)
    )
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    y = Tensor(op._forward(x))
    target = Tensor(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return op, reg, y, target


def max_feasible_unrolls(points: list[tuple[int, int]], budget: float, cap: int = 64) -> int:
    """Largest N whose affine-fit peak stays within the byte budget."""
    ns = np.array([p[0] for p in points], dtype=float)
    bs = np.array([p[1] for p in points], dtype=float)
    if len(points) >= 2 and np.ptp(ns) > 0:
        slope, intercept = np.polyfit(ns, bs, 1)
    else:
        slope, intercept = 0.0, float(bs.max())
    if slope <= max(1e-9, 0.02 * bs.max() / max(ns.max(), 1)):
        # flat within measurement noise: depth-independent
        return cap if bs.max() <= budget else 0
    n = int(math.floor((budget - intercept) / slope))
    return max(0, min(cap, n))


def cmd_bench_memory(cfg: dict, unroll_list: list[int], engines: list[str]) -> int:
    if not unroll_list:
        raise ValueError("unroll list must be non-empty")
    op, reg, y, target = bench_instance(cfg)
    mu = float(cfg["bench_mu"])
    n_cg = int(cfg["bench_cg_iters"])
    invert_tol = float(cfg["invert_tol"])

    # warm-up so wall times exclude one-time allocation effects
    warm = UnrolledNetParams(reg, mu, min(unroll_list), n_cg)
    backprop_standard(warm, op, y, target)

    results = []
    points: dict[str, list[tuple[int, int]]] = {e: [] for e in engines}
    for n in unroll_list:
        net = UnrolledNetParams(reg, mu, n, n_cg)
        for engine in engines:
            if engine == "standard":
                r = backprop_standard(net, op, y, target)
            elif engine == "mel":
                r = backprop_mel(net, op, y, target, invert_tol=invert_tol)
            else:
                raise ValueError(f"unknown engine {engine!r}")
            results.append(r)
            points[engine].append((n, r.peak_tape_bytes))

    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    csv_text = engine_report(results)
    (out / "bench_memory.csv").write_text(csv_text)
    print(csv_text, end="")

    if "standard" in engines and len(points["standard"]) >= 1:
        n_min = min(n for n, _ in points["standard"])
        base = dict(points["standard"])[n_min]
        budget = float(cfg["bench_budget_factor"]) * base
        print(f"budget = {cfg['bench_budget_factor']} x standard N={n_min} peak = {budget:.0f} bytes")
        for engine in engines:
            feas = max_feasible_unrolls(points[engine], budget)
            print(f"max feasible unrolls within budget [{engine}]: {feas}")
    if "standard" in engines and "mel" in engines:
        std = {n: b for n, b in points["standard"]}
        mel_b = {n: b for n, b in points["mel"]}
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
