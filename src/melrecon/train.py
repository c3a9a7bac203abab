"""Training loop, metrics and baselines.

Adam with bias correction followed by the contraction projection (the loss is
the per-pixel :func:`~melrecon.mel.l1_loss`), pSNR/SSIM on magnitude images, the
l2-regularized CG-SENSE baseline, and directory-based checkpoints
(manifest + MELT tensors). The zero-filled baseline is ``op.adjoint(y)``.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .mel import backprop_mel, backprop_standard
from .mri import EncodingOperator, load_dataset
from .tensor import Tensor, atomic_write, melt_read, melt_write
from .unrolled import (
    DEFAULT_INVERT_TOL,
    RegularizerParams,
    UnrolledNetParams,
    cg_solve_normal,
    modl_forward,
    project_weights,
)

__all__ = [
    "AdamState",
    "TrainConfig",
    "MetricsReport",
    "adam_step",
    "psnr",
    "ssim",
    "cg_sense",
    "train_loop",
    "train_steps",
    "save_checkpoint",
    "load_checkpoint",
]

LOG_CSV_HEADER = ["epoch", "step", "engine", "train_loss", "val_psnr", "val_ssim", "peak_bytes", "epoch_seconds"]


# --- optimizer -----------------------------------------------------------------

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's usual moment decays and epsilon


@dataclass
class AdamState:
    lr: float
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def init(cls, params: UnrolledNetParams, lr: float = 1e-3) -> "AdamState":
        st = cls(lr=lr)
        for name, tns in params.named_leaves():
            st.m[name] = np.zeros(tns.shape)
            st.v[name] = np.zeros(tns.shape)
        return st


def adam_step(state: AdamState, net: UnrolledNetParams, grads: dict[str, Tensor]):
    """Bias-corrected Adam update followed by the contraction projection.

    Functional: returns (state', net') with fresh tensors.
    """
    t = state.t + 1
    new = AdamState(state.lr, t, {}, {})
    updated: dict[str, np.ndarray] = {}
    for name, tns in net.named_leaves():
        g = grads[name].data
        if g.shape != tns.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape {tns.shape} for {name}")
        m = _BETA1 * state.m[name] + (1 - _BETA1) * g
        v = _BETA2 * state.v[name] + (1 - _BETA2) * g * g
        mhat = m / (1 - _BETA1**t)
        vhat = v / (1 - _BETA2**t)
        new.m[name], new.v[name] = m, v
        updated[name] = tns.data - state.lr * mhat / (np.sqrt(vhat) + _EPS)

    reg = net.reg
    ws = [Tensor(updated[f"w{i}"]) for i in range(reg.layers)]
    bs = [Tensor(updated[f"b{i}"]) for i in range(reg.layers)]
    reg2 = project_weights(RegularizerParams(ws, bs, reg.contraction))
    return new, replace(net, reg=reg2)


# --- metrics --------------------------------------------------------------------


def psnr(x: Tensor, ref: Tensor) -> float:
    """20*log10(max|ref| / rmse(|x|, |ref|)) on magnitude images; +inf when
    the magnitudes agree exactly."""
    if x.shape != ref.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {ref.shape}")
    mref = np.abs(ref.data)
    peak = mref.max()
    if peak == 0:
        raise ValueError("reference image is identically zero")
    rmse = np.sqrt(np.mean((np.abs(x.data) - mref) ** 2))
    if rmse == 0:
        return math.inf
    return float(20 * np.log10(peak / rmse))


_SSIM_WIN, _SSIM_K1, _SSIM_K2 = 7, 0.01, 0.03  # window and constants of Wang et al. 2004


def _ssim_2d(x: np.ndarray, ref: np.ndarray, drange: float) -> float:
    from scipy.ndimage import uniform_filter  # a large import only SSIM needs: not at module level
    c1, c2 = (_SSIM_K1 * drange) ** 2, (_SSIM_K2 * drange) ** 2
    mx = uniform_filter(x, _SSIM_WIN)
    mr = uniform_filter(ref, _SSIM_WIN)
    # sample (unbiased) second moments over each window
    np_pix = _SSIM_WIN * _SSIM_WIN
    cov_norm = np_pix / (np_pix - 1)
    vx = (uniform_filter(x * x, _SSIM_WIN) - mx * mx) * cov_norm
    vr = (uniform_filter(ref * ref, _SSIM_WIN) - mr * mr) * cov_norm
    cxr = (uniform_filter(x * ref, _SSIM_WIN) - mx * mr) * cov_norm
    num = (2 * mx * mr + c1) * (2 * cxr + c2)
    den = (mx * mx + mr * mr + c1) * (vx + vr + c2)
    s = num / den
    pad = _SSIM_WIN // 2
    return float(s[pad:-pad, pad:-pad].mean())


def ssim(x: Tensor, ref: Tensor) -> float:
    """Mean local SSIM on magnitude images (uniform 7x7 window, dynamic range
    max|ref|); frames of a cine image are averaged."""
    if x.shape != ref.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {ref.shape}")
    mx, mr = np.abs(x.data), np.abs(ref.data)
    drange = mr.max()
    if drange == 0:
        raise ValueError("reference image is identically zero")
    if mx.ndim == 2:
        return _ssim_2d(mx, mr, drange)
    return float(np.mean([_ssim_2d(mx[t], mr[t], drange) for t in range(mx.shape[0])]))


@dataclass
class MetricsReport:
    method: str
    case_ids: list[str]
    psnr_db: list[float]
    ssim_val: list[float]

    @property
    def scored_psnr(self) -> list[float]:
        """The pSNRs that are not exact matches (+inf). A NaN, from a
        diverged reconstruction, stays, so the mean and std carry it."""
        return [p for p in self.psnr_db if p != math.inf]

    @property
    def mean_psnr(self) -> float:
        scored = self.scored_psnr
        return float(np.mean(scored)) if scored else math.inf

    @property
    def mean_ssim(self) -> float:
        return float(np.mean(self.ssim_val))

    def rows(self):
        for cid, p, s in zip(self.case_ids, self.psnr_db, self.ssim_val):
            yield [self.method, cid, f"{p:.4f}", f"{s:.6f}"]


# --- baselines -------------------------------------------------------------------


def cg_sense(op: EncodingOperator, y: Tensor, lam: float = 1e-3, iters: int = 30) -> Tensor:
    """l2-regularized SENSE: CG on (A^H A + lam I) x = A^H y from zero."""
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    rhs = op.adjoint(y).data
    return Tensor(cg_solve_normal(op, rhs, np.zeros_like(rhs), lam, iters))


# --- checkpoints --------------------------------------------------------------------


def save_checkpoint(out_dir, net: UnrolledNetParams, seed: int = 0, step: int = 0, extra: dict | None = None) -> Path:
    """Write the checkpoint into a sibling temporary directory, then swap it
    in by renames, so ``out_dir`` never holds a mix of old and new weights.
    A crash between the two renames leaves the previous checkpoint complete
    under ``.<name>.old``; the next save moves it back before it starts."""
    out = Path(out_dir)
    tmp = out.with_name(f".{out.name}.tmp")
    old = out.with_name(f".{out.name}.old")
    if old.exists() and not out.exists():
        old.rename(out)
    for d in (tmp, old):
        shutil.rmtree(d, ignore_errors=True)
    tmp.mkdir(parents=True)
    reg = net.reg
    meta = {
        "format": "melrecon-checkpoint",
        "version": 1,
        "mu": net.mu,
        "n_unrolls": net.n_unrolls,
        "n_cg": net.n_cg,
        "contraction": reg.contraction,
        "channels": reg.channels,
        "layers": reg.layers,
        "seed": seed,
        "step": step,
    }
    if extra:
        meta.update(extra)
    try:
        for name, t in net.named_leaves():
            melt_write(tmp / f"{name}.melt", t)
        (tmp / "manifest.json").write_text(json.dumps(meta, indent=2))
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    if out.exists():
        out.rename(old)
    tmp.rename(out)
    shutil.rmtree(old, ignore_errors=True)
    return out


def load_checkpoint(path) -> tuple[UnrolledNetParams, dict]:
    """Load a checkpoint; every tensor must match the manifest's channels and
    layer count, and all kernels must share one shape (ValueError if not)."""
    root = Path(path)
    meta = json.loads((root / "manifest.json").read_text())
    if meta.get("format") != "melrecon-checkpoint":
        raise ValueError(f"{path}: not a checkpoint directory")
    # manifests written before the CG exit became a constant store the 1e-12
    # the CLI always wrote
    if meta.get("cg_exit", 1e-12) != 1e-12:
        raise ValueError(f"{path}: cg_exit {meta['cg_exit']} is not supported (only 1e-12)")
    layers, ch = meta["layers"], meta["channels"]
    if layers < 2:
        raise ValueError(f"{path}: manifest layers {layers} < 2")
    dims = [(ch, 2)] + [(ch, ch)] * (layers - 2) + [(2, ch)]

    ws, bs = [], []
    for i, (cout, cin) in enumerate(dims):
        w = melt_read(root / f"w{i}.melt")
        b = melt_read(root / f"b{i}.melt")
        kernel = ws[0].shape[2:] if ws else w.shape[2:]
        want_w, want_b = (cout, cin) + kernel, (cout,)
        if not kernel or np.iscomplexobj(w.data) or w.shape != want_w:
            raise ValueError(f"{path}: w{i} is {w!r}, manifest expects real {want_w}")
        if np.iscomplexobj(b.data) or b.shape != want_b:
            raise ValueError(f"{path}: b{i} is {b!r}, manifest expects real {want_b}")
        ws.append(w)
        bs.append(b)
    reg = RegularizerParams(ws, bs, meta["contraction"])
    return UnrolledNetParams(reg, meta["mu"], meta["n_unrolls"], meta["n_cg"]), meta


# --- training loop -----------------------------------------------------------------


@dataclass
class TrainConfig:
    dataset_dir: str
    out_dir: str
    epochs: int
    batch_size: int
    seed: int
    lr: float
    n_unrolls: int
    n_cg: int
    mu: float
    contraction: float
    channels: int
    layers: int
    engine: str  # standard | mel
    invert_tol: float
    val_every: int

    def __post_init__(self):
        if self.engine not in ("standard", "mel"):
            raise ValueError(f"engine must be standard|mel, got {self.engine!r}")
        for k in ("epochs", "batch_size", "lr", "n_unrolls", "n_cg", "mu", "channels", "layers",
                  "invert_tol", "val_every"):
            if getattr(self, k) <= 0:
                raise ValueError(f"{k} must be positive")


def _grad_eval(engine: str, net, op, y, target, invert_tol):
    if engine == "standard":
        return backprop_standard(net, op, y, target)
    return backprop_mel(net, op, y, target, invert_tol=invert_tol)


def train_steps(net: UnrolledNetParams, adam: AdamState, batch, engine: str,
                invert_tol: float = DEFAULT_INVERT_TOL):
    """One optimizer step on a batch of (op, y, target) triples; gradients
    are averaged over the batch. Returns (net', adam', mean loss, peak bytes)."""
    acc: dict[str, np.ndarray] = {}
    losses = []
    peak = 0
    for op, y, target in batch:
        r = _grad_eval(engine, net, op, y, target, invert_tol)
        losses.append(r.loss_value)
        peak = max(peak, r.peak_tape_bytes)
        for k, g in r.grads.items():
            acc[k] = acc[k] + g.data if k in acc else g.data.copy()
        del r  # summed: not held through the next case's gradient
    grads = {k: Tensor(v / len(batch)) for k, v in acc.items()}
    adam, net = adam_step(adam, net, grads)
    return net, adam, float(np.mean(losses)), peak


def _validate(net: UnrolledNetParams, cases) -> MetricsReport:
    ps, ss = [], []
    for c in cases:
        rec = modl_forward(net, c.operator(), c.y)
        ps.append(psnr(rec, c.x))
        ss.append(ssim(rec, c.x))
    return MetricsReport("modl", [c.case_id for c in cases], ps, ss)


@dataclass
class TrainResult:
    checkpoint_dir: Path
    log_path: Path
    log_rows: list[list]
    best_val_psnr: float
    net: UnrolledNetParams


def train_loop(cfg: TrainConfig) -> TrainResult:
    """Deterministic training run: fixed shuffling stream from the seed,
    best-validation checkpoint retention, CSV log. The gradient engine is
    selectable with no other code-path change. Raises ``ValueError`` after
    writing the log when no validation gave a pSNR above -inf."""
    ds = load_dataset(cfg.dataset_dir)
    train_cases = ds.split("train")
    val_cases = ds.split("val")
    if not train_cases or not val_cases:
        raise ValueError("dataset needs non-empty train and val splits")
    spatial_rank = len(train_cases[0].x.shape)

    reg = project_weights(
        RegularizerParams.init(
            channels=cfg.channels, layers=cfg.layers, spatial_rank=spatial_rank,
            contraction=cfg.contraction, seed=cfg.seed,
        )
    )
    net = UnrolledNetParams(reg, cfg.mu, cfg.n_unrolls, cfg.n_cg)
    adam = AdamState.init(net, lr=cfg.lr)
    rng = np.random.default_rng(cfg.seed)

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ckpt_dir = out / "checkpoint_best"
    rows: list[list] = []
    best = -math.inf
    step = 0
    prepared = {c.case_id: (c.operator(), c.y, c.x) for c in train_cases}

    for epoch in range(1, cfg.epochs + 1):
        t_epoch = time.perf_counter()
        order = rng.permutation(len(train_cases))
        losses = []
        peak = 0
        for start in range(0, len(order), cfg.batch_size):
            batch = [prepared[train_cases[i].case_id] for i in order[start : start + cfg.batch_size]]
            net, adam, loss, pk = train_steps(net, adam, batch, cfg.engine, cfg.invert_tol)
            losses.append(loss)
            peak = max(peak, pk)
            step += 1
        val_p = val_s = None  # no validation this epoch: blank log cells
        if epoch % cfg.val_every == 0 or epoch == cfg.epochs:
            rep = _validate(net, val_cases)
            val_p, val_s = rep.mean_psnr, rep.mean_ssim
            if val_p > best:
                best = val_p
                save_checkpoint(ckpt_dir, net, seed=cfg.seed, step=step, extra={"val_psnr": val_p, "val_ssim": val_s})
        rows.append(
            [epoch, step, cfg.engine, f"{np.mean(losses):.8g}",
             "" if val_p is None else f"{val_p:.4f}",
             "" if val_s is None else f"{val_s:.6f}",
             peak, f"{time.perf_counter() - t_epoch:.3f}"]
        )

    log_path = out / "train_log.csv"
    with atomic_write(log_path) as tmp, open(tmp, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(LOG_CSV_HEADER)
        w.writerows(rows)
    if best == -math.inf:
        raise ValueError(f"no validation gave a pSNR above -inf; no checkpoint written, log at {log_path}")
    return TrainResult(ckpt_dir, log_path, rows, best, net)
