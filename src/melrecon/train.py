"""Training loop, metrics and baselines.

Adam with bias correction followed by the contraction projection (the loss is
the per-pixel :func:`~melrecon.mel.l1_loss`), pSNR/SSIM on magnitude images, the
l2-regularized CG-SENSE baseline, and directory-based checkpoints
(manifest + MELT tensors). The zero-filled baseline is ``op.adjoint(y)``.

Parallel batches: :func:`train_steps` evaluates a batch of B cases in
P = min(B, usable CPUs) processes; the usable CPUs are
``os.sched_getaffinity(0)``, or ``os.cpu_count()`` where that is missing
(macOS, Windows). Process p takes cases [B*p//P, B*(p+1)//P), and process 0
is the caller, so every span and heap measurement of its share stays in the
calling process. The P - 1 workers are persistent ``sys.executable``
processes, started on first need and reused; they exit at interpreter exit
or when the caller dies. They reply with ``GradientResult``s, which the
caller sums after its own in worker order, that is case order, so a step is
bit-identical to the one-process path that ``taskset -c 0`` (one usable CPU)
or a batch of one case gives. Each process holds at most one gradient
evaluation at a time: the per-process peak stays flat in the unroll count
N, while total resident memory grows with the worker count.
"""

from __future__ import annotations

import atexit
import csv
import json
import math
import os
import pickle
import shutil
import signal
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .autodiff import CONTRACTION
from .mel import backprop_mel, backprop_standard
from .mri import EncodingOperator, load_dataset
from .tensor import Tensor, atomic_write, melt_read, melt_write
from .unrolled import (
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

    ws = [Tensor(updated[f"w{i}"]) for i in range(net.reg.layers)]
    bs = [Tensor(updated[f"b{i}"]) for i in range(net.reg.layers)]
    return new, replace(net, reg=project_weights(RegularizerParams(ws, bs)))


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

    @classmethod
    def from_cases(cls, method: str, cases, reconstruct) -> "MetricsReport":
        """pSNR and SSIM of ``reconstruct(case)`` against each case's truth;
        a reconstruction of another shape raises ``ValueError`` naming the
        method and the case."""
        ps, ss = [], []
        for c in cases:
            rec = reconstruct(c)
            if rec.shape != c.x.shape:
                raise ValueError(f"{method}/{c.case_id}: recon shape {rec.shape} != truth {c.x.shape}")
            ps.append(psnr(rec, c.x))
            ss.append(ssim(rec, c.x))
        return cls(method, [c.case_id for c in cases], ps, ss)

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
    if not 0 <= lam < math.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
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
    """Load a checkpoint: the manifest's layer count of w{i}/b{i} tensors,
    which ``RegularizerParams`` checks, with as many channels as the
    manifest says (ValueError if not)."""
    root = Path(path)
    meta = json.loads((root / "manifest.json").read_text())
    if meta.get("format") != "melrecon-checkpoint":
        raise ValueError(f"{path}: not a checkpoint directory")
    # manifests written before the CG exit and the residual gain became
    # constants store the values the CLI always wrote
    for key, value in (("cg_exit", 1e-12), ("contraction", CONTRACTION)):
        if meta.get(key, value) != value:
            raise ValueError(f"{path}: {key} {meta[key]} is not supported (only {value})")
    layers = range(meta["layers"])
    ws = [melt_read(root / f"w{i}.melt") for i in layers]
    bs = [melt_read(root / f"b{i}.melt") for i in layers]
    try:
        reg = RegularizerParams(ws, bs)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    if reg.channels != meta["channels"]:
        raise ValueError(f"{path}: manifest expects {meta['channels']} channels, tensors have {reg.channels}")
    return UnrolledNetParams(reg, meta["mu"], meta["n_unrolls"], meta["n_cg"]), meta


# --- training loop -----------------------------------------------------------------


_ENGINES = ("standard", "mel")


@dataclass
class TrainConfig:
    """One training run. Each field holds the CLI config key of its name."""

    data: str  # dataset directory
    out: str  # output directory
    epochs: int
    batch_size: int
    seed: int
    lr: float
    unrolls: int
    cg_iters: int
    mu: float
    channels: int
    layers: int
    engine: str  # standard | mel
    val_every: int

    def __post_init__(self):
        if self.engine not in _ENGINES:
            raise ValueError(f"engine must be standard|mel, got {self.engine!r}")
        for k in ("epochs", "batch_size", "lr", "unrolls", "cg_iters", "mu", "channels", "layers", "val_every"):
            if not 0 < getattr(self, k) < math.inf:  # NaN fails every comparison
                raise ValueError(f"{k} must be positive and finite, got {getattr(self, k)!r}")


def _run_share(engine: str, net, cases, take) -> Exception | None:
    """Evaluate ``cases`` in order, handing each case's ``GradientResult`` to
    ``take``; return the exception that stopped the share, if any."""
    # the engines are looked up at call time, so a patched ``train.backprop_*`` takes effect
    backprop = backprop_standard if engine == "standard" else backprop_mel
    try:
        for op, y, target in cases:
            take(backprop(net, op, y, target))
    except Exception as e:
        return e
    return None


class _Worker:
    """A persistent process that evaluates its share of a batch's cases.

    Pickled (engine, net, cases) requests go down its stdin, and pickled
    (results, error) replies come back on its stdout: the ``GradientResult``
    of each case done, in case order, and the exception that stopped the
    share, if any.
    The worker points its stdout at stderr before it serves, so the replies
    run on a pipe that nothing the library prints can reach. It exits when
    its stdin closes: at the caller's exit, or when the caller dies and the
    kernel closes the pipe."""

    def __init__(self):
        env = dict(os.environ)
        root = str(Path(__file__).resolve().parent.parent)  # imports this melrecon, not another install
        env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
        self.proc = subprocess.Popen([sys.executable, "-c", "from melrecon.train import _serve; _serve()"],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)

    def send(self, request) -> None:
        try:
            pickle.dump(request, self.proc.stdin, pickle.HIGHEST_PROTOCOL)
            self.proc.stdin.flush()
        except OSError:
            raise self._died() from None

    def receive(self):
        try:
            return pickle.load(self.proc.stdout)
        except (EOFError, pickle.UnpicklingError):  # the reply ended early: the worker is gone
            raise self._died() from None

    def _died(self) -> RuntimeError:
        # a worker's pipes close only when it exits, so this wait ends
        return RuntimeError(f"gradient worker process {self.proc.pid} exited with code {self.proc.wait()}")

    def close(self, kill: bool = False) -> None:
        if kill:
            self.proc.kill()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:  # flushing into a dead worker's stdin
                pass
        self.proc.wait()


_POOL: list[_Worker] = []  # persistent across steps: a worker's start costs more than a step


def _workers(n: int) -> list[_Worker]:
    while len(_POOL) < n:
        _POOL.append(_Worker())
    return _POOL[:n]


def _close_pool(kill: bool = False) -> None:
    while _POOL:
        _POOL.pop().close(kill)


atexit.register(_close_pool)


def _serve() -> None:
    """A worker's main loop: answer requests from stdin until it closes."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the caller's to handle
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    requests = sys.stdin.buffer
    while True:
        try:
            engine, net, cases = pickle.load(requests)
        except EOFError:
            return
        results = []
        error = _run_share(engine, net, cases, results.append)
        if error is not None:
            # the traceback does not pickle; a note (shown by Python 3.11+) carries it
            error.__notes__ = [*getattr(error, "__notes__", ()), f"raised in gradient worker process "
                               f"{os.getpid()}:\n" + "".join(traceback.format_tb(error.__traceback__))]
            try:
                pickle.loads(pickle.dumps(error))
            except Exception:  # an exception that does not survive pickling goes as text
                error = RuntimeError("".join(traceback.format_exception(error)))
        pickle.dump((results, error), replies, pickle.HIGHEST_PROTOCOL)
        replies.flush()


def train_steps(net: UnrolledNetParams, adam: AdamState, batch, engine: str):
    """One optimizer step on a batch of (op, y, target) triples; gradients
    are averaged over the batch. Returns (net', adam', mean loss, peak bytes).

    The cases are split over the caller and persistent worker processes as
    the module docstring's "Parallel batches" describes; the result does not
    depend on the split. The first failing case's exception is raised, as in
    one process; a worker that dies raises ``RuntimeError`` with its exit
    code, and the next step starts a fresh one."""
    if engine not in _ENGINES:
        raise ValueError(f"engine must be standard|mel, got {engine!r}")
    if not batch:
        raise ValueError("batch is empty")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    procs = min(len(batch), cpus)
    bounds = [len(batch) * p // procs for p in range(procs + 1)]  # process p takes batch[bounds[p]:bounds[p + 1]]
    losses, peak, total = [], 0, {}

    def take(r) -> None:
        nonlocal peak
        losses.append(r.loss_value)
        peak = max(peak, r.peak_tape_bytes)
        for k, g in r.grads.items():
            total[k] = total[k] + g.data if k in total else g.data

    workers = _workers(procs - 1)
    try:
        for w, start, end in zip(workers, bounds[1:], bounds[2:]):
            w.send((engine, net, batch[start:end]))
        error = _run_share(engine, net, batch[:bounds[1]], take)
        for w in workers:  # worker order is case order; every reply is read, so the pipes stay in step
            results, worker_error = w.receive()
            if error is None:
                for r in results:
                    take(r)
                error = worker_error
    except BaseException:
        _close_pool(kill=True)  # a request or reply may be half sent
        raise
    if error is not None:
        raise error
    grads = {k: Tensor(v / len(batch)) for k, v in total.items()}
    adam, net = adam_step(adam, net, grads)
    return net, adam, float(np.mean(losses)), peak


@dataclass
class TrainResult:
    checkpoint_dir: Path
    log_path: Path
    log_rows: list[list]
    best_val_psnr: float


def train_loop(cfg: TrainConfig) -> TrainResult:
    """Deterministic training run: fixed shuffling stream from the seed,
    best-validation checkpoint retention, CSV log. The gradient engine is
    selectable with no other code-path change. Raises ``ValueError`` after
    writing the log when no validation gave a pSNR above -inf."""
    ds = load_dataset(cfg.data)
    train_cases = ds.split("train")
    val_cases = ds.split("val")
    if not train_cases or not val_cases:
        raise ValueError("dataset needs non-empty train and val splits")
    spatial_rank = len(train_cases[0].x.shape)

    reg = project_weights(
        RegularizerParams.init(
            channels=cfg.channels, layers=cfg.layers, spatial_rank=spatial_rank, seed=cfg.seed,
        )
    )
    net = UnrolledNetParams(reg, cfg.mu, cfg.unrolls, cfg.cg_iters)
    adam = AdamState.init(net, lr=cfg.lr)
    rng = np.random.default_rng(cfg.seed)

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    ckpt_dir = out / "checkpoint_best"
    rows: list[list] = []
    best = -math.inf
    step = 0
    prepared = [(c.operator(), c.y, c.x) for c in train_cases]

    for epoch in range(1, cfg.epochs + 1):
        t_epoch = time.perf_counter()
        order = rng.permutation(len(train_cases))
        losses = []
        peak = 0
        for start in range(0, len(order), cfg.batch_size):
            batch = [prepared[i] for i in order[start : start + cfg.batch_size]]
            net, adam, loss, pk = train_steps(net, adam, batch, cfg.engine)
            losses.append(loss)
            peak = max(peak, pk)
            step += 1
        val_p = val_s = None  # no validation this epoch: blank log cells
        if epoch % cfg.val_every == 0 or epoch == cfg.epochs:
            rep = MetricsReport.from_cases("modl", val_cases, lambda c: modl_forward(net, c.operator(), c.y))
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
    return TrainResult(ckpt_dir, log_path, rows, best)
