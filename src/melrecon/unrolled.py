"""The unrolled network: an invertible residual CNN regularizer alternating
with a CG-based data-consistency layer, plus the two inversion routines the
memory-efficient engine needs.

The regularizer is z = x + c*G(x) with G a conv/relu chain on the 2-channel
real view of the complex image and c in (0, 1). Contraction of c*G is
enforced by post-step weight projection (power-iteration norm bound), making
the residual layer invertible by fixed-point iteration. The DC layer solves
(A^H A + mu I) x = A^H y + mu z with CG and is inverted in closed form by
one application of the normal operator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Tape, apply_op, register_op
from .mri import EncodingOperator
from .tensor import Tensor, conv_input_grad, _correlate

__all__ = [
    "RegularizerParams",
    "UnrolledNetParams",
    "FixedPointDivergence",
    "regularizer_forward",
    "regularizer_invert",
    "dc_forward",
    "dc_invert",
    "dc_vjp",
    "modl_forward",
    "project_weights",
    "conv_operator_norm",
]


class FixedPointDivergence(RuntimeError):
    """Fixed-point inversion failed to reach tolerance: contraction broken."""

    def __init__(self, msg, residual=None, unroll=None):
        super().__init__(msg)
        self.residual = residual
        self.unroll = unroll


@dataclass
class RegularizerParams:
    """Conv weights/biases of the residual branch G plus the residual gain c.

    Layer 0 maps 2 -> channels, the last maps channels -> 2, interior layers
    channels -> channels; all kernels are odd 'same' convolutions.
    """

    weights: list[Tensor]
    biases: list[Tensor]
    contraction: float  # c, strictly < 1

    def __post_init__(self):
        if not 0 < self.contraction < 1:
            raise ValueError(f"contraction must be in (0,1), got {self.contraction}")
        if len(self.weights) != len(self.biases):
            raise ValueError("weights/biases length mismatch")
        if self.weights[0].shape[1] != 2 or self.weights[-1].shape[0] != 2:
            raise ValueError("first layer must map 2 -> channels, last channels -> 2")

    @property
    def layers(self) -> int:
        return len(self.weights)

    @property
    def channels(self) -> int:
        return self.weights[0].shape[0]

    @classmethod
    def init(cls, channels: int = 16, layers: int = 5, kernel: int = 3, spatial_rank: int = 2,
             contraction: float = 0.9, seed: int = 0, scale: float = 0.3) -> "RegularizerParams":
        """He-style Gaussian init scaled down so the initial Lipschitz bound
        is modest; the training loop projects after every step anyway."""
        if layers < 2:
            raise ValueError("need at least 2 conv layers (2->ch, ch->2)")
        rng = np.random.default_rng(seed)
        dims = [2] + [channels] * (layers - 1)
        dims_out = [channels] * (layers - 1) + [2]
        ws, bs = [], []
        for cin, cout in zip(dims, dims_out):
            fan_in = cin * kernel**spatial_rank
            w = rng.standard_normal((cout, cin) + (kernel,) * spatial_rank) * scale / np.sqrt(fan_in)
            ws.append(Tensor(w))
            bs.append(Tensor(np.zeros(cout)))
        return cls(ws, bs, contraction)

    def named_leaves(self) -> list[tuple[str, Tensor]]:
        out = []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out.append((f"w{i}", w))
            out.append((f"b{i}", b))
        return out

    def copy(self) -> "RegularizerParams":
        return RegularizerParams([w.copy() for w in self.weights], [b.copy() for b in self.biases], self.contraction)


@dataclass
class UnrolledNetParams:
    """Learnable state of the unrolled network.

    ``reg`` is shared by every unroll. ``mu`` is a fixed configuration
    scalar, not trained.
    """

    reg: RegularizerParams
    mu: float = 0.05
    n_unrolls: int = 5
    n_cg: int = 10
    cg_exit: float = 1e-12  # early-exit relative residual of the DC solve

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError(f"mu must be > 0, got {self.mu}")
        if self.n_unrolls < 1 or self.n_cg < 1:
            raise ValueError("n_unrolls and n_cg must be >= 1")

    def named_leaves(self) -> list[tuple[str, Tensor]]:
        return self.reg.named_leaves()


def _ap(tape: Tape | None, kind: str, *args, **attrs) -> Tensor:
    return apply_op(kind, *args, **attrs) if tape is None else tape.record(kind, *args, **attrs)


def regularizer_forward(params: RegularizerParams, x: Tensor, tape: Tape | None = None) -> Tensor:
    """z = x + c*G(x), recorded on ``tape`` when given."""
    h = _ap(tape, "c2ch", x)
    last = params.layers - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = _ap(tape, "conv", h, w, b)
        if i < last:
            h = _ap(tape, "relu", h)
    g = _ap(tape, "ch2c", h)
    return _ap(tape, "add", x, _ap(tape, "scale", g, a=params.contraction))


def _branch_raw(params: RegularizerParams, x: np.ndarray) -> np.ndarray:
    """c*G(x) on raw arrays (fixed-point inner loop)."""
    h = np.stack([x.real, x.imag])
    last = params.layers - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = _correlate(h, w.data, "constant")
        h += b.data.reshape((-1,) + (1,) * (h.ndim - 1))
        if i < last:
            h = np.maximum(h, 0.0)
    return params.contraction * (h[0] + 1j * h[1])


def regularizer_invert(params: RegularizerParams, z: Tensor, tol: float = 1e-10,
                       max_iter: int = 50, trace: list | None = None) -> Tensor:
    """Invert z = x + c*G(x) by fixed-point iteration x_{k+1} = z - c*G(x_k).

    Valid while c*G is a contraction (projected weights). Raises
    :class:`FixedPointDivergence` when the residual does not reach
    ``tol * ||z||`` within ``max_iter`` iterations.
    """
    zd = z.data
    znorm = float(np.linalg.norm(zd))
    if znorm == 0.0:
        return Tensor(np.zeros_like(zd))
    x = zd
    gx = _branch_raw(params, x)
    for _ in range(max_iter):
        x_new = zd - gx
        gx_new = _branch_raw(params, x_new)
        # residual of x_new: ||x_new + cG(x_new) - z|| = ||cG(x_new) - cG(x)||
        res = float(np.linalg.norm(gx_new - gx))
        x, gx = x_new, gx_new
        if trace is not None:
            trace.append((np.array(x), res))
        if res <= tol * znorm:
            return Tensor(x)
    raise FixedPointDivergence(
        f"fixed-point inversion did not reach {tol:g} within {max_iter} iterations "
        f"(relative residual {res / znorm:.3e})",
        residual=res / znorm,
    )


# --- data consistency ---------------------------------------------------------


def cg_solve_normal(op: EncodingOperator, rhs: np.ndarray, x0: np.ndarray, mu: float,
                    n_iter: int, exit_rel: float = 1e-12, residuals: list | None = None) -> np.ndarray:
    """CG on (A^H A + mu I) x = rhs from x0; fixed iteration count with an
    early exit at relative residual ``exit_rel``. Deterministic."""
    x = np.array(x0)
    rhs_norm = float(np.linalg.norm(rhs))
    r = rhs - op._normal(x, mu)
    p = np.array(r)
    rs = float(np.vdot(r, r).real)
    if residuals is not None:
        residuals.append(np.sqrt(rs))
    for _ in range(n_iter):
        if np.sqrt(rs) <= exit_rel * rhs_norm:
            break
        mp = op._normal(p, mu)
        alpha = rs / float(np.vdot(p, mp).real)
        x = x + alpha * p
        r = r - alpha * mp
        rs_new = float(np.vdot(r, r).real)
        p = r + (rs_new / rs) * p
        rs = rs_new
        if residuals is not None:
            residuals.append(np.sqrt(rs))
    return x


def _dc_solve_forward(z: Tensor, op=None, y=None, mu=None, n_cg=None, exit_rel=1e-12) -> Tensor:
    rhs = op._adjoint(y) + mu * z.data
    return Tensor(cg_solve_normal(op, rhs, z.data, mu, n_cg, exit_rel=exit_rel))


def _dc_solve_vjp(saved, attrs, g):
    return (dc_vjp(attrs["op"], Tensor(g), attrs["mu"], attrs["n_cg"], attrs.get("exit_rel", 1e-12)).data,)


register_op("dc_solve", _dc_solve_forward, _dc_solve_vjp)


def dc_forward(op: EncodingOperator, y: Tensor, z: Tensor, mu: float,
               n_cg: int, tape: Tape | None = None, exit_rel: float = 1e-12) -> Tensor:
    """Data-consistency update: approximately solve
    (A^H A + mu I) x = A^H y + mu z by CG initialized at z.

    On a tape this is a single implicit node that saves nothing; its VJP is
    :func:`dc_vjp` in both gradient engines.
    """
    if mu <= 0:
        raise ValueError(f"mu must be > 0, got {mu}")
    return _ap(tape, "dc_solve", z, op=op, y=y.data, mu=mu, n_cg=n_cg, exit_rel=exit_rel)


def dc_invert(op: EncodingOperator, y: Tensor, x_next: Tensor, mu: float) -> Tensor:
    """Exact inverse of the converged DC update:
    z = (1/mu) * ((A^H A + mu I) x_next - A^H y)."""
    if mu <= 0:
        raise ValueError(f"mu must be > 0, got {mu}")
    return Tensor((op._normal(x_next.data, mu) - op._adjoint(y.data)) / mu)


def dc_vjp(op: EncodingOperator, seed: Tensor, mu: float, n_cg: int,
           exit_rel: float = 1e-12) -> Tensor:
    """Gradient of dc_forward w.r.t. z applied to ``seed``, by the
    implicit-function rule: mu * (A^H A + mu I)^-1 seed (self-adjoint). This
    is the VJP of the taped ``dc_solve`` node and the one the mel sweep
    applies directly."""
    return Tensor(mu * cg_solve_normal(op, seed.data, np.zeros_like(seed.data), mu, n_cg, exit_rel=exit_rel))


def modl_forward(net: UnrolledNetParams, op: EncodingOperator, y: Tensor,
                 tape: Tape | None = None, iterates: list | None = None) -> Tensor:
    """N alternations of regularizer and DC from the zero-filled init
    x_0 = A^H y. Recording is value-transparent: the taped and untaped paths
    run the identical arithmetic. ``iterates``, when given, receives
    x_0, ..., x_N."""
    x = op.adjoint(y)
    if iterates is not None:
        iterates.append(x)
    for n in range(net.n_unrolls):
        z = regularizer_forward(net.reg, x, tape)
        x = dc_forward(op, y, z, net.mu, net.n_cg, tape, exit_rel=net.cg_exit)
        if iterates is not None:
            iterates.append(x)
    return x


# --- contraction enforcement ----------------------------------------------------


def conv_operator_norm(w: Tensor, probe_shape=None, iters: int = 20, seed: int = 0) -> float:
    """Spectral norm of the circular-padding linearization of one conv layer,
    estimated by power iteration on M^T M."""
    wd = w.data
    nk = wd.ndim - 2
    if probe_shape is None:
        probe_shape = (16, 16) if nk == 2 else (8, 8, 8)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((wd.shape[1],) + tuple(probe_shape))
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        u = _correlate(v, wd, "wrap")
        v = conv_input_grad(u, wd, "wrap")
        lam = float(np.linalg.norm(v))
        if lam == 0.0:
            return 0.0
        v /= lam
    return float(np.sqrt(lam))


def lipschitz_bound(params: RegularizerParams, iters: int = 20) -> float:
    """c * prod of per-layer conv spectral norms (ReLU is 1-Lipschitz)."""
    prod = 1.0
    for w in params.weights:
        prod *= conv_operator_norm(w, iters=iters)
    return params.contraction * prod


def project_weights(params: RegularizerParams, threshold: float = 0.95, target: float = 0.9,
                    iters: int = 20) -> RegularizerParams:
    """Rescale all conv weights uniformly so the residual-branch Lipschitz
    bound drops to ``target`` whenever it is at or above ``threshold``;
    otherwise return the params unchanged (idempotent no-op)."""
    bound = lipschitz_bound(params, iters=iters)
    if bound < threshold:
        return params
    f = (target / bound) ** (1.0 / params.layers)
    ws = [Tensor(w.data * f) for w in params.weights]
    return replace(params, weights=ws, biases=[b.copy() for b in params.biases])
