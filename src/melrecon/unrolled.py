"""The unrolled network: an invertible residual CNN regularizer alternating
with a CG-based data-consistency layer, plus the two inversion routines the
memory-efficient engine needs.

The regularizer is z = x + c*G(x) with G a conv/relu chain on the 2-channel
real view of the complex image and c in (0, 1). Contraction of c*G is
enforced by post-step weight projection against a certified norm bound
from the convs' per-frequency transfer matrices, making the residual layer
invertible by fixed-point iteration. The DC layer solves
(A^H A + mu I) x = A^H y + mu z with CG and is inverted in closed form by
one application of the normal operator.

G's layer layout and its VJP live side by side in :mod:`.autodiff`; the DC
layer's VJP, :func:`dc_vjp`, lives here with the layer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Tape, residual_branch
from .mri import EncodingOperator
from .tensor import Tensor, add

__all__ = [
    "DEFAULT_INVERT_TOL",
    "RegularizerParams",
    "UnrolledNetParams",
    "FixedPointDivergence",
    "residual_branch",
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
    def init(cls, channels: int = 16, layers: int = 5, spatial_rank: int = 2,
             contraction: float = 0.9, seed: int = 0, scale: float = 0.3) -> "RegularizerParams":
        """He-style Gaussian init of 3-wide kernels, scaled down so the initial
        Lipschitz bound is modest; the training loop projects after every step."""
        if layers < 2:
            raise ValueError("need at least 2 conv layers (2->ch, ch->2)")
        rng = np.random.default_rng(seed)
        dims = [2] + [channels] * (layers - 1)
        dims_out = [channels] * (layers - 1) + [2]
        ws, bs = [], []
        for cin, cout in zip(dims, dims_out):
            fan_in = cin * 3**spatial_rank
            w = rng.standard_normal((cout, cin) + (3,) * spatial_rank) * scale / np.sqrt(fan_in)
            ws.append(Tensor(w))
            bs.append(Tensor(np.zeros(cout)))
        return cls(ws, bs, contraction)

    def named_leaves(self) -> list[tuple[str, Tensor]]:
        out = []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out.append((f"w{i}", w))
            out.append((f"b{i}", b))
        return out


@dataclass
class UnrolledNetParams:
    """Learnable state of the unrolled network.

    ``reg`` is shared by every unroll. ``mu`` is a fixed configuration
    scalar, not trained.
    """

    reg: RegularizerParams
    mu: float
    n_unrolls: int
    n_cg: int

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError(f"mu must be > 0, got {self.mu}")
        if self.n_unrolls < 1 or self.n_cg < 1:
            raise ValueError("n_unrolls and n_cg must be >= 1")

    def named_leaves(self) -> list[tuple[str, Tensor]]:
        return self.reg.named_leaves()


def regularizer_forward(params: RegularizerParams, x: Tensor, tape: Tape | None = None) -> Tensor:
    """z = x + c*G(x) with c*G :func:`residual_branch`, the one definition of
    the branch that the forward pass, the fixed-point inversion and the mel
    rebuild all evaluate. ``tape`` records the unroll for its VJP, with
    identical values."""
    return add(x, residual_branch(params, x)) if tape is None else tape.record(params, x)


DEFAULT_INVERT_TOL = 1e-10  # fixed-point tolerance of the engines, train_steps and the CLI


def regularizer_invert(params: RegularizerParams, z: Tensor, tol: float = DEFAULT_INVERT_TOL,
                       max_iter: int = 50) -> Tensor:
    """Invert z = x + c*G(x) by fixed-point iteration x_{k+1} = z - c*G(x_k).

    Valid while c*G is a contraction (projected weights). The residual is
    measured against ``tol`` times ||z||, or times ||c*G(0)|| when z = 0;
    if both are 0, G(0) = 0 and x = 0 is returned as the exact preimage.
    Raises :class:`FixedPointDivergence` when the residual does not reach
    that within ``max_iter`` iterations; ``ValueError`` if tol <= 0 or
    max_iter < 1.
    """
    if not tol > 0:
        raise ValueError(f"fixed-point tolerance must be > 0, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    zd = z.data
    x = zd
    gx = residual_branch(params, z).data
    scale = float(np.linalg.norm(zd)) or float(np.linalg.norm(gx))
    if scale == 0.0:
        return Tensor(np.zeros_like(zd))
    for _ in range(max_iter):
        x_new = zd - gx
        gx_new = residual_branch(params, Tensor(x_new)).data
        # residual of x_new: ||x_new + cG(x_new) - z|| = ||cG(x_new) - cG(x)||
        res = float(np.linalg.norm(gx_new - gx))
        x, gx = x_new, gx_new
        if res <= tol * scale:
            return Tensor(x)
    raise FixedPointDivergence(
        f"fixed-point inversion did not reach {tol:g} within {max_iter} iterations "
        f"(relative residual {res / scale:.3e})",
        residual=res / scale,
    )


# --- data consistency ---------------------------------------------------------


# Relative residual at which every CG solve stops before ``n_iter``
# iterations: near float64 rounding, so the exit only ends a solve that has
# nothing left to gain.
_CG_FLOOR = 1e-15


def cg_solve_normal(op: EncodingOperator, rhs: np.ndarray, x0: np.ndarray, mu: float,
                    n_iter: int) -> np.ndarray:
    """CG on (A^H A + mu I) x = rhs from x0: ``n_iter`` iterations, or fewer
    once ||r|| <= ``_CG_FLOOR`` * ||rhs||. Deterministic. An all-zero x0
    starts from r = rhs without applying the normal operator; x, r and p are
    updated in place."""
    x = np.array(x0, dtype=np.complex128)
    rhs_norm = float(np.linalg.norm(rhs))
    r = rhs - op._normal(x, mu) if x.any() else np.array(rhs, dtype=np.complex128)
    p = r.copy()
    rs = float(np.vdot(r, r).real)
    for _ in range(n_iter):
        if np.sqrt(rs) <= _CG_FLOOR * rhs_norm:
            break
        mp = op._normal(p, mu)
        alpha = rs / float(np.vdot(p, mp).real)
        x += alpha * p
        r -= alpha * mp
        rs_new = float(np.vdot(r, r).real)
        p *= rs_new / rs
        p += r
        rs = rs_new
    return x


def _check_aty(op: EncodingOperator, aty: Tensor, mu: float) -> None:
    if mu <= 0:
        raise ValueError(f"mu must be > 0, got {mu}")
    if aty.shape != op.image_shape:
        raise ValueError(f"A^H y shape {aty.shape} != operator image shape {op.image_shape}")


def dc_forward(op: EncodingOperator, aty: Tensor, z: Tensor, mu: float, n_cg: int) -> Tensor:
    """Data-consistency update: approximately solve
    (A^H A + mu I) x = A^H y + mu z by CG initialized at z.

    Takes the image A^H y (``op.adjoint(y)``), not the k-space data y, so a
    caller that runs several DC layers on one case forms it once; any other
    shape raises ``ValueError``. Nothing of it is recorded: its VJP is
    :func:`dc_vjp` in both gradient engines.
    """
    _check_aty(op, aty, mu)
    return Tensor(cg_solve_normal(op, aty.data + mu * z.data, z.data, mu, n_cg))


def dc_invert(op: EncodingOperator, aty: Tensor, x_next: Tensor, mu: float) -> Tensor:
    """Exact inverse of the converged DC update:
    z = (1/mu) * ((A^H A + mu I) x_next - A^H y).

    Takes the image A^H y, as :func:`dc_forward` does; any other shape
    raises ``ValueError``."""
    _check_aty(op, aty, mu)
    return Tensor((op._normal(x_next.data, mu) - aty.data) / mu)


def dc_vjp(op: EncodingOperator, seed: Tensor, mu: float, n_cg: int) -> Tensor:
    """Gradient of dc_forward w.r.t. z applied to ``seed``, by the
    implicit-function rule: mu * (A^H A + mu I)^-1 seed (self-adjoint). Both
    engines apply it between unrolls."""
    return Tensor(mu * cg_solve_normal(op, seed.data, np.zeros_like(seed.data), mu, n_cg))


def modl_forward(net: UnrolledNetParams, op: EncodingOperator, y: Tensor,
                 tape: Tape | None = None) -> Tensor:
    """N alternations of regularizer and DC from the zero-filled init
    x_0 = A^H y. A^H y is formed once and is also the right-hand-side term
    of every DC layer. ``tape`` records each unroll's regularizer, with
    identical values."""
    aty = op.adjoint(y)
    x = aty
    for _ in range(net.n_unrolls):
        z = regularizer_forward(net.reg, x, tape)
        x = dc_forward(op, aty, z, net.mu, net.n_cg)
    return x


# --- contraction enforcement ----------------------------------------------------


# Bytes of one chunk's transfer matrices [F, C_out, C_in] complex, at most;
# a chunk never holds less than one frequency. A 16 -> 16 layer takes 16
# frequencies per chunk and a 2 <-> 16 layer 128. One layer's norm then
# holds about four arrays of this size at once (the GEMM's output or H, H's
# conjugate transpose, the new Gram and the caller's last one): 270 kB at
# 16 -> 16 in 2D, where 32-frequency chunks held 530 kB.
_GRAM_BYTES = 1 << 16


def _transfer_grams(w: np.ndarray, probe_shape=None):
    """Gram matrices of the conv's transfer matrices on the probe grid, in
    chunks of frequencies.

    Circular (wrap-padded) cross-correlation with ``w`` [C_out, C_in, *k] on
    ``probe_shape`` (16x16 in 2D, 8x8x8 in 3D unless given) is
    block-diagonal in the DFT basis (Sedghi, Gupta & Long, ICLR 2019): at
    frequency f it acts as H(f) = sum_t w[:, :, t]
    exp(-2 pi i sum_d f_d t_d / n_d), t the tap offset from the kernel
    centre. Its singular values are those of all H(f) together. A real
    kernel has H(-f) = conj(H(f)), so the real-FFT half-grid (last axis
    0..n//2) holds every one of them. Yields the Gram on the smaller side,
    H^H H or H H^H, [F, m, m] with m = min(C_out, C_in).

    A chunk's H is one real GEMM, [cos; sin] of the tap phases times
    ``w`` as [taps, C_out*C_in], and is held within ``_GRAM_BYTES``, which
    bounds the heap a projection takes. That byte budget also holds the
    GEMM to 8192 * taps multiply-adds, within the convs' GEMM budget
    (``tensor._GEMM_MACS``, 2^18) for any kernel of at most 32 taps, 3x3
    and 3x3x3 included, so it runs on the calling thread (a complex GEMM of
    this size wakes OpenBLAS's worker threads). Each frequency's H and Gram
    are computed on their own, so the chunk size changes no value, except
    that a chunk of one frequency takes numpy's matrix-vector product for
    its tap phases, which can round a Gram entry differently in its last
    bits.
    """
    c_out, c_in = w.shape[:2]
    kshape = w.shape[2:]
    if probe_shape is None:
        probe_shape = (16, 16) if len(kshape) == 2 else (8, 8, 8)
    taps = np.stack(np.meshgrid(*[np.arange(k) - k // 2 for k in kshape], indexing="ij"), -1).reshape(-1, len(kshape))
    phase = -2 * np.pi * taps.T / np.asarray(probe_shape, dtype=float)[:, None]  # [ndim, taps]
    w_t = w.reshape(c_out * c_in, -1).T
    half = tuple(probe_shape[:-1]) + (probe_shape[-1] // 2 + 1,)
    freqs = np.stack(np.meshgrid(*[np.arange(n) for n in half], indexing="ij"), -1).reshape(-1, len(half))
    step = max(1, _GRAM_BYTES // (16 * c_out * c_in))
    for lo in range(0, len(freqs), step):
        ang = freqs[lo: lo + step] @ phase
        n = len(ang)
        cs = np.concatenate([np.cos(ang), np.sin(ang)]) @ w_t
        h = np.empty((n, c_out, c_in), dtype=complex)
        h.real[...], h.imag[...] = cs.reshape(2, n, c_out, c_in)
        del cs
        hh = np.conj(np.swapaxes(h, 1, 2))
        g = hh @ h if c_in <= c_out else h @ hh
        del h, hh  # only the Gram stays alive while the caller reduces it
        yield g


def conv_operator_norm(w: Tensor, probe_shape=None) -> float:
    """Spectral norm of one conv layer as a circular conv on the probe grid
    (16x16 in 2D, 8x8x8 in 3D unless given): sqrt of the largest eigenvalue
    of the transfer matrices' Grams, raised by a relative 1e-12 so rounding
    in ``eigvalsh`` cannot bring it below the exact norm."""
    lam = 0.0
    for g in _transfer_grams(w.data, probe_shape):
        lam = max(lam, float(np.linalg.eigvalsh(g)[:, -1].max()))
    return float(np.sqrt(lam * (1 + 1e-12)))


def _frobenius_norm_bound(w: np.ndarray) -> float:
    """sqrt(max_f ||G(f)||_F) >= the layer's norm on the default probe grid:
    the Frobenius norm of a Hermitian PSD Gram bounds its top eigenvalue
    (one step of Gram iteration, Delattre et al., ICML 2023). Costs no
    eigendecomposition."""
    fro2 = 0.0
    for g in _transfer_grams(w):
        fro2 = max(fro2, float((g.real ** 2 + g.imag ** 2).sum(axis=(1, 2)).max()))
    return float(fro2 ** 0.25)


def lipschitz_bound(params: RegularizerParams) -> float:
    """c * prod of per-layer conv spectral norms (ReLU is 1-Lipschitz), each
    :func:`conv_operator_norm` on the default probe grid. A 'same'
    zero-padded conv on an image of up to probe - k + 1 voxels per axis is a
    restriction of that circular conv, so the bound holds there; on larger
    images it is not certified."""
    return params.contraction * float(np.prod([conv_operator_norm(w) for w in params.weights]))


_PROJECT_THRESHOLD, _PROJECT_TARGET = 0.95, 0.9  # the target's margin spares a rescale every step


def project_weights(params: RegularizerParams) -> RegularizerParams:
    """Rescale all conv weights uniformly so the residual-branch Lipschitz
    bound drops to 0.9 whenever it is at or above 0.95; otherwise return the
    params unchanged (idempotent no-op).

    First checks the cheap upper bound c * prod sqrt(max_f ||G(f)||_F);
    only when that reaches the threshold does it compute the exact
    :func:`lipschitz_bound` and rescale by it."""
    cert = params.contraction * float(np.prod([_frobenius_norm_bound(w.data) for w in params.weights]))
    if cert < _PROJECT_THRESHOLD:
        return params
    bound = lipschitz_bound(params)
    if bound < _PROJECT_THRESHOLD:
        return params
    f = (_PROJECT_TARGET / bound) ** (1.0 / params.layers)
    ws = [Tensor(w.data * f) for w in params.weights]
    return replace(params, weights=ws, biases=[b.copy() for b in params.biases])
