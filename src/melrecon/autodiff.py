"""The regularizer's residual branch and its one vector-Jacobian product.

Both gradient engines backpropagate the same unit: one unroll's regularizer
z = x + c*G(x), where G is c2ch -> (conv, relu) x (L-1) -> conv -> ch2c on
the 2-channel real view of the complex image: c2ch(x) stacks x.real and
x.imag, and ch2c(h) is h[0] + 1j*h[1]. That layer layout is written down
here twice, side by side and on plain arrays: forward in :func:`_layers`,
which :func:`residual_branch` runs for the forward pass, the fixed-point
inversion and the tape, on row tiles when untaped on a large image, and in
reverse in :meth:`Tape.backward`. Only the tape's two entry points take and
return :class:`Tensor`, the public API's value type. The data-consistency layer's VJP is closed form
(``unrolled.dc_vjp``) and the engines apply it between unrolls.

A :class:`Tape` keeps, per recorded unroll, what the VJP reads: the input
of every conv, that is c2ch(x) and the L-1 relu outputs. A conv's weight
gradient needs its input, and relu's mask is out > 0, which is the next
conv's input > 0, so each activation is held once.

Complex inputs follow the real-pair convention for real-valued losses:
grad = dL/d(re) + i * dL/d(im).
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, conv_input_grad, conv_nd, conv_weight_grad

__all__ = ["CONTRACTION", "Tape", "residual_branch"]

# The residual gain c: it only scales the last conv, whose norm the weight
# projection already bounds, so it is fixed rather than learned or set.
CONTRACTION = 0.9

# Bytes of the widest activation that an untaped branch holds at once, as
# ``tensor._SLAB_BYTES`` bounds a conv's padded input and ``mri._GROUP_BYTES``
# an operator call's k-space. A larger image runs the whole layer chain on
# tiles of consecutive axis-0 rows, whose own rows fit this budget and whose
# halo rows come on top. At 16 channels of 128x128 the activation is 2 MB, so
# the branch runs as two tiles of 64 rows plus 5 halo rows, 1.1 MB each, and
# computes the convs of 138 rows for 128. Every training image fits one tile.
_TILE_BYTES = 1 << 20


def residual_branch(params, x: np.ndarray, keep: list[np.ndarray] | None = None) -> np.ndarray:
    """c*G(x), c = :data:`CONTRACTION`, for a ``RegularizerParams`` and a
    complex array x. Appends each conv's input to ``keep`` when given; the
    values do not depend on it.

    Every relu runs in place on the conv output it reads. When nothing is
    kept, no activation is read twice, so each conv with as many output as
    input channels also writes over its input: a call then holds one
    activation of the widest layer, plus a conv's slab and band.

    When nothing is kept and that activation exceeds ``_TILE_BYTES``, the
    layers run on tiles of consecutive axis-0 rows, as few as keep a tile's
    own rows within the budget, but never so many that a tile has fewer
    rows than twice its halo (see :func:`_tiled_branch`): the call then
    holds one tile's activation. A taped call never tiles; the tape keeps
    every activation whole anyway.
    """
    if keep is None:
        rows, halo = x.shape[0], _halo(params)
        tiles = -(-max(2, params.channels) * x.size * 8 // _TILE_BYTES)
        tiles = min(tiles, rows // (2 * halo) if halo else rows)
        if tiles > 1:
            return _tiled_branch(params, x, tiles)
    h = _layers(params, np.stack([x.real, x.imag]), keep)
    return (h[0] + 1j * h[1]) * CONTRACTION


def _halo(params) -> int:
    """Receptive-field radius of the whole chain along axis 0: each of the
    L convs reads k0//2 rows beyond the rows it writes."""
    return params.layers * (params.weights[0].shape[2] // 2)


def _tiled_branch(params, x: np.ndarray, tiles: int) -> np.ndarray:
    """c*G(x) computed on ``tiles`` runs of consecutive axis-0 rows of x,
    their sizes differing by at most one row.

    Each tile runs G on its rows extended by :func:`_halo` rows per side,
    clipped at the image's edges, and keeps only its own rows. A conv's
    'same' zero padding makes each layer wrong only in the k0//2 rows next
    to a cut edge, so after L layers the error has spread over the halo and
    no further; at an image edge the padding is already the true one. The
    values are those of one whole-image call wherever each conv's GEMMs see
    the same groups of columns (every band within one axis-0 row, as on
    16 channels of 128x128); otherwise they can differ in the last bits.
    """
    rows, halo = x.shape[0], _halo(params)
    out = np.empty(x.shape, dtype=np.complex128)
    for t in range(tiles):
        a, b = rows * t // tiles, rows * (t + 1) // tiles
        lo, hi = max(a - halo, 0), min(b + halo, rows)
        part = x[lo:hi]
        h = _layers(params, np.stack([part.real, part.imag]), None)[:, a - lo:b - lo]
        out[a:b] = (h[0] + 1j * h[1]) * CONTRACTION
        del h  # before the next tile's activation is formed
    return out


def _layers(params, h: np.ndarray, keep: list[np.ndarray] | None) -> np.ndarray:
    """G's conv and relu layers on the 2-channel real view h, which the
    first conv reads and the call then drops."""
    last = params.layers - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        if keep is not None:
            keep.append(h)
        h = conv_nd(h, w.data, b.data, overwrite_x=keep is None and w.shape[0] == w.shape[1])
        if i < last:
            np.maximum(h, 0.0, out=h)
    return h


def _add_into(grads: dict[str, np.ndarray], name: str, g: np.ndarray) -> None:
    grads[name] = grads[name] + g if name in grads else g


class Tape:
    """A stack of recorded unrolls of one regularizer, each popped by the
    :meth:`backward` that consumes it.

    ``saved_bytes`` is the tape ledger: the conv weights, once, since every
    unroll shares them, plus every activation :meth:`record` kept. It never
    falls, so it is the most the tape held; the biases are never kept.
    """

    # slotted: on CPython 3.11 the heap that building a plain instance
    # allocates shrinks over its first few dozen constructions, so a traced
    # evaluation's peak would depend on how many ran before it
    __slots__ = ("unrolls", "saved_bytes")

    def __init__(self):
        self.unrolls: list[list[np.ndarray]] = []
        self.saved_bytes = 0

    def record(self, params, x: Tensor) -> Tensor:
        """z = x + c*G(x), bit for bit the unrecorded value, keeping the
        unroll's conv inputs for :meth:`backward`."""
        acts: list[np.ndarray] = []
        z = Tensor(x.data + residual_branch(params, x.data, acts))
        if not self.saved_bytes:
            self.saved_bytes = sum(w.nbytes for w in params.weights)
        self.saved_bytes += sum(a.nbytes for a in acts)
        self.unrolls.append(acts)
        return z

    def backward(self, params, gz: Tensor, grads: dict[str, np.ndarray]) -> Tensor:
        """Pop the last recorded unroll and backpropagate ``gz``, the
        gradient at its output z, through it.

        Adds each layer's weight and bias gradients into ``grads`` under
        ``named_leaves``' names, so a caller that pops unrolls N-1 down to 0
        sums them in that order. Each activation is dropped once read.
        Returns the gradient at the unroll's input x. Raises ``ValueError``,
        popping nothing, when nothing is recorded, ``params`` has another
        layer count than the unroll or ``gz`` is not shaped like x.
        """
        if not self.unrolls:
            raise ValueError("backward on a tape with no recorded unroll")
        recorded = len(self.unrolls[-1])  # one kept conv input per layer
        if recorded != params.layers:
            raise ValueError(f"params have {params.layers} layers but the unroll recorded {recorded}")
        x_shape = self.unrolls[-1][0].shape[1:]  # c2ch(x) is [2, *x.shape]
        if gz.shape != x_shape:
            raise ValueError(f"gradient shape {gz.shape} != unroll input shape {x_shape}")
        acts = self.unrolls.pop()
        # scaling by c is its own adjoint, and c2ch is ch2c's adjoint in
        # the real-pair inner product (and ch2c c2ch's)
        g = gz.data * CONTRACTION
        g = np.stack([g.real, g.imag])
        for i in range(params.layers - 1, -1, -1):
            w = params.weights[i].data
            h = acts.pop()
            _add_into(grads, f"w{i}", conv_weight_grad(h, g, w.shape[2:]))
            _add_into(grads, f"b{i}", g.reshape(g.shape[0], -1).sum(axis=1))
            opened = h > 0.0  # relu's mask: its output h is positive where its input is
            del h
            g = conv_input_grad(g, w)
            if i:
                g *= opened
        return Tensor(gz.data + (g[0] + 1j * g[1]))  # the sum fans gz out to x and the branch
