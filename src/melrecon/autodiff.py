"""The regularizer's residual branch and its one vector-Jacobian product.

Both gradient engines backpropagate the same unit: one unroll's regularizer
z = x + c*G(x), where G is c2ch -> (conv, relu) x (L-1) -> conv -> ch2c on
the 2-channel real view of the complex image: c2ch(x) stacks x.real and
x.imag, and ch2c(h) is h[0] + 1j*h[1]. That layer layout is written down
here twice, side by side and on plain arrays: forward in
:func:`residual_branch`, which the forward pass, the fixed-point inversion
and the tape all run, and in reverse in :meth:`Tape.backward`. Only the
tape's two entry points take and return :class:`Tensor`, the public API's
value type. The data-consistency layer's VJP is closed form
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


def residual_branch(params, x: np.ndarray, keep: list[np.ndarray] | None = None) -> np.ndarray:
    """c*G(x), c = :data:`CONTRACTION`, for a ``RegularizerParams`` and a
    complex array x. Appends each conv's input to ``keep`` when given; the
    values do not depend on it.

    Every relu runs in place on the conv output it reads. When nothing is
    kept, no activation is read twice, so each conv with as many output as
    input channels also writes over its input: the call then holds one
    activation of the widest layer, plus a conv's slab and band, where
    writing each conv's output afresh held two."""
    h = np.stack([x.real, x.imag])
    last = params.layers - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        if keep is not None:
            keep.append(h)
        h = conv_nd(h, w.data, b.data, overwrite_x=keep is None and w.shape[0] == w.shape[1])
        if i < last:
            np.maximum(h, 0.0, out=h)
    return (h[0] + 1j * h[1]) * CONTRACTION


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
