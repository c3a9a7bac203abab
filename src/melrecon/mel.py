"""The two gradient engines over the unrolled forward pass.

``backprop_standard`` records every unroll on one tape and backpropagates
once, so the tape's saved bytes grow linearly with the unroll count.
``peak_tape_bytes`` is the largest tape an engine keeps alive: that one
tape's ``saved_bytes`` here, the largest unroll tape's in mel.

Both engines seed the backward sweep with :func:`l1_loss`'s closed-form
gradient at the network output; the loss itself is never taped.

``backprop_mel`` never records the forward pass. It runs it plain, seeds the
loss gradient at the output, then walks the unrolls in reverse: algebraically
invert the DC layer to recover z, fixed-point-invert the residual
regularizer to recover the unroll's input, rebuild just that unroll's
regularizer graph on a tape that lives only inside :func:`_unroll_vjp`,
and backpropagate the gradient at z through it. The peak is therefore one
unroll's saved bytes regardless of depth, at the price of the recompute
work. The fixed-point inversion runs the same :func:`residual_branch` as
the forward pass and the rebuild, so it inverts exactly the function that
was run. The sweep keeps no iterate; its only check is the free one at the
end, where the recovered x_0 is compared with its known value A^H y and the
gap is returned as ``x0_drift``.

The DC layer is never rebuilt: its taped node saves nothing and its VJP is
closed form (:func:`dc_vjp`), so mel applies that VJP to the incoming image
gradient directly. Both engines therefore use the same implicit DC VJP, and
their gradients agree up to fixed-point/CG tolerances rather than differing
by CG-trace effects.

Each engine returns a :class:`GradientResult` holding only what it
measured: the gradients, the loss, the peak tape bytes, the wall time and,
for mel, ``x0_drift``. The ``bench-memory`` command writes its table from
these and from its own arguments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .autodiff import Tape
from .mri import EncodingOperator
from .tensor import Tensor
from .unrolled import (
    DEFAULT_INVERT_TOL,
    FixedPointDivergence,
    RegularizerParams,
    UnrolledNetParams,
    dc_invert,
    dc_vjp,
    modl_forward,
    regularizer_forward,
    regularizer_invert,
)

__all__ = ["GradientResult", "l1_loss", "backprop_standard", "backprop_mel"]


@dataclass
class GradientResult:
    """What one gradient evaluation measured. The engine, the unroll count
    and the image shape are the caller's arguments and are not repeated."""

    grads: dict[str, Tensor]
    loss_value: float
    peak_tape_bytes: int
    wall_time: float
    x0_drift: float | None = None  # mel only: ||x0_hat - A^H y|| / ||A^H y||


def l1_loss(x: Tensor, target: Tensor) -> tuple[float, Tensor]:
    """Per-pixel l1 on the 2-channel real view, mean over pixels of
    |re(x-t)| + |im(x-t)|, and its gradient w.r.t. x in the real-pair
    convention: (sgn re + i sgn im) / size, with subgradient 0 at exact
    zeros."""
    if x.shape != target.shape:
        raise ValueError(f"shape mismatch in l1: {x.shape} vs {target.shape}")
    d = x.data - target.data
    value = float((np.abs(d.real) + np.abs(d.imag)).sum() / d.size)
    return value, Tensor((np.sign(d.real) + 1j * np.sign(d.imag)) / d.size)


def backprop_standard(net: UnrolledNetParams, op: EncodingOperator, y: Tensor,
                      target: Tensor) -> GradientResult:
    """Full-graph backprop: all unrolls recorded on a single tape."""
    t0 = time.perf_counter()
    tape = Tape()
    leaves = net.named_leaves()
    x = modl_forward(net, op, y, tape=tape)
    loss_value, q = l1_loss(x, target)
    gm = tape.backward(x, q, [t for _, t in leaves])
    grads = {name: gm[t.alloc_id] for name, t in leaves}
    return GradientResult(grads, loss_value, tape.saved_bytes, time.perf_counter() - t0)


def _unroll_vjp(reg: RegularizerParams, x: Tensor, gz: Tensor, leaves):
    """Rebuild one unroll from its input ``x`` on a fresh tape, backpropagate
    ``gz`` to ``x`` and ``leaves``, and return the gradients and the tape's
    saved bytes. The tape, and the unroll's graph with it, goes on return."""
    tape = Tape()
    z = regularizer_forward(reg, x, tape=tape)
    return tape.backward(z, gz, [x] + [t for _, t in leaves]), tape.saved_bytes


def backprop_mel(net: UnrolledNetParams, op: EncodingOperator, y: Tensor,
                 target: Tensor, invert_tol: float = DEFAULT_INVERT_TOL) -> GradientResult:
    """Memory-efficient backprop by layer inversion, one unroll at a time.

    Requires contractive (projected) weights; a fixed-point failure aborts
    with the offending unroll index rather than falling back to stored
    activations. A^H y is formed once, for every DC inversion and for the
    end of the sweep: there the recovered x_0 is compared with its true
    value, A^H y, and the relative gap is recorded as ``x0_drift``. The
    drift is recorded, not enforced.
    """
    t0 = time.perf_counter()
    peak = 0

    x_n = modl_forward(net, op, y)  # no gradients recorded
    aty = op.adjoint(y)
    loss_value, q = l1_loss(x_n, target)

    grads: dict[str, np.ndarray] = {}
    leaves = net.named_leaves()
    for n in range(net.n_unrolls - 1, -1, -1):
        z = dc_invert(op, aty, x_n, net.mu)
        try:
            x_prev = regularizer_invert(net.reg, z, tol=invert_tol)
        except FixedPointDivergence as e:
            raise FixedPointDivergence(
                f"unroll {n}: {e}", residual=e.residual, unroll=n
            ) from None

        gz = dc_vjp(op, q, net.mu, net.n_cg)
        gm, saved_bytes = _unroll_vjp(net.reg, x_prev, gz, leaves)
        q = gm[x_prev.alloc_id]
        for name, t in leaves:
            g = gm[t.alloc_id].data
            grads[name] = grads[name] + g if name in grads else g
        del gm  # summed: not held through the next unroll's rebuild
        peak = max(peak, saved_bytes)
        x_n = x_prev

    x0 = aty.data
    x0_drift = float(np.linalg.norm(x_n.data - x0) / max(np.linalg.norm(x0), 1e-300))
    return GradientResult({k: Tensor(v) for k, v in grads.items()}, loss_value, peak,
                          time.perf_counter() - t0, x0_drift)
