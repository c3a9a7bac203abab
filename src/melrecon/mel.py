"""The two gradient engines over the unrolled forward pass.

Both backpropagate one unroll at a time through the same two VJPs: the DC
layer's closed form :func:`dc_vjp` and the regularizer's
:meth:`Tape.backward`. They differ in where an unroll's activations come
from. ``peak_tape_bytes`` is the most the engine's tapes held at once.

Both engines seed the backward sweep with :func:`l1_loss`'s closed-form
gradient at the network output; the loss itself is never recorded.

``backprop_standard`` records every unroll on one tape during the forward
pass and pops them in reverse, so its ledger grows linearly with the
unroll count.

``backprop_mel`` records nothing in the forward pass. It seeds the loss
gradient at the output, then walks the unrolls in reverse: algebraically
invert the DC layer to recover z, fixed-point-invert the residual
regularizer to recover the unroll's input, rebuild just that unroll's
regularizer on a fresh tape, and backpropagate the gradient at z through
it. The peak is therefore one unroll's saved bytes regardless of depth, at
the price of the recompute work. The fixed-point inversion runs the same
:func:`residual_branch` as the forward pass and the rebuild, so it inverts
exactly the function that was run. The sweep keeps no iterate; its only
check is the free one at the end, where the recovered x_0 is compared with
its known value A^H y and the gap is returned as ``x0_drift``.

The DC layer is never rebuilt or recorded: mel applies :func:`dc_vjp` to
the incoming image gradient directly, as the standard engine does, so their
gradients agree up to fixed-point/CG tolerances rather than differing by
CG-trace effects.

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
    UnrolledNetParams,
    dc_invert,
    dc_vjp,
    modl_forward,
    regularizer_forward,
    regularizer_invert,
)

__all__ = ["GradientResult", "l1_loss", "backprop_standard", "backprop_mel"]


@dataclass(slots=True)
class GradientResult:
    """What one gradient evaluation measured. The engine, the unroll count
    and the image shape are the caller's arguments and are not repeated.
    Slotted, like :class:`~.autodiff.Tape` and for its reason."""

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
    """Full-graph backprop: every unroll recorded on one tape, then popped
    from the last, each behind its DC layer's VJP."""
    t0 = time.perf_counter()
    tape = Tape()
    x = modl_forward(net, op, y, tape)
    loss_value, q = l1_loss(x, target)
    grads: dict[str, np.ndarray] = {}
    for _ in range(net.n_unrolls):
        q = tape.backward(net.reg, dc_vjp(op, q, net.mu, net.n_cg), grads)
    return GradientResult({k: Tensor(v) for k, v in grads.items()}, loss_value, tape.saved_bytes,
                          time.perf_counter() - t0)


def backprop_mel(net: UnrolledNetParams, op: EncodingOperator, y: Tensor,
                 target: Tensor, invert_tol: float = DEFAULT_INVERT_TOL) -> GradientResult:
    """Memory-efficient backprop by layer inversion, one unroll at a time.

    Requires contractive (projected) weights; a fixed-point failure aborts
    with the offending unroll index rather than falling back to stored
    activations. A^H y is formed once, for every DC inversion and for the
    end of the sweep: there the recovered x_0 is compared with its true
    value, A^H y, and the relative gap is recorded as ``x0_drift``. The
    drift is recorded, not enforced.

    Between unrolls the sweep keeps A^H y, the recovered input x_n, the
    gradient q at it and the running weight gradients; the gradient at z
    lives on until the next unroll's DC VJP replaces it. Within an unroll,
    z is dropped once inverted, the old x_n once z is recovered from it and
    q once the DC VJP has read it, so the rebuild and its backward, where
    the evaluation's heap peaks, hold x_n, the gradient at z and the tape
    beside them.
    """
    t0 = time.perf_counter()
    peak = 0

    x_n = modl_forward(net, op, y)  # no gradients recorded
    aty = op.adjoint(y)
    loss_value, q = l1_loss(x_n, target)

    grads: dict[str, np.ndarray] = {}
    for n in range(net.n_unrolls - 1, -1, -1):
        z = dc_invert(op, aty, x_n, net.mu)
        del x_n
        try:
            x_n = regularizer_invert(net.reg, z, tol=invert_tol)
        except FixedPointDivergence as e:
            raise FixedPointDivergence(
                f"unroll {n}: {e}", residual=e.residual, unroll=n
            ) from None
        del z

        gz = dc_vjp(op, q, net.mu, net.n_cg)
        del q
        tape = Tape()
        regularizer_forward(net.reg, x_n, tape)
        q = tape.backward(net.reg, gz, grads)
        peak = max(peak, tape.saved_bytes)

    x0 = aty.data
    x0_drift = float(np.linalg.norm(x_n.data - x0) / max(np.linalg.norm(x0), 1e-300))
    return GradientResult({k: Tensor(v) for k, v in grads.items()}, loss_value, peak,
                          time.perf_counter() - t0, x0_drift)
