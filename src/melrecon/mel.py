"""The two gradient engines: one backward sweep with two tape sources.

The sweep runs the unrolled forward pass, seeds the gradient at the output
with :func:`l1_loss`'s closed form (the loss is never recorded) and walks
the unrolls from the last. At each unroll the DC layer's closed-form VJP
:func:`dc_vjp` carries the gradient back to the unroll's z, and
:meth:`Tape.backward` carries it on to the unroll's input x_n. The DC layer
is never recorded. The engines differ only in where that unroll's tape
comes from. ``peak_tape_bytes`` is the most their tapes held at once.

``backprop_standard`` records every unroll on one tape in the forward pass
and pops them in reverse, so its ledger grows linearly with the unroll
count.

``backprop_mel`` records nothing in the forward pass. At each unroll it
inverts the DC layer algebraically to recover z, fixed-point-inverts the
regularizer to recover x_n, and rebuilds that unroll on a fresh tape, so
its peak is one unroll's saved bytes at any depth, at the price of the
recompute. The inversion runs the same :func:`residual_branch` as the
forward pass and the rebuild, so it inverts exactly the function that was
run. The only check is the free one at the end: the recovered x_0 against
its known value A^H y, returned as ``x0_drift``.

Between unrolls the sweep keeps the gradient at z, the gradient q at x_n
and the running weight gradients, and mel also A^H y and x_n. q is dropped
once the DC VJP has read it, z once inverted and the old x_n once z is
recovered from it, so a mel rebuild and its backward, where the
evaluation's heap peaks, hold x_n, the gradient at z and the tape.

Each engine returns a :class:`GradientResult` holding only what it
measured. The ``bench-memory`` command writes its table from these and
from its own arguments.
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


def _sweep(net: UnrolledNetParams, op: EncodingOperator, y: Tensor, target: Tensor,
           invert: bool, invert_tol: float = DEFAULT_INVERT_TOL) -> GradientResult:
    """Both engines' backward sweep. ``invert`` chooses the tape source:
    False pops the forward pass's tape, True inverts and rebuilds each unroll."""
    t0 = time.perf_counter()
    tape = None if invert else Tape()
    x_n = modl_forward(net, op, y, tape)
    aty = op.adjoint(y) if invert else None
    loss_value, q = l1_loss(x_n, target)
    if not invert:
        del x_n  # only mel's DC inversion reads the output again

    grads: dict[str, np.ndarray] = {}
    peak = 0
    for n in range(net.n_unrolls - 1, -1, -1):
        gz = dc_vjp(op, q, net.mu, net.n_cg)
        del q
        if invert:
            z = dc_invert(op, aty, x_n, net.mu)
            del x_n
            try:
                x_n = regularizer_invert(net.reg, z, tol=invert_tol)
            except FixedPointDivergence as e:
                raise FixedPointDivergence(f"unroll {n}: {e}", residual=e.residual, unroll=n) from None
            del z
            tape = Tape()
            regularizer_forward(net.reg, x_n, tape)
        q = tape.backward(net.reg, gz, grads)
        peak = max(peak, tape.saved_bytes)

    x0_drift = None
    if invert:
        x0 = aty.data
        x0_drift = float(np.linalg.norm(x_n.data - x0) / max(np.linalg.norm(x0), 1e-300))
    return GradientResult({k: Tensor(v) for k, v in grads.items()}, loss_value, peak,
                          time.perf_counter() - t0, x0_drift)


def backprop_standard(net: UnrolledNetParams, op: EncodingOperator, y: Tensor,
                      target: Tensor) -> GradientResult:
    """Full-graph backprop: every unroll recorded on one tape, then popped
    from the last, each behind its DC layer's VJP."""
    return _sweep(net, op, y, target, invert=False)


def backprop_mel(net: UnrolledNetParams, op: EncodingOperator, y: Tensor,
                 target: Tensor, invert_tol: float = DEFAULT_INVERT_TOL) -> GradientResult:
    """Memory-efficient backprop by layer inversion, one unroll at a time.

    Requires contractive (projected) weights; a fixed-point failure aborts
    with the offending unroll index rather than falling back to stored
    activations. ``x0_drift`` is recorded, not enforced.
    """
    return _sweep(net, op, y, target, invert=True, invert_tol=invert_tol)
