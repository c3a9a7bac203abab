"""The two gradient engines over the unrolled forward pass.

``backprop_standard`` records every unroll on one tape and backpropagates
once, so tape-retained activation bytes grow linearly with the unroll count.

``backprop_mel`` never records the forward pass. It runs it plain, seeds the
loss gradient at the output, then walks the unrolls in reverse: algebraically
invert the DC layer to recover z, fixed-point-invert the residual
regularizer to recover the unroll's input, rebuild just that unroll's
regularizer graph, backpropagate the gradient at z through it, and dispose
the tape. Peak retained bytes stay at one unroll's worth regardless of depth,
at the price of the recompute work.

The DC layer is never rebuilt: its taped node saves nothing and its VJP is
closed form (:func:`dc_vjp`), so mel applies that VJP to the incoming image
gradient directly. Both engines therefore use the same implicit DC VJP, and
their gradients agree up to fixed-point/CG tolerances rather than differing
by CG-trace effects.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass

import numpy as np

from .autodiff import Tape
from .mri import EncodingOperator
from .tensor import MemoryLedger, Tensor
from .unrolled import (
    FixedPointDivergence,
    UnrolledNetParams,
    dc_invert,
    dc_vjp,
    modl_forward,
    regularizer_forward,
    regularizer_invert,
)

__all__ = ["GradientResult", "backprop_standard", "backprop_mel", "engine_report"]

BENCH_CSV_HEADER = ["engine", "n_unrolls", "shape", "peak_bytes", "wall_time_s", "loss"]


@dataclass
class GradientResult:
    """Gradients plus the bookkeeping the benchmarks report."""

    grads: dict[str, Tensor]
    loss_value: float
    peak_tape_bytes: int
    wall_time: float
    engine: str
    n_unrolls: int
    shape: tuple[int, ...]
    recompute_errors: list[float] | None = None


def backprop_standard(net: UnrolledNetParams, op: EncodingOperator, y: Tensor,
                      target: Tensor) -> GradientResult:
    """Full-graph backprop: all unrolls recorded on a single tape."""
    t0 = time.perf_counter()
    ledger = MemoryLedger()
    tape = Tape(ledger=ledger, scope_id="standard")
    leaves = net.named_leaves()
    for _, t in leaves:
        tape.watch(t)
    x = modl_forward(net, op, y, tape=tape)
    loss = tape.record("l1", x, target=target.data)
    gm = tape.backward(loss, Tensor(1.0), [t for _, t in leaves])
    grads = {name: gm[t.alloc_id] for name, t in leaves}
    peak = ledger.peak_bytes
    tape.dispose()
    return GradientResult(grads, loss.item(), peak, time.perf_counter() - t0,
                          "standard", net.n_unrolls, op.image_shape)


def backprop_mel(net: UnrolledNetParams, op: EncodingOperator, y: Tensor,
                 target: Tensor, invert_tol: float = 1e-10,
                 invert_max_iter: int = 50, debug_recompute: bool = False) -> GradientResult:
    """Memory-efficient backprop by layer inversion, one unroll at a time.

    Requires contractive (projected) weights; a fixed-point failure aborts
    with the offending unroll index rather than falling back to stored
    activations.
    """
    t0 = time.perf_counter()
    ledger = MemoryLedger()

    iterates: list | None = [] if debug_recompute else None
    x_n = modl_forward(net, op, y, iterates=iterates)  # no gradients recorded

    # seed gradient from the loss at the network output
    loss_tape = Tape(ledger=ledger, scope_id="mel:loss")
    loss_tape.watch(x_n)
    loss = loss_tape.record("l1", x_n, target=target.data)
    q = loss_tape.backward(loss, Tensor(1.0), [x_n])[x_n.alloc_id]
    loss_value = loss.item()
    loss_tape.dispose()

    grads: dict[str, np.ndarray] = {}
    recompute_errors: list[float] = []
    leaves = net.named_leaves()
    for n in range(net.n_unrolls - 1, -1, -1):
        z = dc_invert(op, y, x_n, net.mu)
        try:
            x_prev = regularizer_invert(net.reg, z, tol=invert_tol, max_iter=invert_max_iter)
        except FixedPointDivergence as e:
            raise FixedPointDivergence(
                f"unroll {n}: {e}", residual=e.residual, unroll=n
            ) from None
        if iterates is not None:
            ref = iterates[n].data
            recompute_errors.append(
                float(np.linalg.norm(x_prev.data - ref) / max(np.linalg.norm(ref), 1e-300))
            )

        gz = dc_vjp(op, q, net.mu, net.n_cg, exit_rel=net.cg_exit)
        tape = Tape(ledger=ledger, scope_id=f"mel:unroll{n}")
        tape.watch(x_prev)
        for _, t in leaves:
            tape.watch(t)
        z_re = regularizer_forward(net.reg, x_prev, tape=tape)
        gm = tape.backward(z_re, gz, [x_prev] + [t for _, t in leaves])
        q = gm[x_prev.alloc_id]
        for name, t in leaves:
            g = gm[t.alloc_id].data
            grads[name] = grads[name] + g if name in grads else g
        tape.dispose()
        x_n = x_prev

    return GradientResult(
        {k: Tensor(v) for k, v in grads.items()},
        loss_value,
        ledger.peak_bytes,
        time.perf_counter() - t0,
        "mel",
        net.n_unrolls,
        op.image_shape,
        recompute_errors=recompute_errors if debug_recompute else None,
    )


def engine_report(results: list[GradientResult], labels: list[str] | None = None) -> str:
    """CSV rows (engine, N, slab shape, peak bytes, wall time, loss)."""
    if not results:
        raise ValueError("engine_report needs at least one result")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(BENCH_CSV_HEADER)
    for i, r in enumerate(results):
        engine = labels[i] if labels else r.engine
        shape = "x".join(str(s) for s in r.shape)
        writer.writerow([engine, r.n_unrolls, shape, r.peak_tape_bytes, f"{r.wall_time:.6f}", f"{r.loss_value:.12g}"])
    return buf.getvalue()
