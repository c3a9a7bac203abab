"""Reverse-mode automatic differentiation over a closed tensor-op set.

A :class:`Tape` is a scope: it records operations, holds the tensors each
vector-Jacobian product will need and counts their bytes. Its leaves are
the inputs it did not produce, and its graph goes with it, which lets the
memory-efficient engine build and drop one unroll's graph at a time.

The op set is closed on purpose and is exactly what ``modl_forward``
records: conv, relu, add, scale, complex/channel casts, and the implicit
data-consistency solve node (``dc_solve``) registered by the
unrolled-network module. The loss is not taped; its gradient is closed
form and seeds :meth:`Tape.backward` at the network output. The encoding
operator is never taped; it appears only inside ``dc_solve``. Each VJP is
individually unit-testable.

Each activation is held once: conv saves its input, relu saves its output
(out > 0 exactly where in > 0), and the tape counts a tensor saved by
several nodes once.

Complex leaves follow the real-pair convention for real-valued losses:
grad = dL/d(re) + i * dL/d(im).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .tensor import (
    Tensor,
    add,
    channels_to_complex,
    complex_to_channels,
    conv_input_grad,
    conv_nd,
    conv_weight_grad,
    relu,
    scale,
)

__all__ = ["Tape", "NodeRecord", "OpDef", "register_op", "apply_op"]


@dataclass
class OpDef:
    """Forward callable, saved-tensor selector, and VJP for one op kind."""

    forward: Callable[..., Tensor]
    saves: Callable[..., dict[str, Tensor]]
    vjp: Callable[..., tuple]


_OPS: dict[str, OpDef] = {}


def register_op(kind: str, forward, vjp, saves=None) -> None:
    if kind in _OPS:
        raise ValueError(f"op kind {kind!r} already registered")
    _OPS[kind] = OpDef(forward, saves or (lambda inputs, out, attrs: {}), vjp)


def apply_op(kind: str, *inputs: Tensor, **attrs) -> Tensor:
    """Run an op exactly as the tape would, without recording."""
    return _OPS[kind].forward(*inputs, **attrs)


@dataclass
class NodeRecord:
    op_kind: str
    input_ids: tuple[int, ...]
    saved: dict[str, Tensor]
    attrs: dict[str, Any]


class Tape:
    """Append-only Wengert list over the registered op set.

    One tape is one graph lifetime: single-writer, single-reader. An input
    it did not produce becomes a ``leaf`` node when an op first reads it.
    ``saved_bytes`` is the tape ledger: the ``nbytes`` of every tensor a
    node saves, each allocation counted once. It only grows while the tape
    records; the saved tensors go with the tape.
    """

    def __init__(self):
        self.nodes: list[NodeRecord] = []
        self.saved_bytes = 0
        self._node_of: dict[int, int] = {}
        self._saved_ids: set[int] = set()

    # -- graph construction ---------------------------------------------

    def _add_node(self, kind, input_ids, saved, attrs, out: Tensor) -> int:
        idx = len(self.nodes)
        self.nodes.append(NodeRecord(kind, tuple(input_ids), saved, attrs))
        self._node_of[out.alloc_id] = idx
        return idx

    def _ensure_node(self, t: Tensor) -> int:
        idx = self._node_of.get(t.alloc_id)
        if idx is None:
            idx = self._add_node("leaf", (), {}, {}, t)
        return idx

    def _retain(self, t: Tensor) -> None:
        if t.alloc_id not in self._saved_ids:
            self._saved_ids.add(t.alloc_id)
            self.saved_bytes += t.nbytes

    def record(self, kind: str, *inputs: Tensor, **attrs) -> Tensor:
        """Execute ``kind`` and append its node; output values are identical
        to the untaped op."""
        op = _OPS[kind]
        out = op.forward(*inputs, **attrs)
        input_ids = [self._ensure_node(t) for t in inputs]
        saved = op.saves(inputs, out, attrs)
        for t in saved.values():
            self._retain(t)
        self._add_node(kind, input_ids, saved, attrs, out)
        return out

    # -- reverse pass -----------------------------------------------------

    def backward(self, output: Tensor, seed: Tensor, leaves) -> dict[int, Tensor]:
        """Vector-Jacobian products of ``output`` seeded with ``seed``.

        Returns a gradient map keyed by alloc_id with every requested tensor,
        which must be an op's output or input on this tape (zeros when the
        output does not depend on it).
        """
        out_idx = self._node_of.get(output.alloc_id)
        if out_idx is None:
            raise ValueError("output is not on this tape")
        if seed.shape != output.shape:
            raise ValueError(f"seed shape {seed.shape} != output shape {output.shape}")
        leaves = list(leaves)
        leaf_idx = []
        for t in leaves:
            idx = self._node_of.get(t.alloc_id)
            if idx is None:
                raise ValueError(f"leaf alloc_id {t.alloc_id} is not on this tape")
            leaf_idx.append(idx)

        # Every consumer of a node comes after it, so a node's adjoint is
        # complete when the sweep reaches it. It is dropped there unless it
        # is requested, which keeps only the adjoints still to be consumed.
        keep = set(leaf_idx)
        adj: dict[int, np.ndarray] = {out_idx: np.array(seed.data, copy=True)}
        for idx in range(len(self.nodes) - 1, -1, -1):
            node = self.nodes[idx]
            g = adj.get(idx) if idx in keep else adj.pop(idx, None)
            if g is None or node.op_kind == "leaf":
                continue
            grads = _OPS[node.op_kind].vjp(node.saved, node.attrs, g)
            for in_idx, gi in zip(node.input_ids, grads):
                if gi is None:
                    continue
                if in_idx in adj:
                    adj[in_idx] = adj[in_idx] + gi
                else:
                    adj[in_idx] = gi

        result: dict[int, Tensor] = {}
        for t, idx in zip(leaves, leaf_idx):
            g = adj.get(idx)
            if g is None:
                g = np.zeros(t.shape, dtype=t.data.dtype)
            result[t.alloc_id] = Tensor(g)
        return result


# --- core op registrations ---------------------------------------------------


def _vjp_conv(saved, attrs, g):
    x = saved["x"].data
    w = saved["w"].data
    gx = conv_input_grad(g, w)
    gw = conv_weight_grad(x, g, w.shape[2:])
    gb = g.reshape(g.shape[0], -1).sum(axis=1)
    return gx, gw, gb


register_op(
    "conv",
    conv_nd,
    _vjp_conv,
    saves=lambda inputs, out, attrs: {"x": inputs[0], "w": inputs[1]},
)

register_op(
    "relu",
    relu,
    lambda saved, attrs, g: (g * (saved["y"].data > 0.0),),
    saves=lambda inputs, out, attrs: {"y": out},
)

register_op("add", add, lambda saved, attrs, g: (g, g))

register_op(
    "scale",
    scale,
    lambda saved, attrs, g: (g * attrs["a"],),
)

register_op(
    "c2ch",
    complex_to_channels,
    lambda saved, attrs, g: (g[0] + 1j * g[1],),
)

register_op(
    "ch2c",
    channels_to_complex,
    lambda saved, attrs, g: (np.stack([g.real, g.imag]),),
)
