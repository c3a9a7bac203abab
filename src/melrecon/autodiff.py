"""Reverse-mode automatic differentiation over a closed tensor-op set.

Graphs are explicitly scoped: a :class:`Tape` records operations, holds the
tensors each vector-Jacobian product will need (registered with the memory
ledger), and can be disposed independently, which is what lets the
memory-efficient engine build and discard one unroll's graph at a time.

The op set is closed on purpose and is exactly what the unrolled network
and its loss record: conv, relu, add, scale, complex/channel casts,
per-pixel l1 loss, and the implicit data-consistency solve node
(``dc_solve``) registered by the unrolled-network module. The encoding
operator is never taped; it appears only inside ``dc_solve``. Each VJP is
individually unit-testable.

Complex leaves follow the real-pair convention for real-valued losses:
grad = dL/d(re) + i * dL/d(im).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .tensor import (
    MemoryLedger,
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

__all__ = ["Tape", "NodeRecord", "OpDef", "register_op", "apply_op", "l1_value"]


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

    One tape is one graph lifetime: single-writer, single-reader. ``dispose``
    releases every saved tensor from the ledger and makes the tape unusable
    (idempotently).
    """

    def __init__(self, ledger: MemoryLedger | None = None, scope_id: str = ""):
        self.nodes: list[NodeRecord] = []
        self.scope_id = scope_id
        self.ledger = ledger
        self._node_of: dict[int, int] = {}
        self._retained: list[int] = []
        self._retained_set: set[int] = set()
        self._disposed = False

    # -- graph construction ---------------------------------------------

    def _add_node(self, kind, input_ids, saved, attrs, out: Tensor) -> int:
        idx = len(self.nodes)
        self.nodes.append(NodeRecord(kind, tuple(input_ids), saved, attrs))
        self._node_of[out.alloc_id] = idx
        return idx

    def _ensure_node(self, t: Tensor) -> int:
        idx = self._node_of.get(t.alloc_id)
        if idx is None:
            idx = self._add_node("const", (), {}, {}, t)
        return idx

    def _retain(self, t: Tensor, label: str) -> None:
        if t.alloc_id in self._retained_set:
            return
        self._retained_set.add(t.alloc_id)
        self._retained.append(t.alloc_id)
        if self.ledger is not None:
            self.ledger.retain(t, label)

    def watch(self, t: Tensor) -> Tensor:
        """Mark ``t`` as a leaf (parameter or input) of this graph."""
        if self._disposed:
            raise ValueError("watch on a disposed tape")
        if t.alloc_id not in self._node_of:
            self._add_node("leaf", (), {}, {}, t)
        return t

    def record(self, kind: str, *inputs: Tensor, **attrs) -> Tensor:
        """Execute ``kind`` and append its node; output values are identical
        to the untaped op."""
        if self._disposed:
            raise ValueError("record on a disposed tape")
        op = _OPS[kind]
        out = op.forward(*inputs, **attrs)
        input_ids = [self._ensure_node(t) for t in inputs]
        saved = op.saves(inputs, out, attrs)
        for name, t in saved.items():
            self._retain(t, f"{self.scope_id}:{kind}.{name}")
        self._add_node(kind, input_ids, saved, attrs, out)
        return out

    # -- reverse pass -----------------------------------------------------

    def backward(self, output: Tensor, seed: Tensor, leaves) -> dict[int, Tensor]:
        """Vector-Jacobian products of ``output`` seeded with ``seed``.

        Returns a gradient map keyed by leaf alloc_id; every requested leaf
        is present (zeros when the output does not depend on it).
        """
        if self._disposed:
            raise ValueError("backward on a disposed tape")
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

        adj: dict[int, np.ndarray] = {out_idx: np.array(seed.data, copy=True)}
        for idx in range(len(self.nodes) - 1, -1, -1):
            node = self.nodes[idx]
            g = adj.get(idx)
            if g is None or node.op_kind in ("leaf", "const"):
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

    # -- lifetime ---------------------------------------------------------

    def dispose(self) -> None:
        """Release all saved tensors; the tape is unusable afterwards."""
        if self._disposed:
            return
        if self.ledger is not None:
            for alloc_id in self._retained:
                self.ledger.release(alloc_id)
        self.nodes.clear()
        self._node_of.clear()
        self._retained.clear()
        self._retained_set.clear()
        self._disposed = True


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
    lambda saved, attrs, g: (g * (saved["x"].data > 0.0),),
    saves=lambda inputs, out, attrs: {"x": inputs[0]},
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


def l1_value(x: np.ndarray, target: np.ndarray) -> float:
    """Per-pixel l1 on the 2-channel real view: mean over pixels of
    |re(x-t)| + |im(x-t)|."""
    d = x - target
    return float((np.abs(d.real) + np.abs(d.imag)).sum() / d.size)


def _l1_forward(x: Tensor, target: np.ndarray) -> Tensor:
    if x.shape != target.shape:
        raise ValueError(f"shape mismatch in l1: {x.shape} vs {target.shape}")
    return Tensor(l1_value(x.data, target))


def _l1_saves(inputs, out, attrs):
    d = inputs[0].data - attrs["target"]
    # sign per real channel; exact zeros get subgradient 0
    return {"sgn": Tensor(np.sign(d.real) + 1j * np.sign(d.imag))}


def _vjp_l1(saved, attrs, g):
    sgn = saved["sgn"].data
    return (float(g) * sgn / sgn.size,)


register_op("l1", _l1_forward, _vjp_l1, saves=_l1_saves)
