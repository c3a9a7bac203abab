"""In-memory span tracing of melrecon's layers, installed from outside.

Each traced function is replaced, for the duration of a traced run, by a
wrapper that records one span per call: name, start, end, parent span and
request id. ``from .x import f`` binds ``f`` early, so a wrapper is installed
in every ``melrecon`` namespace that holds the original object, not only in
the defining module. Methods are patched on their class.

A span's self time is its duration minus the time its child spans cover.
Spans stay in memory and are written out once, after the run.
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from melrecon import autodiff, mel, mri, tensor, train, unrolled
from melrecon.autodiff import Tape
from melrecon.mri import EncodingOperator


def _correlate_flops(args) -> float:
    x, w = args[0], args[1]
    return 2.0 * w.shape[0] * w.shape[1] * math.prod(w.shape[2:]) * math.prod(x.shape[1:])


def _fft_points(args) -> float:
    # forward transforms every coil of an image; adjoint gets coil k-space
    op, arr = args[0], args[1]
    return float(arr.size * (op.coils if arr.ndim == len(op.image_shape) else 1))


# (span name, owner, attribute, per-call counter or None). The owner is the
# defining module or class; module functions are also patched wherever else
# a melrecon module bound the same object.
TARGETS = [
    ("tensor.correlate", tensor, "_correlate", _correlate_flops),
    ("tensor.conv_weight_grad", tensor, "conv_weight_grad", None),
    ("mri.operator_init", EncodingOperator, "__init__", None),
    ("mri.forward", EncodingOperator, "_forward", _fft_points),
    ("mri.adjoint", EncodingOperator, "_adjoint", _fft_points),
    ("mri.normal", EncodingOperator, "_normal", None),
    ("autodiff.record", Tape, "record", None),
    ("autodiff.backward", Tape, "backward", None),
    ("unrolled.modl_forward", unrolled, "modl_forward", None),
    ("unrolled.regularizer_forward", unrolled, "regularizer_forward", None),
    ("unrolled.regularizer_invert", unrolled, "regularizer_invert", None),
    ("unrolled.dc_forward", unrolled, "dc_forward", None),
    ("unrolled.dc_invert", unrolled, "dc_invert", None),
    ("unrolled.cg", unrolled, "cg_solve_normal", None),
    ("unrolled.project", unrolled, "project_weights", None),
    ("mel.backprop_mel", mel, "backprop_mel", None),
    ("mel.backprop_standard", mel, "backprop_standard", None),
    ("train.train_steps", train, "train_steps", None),
    ("train.adam_step", train, "adam_step", None),
]

# modules whose early-bound imports must be patched too
MODULES = (tensor, autodiff, mri, unrolled, mel, train)

_MEL_PHASE = {"unrolled.modl_forward": "forward", "unrolled.dc_invert": "invert_dc",
              "unrolled.regularizer_invert": "invert_reg", "unrolled.regularizer_forward": "rebuild",
              "unrolled.dc_forward": "rebuild"}


class Tracer:
    """Span recorder; single-threaded, like the benchmark's one client."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.req: list[int] = []
        self.child: list[float] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.request = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _wrapper(self, name, fn, counter):
        names, starts, ends, parents, reqs, child, stack = (
            self.name, self.start, self.end, self.parent, self.req, self.child, self._stack)
        counters = self.counters

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            reqs.append(self.request)
            child.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            if counter is not None:
                counters[name] += counter(args)
            t0 = perf_counter()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                ends[idx] = t1
                stack.pop()
                if stack:
                    child[stack[-1]] += t1 - t0

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, owner, attr, counter in TARGETS:
            orig = getattr(owner, attr)
            wrapped = self._wrapper(name, orig, counter)
            homes = [owner] if isinstance(owner, type) else [m for m in MODULES if getattr(m, attr, None) is orig]
            for home in homes:
                self._saved.append((home, attr, orig))
                setattr(home, attr, wrapped)

    def uninstall(self) -> None:
        for home, attr, orig in reversed(self._saved):
            setattr(home, attr, orig)
        self._saved.clear()

    # -- analysis ------------------------------------------------------------

    def summary(self, n_requests: int, layers: int) -> dict[str, float]:
        """Per-request layer metrics from spans with a request id >= 0."""
        n = max(n_requests, 1)
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        children: dict[int, list[int]] = defaultdict(list)
        for i, (nm, r) in enumerate(zip(self.name, self.req)):
            if r < 0:
                continue
            d = self.end[i] - self.start[i]
            calls[nm] += 1
            total[nm] += d
            self_s[nm] += d - self.child[i]
            if self.parent[i] >= 0:
                children[self.parent[i]].append(i)

        def kids(i, nm):
            return [c for c in children.get(i, ()) if self.name[c] == nm]

        dur = lambda i: self.end[i] - self.start[i]
        m: dict[str, float] = {}
        for nm in ("tensor.correlate", "unrolled.modl_forward", "unrolled.regularizer_forward",
                   "unrolled.dc_forward", "unrolled.dc_invert", "unrolled.cg"):
            m[f"{nm}.calls"] = calls[nm] / n
            m[f"{nm}.s"] = total[nm] / n
            m[f"{nm}.self_s"] = self_s[nm] / n
        m["tensor.correlate.flops"] = self.counters["tensor.correlate"] / n
        for nm in ("tensor.conv_weight_grad", "mri.normal", "mri.forward", "mri.adjoint",
                   "mri.operator_init", "unrolled.regularizer_invert", "unrolled.project"):
            m[f"{nm}.calls"] = calls[nm] / n
            m[f"{nm}.s"] = total[nm] / n
        m["mri.fft_points"] = (self.counters["mri.forward"] + self.counters["mri.adjoint"]) / n
        for nm in ("autodiff.record", "autodiff.backward"):
            m[f"{nm}.calls"] = calls[nm] / n
            m[f"{nm}.self_s"] = self_s[nm] / n

        spans = lambda nm: [i for i, x in enumerate(self.name) if x == nm and self.req[i] >= 0]
        inv = spans("unrolled.regularizer_invert")
        m["unrolled.fp_iters"] = (
            sum(len(kids(i, "tensor.correlate")) / layers - 1 for i in inv) / len(inv) if inv else 0.0)
        cg = spans("unrolled.cg")
        m["unrolled.cg.iters"] = sum(len(kids(i, "mri.normal")) - 1 for i in cg) / len(cg) if cg else 0.0

        # mel phases from the direct children of each backprop_mel span; the
        # loss tape's backward runs before the first DC inversion and, with
        # everything else not named here, falls in "loss"
        phase = dict.fromkeys(("forward", "invert_dc", "invert_reg", "rebuild", "backward", "loss"), 0.0)
        for i in spans("mel.backprop_mel"):
            inverting = False
            covered = 0.0
            for c in children.get(i, ()):
                nm = self.name[c]
                inverting = inverting or nm == "unrolled.dc_invert"
                key = "backward" if nm == "autodiff.backward" and inverting else _MEL_PHASE.get(nm)
                if key is not None:
                    phase[key] += dur(c)
                    covered += dur(c)
            phase["loss"] += dur(i) - covered
        for k, v in phase.items():
            m[f"mel.phase.{k}_s"] = v / n
        m["mel.backprop_mel.s"] = total["mel.backprop_mel"] / n
        m["mel.backprop_standard.s"] = total["mel.backprop_standard"] / n
        m["train.train_steps.s"] = total["train.train_steps"] / n
        m["train.adam_step.self_s"] = self_s["train.adam_step"] / n
        return m

    def write(self, path: Path) -> None:
        """Spans as columns: name index, start, end, parent, request."""
        names = sorted(set(self.name))
        code = {nm: i for i, nm in enumerate(names)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump({"names": names, "name": [code[x] for x in self.name], "start": self.start,
                       "end": self.end, "parent": self.parent, "request": self.req}, f)


def check_fired(tracer: Tracer, expected: set[str]) -> None:
    missing = sorted(expected - set(tracer.name))
    if missing:
        print(f"error: traced wrappers never fired: {', '.join(missing)}", file=sys.stderr)
        raise SystemExit(3)
