"""The benchmark's workloads. Each one generates its inputs from the workload
seed and drives the public melrecon API the way ``cli.cmd_train`` and
``cli.cmd_recon`` do. Library functions are looked up on their module at
call time, so traced wrappers installed there are the ones that run.

A workload offers:
  setup(seed)       synthesize data, build operators, init weights, warm up
  request()         one timed request -> (latency_s, cases, ok, peak_tape_bytes);
                    requests repeat in cycles of ``cycle``, and ``done`` counts them
  heap_request()    one fixed request, run under tracemalloc by the caller
  psnr_db()         deterministic quality figure of this seed
  check()           grad_gap and x0_drift on fixed check batches (train only)
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

from melrecon import mel, train, unrolled
from melrecon.mri import DatasetConfig, build_dataset
from melrecon.unrolled import RegularizerParams, UnrolledNetParams

# A training run repeats a cycle of this many epochs from the seeded initial
# weights: step cost grows as training pushes the weights towards the
# contraction bound, so an unbounded run would measure a different mix of
# steps whenever the program gets faster. psnr and the gradient check use the
# weights at the end of the cycle.
TRAIN_EPOCHS = 2


def _finite(a) -> bool:
    return bool(np.isfinite(a).all())


def max_rel_gap(ga: dict, gb: dict) -> float:
    """Max over tensors of max|a - b| / max(|a|, |b|), as in the acceptance suite."""
    out = 0.0
    for k in ga:
        a, b = ga[k], gb[k]
        scale = max(np.abs(a).max(), np.abs(b).max(), 1e-30)
        out = max(out, float(np.abs(a - b).max() / scale))
    return out


class TrainWorkload:
    """Closed-loop training: one request is one ``train.train_steps`` call on
    a batch of 2 from the criterion-7 data (24x24, 3 coils, R=3)."""

    batch_size = 2
    layers = 5

    def __init__(self, name: str, engine: str, n_unrolls: int, why: str, expect: set[str]):
        self.name, self.engine, self.n_unrolls, self.why = name, engine, n_unrolls, why
        self.expect = expect

    def setup(self, seed: int) -> None:
        ds = build_dataset(DatasetConfig(shape=(24, 24), coils=3, accel=3.0, calib=(6, 6), noise_sigma=1e-3,
                                         n_train=12, n_val=2, n_test=2, seed=seed))
        self.val = ds.split("val")
        self.prepared = [(c.operator(), c.y, c.x) for c in ds.split("train")]
        reg = unrolled.project_weights(RegularizerParams.init(channels=16, layers=self.layers, seed=seed + 1))
        self.net0 = UnrolledNetParams(reg, 0.3, self.n_unrolls, 10)
        self.adam0 = train.AdamState.init(self.net0, lr=1e-3)
        rng = np.random.default_rng(seed + 2)
        order = np.concatenate([rng.permutation(len(self.prepared)) for _ in range(TRAIN_EPOCHS)])
        self.batches = [[self.prepared[i] for i in order[k: k + self.batch_size]]
                        for k in range(0, len(order), self.batch_size)]
        self.cycle = len(self.batches)
        self.done = 0
        self.net_at_check = None
        train.train_steps(self.net0, self.adam0, self.batches[0], self.engine)  # warm-up

    def request(self):
        k = self.done % self.cycle
        if k == 0:
            self.net, self.adam = self.net0, self.adam0
        batch = self.batches[k]
        self.done += 1
        t0 = perf_counter()
        net, adam, loss, peak = train.train_steps(self.net, self.adam, batch, self.engine)
        dt = perf_counter() - t0
        # Adam's first moment is finite iff every batch gradient is finite
        ok = (math.isfinite(loss) and all(_finite(m) for m in adam.m.values())
              and all(_finite(t.data) for _, t in net.named_leaves()))
        self.net, self.adam = net, adam
        if ok and k == self.cycle - 1:
            self.net_at_check = net
        return dt, len(batch), ok, peak

    def _cycle_end_net(self):
        if self.net_at_check is None:
            raise RuntimeError("no training cycle completed without failure")
        return self.net_at_check

    def heap_request(self) -> None:
        train.train_steps(self.net0, self.adam0, self.batches[0], self.engine)

    def psnr_db(self) -> float:
        net = self._cycle_end_net()
        return float(np.mean([train.psnr(unrolled.modl_forward(net, c.operator(), c.y), c.x) for c in self.val]))

    def check(self) -> dict[str, float]:
        """Mel vs standard batch gradients on two fixed batches with identical
        weights, and the relative gap between the x_0 each mel sweep
        recovers and A^H y."""
        net = self._cycle_end_net()
        recovered = []
        orig = mel.regularizer_invert

        def spy(*args, **kwargs):
            out = orig(*args, **kwargs)
            recovered.append(out)
            return out

        gap, drift = 0.0, 0.0
        mel.regularizer_invert = spy
        try:
            for start in (0, self.batch_size):
                batch = self.prepared[start: start + self.batch_size]
                g = {}
                for engine, backprop in (("mel", mel.backprop_mel), ("standard", mel.backprop_standard)):
                    acc = {}
                    for op, y, target in batch:
                        r = backprop(net, op, y, target)
                        for k, v in r.grads.items():
                            acc[k] = acc.get(k, 0.0) + v.data / len(batch)
                        if engine == "mel":
                            x0 = op.adjoint(y).data
                            drift = max(drift, float(np.linalg.norm(recovered[-1].data - x0) / np.linalg.norm(x0)))
                    g[engine] = acc
                gap = max(gap, max_rel_gap(g["mel"], g["standard"]))
        finally:
            mel.regularizer_invert = orig
        return {"grad_gap": gap, "mel.x0_drift": drift}


class ReconWorkload:
    """Closed-loop inference: one request builds ``case.operator()`` and runs
    ``modl_forward``, cycling through a pool of distinct 128x128, 8-coil,
    R=4 Poisson-disk cases with CLI-default network settings."""

    name = "recon-large"
    layers = 5
    why = ("inference only: no tape, backward, inversion or projection; FFTs and the conv dominate, "
           "the conv working set exceeds L2, and every request builds its own operator")
    expect = {"tensor.correlate", "mri.operator_init", "mri.forward", "mri.adjoint", "mri.normal",
              "unrolled.modl_forward", "unrolled.regularizer_forward", "unrolled.dc_forward", "unrolled.cg"}

    def setup(self, seed: int) -> None:
        ds = build_dataset(DatasetConfig(shape=(128, 128), coils=8, accel=4.0, calib=(8, 8), noise_sigma=1e-3,
                                         n_train=1, n_val=1, n_test=1, seed=seed))
        self.pool = ds.cases
        reg = unrolled.project_weights(RegularizerParams.init(channels=16, layers=self.layers, seed=seed + 1))
        self.net = UnrolledNetParams(reg, 0.05, 5, 10)
        # k-space residual of the zero-filled image A^H y, the bar each output must beat
        self.zf_residual = []
        for c in self.pool:
            op = c.operator()
            self.zf_residual.append(self._residual(op, op.adjoint(c.y).data, c.y.data))
        self.cycle = len(self.pool)
        self.psnr_of: dict[int, float] = {}
        self.done = 0
        self._recon(self.pool[0])  # warm-up

    @staticmethod
    def _residual(op, x, y) -> float:
        return float(np.linalg.norm(op._forward(x) - y) / np.linalg.norm(y))

    def _recon(self, case):
        op = case.operator()
        return op, unrolled.modl_forward(self.net, op, case.y)

    def request(self):
        k = self.done % self.cycle
        self.done += 1
        case = self.pool[k]
        t0 = perf_counter()
        op, rec = self._recon(case)
        dt = perf_counter() - t0
        ok = (rec.shape == case.x.shape and _finite(rec.data)
              and self._residual(op, rec.data, case.y.data) < self.zf_residual[k])
        if ok and k not in self.psnr_of:
            self.psnr_of[k] = train.psnr(rec, case.x)
        return dt, 1, ok, 0

    def heap_request(self) -> None:
        self._recon(self.pool[0])

    def psnr_db(self) -> float:
        for k, case in enumerate(self.pool):
            if k not in self.psnr_of:
                self.psnr_of[k] = train.psnr(self._recon(case)[1], case.x)
        return float(np.mean([self.psnr_of[k] for k in range(len(self.pool))]))

    def check(self) -> dict[str, float]:
        return {}


_TRAIN_COMMON = {"tensor.correlate", "tensor.conv_weight_grad", "mri.forward", "mri.adjoint", "mri.normal",
                 "autodiff.record", "autodiff.backward", "unrolled.modl_forward", "unrolled.regularizer_forward",
                 "unrolled.dc_forward", "unrolled.cg", "unrolled.project", "train.train_steps", "train.adam_step"}

WORKLOADS = {
    "train-mel-deep": lambda: TrainWorkload(
        "train-mel-deep", "mel", 10,
        "criterion-7 mel run at N=10: runs every mel-only layer (DC and fixed-point inversion, per-unroll "
        "rebuild); conv, CG and inversion dominate, projection is small",
        _TRAIN_COMMON | {"unrolled.dc_invert", "unrolled.regularizer_invert", "mel.backprop_mel"}),
    "train-standard-shallow": lambda: TrainWorkload(
        "train-standard-shallow", "standard", 4,
        "criterion-7 partner run, standard engine at N=4: full-tape record and backward, no inversion; "
        "weight projection is about a third of a step",
        _TRAIN_COMMON | {"mel.backprop_standard"}),
    "recon-large": ReconWorkload,
}
