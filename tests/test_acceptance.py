"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. The training-based
criteria (6, 7) build small datasets and train end-to-end; the whole module
takes a few minutes on one CPU core.
"""

import math
import time

import numpy as np
import pytest

from melrecon.mel import backprop_mel, backprop_standard
from melrecon.mri import (
    DatasetConfig,
    EncodingOperator,
    build_dataset,
    make_poisson_disk_mask,
    make_sensitivities,
)
from melrecon.tensor import Tensor, fft_centered
from melrecon.train import AdamState, cg_sense, psnr, train_steps, zero_filled
from melrecon.unrolled import (
    RegularizerParams,
    UnrolledNetParams,
    cg_solve_normal,
    dc_forward,
    dc_invert,
    modl_forward,
    project_weights,
    regularizer_forward,
    regularizer_invert,
)
from melrecon.cli import max_feasible_unrolls

from oracles import dense_matrix_of, dft_centered_direct, central_diff


def report(num: int, ok: bool, detail: str):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion-{num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_instance(seed, shape=(16, 16), coils=2, n_unrolls=2, mu=0.3, n_cg=80,
                    cg_exit=1e-15, channels=8, layers=3, scale=3.0):
    rng = np.random.default_rng(seed)
    mask = make_poisson_disk_mask(shape, 2.0, calib=(4, 4), seed=seed)
    op = EncodingOperator(mask, make_sensitivities(shape, coils, seed=seed + 1))
    reg = project_weights(RegularizerParams.init(channels=channels, layers=layers, seed=seed + 2, scale=scale))
    net = UnrolledNetParams(reg, mu, n_unrolls, n_cg, cg_exit=cg_exit)
    y = Tensor(op._forward(crandn(rng, *shape)))
    target = Tensor(crandn(rng, *shape) * 0.5)
    return net, op, y, target


def max_rel_gap(ga, gb):
    out = 0.0
    for k in ga:
        a, b = ga[k].data, gb[k].data
        scale = max(np.abs(a).max(), np.abs(b).max(), 1e-30)
        out = max(out, float(np.abs(a - b).max() / scale))
    return out


# --- criterion 1: engine equivalence ------------------------------------------


def test_criterion_1_engine_equivalence():
    t0 = time.perf_counter()
    gaps = []
    seed = 1000
    cases = []
    for n_unrolls in (2, 5, 10):
        for rep in range(7):
            cases.append((seed, n_unrolls, 2 + (rep % 3)))
            seed += 13
    assert len(cases) >= 20
    for s, n, c in cases:
        mu = 0.3 if n >= 10 else (0.3, 0.5)[s % 2]
        net, op, y, target = random_instance(s, coils=c, n_unrolls=n, mu=mu)
        rs = backprop_standard(net, op, y, target)
        rm = backprop_mel(net, op, y, target, invert_tol=1e-12)
        gaps.append(max_rel_gap(rs.grads, rm.grads))
    elapsed = time.perf_counter() - t0
    worst = max(gaps)
    report(1, worst <= 1e-6 and elapsed < 120.0,
           f"max elementwise relative gradient gap {worst:.2e} over {len(cases)} instances "
           f"(N in 2/5/10, C in 2..4) <= 1e-6; runtime {elapsed:.1f}s < 120s")


# --- criteria 2, 3, 8: memory factor, time overhead, feasibility ----------------


@pytest.fixture(scope="module")
def bench_rows():
    net0, op, y, target = random_instance(2000, shape=(24, 24), coils=2, n_unrolls=2,
                                          mu=0.3, n_cg=20, cg_exit=1e-12, channels=16, layers=5)
    backprop_standard(net0, op, y, target)  # warm-up
    rows = {}
    t0 = time.perf_counter()
    for n in (2, 4, 8, 10):
        net = UnrolledNetParams(net0.reg, 0.3, n, 20)
        rows[("standard", n)] = backprop_standard(net, op, y, target)
        rows[("mel", n)] = backprop_mel(net, op, y, target, invert_tol=1e-10)
    rows["elapsed"] = time.perf_counter() - t0
    return rows


def test_criterion_2_memory_factor(bench_rows):
    s2 = bench_rows[("standard", 2)].peak_tape_bytes
    s10 = bench_rows[("standard", 10)].peak_tape_bytes
    m2 = bench_rows[("mel", 2)].peak_tape_bytes
    m10 = bench_rows[("mel", 10)].peak_tape_bytes
    ok = s10 >= 4 * s2 and m10 <= 1.1 * m2 and bench_rows["elapsed"] < 60.0
    report(2, ok,
           f"standard peak N=10/N=2 = {s10 / s2:.2f}x (>= 4x), "
           f"mel peak N=10/N=2 = {m10 / m2:.2f}x (<= 1.1x); bench runtime {bench_rows['elapsed']:.1f}s < 60s")


def test_criterion_3_time_overhead(bench_rows):
    ratios = [bench_rows[("mel", n)].wall_time / bench_rows[("standard", n)].wall_time for n in (4, 8, 10)]
    r = float(np.median(ratios))
    report(3, 1.0 < r < 3.0, f"mel/standard wall-time ratio {r:.2f} in (1.0, 3.0)")


def test_criterion_8_feasibility_frontier(bench_rows):
    pts = {e: [(n, bench_rows[(e, n)].peak_tape_bytes) for n in (2, 4, 8, 10)] for e in ("standard", "mel")}
    budget = 2.0 * bench_rows[("standard", 2)].peak_tape_bytes
    feas_std = max_feasible_unrolls(pts["standard"], budget)
    feas_mel = max_feasible_unrolls(pts["mel"], budget)
    report(8, feas_mel >= 8 and feas_std <= 4,
           f"under budget 2x standard-N=2 peak: max feasible unrolls mel={feas_mel} (>=8), standard={feas_std} (<=4)")


# --- criterion 4: inversion fidelity ----------------------------------------------


def test_criterion_4_inversion_fidelity():
    rng = np.random.default_rng(3000)
    worst_reg = 0.0
    worst_dc = 0.0
    for i in range(100):
        seed = 3000 + i
        p = project_weights(RegularizerParams.init(channels=8, layers=3, seed=seed, scale=3.0))
        x = Tensor(crandn(rng, 12, 12))
        z = regularizer_forward(p, x)
        back = regularizer_invert(p, z, tol=1e-12, max_iter=200)
        worst_reg = max(worst_reg, float(np.linalg.norm(back.data - x.data) / np.linalg.norm(x.data)))

        mask = make_poisson_disk_mask((12, 12), 2.0, calib=(4, 4), seed=seed)
        op = EncodingOperator(mask, make_sensitivities((12, 12), 2, seed=seed + 1))
        mu = 0.3
        y = Tensor(op._forward(crandn(rng, 12, 12)))
        z0 = Tensor(crandn(rng, 12, 12))
        xx = dc_forward(op, y, z0, mu, n_cg=400, exit_rel=1e-14)
        zb = dc_invert(op, y, xx, mu)
        worst_dc = max(worst_dc, float(np.linalg.norm(zb.data - z0.data) / np.linalg.norm(z0.data)))
    ok = worst_reg <= 1e-7 and worst_dc <= 1e-7
    report(4, ok,
           f"worst round-trip over 100 projected instances: regularizer {worst_reg:.2e}, dc {worst_dc:.2e} (<= 1e-7)")


# --- criterion 5: gradient correctness ---------------------------------------------


def test_criterion_5_gradient_vs_finite_differences():
    net, op, y, target = random_instance(4000, shape=(6, 6), coils=2, n_unrolls=2,
                                         mu=0.3, n_cg=120, cg_exit=1e-15, channels=2, layers=2, scale=1.0)
    n_params = sum(t.data.size for _, t in net.named_leaves())
    assert n_params <= 200
    rs = backprop_standard(net, op, y, target)
    from melrecon.autodiff import l1_value

    worst = 0.0
    for name, leaf in net.named_leaves():
        def loss_of(arr, _leaf=leaf):
            saved = _leaf.data.copy()
            _leaf.data[...] = arr
            out = modl_forward(net, op, y)
            _leaf.data[...] = saved
            return l1_value(out.data, target.data)

        fd = central_diff(loss_of, leaf.data.copy(), h=1e-6)
        got = rs.grads[name].data
        denom = max(np.abs(fd).max(), 1e-12)
        worst = max(worst, float(np.abs(got - fd).max() / denom))
    report(5, worst <= 1e-5,
           f"standard-engine gradient vs central finite differences: max relative gap {worst:.2e} <= 1e-5 "
           f"({n_params} parameters)")


# --- criteria 6, 7: trained reconstruction quality -----------------------------------


def run_training(ds, n_unrolls, engine, mu, epochs=30, lr=1e-3, batch=2, seed=5, invert_tol=1e-10):
    prepared = [(c.operator(), c.y, c.x) for c in ds.split("train")]
    val = ds.split("val")
    k = len(prepared)
    rng = np.random.default_rng(seed)
    reg = project_weights(RegularizerParams.init(channels=16, layers=5, seed=seed))
    net = UnrolledNetParams(reg, mu, n_unrolls, 10)
    adam = AdamState.init(net, lr=lr)
    best_psnr, best_net = -math.inf, net
    losses_by_epoch = []
    for _ in range(epochs):
        order = rng.permutation(k)
        ep_losses = []
        for s in range(0, k, batch):
            cases = [prepared[i] for i in order[s : s + batch]]
            net, adam, loss, _ = train_steps(net, adam, cases, engine, invert_tol=invert_tol)
            ep_losses.append(loss)
        losses_by_epoch.append(float(np.mean(ep_losses)))
        v = float(np.mean([psnr(modl_forward(net, c.operator(), c.y), c.x) for c in val]))
        if v > best_psnr:
            best_psnr, best_net = v, net
    return best_net, best_psnr, losses_by_epoch


@pytest.fixture(scope="module")
def desk_dataset():
    cfg = DatasetConfig(shape=(32, 32), coils=4, accel=4.0, calib=(6, 6), noise_sigma=1e-3,
                        n_train=16, n_val=2, n_test=2, seed=1234)
    return build_dataset(cfg)


def test_criterion_6_quality_ordering(desk_dataset):
    ds = desk_dataset
    val = ds.split("val")
    zf = float(np.mean([psnr(zero_filled(c.operator(), c.y), c.x) for c in val]))
    cg = float(np.mean([psnr(cg_sense(c.operator(), c.y), c.x) for c in val]))
    t0 = time.perf_counter()
    best_net, modl, losses = run_training(ds, n_unrolls=5, engine="standard", mu=0.05)
    elapsed = time.perf_counter() - t0
    ok = modl > cg + 0.3 and cg > zf + 0.3
    # trained model beats zero-filled on every validation case individually
    per_case_ok = all(
        psnr(modl_forward(best_net, c.operator(), c.y), c.x) > psnr(zero_filled(c.operator(), c.y), c.x)
        for c in val
    )
    # loss-decrease property tied to the same run
    early = float(np.median(losses[:5]))
    late = float(np.median(losses[-5:]))
    report(6, ok and per_case_ok and late < early,
           f"mean val pSNR: modl(N=5) {modl:.2f} > cg_sense {cg:.2f} + 0.3 > zero_filled {zf:.2f} + 0.6; "
           f"beats zero-filled on every val case: {per_case_ok}; "
           f"median loss last-5 {late:.4f} < first-5 {early:.4f}; train time {elapsed:.0f}s")


def test_criterion_7_unroll_depth_trend():
    cfg = DatasetConfig(shape=(24, 24), coils=3, accel=3.0, calib=(6, 6), noise_sigma=1e-3,
                        n_train=12, n_val=2, n_test=2, seed=777)
    ds = build_dataset(cfg)
    _, p4, _ = run_training(ds, n_unrolls=4, engine="standard", mu=0.3)
    _, p10, _ = run_training(ds, n_unrolls=10, engine="mel", mu=0.3)
    report(7, p10 >= p4 - 0.05,
           f"val pSNR modl(N=10, mel) {p10:.2f} >= modl(N=4) {p4:.2f} - 0.05 (gap {p10 - p4:+.2f} dB)")


# --- criterion 9: physics oracles ------------------------------------------------------


def test_criterion_9_physics_oracles():
    rng = np.random.default_rng(9000)

    # encoding-operator adjointness at 1e-10
    adj_worst = 0.0
    for seed in (1, 2, 3):
        mask = make_poisson_disk_mask((8, 8), 2.0, calib=(4, 4), seed=seed)
        op = EncodingOperator(mask, make_sensitivities((8, 8), 2 + seed % 2, seed=seed))
        x = Tensor(crandn(rng, 8, 8))
        y = Tensor(crandn(rng, op.coils, 8, 8))
        lhs = np.vdot(y.data, op.forward(x).data)
        rhs = np.vdot(op.adjoint(y).data, x.data)
        adj_worst = max(adj_worst, abs(lhs - rhs) / abs(lhs))

    # FFT vs direct DFT on shapes up to 256 samples at 1e-10
    fft_worst = 0.0
    for shape in ((4,), (16,), (16, 16), (5, 7), (13, 11), (4, 4, 8), (3, 5, 7)):
        x = crandn(rng, *shape)
        got = fft_centered(Tensor(x)).data
        want = dft_centered_direct(x)
        fft_worst = max(fft_worst, np.linalg.norm(got - want) / np.linalg.norm(want))

    # CG vs dense solve on 8x8 at 1e-8
    mask = make_poisson_disk_mask((8, 8), 2.0, calib=(4, 4), seed=11)
    op = EncodingOperator(mask, make_sensitivities((8, 8), 2, seed=12))
    mu = 0.05
    n = dense_matrix_of(lambda v: op._normal(v, mu), (8, 8))
    rhs = crandn(rng, 8, 8)
    want = np.linalg.solve(n, rhs.reshape(-1)).reshape(8, 8)
    got = cg_solve_normal(op, rhs, np.zeros_like(rhs), mu, 30)
    cg_err = np.linalg.norm(got - want) / np.linalg.norm(want)

    # realized acceleration within +-15%
    r_ok = True
    for accel, seed in ((2.0, 5), (4.0, 6), (8.0, 7)):
        m = make_poisson_disk_mask((64, 64), accel, calib=(8, 8), seed=seed)
        r_ok = r_ok and abs(m.realized_acceleration - accel) <= 0.15 * accel

    ok = adj_worst <= 1e-10 and fft_worst <= 1e-10 and cg_err <= 1e-8 and r_ok
    report(9, ok,
           f"adjointness {adj_worst:.1e} <= 1e-10; fft-vs-dft {fft_worst:.1e} <= 1e-10; "
           f"cg-vs-dense {cg_err:.1e} <= 1e-8; realized R within 15%: {r_ok}")
