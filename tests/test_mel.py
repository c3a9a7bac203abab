import csv
import io
from dataclasses import replace

import numpy as np
import pytest

from melrecon import unrolled
from melrecon.mel import BENCH_CSV_HEADER, backprop_mel, backprop_standard, engine_report
from melrecon.mri import EncodingOperator, make_poisson_disk_mask, make_sensitivities
from melrecon.tensor import Tensor
from melrecon.unrolled import RegularizerParams, UnrolledNetParams, project_weights

from oracles import central_diff


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def make_instance(seed, shape=(16, 16), coils=2, n_unrolls=2, n_cg=60, channels=8, layers=3, mu=0.3, scale=3.0):
    rng = np.random.default_rng(seed)
    mask = make_poisson_disk_mask(shape, 2.0, calib=(4, 4), seed=seed)
    op = EncodingOperator(mask, make_sensitivities(shape, coils, seed=seed + 1))
    reg = project_weights(RegularizerParams.init(channels=channels, layers=layers, seed=seed + 2, scale=scale))
    net = UnrolledNetParams(reg, mu, n_unrolls, n_cg)
    target = Tensor(crandn(rng, *shape) * 0.5)
    y = Tensor(op._forward(crandn(rng, *shape)))
    return net, op, y, target


def rel_gap(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-30)
    return float(np.abs(a - b).max() / scale)


# --- engine equivalence ---------------------------------------------------------


def test_single_unroll_engines_agree():
    net, op, y, target = make_instance(0, n_unrolls=1)
    rs = backprop_standard(net, op, y, target)
    rm = backprop_mel(net, op, y, target, invert_tol=1e-12)
    assert rs.grads.keys() == rm.grads.keys()
    for k in rs.grads:
        assert rel_gap(rs.grads[k].data, rm.grads[k].data) <= 1e-9


@pytest.mark.parametrize("n_unrolls", [2, 5])
def test_engines_agree_multi_unroll(n_unrolls):
    net, op, y, target = make_instance(40 + n_unrolls, n_unrolls=n_unrolls, coils=3)
    rs = backprop_standard(net, op, y, target)
    rm = backprop_mel(net, op, y, target, invert_tol=1e-12)
    for k in rs.grads:
        assert rel_gap(rs.grads[k].data, rm.grads[k].data) <= 1e-6


def test_loss_values_identical():
    net, op, y, target = make_instance(1, n_unrolls=3)
    rs = backprop_standard(net, op, y, target)
    rm = backprop_mel(net, op, y, target, invert_tol=1e-12)
    assert rs.loss_value == pytest.approx(rm.loss_value, abs=1e-12)


def test_gradresult_has_every_weight_leaf():
    net, op, y, target = make_instance(2)
    r = backprop_mel(net, op, y, target)
    assert set(r.grads) == {name for name, _ in net.named_leaves()}
    for name, t in net.named_leaves():
        assert r.grads[name].shape == t.shape
    assert r.peak_tape_bytes > 0


def test_standard_matches_finite_differences_n2():
    # 6x6, N=2, small channel count: well under 200 parameters
    net, op, y, target = make_instance(3, shape=(6, 6), coils=2, n_unrolls=2, n_cg=80, channels=2, layers=2, scale=1.0)
    n_params = sum(t.data.size for _, t in net.named_leaves())
    assert n_params <= 200
    rs = backprop_standard(net, op, y, target)

    for name, leaf in net.named_leaves():
        def loss_of(arr, _leaf=leaf):
            saved = _leaf.data.copy()
            _leaf.data[...] = arr
            from melrecon.unrolled import modl_forward
            from melrecon.autodiff import l1_value

            out = modl_forward(net, op, y)
            _leaf.data[...] = saved
            return l1_value(out.data, target.data)

        fd = central_diff(loss_of, leaf.data.copy(), h=1e-6)
        got = rs.grads[name].data
        denom = max(np.abs(fd).max(), 1e-12)
        assert np.abs(got - fd).max() <= 1e-5 * denom, name


def test_mel_recompute_fidelity_zero_weights():
    net, op, y, target = make_instance(4, n_unrolls=3)
    zero_reg = RegularizerParams(
        [Tensor(np.zeros(w.shape)) for w in net.reg.weights],
        [Tensor(np.zeros(b.shape)) for b in net.reg.biases],
        net.reg.contraction,
    )
    net = UnrolledNetParams(zero_reg, net.mu, net.n_unrolls, 200, cg_exit=1e-15)
    r = backprop_mel(net, op, y, target, invert_tol=1e-13, debug_recompute=True)
    assert r.recompute_errors is not None and len(r.recompute_errors) == 3
    assert max(r.recompute_errors) <= 1e-10


def test_mel_recompute_fidelity_random_weights():
    net, op, y, target = make_instance(5, n_unrolls=4)
    r = backprop_mel(net, op, y, target, invert_tol=1e-12, debug_recompute=True)
    assert max(r.recompute_errors) <= 1e-7


def test_mel_aborts_on_broken_contraction():
    from melrecon.unrolled import FixedPointDivergence, lipschitz_bound

    net, op, y, target = make_instance(6, n_unrolls=2)
    b = lipschitz_bound(net.reg)
    f = (30.0 / b) ** (1.0 / net.reg.layers)
    bad = RegularizerParams([Tensor(w.data * f) for w in net.reg.weights], net.reg.biases, net.reg.contraction)
    net = UnrolledNetParams(bad, net.mu, 2, net.n_cg)
    with pytest.raises(FixedPointDivergence) as exc:
        backprop_mel(net, op, y, target, invert_tol=1e-10)
    assert exc.value.unroll is not None


def test_mel_backward_solves_at_net_cg_exit(monkeypatch):
    # every CG solve of the mel engine, forward and VJP, honours net.cg_exit
    net, op, y, target = make_instance(12, n_unrolls=2)
    net = replace(net, cg_exit=1e-6)
    seen = []
    real_cg = unrolled.cg_solve_normal

    def spy(op, rhs, x0, mu, n_iter, exit_rel=1e-12, residuals=None):
        seen.append(exit_rel)
        return real_cg(op, rhs, x0, mu, n_iter, exit_rel=exit_rel, residuals=residuals)

    monkeypatch.setattr(unrolled, "cg_solve_normal", spy)
    backprop_mel(net, op, y, target)
    assert set(seen) == {net.cg_exit}
    assert len(seen) == 2 * net.n_unrolls  # one forward and one VJP solve per unroll


# --- memory accounting ------------------------------------------------------------


def peak_of(engine, n_unrolls, seed=8):
    net, op, y, target = make_instance(seed, n_unrolls=n_unrolls, n_cg=10)
    fn = backprop_standard if engine == "standard" else backprop_mel
    return fn(net, op, y, target).peak_tape_bytes


def test_standard_peak_grows_affinely():
    b1, b2, b4 = (peak_of("standard", n) for n in (1, 2, 4))
    assert b1 < b2 < b4
    # slope consistency: increments per unroll match within 10%
    inc_12 = b2 - b1
    inc_24 = b4 - b2
    assert abs(inc_24 - 2 * inc_12) <= 0.1 * inc_24


def test_mel_peak_flat_in_depth():
    b2 = peak_of("mel", 2)
    b10 = peak_of("mel", 10)
    assert b10 <= 1.1 * b2


def test_memory_factor_between_engines():
    s2, s10 = peak_of("standard", 2), peak_of("standard", 10)
    assert s10 >= 4 * s2


# --- reporting -----------------------------------------------------------------------


def test_engine_report_single_row():
    net, op, y, target = make_instance(9, n_unrolls=1, n_cg=5)
    r = backprop_standard(net, op, y, target)
    out = engine_report([r])
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == BENCH_CSV_HEADER
    assert len(rows) == 2
    assert rows[1][0] == "standard" and rows[1][1] == "1"


def test_engine_report_roundtrips_through_csv():
    net, op, y, target = make_instance(10, n_unrolls=2, n_cg=5)
    rs = backprop_standard(net, op, y, target)
    rm = backprop_mel(net, op, y, target)
    out = engine_report([rs, rm])
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 3
    for row, r in zip(rows[1:], (rs, rm)):
        assert row[0] == r.engine
        assert int(row[1]) == r.n_unrolls
        assert row[2] == "16x16"
        assert int(row[3]) == r.peak_tape_bytes
        assert float(row[4]) == pytest.approx(r.wall_time, abs=1e-6)
        assert float(row[5]) == pytest.approx(r.loss_value, rel=1e-9)


def test_engine_report_requires_results():
    with pytest.raises(ValueError):
        engine_report([])


def test_mel_wall_time_overhead_band():
    # warmanything up once, then measure a mid-size instance
    net, op, y, target = make_instance(11, shape=(24, 24), coils=2, n_unrolls=6, n_cg=20, channels=16, layers=5)
    backprop_standard(net, op, y, target)
    ts = min(backprop_standard(net, op, y, target).wall_time for _ in range(2))
    tm = min(backprop_mel(net, op, y, target).wall_time for _ in range(2))
    assert 1.0 < tm / ts < 3.0
