from dataclasses import replace

import numpy as np
import pytest

from melrecon import mel
from melrecon.mel import backprop_mel, backprop_standard, l1_loss
from melrecon.mri import (
    DatasetConfig,
    EncodingOperator,
    build_dataset,
    make_kt_mask,
    make_poisson_disk_mask,
    make_sensitivities,
)
from melrecon.tensor import Tensor
from melrecon.unrolled import RegularizerParams, UnrolledNetParams, modl_forward, project_weights

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


@pytest.mark.parametrize("seed", [60, 61])
def test_cine_engines_agree_within_1e_6(seed):
    # 2D+time: k-t mask over 4 frames of 16x16 and 3x3x3 kernels. The data
    # are random, as in criterion 1: a phantom's exactly zero background
    # leaves relu pre-activations at rounding level, where the sign of
    # rounding noise decides which voxels add to the first bias's gradient.
    rng = np.random.default_rng(seed)
    op = EncodingOperator(make_kt_mask((16, 16), frames=4, accel=4.0, seed=seed),
                          make_sensitivities((16, 16), 3, seed=seed + 1))
    reg = project_weights(RegularizerParams.init(channels=8, layers=4, spatial_rank=3, seed=seed + 2, scale=3.0))
    y = Tensor(op._forward(crandn(rng, 4, 16, 16)))
    target = Tensor(crandn(rng, 4, 16, 16) * 0.5)
    for n in (2, 4, 6):
        net = UnrolledNetParams(reg, 0.3, n, 60)
        rs = backprop_standard(net, op, y, target)
        rm = backprop_mel(net, op, y, target, invert_tol=1e-12)
        for k in rs.grads:
            assert rel_gap(rs.grads[k].data, rm.grads[k].data) <= 1e-6, (n, k)
        # conv weights 34,560 B; one unroll's activations 212,992 B: three
        # 8-channel relu outputs and the 2-channel input, 4x16x16 each
        assert rm.peak_tape_bytes == 247_552
        assert rs.peak_tape_bytes == 34_560 + n * 212_992


def test_cine_phantom_training_cases_engines_agree_within_1e_6():
    # cine as training builds it: build_dataset phantoms under a k-t mask
    # and 3x3x3 convs of 8 channels, whose bands _BAND_BYTES, not
    # _GEMM_MACS, sets. Every gradient, b0 included, agrees to 4e-12. Known
    # limit: with noise_sigma 0 the b0 gap reads 0.23 while every weight
    # still agrees. The phantom's exactly zero background leaves relu
    # pre-activations at rounding level, where the sign of the engines'
    # rounding decides which voxels add to b0. Training data carry noise.
    ds = build_dataset(DatasetConfig(shape=(16, 16), coils=3, accel=4.0, calib=(4, 4), noise_sigma=1e-3,
                                     n_train=2, n_val=1, n_test=1, seed=0, kind="cine", frames=4))
    reg = project_weights(RegularizerParams.init(channels=8, layers=4, spatial_rank=3, seed=0, scale=3.0))
    for c in ds.split("train"):
        op = c.operator()
        for n in (2, 4):
            net = UnrolledNetParams(reg, 0.3, n, 60)
            rs = backprop_standard(net, op, c.y, c.x)
            rm = backprop_mel(net, op, c.y, c.x, invert_tol=1e-12)
            assert rs.grads.keys() == rm.grads.keys()
            for k in rs.grads:
                assert rel_gap(rs.grads[k].data, rm.grads[k].data) <= 1e-6, (c.case_id, n, k)


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

            out = modl_forward(net, op, y)
            _leaf.data[...] = saved
            return l1_loss(out, target)[0]

        fd = central_diff(loss_of, leaf.data.copy(), h=1e-6)
        got = rs.grads[name].data
        denom = max(np.abs(fd).max(), 1e-12)
        assert np.abs(got - fd).max() <= 1e-5 * denom, name


def recovered_input_errors(monkeypatch, net, op, y, target, invert_tol):
    """Run mel, spying on every recovered unroll input, and return the result
    with the relative error of each recovered x_k against the forward x_k
    (k = 0 first)."""
    recovered = []
    orig = mel.regularizer_invert

    def spy(*args, **kwargs):
        out = orig(*args, **kwargs)
        recovered.append(out)
        return out

    monkeypatch.setattr(mel, "regularizer_invert", spy)
    r = backprop_mel(net, op, y, target, invert_tol=invert_tol)
    errs = []
    for k, got in enumerate(reversed(recovered)):
        ref = (op.adjoint(y) if k == 0 else modl_forward(replace(net, n_unrolls=k), op, y)).data
        errs.append(float(np.linalg.norm(got.data - ref) / max(np.linalg.norm(ref), 1e-300)))
    return r, errs


def test_mel_recompute_fidelity_zero_weights(monkeypatch):
    net, op, y, target = make_instance(4, n_unrolls=3)
    zero_reg = RegularizerParams(
        [Tensor(np.zeros(w.shape)) for w in net.reg.weights],
        [Tensor(np.zeros(b.shape)) for b in net.reg.biases],
    )
    net = UnrolledNetParams(zero_reg, net.mu, net.n_unrolls, 200)
    r, errs = recovered_input_errors(monkeypatch, net, op, y, target, invert_tol=1e-13)
    assert len(errs) == 3
    assert max(errs) <= 1e-10
    assert r.x0_drift == errs[0]


def test_mel_recompute_fidelity_random_weights(monkeypatch):
    net, op, y, target = make_instance(5, n_unrolls=4)
    r, errs = recovered_input_errors(monkeypatch, net, op, y, target, invert_tol=1e-12)
    assert len(errs) == 4
    assert max(errs) <= 1e-7
    assert r.x0_drift == errs[0]


def test_x0_drift_recorded_by_mel_only():
    net, op, y, target = make_instance(7, n_unrolls=2)
    rm = backprop_mel(net, op, y, target)
    assert isinstance(rm.x0_drift, float) and 0.0 <= rm.x0_drift < 1e-3
    assert backprop_standard(net, op, y, target).x0_drift is None


def test_mel_aborts_on_broken_contraction():
    from melrecon.unrolled import FixedPointDivergence, lipschitz_bound

    net, op, y, target = make_instance(6, n_unrolls=2)
    b = lipschitz_bound(net.reg)
    f = (30.0 / b) ** (1.0 / net.reg.layers)
    bad = RegularizerParams([Tensor(w.data * f) for w in net.reg.weights], net.reg.biases)
    net = UnrolledNetParams(bad, net.mu, 2, net.n_cg)
    with pytest.raises(FixedPointDivergence) as exc:
        backprop_mel(net, op, y, target, invert_tol=1e-10)
    # the sweep runs from the last unroll, so at N=2 unroll 1 fails first
    assert exc.value.unroll == 1
    assert str(exc.value).startswith("unroll 1: fixed-point inversion did not reach")


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


def test_mel_wall_time_overhead_band():
    # warmanything up once, then measure a mid-size instance
    net, op, y, target = make_instance(11, shape=(24, 24), coils=2, n_unrolls=6, n_cg=20, channels=16, layers=5)
    backprop_standard(net, op, y, target)
    ts = min(backprop_standard(net, op, y, target).wall_time for _ in range(2))
    tm = min(backprop_mel(net, op, y, target).wall_time for _ in range(2))
    assert 1.0 < tm / ts < 3.0
