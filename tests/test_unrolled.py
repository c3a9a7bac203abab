import gc
import tracemalloc

import numpy as np
import pytest

from melrecon import unrolled
from melrecon.autodiff import Tape
from melrecon.mel import backprop_mel
from melrecon.mri import EncodingOperator, make_poisson_disk_mask, make_sensitivities
from melrecon.tensor import Tensor, conv_nd, relu
from melrecon.train import AdamState, adam_step
from melrecon.unrolled import (
    FixedPointDivergence,
    RegularizerParams,
    UnrolledNetParams,
    cg_solve_normal,
    conv_operator_norm,
    dc_forward,
    dc_invert,
    dc_vjp,
    lipschitz_bound,
    modl_forward,
    project_weights,
    regularizer_forward,
    regularizer_invert,
    residual_branch,
)

from oracles import conv_circular_norm_exact, dense_matrix_of, norm2


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def zero_params(channels=8, layers=3):
    p = RegularizerParams.init(channels=channels, layers=layers, seed=0)
    return RegularizerParams(
        [Tensor(np.zeros(w.shape)) for w in p.weights],
        [Tensor(np.zeros(b.shape)) for b in p.biases],
        p.contraction,
    )


def projected_params(seed=0, channels=8, layers=3, scale=3.0):
    p = RegularizerParams.init(channels=channels, layers=layers, seed=seed, scale=scale)
    return project_weights(p)


def full_op(shape=(8, 8), coils=2, seed=0):
    mask = Tensor(np.ones(shape))
    return EncodingOperator(mask, make_sensitivities(shape, coils, seed=seed))


def random_op(seed=0, shape=(8, 8), coils=2, accel=2.0):
    mask = make_poisson_disk_mask(shape, accel, calib=(4, 4), seed=seed)
    return EncodingOperator(mask, make_sensitivities(shape, coils, seed=seed + 1))


# --- regularizer --------------------------------------------------------------


def test_regularizer_zero_weights_is_identity():
    rng = np.random.default_rng(0)
    x = Tensor(crandn(rng, 8, 8))
    z = regularizer_forward(zero_params(), x)
    assert np.array_equal(z.data, x.data)


def test_regularizer_is_nonlinear():
    rng = np.random.default_rng(1)
    p = RegularizerParams.init(channels=8, layers=3, seed=2, scale=2.0)
    p = RegularizerParams(p.weights, [Tensor(rng.standard_normal(b.shape) * 0.1) for b in p.biases], p.contraction)
    x = Tensor(crandn(rng, 8, 8))
    lhs = regularizer_forward(p, Tensor(2 * x.data)).data
    rhs = 2 * regularizer_forward(p, x).data
    assert np.linalg.norm(lhs - rhs) > 1e-6 * np.linalg.norm(rhs)


def test_regularizer_forward_is_x_plus_residual_branch():
    # one definition of c*G: the forward pass adds x to exactly what the
    # inversion evaluates, bit for bit; a tape keeps what the VJP reads, the
    # input of every conv: c2ch(x) and each relu output
    rng = np.random.default_rng(8)
    for seed in range(5):
        p = RegularizerParams.init(channels=8, layers=3, seed=seed, scale=2.0)
        p = RegularizerParams(p.weights, [Tensor(rng.standard_normal(b.shape)) for b in p.biases], p.contraction)
        x = Tensor(crandn(rng, 8, 8))
        assert np.array_equal(regularizer_forward(p, x).data, x.data + residual_branch(p, x).data)
    tape = Tape()
    regularizer_forward(p, x, tape)
    (acts,) = tape.unrolls
    assert np.array_equal(acts[0].data, np.stack([x.data.real, x.data.imag]))
    assert len(acts) == p.layers
    for h, nxt, w, b in zip(acts, acts[1:], p.weights, p.biases):
        assert np.array_equal(nxt.data, relu(conv_nd(h, w, b)).data)


def test_residual_branch_lipschitz_bound_sampled():
    rng = np.random.default_rng(2)
    p = projected_params(seed=3)
    bound = lipschitz_bound(p)
    assert bound <= 0.95
    worst = 0.0
    for _ in range(100):
        x1 = crandn(rng, 8, 8)
        x2 = crandn(rng, 8, 8)
        z1 = regularizer_forward(p, Tensor(x1)).data - x1
        z2 = regularizer_forward(p, Tensor(x2)).data - x2
        ratio = np.linalg.norm(z1 - z2) / np.linalg.norm(x1 - x2)
        worst = max(worst, ratio)
    assert worst <= bound * 1.02
    assert worst <= 1.0


def test_invert_zero_weights_single_iteration():
    rng = np.random.default_rng(3)
    z = Tensor(crandn(rng, 8, 8))
    x = regularizer_invert(zero_params(), z, max_iter=1)
    assert np.array_equal(x.data, z.data)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_regularizer_roundtrip(seed):
    rng = np.random.default_rng(100 + seed)
    p = projected_params(seed=seed)
    x = Tensor(crandn(rng, 8, 8))
    z = regularizer_forward(p, x)
    back = regularizer_invert(p, z, tol=1e-12, max_iter=100)
    assert norm2(Tensor(back.data - x.data)) <= 1e-9 * norm2(x)


def test_invert_geometric_convergence():
    rng = np.random.default_rng(4)
    p = projected_params(seed=5)
    z = Tensor(crandn(rng, 8, 8))
    res = []  # relative residual after k = 1, 2, ... iterations, until converged
    for k in range(1, 101):
        try:
            regularizer_invert(p, z, tol=1e-12, max_iter=k)
            break
        except FixedPointDivergence as e:
            res.append(e.residual)
    assert len(res) >= 3
    assert all(res[i + 1] <= res[i] * 1.0000001 for i in range(len(res) - 1))


def test_invert_rejects_max_iter_below_one():
    z = Tensor(np.ones((8, 8), dtype=complex))
    with pytest.raises(ValueError, match="max_iter"):
        regularizer_invert(projected_params(seed=5), z, max_iter=0)


def test_invert_divergence_raises():
    # blow up the weights so c*G is expansive
    p = RegularizerParams.init(channels=8, layers=3, seed=6, scale=2.0)
    b = lipschitz_bound(p)
    f = (30.0 / b) ** (1.0 / p.layers)
    p = RegularizerParams([Tensor(w.data * f) for w in p.weights], p.biases, p.contraction)
    rng = np.random.default_rng(7)
    z = Tensor(crandn(rng, 8, 8))
    with pytest.raises(FixedPointDivergence):
        regularizer_invert(p, z, tol=1e-10, max_iter=30)


def test_invert_zero_z_with_nonzero_bias():
    # with biases G(0) != 0, so the preimage of z = 0 is not 0; the
    # tolerance is then relative to ||c*G(0)||
    p = projected_params(seed=8)
    p = RegularizerParams(p.weights, [Tensor(np.full(b.shape, 0.1)) for b in p.biases], p.contraction)
    z = Tensor(np.zeros((8, 8), dtype=complex))
    x = regularizer_invert(p, z, tol=1e-12, max_iter=100)
    assert np.linalg.norm(x.data) > 0
    assert np.linalg.norm(regularizer_forward(p, x).data) <= 1e-10 * np.linalg.norm(residual_branch(p, z).data)


def test_invert_zero_z_zero_branch_returns_zero():
    z = Tensor(np.zeros((8, 8), dtype=complex))
    x = regularizer_invert(zero_params(), z, max_iter=1)
    assert x.shape == z.shape and not x.data.any()


def test_invert_zero_z_divergence_reports_finite_residual():
    p = RegularizerParams.init(channels=8, layers=3, seed=6, scale=2.0)
    f = (30.0 / lipschitz_bound(p)) ** (1.0 / p.layers)
    p = RegularizerParams([Tensor(w.data * f) for w in p.weights],
                          [Tensor(np.full(b.shape, 0.1)) for b in p.biases], p.contraction)
    with pytest.raises(FixedPointDivergence) as exc:
        regularizer_invert(p, Tensor(np.zeros((8, 8), dtype=complex)), tol=1e-10, max_iter=30)
    assert np.isfinite(exc.value.residual) and exc.value.residual > 0


# --- data consistency ------------------------------------------------------------


def test_dc_full_mask_closed_form():
    rng = np.random.default_rng(8)
    op = full_op()
    mu = 0.2
    y = Tensor(op._forward(crandn(rng, 8, 8)))
    z = Tensor(crandn(rng, 8, 8))
    got = dc_forward(op, op.adjoint(y), z, mu, n_cg=50)
    want = (op._adjoint(y.data) + mu * z.data) / (1 + mu)
    assert np.linalg.norm(got.data - want) <= 1e-10 * np.linalg.norm(want)


def test_dc_consistent_fixed_point():
    rng = np.random.default_rng(9)
    op = random_op(seed=10)
    xstar = crandn(rng, 8, 8)
    y = Tensor(op._forward(xstar))
    got = dc_forward(op, op.adjoint(y), Tensor(xstar), mu=0.1, n_cg=50)
    assert np.linalg.norm(got.data - xstar) <= 1e-10 * np.linalg.norm(xstar)


def test_dc_matches_dense_solve_30_iters():
    rng = np.random.default_rng(10)
    op = random_op(seed=11)
    mu = 0.05
    y = Tensor(op._forward(crandn(rng, 8, 8)) * 0.7 + 0.1 * crandn(rng, 2, 8, 8) * op.mask.data)
    z = Tensor(crandn(rng, 8, 8))
    got = dc_forward(op, op.adjoint(y), z, mu, n_cg=30)
    n = dense_matrix_of(lambda v: op._normal(v, mu), (8, 8))
    rhs = (op._adjoint(y.data) + mu * z.data).reshape(-1)
    want = np.linalg.solve(n, rhs).reshape(8, 8)
    assert np.linalg.norm(got.data - want) <= 1e-8 * np.linalg.norm(want)


def test_cg_error_monotone_and_residual_decays():
    # CG's guarantee is a non-increasing error norm; the residual norm can
    # tick up a little along the way but must decay overall.
    rng = np.random.default_rng(11)
    for seed in (12, 13, 14):
        op = random_op(seed=seed)
        mu = 0.05
        rhs = crandn(rng, 8, 8)
        n = dense_matrix_of(lambda v: op._normal(v, mu), (8, 8))
        xstar = np.linalg.solve(n, rhs.reshape(-1)).reshape(8, 8)
        xs = [cg_solve_normal(op, rhs, np.zeros_like(rhs), mu, k) for k in range(41)]
        errs = [np.linalg.norm(x - xstar) for x in xs[1:31]]
        assert all(errs[i + 1] <= errs[i] * (1 + 1e-9) for i in range(len(errs) - 1))
        res = [np.linalg.norm(rhs - op._normal(x, mu)) for x in xs]  # true residuals
        assert res[-1] <= 1e-6 * res[0]
        assert all(res[i + 1] <= res[i] * 1.5 for i in range(len(res) - 1))


def test_cg_stops_at_residual_floor():
    # a full mask makes A^H A = I, so one step solves the system up to
    # rounding; an undersampled one converges well within 500 iterations.
    # Both solves then stop at the floor instead of running n_iter steps.
    rng = np.random.default_rng(16)
    for op, mu, most in ((full_op(), 0.2, 1), (random_op(seed=10), 0.05, 100)):
        calls = []
        normal = op._normal
        op._normal = lambda v, m: calls.append(1) or normal(v, m)
        rhs = crandn(rng, 8, 8)
        x = cg_solve_normal(op, rhs, np.zeros_like(rhs), mu, 500)
        assert len(calls) <= most
        assert np.linalg.norm(rhs - normal(x, mu)) <= 1e-13 * np.linalg.norm(rhs)


def test_dc_invert_roundtrip_tight_cg():
    rng = np.random.default_rng(12)
    op = random_op(seed=15)
    mu = 0.05
    y = Tensor(op._forward(crandn(rng, 8, 8)))
    z = Tensor(crandn(rng, 8, 8))
    x = dc_forward(op, op.adjoint(y), z, mu, n_cg=300)
    back = dc_invert(op, op.adjoint(y), x, mu)
    assert np.linalg.norm(back.data - z.data) <= 5e-8 * np.linalg.norm(z.data)


def test_dc_invert_full_mask_closed_form():
    rng = np.random.default_rng(13)
    op = full_op(seed=3)
    mu = 0.3
    y = Tensor(op._forward(crandn(rng, 8, 8)))
    xn = Tensor(crandn(rng, 8, 8))
    got = dc_invert(op, op.adjoint(y), xn, mu)
    want = ((1 + mu) * xn.data - op._adjoint(y.data)) / mu
    assert np.linalg.norm(got.data - want) <= 1e-12 * np.linalg.norm(want)


def test_dc_invert_consistent_fixed_point():
    rng = np.random.default_rng(14)
    op = random_op(seed=16)
    xstar = crandn(rng, 8, 8)
    y = Tensor(op._forward(xstar))
    z = dc_invert(op, op.adjoint(y), Tensor(xstar), mu=0.1)
    assert np.linalg.norm(z.data - xstar) <= 1e-9 * np.linalg.norm(xstar)


def test_dc_invert_rejects_nonpositive_mu():
    op = full_op()
    t = Tensor(np.zeros((8, 8), dtype=complex))
    with pytest.raises(ValueError):
        dc_invert(op, Tensor(np.zeros((8, 8), dtype=complex)), t, mu=0.0)


def test_dc_vjp_full_mask_scalar():
    rng = np.random.default_rng(15)
    op = full_op(seed=4)
    mu = 0.25
    s = Tensor(crandn(rng, 8, 8))
    got = dc_vjp(op, s, mu, n_cg=60)
    want = mu / (1 + mu) * s.data
    assert np.linalg.norm(got.data - want) <= 1e-10 * np.linalg.norm(want)


def test_dc_vjp_self_adjoint():
    rng = np.random.default_rng(16)
    op = random_op(seed=17)
    mu = 0.05
    s1 = Tensor(crandn(rng, 8, 8))
    s2 = Tensor(crandn(rng, 8, 8))
    lhs = np.vdot(dc_vjp(op, s1, mu, 200).data, s2.data)
    rhs = np.vdot(s1.data, dc_vjp(op, s2, mu, 200).data)
    assert abs(lhs - rhs) <= 1e-9 * abs(lhs)


def test_dc_vjp_matches_directional_finite_difference():
    rng = np.random.default_rng(17)
    op = random_op(seed=18, shape=(6, 6), coils=2)
    mu = 0.1
    y = Tensor(op._forward(crandn(rng, 6, 6)))
    z = crandn(rng, 6, 6)
    v = crandn(rng, 6, 6)
    h = 1e-6
    fp = dc_forward(op, op.adjoint(y), Tensor(z + h * v), mu, n_cg=200).data
    fm = dc_forward(op, op.adjoint(y), Tensor(z - h * v), mu, n_cg=200).data
    jv = (fp - fm) / (2 * h)
    want = dc_vjp(op, Tensor(v), mu, n_cg=200).data
    assert np.linalg.norm(jv - want) <= 1e-5 * np.linalg.norm(want)


@pytest.mark.parametrize("n_cg", [1, 3, 7])
def test_dc_vjp_from_zero_applies_the_normal_n_cg_times(monkeypatch, n_cg):
    # CG from x0 = 0 starts at r = rhs; only the iterations apply A^H A + mu I
    rng = np.random.default_rng(19)
    op = random_op(seed=20)
    calls = []
    real = EncodingOperator._normal

    def spy(self, x, mu):
        calls.append(np.array(x))
        return real(self, x, mu)

    monkeypatch.setattr(EncodingOperator, "_normal", spy)
    dc_vjp(op, Tensor(crandn(rng, 8, 8)), 0.05, n_cg=n_cg)
    assert len(calls) == n_cg
    assert all(c.any() for c in calls)


def test_dc_layers_reject_kspace_data():
    # the DC layers take A^H y; k-space y would otherwise broadcast silently
    rng = np.random.default_rng(21)
    op = random_op(seed=22)
    y = Tensor(op._forward(crandn(rng, 8, 8)))
    z = Tensor(crandn(rng, 8, 8))
    with pytest.raises(ValueError, match="A\\^H y shape"):
        dc_forward(op, y, z, 0.1, n_cg=5)
    with pytest.raises(ValueError, match="A\\^H y shape"):
        dc_invert(op, y, z, 0.1)
    with pytest.raises(ValueError, match="A\\^H y shape"):
        dc_forward(op, Tensor(crandn(rng, 8, 6)), z, 0.1, n_cg=5)


# --- full unrolled forward ----------------------------------------------------------


def make_net(n_unrolls=3, seed=0, channels=8, layers=3, mu=0.05, n_cg=10):
    return UnrolledNetParams(projected_params(seed=seed, channels=channels, layers=layers), mu, n_unrolls, n_cg)


def test_modl_zero_unrolls_returns_zero_filled():
    rng = np.random.default_rng(18)
    op = random_op(seed=19)
    y = Tensor(op._forward(crandn(rng, 8, 8)))
    net = make_net(n_unrolls=1)
    net.n_unrolls = 0  # degenerate base case; the type invariant forbids it at construction
    out = modl_forward(net, op, y)
    assert np.array_equal(out.data, op._adjoint(y.data))


def test_modl_zero_weights_full_mask_recovers_truth():
    rng = np.random.default_rng(19)
    op = full_op(seed=5)
    xstar = crandn(rng, 8, 8)
    y = Tensor(op._forward(xstar))
    for n in (1, 4):
        net = UnrolledNetParams(zero_params(), 0.05, n, 20)
        out = modl_forward(net, op, y)
        assert np.linalg.norm(out.data - xstar) <= 1e-10 * np.linalg.norm(xstar)


def test_modl_recorded_equals_unrecorded_bitwise():
    rng = np.random.default_rng(20)
    op = random_op(seed=20)
    y = Tensor(op._forward(crandn(rng, 8, 8)))
    net = make_net(n_unrolls=2, seed=21)
    plain = modl_forward(net, op, y)
    tape = Tape()
    taped = modl_forward(net, op, y, tape=tape)
    assert np.array_equal(plain.data, taped.data)


def test_modl_deterministic():
    rng = np.random.default_rng(21)
    op = random_op(seed=22)
    y = Tensor(op._forward(crandn(rng, 8, 8)))
    net = make_net(n_unrolls=2, seed=23)
    a = modl_forward(net, op, y)
    b = modl_forward(net, op, y)
    assert np.array_equal(a.data, b.data)


def test_weight_sharing_structural():
    # one regularizer for every unroll: the leaves do not grow with depth
    net = make_net(n_unrolls=4)
    leaves = [t for _, t in net.named_leaves()]
    assert len(leaves) == len(net.reg.named_leaves())
    assert all(a is b for a, (_, b) in zip(leaves, net.reg.named_leaves()))


def test_net_param_validation():
    p = projected_params()
    with pytest.raises(ValueError):
        UnrolledNetParams(p, mu=0.0, n_unrolls=5, n_cg=10)
    with pytest.raises(ValueError):
        UnrolledNetParams(p, mu=0.3, n_unrolls=0, n_cg=10)
    with pytest.raises(ValueError):
        RegularizerParams(p.weights, p.biases, contraction=1.0)


# --- weight projection -----------------------------------------------------------------


def test_project_zero_weights_unchanged():
    p = zero_params()
    q = project_weights(p)
    assert q is p


def test_project_reduces_inflated_bound():
    p = RegularizerParams.init(channels=8, layers=3, seed=24, scale=1.0)
    b = lipschitz_bound(p)
    f = (2.0 / b) ** (1.0 / p.layers)
    inflated = RegularizerParams([Tensor(w.data * f) for w in p.weights], p.biases, p.contraction)
    assert abs(lipschitz_bound(inflated) - 2.0) < 0.05
    q = project_weights(inflated)
    assert lipschitz_bound(q) <= 0.95


def test_project_idempotent_below_threshold():
    q = projected_params(seed=25)
    r = project_weights(q)
    assert r is q  # no-op branch returns the same object


@pytest.mark.parametrize(
    "shape,probe",
    [
        ((8, 2, 3, 3), (16, 16)),
        ((8, 8, 3, 3), (16, 16)),
        ((2, 8, 3, 3), (16, 16)),
        ((16, 16, 3, 3), (16, 16)),
        ((6, 4, 3, 5), (16, 16)),
        ((6, 4, 3, 3, 3), (8, 8, 8)),
        ((5, 3, 3, 3), (15, 17)),
    ],
    ids=["2to8", "8to8", "8to2", "16to16", "3x5", "3d", "odd_grid"],
)
def test_conv_operator_norm_brackets_exact_circular_norm(shape, probe):
    # a certified upper bound that is tight: never below the exact norm,
    # above it by no more than the stated margin
    w = np.random.default_rng(26).standard_normal(shape) * 0.2
    got = conv_operator_norm(Tensor(w), probe_shape=probe)
    want = conv_circular_norm_exact(w, probe)
    assert want <= got <= want * (1 + 1e-9)


def exact_bound(p: RegularizerParams) -> float:
    return p.contraction * float(np.prod([conv_circular_norm_exact(w.data, (16, 16)) for w in p.weights]))


def test_project_fires_on_exact_bound_above_threshold():
    # exact bound 0.955 >= 0.95: an estimate from below can read it as under
    # the threshold and skip the projection
    p = RegularizerParams.init(channels=16, layers=5, seed=102)
    f = (0.955 / exact_bound(p)) ** (1.0 / p.layers)
    p = RegularizerParams([Tensor(w.data * f) for w in p.weights], p.biases, p.contraction)
    q = project_weights(p)
    assert q is not p
    assert 0.9 * (1 - 1e-9) <= exact_bound(q) <= 0.9 * (1 + 1e-9)


@pytest.mark.parametrize("budget", ["one_frequency", "whole_half_grid"])
@pytest.mark.parametrize(
    "shape,probe",
    [
        ((16, 2, 3, 3), (16, 16)),
        ((16, 16, 3, 3), (16, 16)),
        ((2, 16, 3, 3), (16, 16)),
        ((16, 16, 3, 3, 3), (8, 8, 8)),
        ((5, 3, 3, 3), (15, 17)),
    ],
    ids=["2to16", "16to16", "16to2", "3d", "odd_grid"],
)
def test_gram_chunking_cannot_change_the_certificate(monkeypatch, shape, probe, budget):
    # one frequency per chunk and the whole half-grid in one chunk give the
    # certificate of the default byte budget bit for bit. The Frobenius bound is
    # taken on the default grid, the other norms on ``probe``. A chunk of
    # one frequency takes numpy's matrix-vector product for its tap phases,
    # which can round a Gram entry differently in its last bits.
    w = np.random.default_rng(28).standard_normal(shape) * 0.2
    rank = len(shape) - 2
    p = RegularizerParams.init(channels=16, layers=3, spatial_rank=rank, seed=28, scale=3.0)

    def evaluate():
        grams = np.concatenate(list(unrolled._transfer_grams(w, probe)))
        q = project_weights(p)
        assert q is not p  # the exact norms ran and rescaled
        return (grams, conv_operator_norm(Tensor(w), probe_shape=probe),
                unrolled._frobenius_norm_bound(w), [v.data for v in q.weights])

    want = evaluate()
    if budget == "one_frequency":
        monkeypatch.setattr(unrolled, "_GRAM_BYTES", 1)
    else:
        monkeypatch.setattr(unrolled, "_GRAM_BYTES", 1 << 62)
    got = evaluate()
    assert np.abs(want[0] - got[0]).max() <= 1e-14 * np.abs(want[0]).max()
    assert want[1] == got[1] and want[2] == got[2]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(want[3], got[3]))


@pytest.mark.parametrize("rank", [2, 3])
def test_project_heap_peak_under_300kb(rank):
    # measured 273,288 B in 2D and 282,898 B in 3D: one 16 -> 16 layer's
    # Grams at a time (about 270 kB) beside the weights. The bound leaves
    # 17 kB, a quarter of one 16 -> 16 chunk array (64 kB); 32-frequency
    # chunks peaked at 536,812 and 316,098 B.
    p = RegularizerParams.init(channels=16, layers=5, spatial_rank=rank, seed=27, scale=3.0)
    gc.collect()
    tracemalloc.start()
    try:
        q = project_weights(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q is not p
    assert peak < 300_000


def test_adam_step_heap_peak_below_the_gradient_evaluation(monkeypatch):
    # the 24x24, 16-channel instance of the acceptance heap test at N=2: a
    # training step's heap ceiling is its gradient evaluation, not the
    # contraction projection inside adam_step. Measured 679,137 B for the
    # gradient and 541,968 B for the step, where 32-frequency Gram chunks
    # took the step to 805,264 B.
    exact = []
    lipschitz = unrolled.lipschitz_bound
    monkeypatch.setattr(unrolled, "lipschitz_bound", lambda p: exact.append(1) or lipschitz(p))
    rng = np.random.default_rng(2000)
    op = random_op(seed=2000, shape=(24, 24), coils=2)
    net = UnrolledNetParams(projected_params(seed=2002, channels=16, layers=5), 0.3, 2, 20)
    y = Tensor(op._forward(crandn(rng, 24, 24)))
    target = Tensor(crandn(rng, 24, 24) * 0.5)
    adam = AdamState.init(net, lr=1e-3)
    gc.collect()
    tracemalloc.start()
    try:
        grads = backprop_mel(net, op, y, target).grads
        grad_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        adam_step(adam, net, grads)
        step_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exact  # the certificate reached the threshold: the exact norms ran too
    assert step_peak < grad_peak, (step_peak, grad_peak)
