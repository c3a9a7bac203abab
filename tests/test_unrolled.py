import numpy as np
import pytest

from melrecon import autodiff
from melrecon.autodiff import Tape
from melrecon.mri import EncodingOperator, SamplingMask, make_poisson_disk_mask, make_sensitivities
from melrecon.tensor import Tensor, norm2
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
)

from oracles import conv_circular_norm_exact, dense_matrix_of


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
    mask = SamplingMask(np.ones(shape), 1.0, (0, 0))
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
    trace = []
    x = regularizer_invert(zero_params(), z, trace=trace)
    assert np.array_equal(x.data, z.data)
    assert len(trace) == 1


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
    trace = []
    regularizer_invert(p, z, tol=1e-12, max_iter=100, trace=trace)
    res = [r for _, r in trace]
    assert len(res) >= 3
    assert all(res[i + 1] <= res[i] * 1.0000001 for i in range(len(res) - 1))


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


# --- data consistency ------------------------------------------------------------


def test_dc_full_mask_closed_form():
    rng = np.random.default_rng(8)
    op = full_op()
    mu = 0.2
    y = Tensor(op._forward(crandn(rng, 8, 8)))
    z = Tensor(crandn(rng, 8, 8))
    got = dc_forward(op, y, z, mu, n_cg=50)
    want = (op._adjoint(y.data) + mu * z.data) / (1 + mu)
    assert np.linalg.norm(got.data - want) <= 1e-10 * np.linalg.norm(want)


def test_dc_consistent_fixed_point():
    rng = np.random.default_rng(9)
    op = random_op(seed=10)
    xstar = crandn(rng, 8, 8)
    y = Tensor(op._forward(xstar))
    got = dc_forward(op, y, Tensor(xstar), mu=0.1, n_cg=50)
    assert np.linalg.norm(got.data - xstar) <= 1e-10 * np.linalg.norm(xstar)


def test_dc_matches_dense_solve_30_iters():
    rng = np.random.default_rng(10)
    op = random_op(seed=11)
    mu = 0.05
    y = Tensor(op._forward(crandn(rng, 8, 8)) * 0.7 + 0.1 * crandn(rng, 2, 8, 8) * op.mask.data)
    z = Tensor(crandn(rng, 8, 8))
    got = dc_forward(op, y, z, mu, n_cg=30)
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
        errs = []
        x = np.zeros_like(rhs)
        for k in range(1, 31):
            x = cg_solve_normal(op, rhs, np.zeros_like(rhs), mu, k)
            errs.append(np.linalg.norm(x - xstar))
        assert all(errs[i + 1] <= errs[i] * (1 + 1e-9) for i in range(len(errs) - 1))
        res = []
        cg_solve_normal(op, rhs, np.zeros_like(rhs), mu, 40, residuals=res)
        assert res[-1] <= 1e-6 * res[0]
        assert all(res[i + 1] <= res[i] * 1.5 for i in range(len(res) - 1))


def test_dc_invert_roundtrip_tight_cg():
    rng = np.random.default_rng(12)
    op = random_op(seed=15)
    mu = 0.05
    y = Tensor(op._forward(crandn(rng, 8, 8)))
    z = Tensor(crandn(rng, 8, 8))
    x = dc_forward(op, y, z, mu, n_cg=300)
    back = dc_invert(op, y, x, mu)
    assert np.linalg.norm(back.data - z.data) <= 5e-8 * np.linalg.norm(z.data)


def test_dc_invert_full_mask_closed_form():
    rng = np.random.default_rng(13)
    op = full_op(seed=3)
    mu = 0.3
    y = Tensor(op._forward(crandn(rng, 8, 8)))
    xn = Tensor(crandn(rng, 8, 8))
    got = dc_invert(op, y, xn, mu)
    want = ((1 + mu) * xn.data - op._adjoint(y.data)) / mu
    assert np.linalg.norm(got.data - want) <= 1e-12 * np.linalg.norm(want)


def test_dc_invert_consistent_fixed_point():
    rng = np.random.default_rng(14)
    op = random_op(seed=16)
    xstar = crandn(rng, 8, 8)
    y = Tensor(op._forward(xstar))
    z = dc_invert(op, y, Tensor(xstar), mu=0.1)
    assert np.linalg.norm(z.data - xstar) <= 1e-9 * np.linalg.norm(xstar)


def test_dc_invert_rejects_nonpositive_mu():
    op = full_op()
    t = Tensor(np.zeros((8, 8), dtype=complex))
    with pytest.raises(ValueError):
        dc_invert(op, Tensor(np.zeros((2, 8, 8), dtype=complex)), t, mu=0.0)


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
    fp = dc_forward(op, y, Tensor(z + h * v), mu, n_cg=200).data
    fm = dc_forward(op, y, Tensor(z - h * v), mu, n_cg=200).data
    jv = (fp - fm) / (2 * h)
    want = dc_vjp(op, Tensor(v), mu, n_cg=200).data
    assert np.linalg.norm(jv - want) <= 1e-5 * np.linalg.norm(want)


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


def test_op_registry_is_what_the_model_records():
    # every registered op kind is recorded by modl_forward plus the l1 loss,
    # so ops no engine uses cannot accumulate in the registry
    rng = np.random.default_rng(22)
    op = random_op(seed=22)
    y = Tensor(op._forward(crandn(rng, 8, 8)))
    net = make_net(n_unrolls=2, seed=22)
    tape = Tape()
    for _, t in net.named_leaves():
        tape.watch(t)
    x = modl_forward(net, op, y, tape=tape)
    tape.record("l1", x, target=np.zeros(x.shape, dtype=complex))
    assert {n.op_kind for n in tape.nodes} - {"leaf", "const"} == set(autodiff._OPS)


def test_modl_recorded_equals_unrecorded_bitwise():
    rng = np.random.default_rng(20)
    op = random_op(seed=20)
    y = Tensor(op._forward(crandn(rng, 8, 8)))
    net = make_net(n_unrolls=2, seed=21)
    plain = modl_forward(net, op, y)
    tape = Tape()
    for _, t in net.named_leaves():
        tape.watch(t)
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
        UnrolledNetParams(p, mu=0.0)
    with pytest.raises(ValueError):
        UnrolledNetParams(p, n_unrolls=0)
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


def test_power_iteration_matches_exact_circular_norm():
    # power iteration estimates the norm from below and should be close
    rng = np.random.default_rng(26)
    for cin, cout in ((2, 8), (8, 8), (8, 2)):
        w = rng.standard_normal((cout, cin, 3, 3)) * 0.2
        got = conv_operator_norm(Tensor(w), probe_shape=(16, 16), iters=60)
        want = conv_circular_norm_exact(w, (16, 16))
        assert got <= want * (1 + 1e-9)
        assert got >= 0.97 * want
