import tracemalloc

import numpy as np
import pytest

from melrecon import autodiff
from melrecon import tensor as tensor_mod
from melrecon.autodiff import CONTRACTION, Tape, residual_branch
from melrecon.mel import l1_loss
from melrecon.tensor import Tensor
from melrecon.unrolled import RegularizerParams, regularizer_forward

from oracles import central_diff


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_layers(rng, channels, layers, kshape=(3, 3), w_scale=0.5):
    """Weight and bias arrays of a 2 -> channels -> ... -> 2 branch."""
    cins = [2] + [channels] * (layers - 1)
    couts = [channels] * (layers - 1) + [2]
    ws = [rng.standard_normal((o, i) + kshape) * w_scale for i, o in zip(cins, couts)]
    bs = [rng.standard_normal(o) for o in couts]
    return ws, bs


def reg_of(ws, bs):
    return RegularizerParams([Tensor(w) for w in ws], [Tensor(b) for b in bs])


def unroll_vjp(p, x, gz):
    """Record one unroll of ``p`` at ``x`` and backpropagate ``gz``: the
    gradient at x and the layers' weight and bias gradients."""
    tape = Tape()
    tape.record(p, x)
    grads = {}
    gx = tape.backward(p, gz, grads)
    return gx.data, grads


def half_sq(z: Tensor, t: np.ndarray):
    """0.5 * ||z - t||^2 in the real-pair inner product, and its gradient
    z - t in the real-pair convention."""
    d = z.data - t
    return 0.5 * float(np.vdot(d, d).real), Tensor(d)


def fd_of_x(loss, xa):
    """Finite-difference gradient of loss(x) at complex xa, as a complex
    array in the real-pair convention."""
    fd = central_diff(lambda ch: loss(ch[0] + 1j * ch[1]), np.stack([xa.real, xa.imag]))
    return fd[0] + 1j * fd[1]


def close(got, fd, tol=1e-6):
    return np.linalg.norm(got - fd) <= tol * np.linalg.norm(fd)


# --- recording ----------------------------------------------------------------


def test_record_matches_untaped_bitwise():
    rng = np.random.default_rng(0)
    p = reg_of(*random_layers(rng, channels=4, layers=3))
    x = Tensor(crandn(rng, 6, 6))
    tape = Tape()
    assert np.array_equal(tape.record(p, x).data, regularizer_forward(p, x).data)



def test_untaped_branch_holds_one_activation():
    # recon-large's regularizer, 16 channels of 128x128: each 16 -> 16 conv
    # writes over its 2 MB input, where a fresh output held two at once.
    # Beside x the call holds its two-channel view c2ch(x), one 16-channel
    # activation and one conv's slab and band
    rng = np.random.default_rng(23)
    p = reg_of(*random_layers(rng, 16, 5))
    x = crandn(rng, 128, 128)
    tracemalloc.start()
    try:
        residual_branch(p, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    c2ch, act = 2 * x.size * 8, 16 * x.size * 8
    assert peak <= c2ch + act + tensor_mod._SLAB_BYTES + tensor_mod._BAND_BYTES


def whole_branch(p, x):
    """c*G(x) on the whole image: the untiled path, one call of the layers."""
    h = autodiff._layers(p, np.stack([x.real, x.imag]), None)
    return (h[0] + 1j * h[1]) * CONTRACTION


# image shape, spatial rank, tile counts: one-row tiles (the last count),
# counts that do not divide the rows, and on the two short volumes tiles
# whose halo passes both image edges (12 rows in 3, 4 in 2)
EXACT_TILINGS = [((128, 128), 2, (2, 3, 12, 128)), ((24, 24), 2, range(1, 25)),
                 ((12, 40, 40), 3, (2, 3, 5, 12)), ((4, 16, 16), 3, (2, 3, 4))]


@pytest.mark.parametrize("shape,rank,counts", EXACT_TILINGS, ids=["128x128", "24x24", "12x40x40", "cine_4x16x16"])
def test_tiled_branch_equals_whole_image(shape, rank, counts):
    # every band of these convs sees the same GEMM columns in a tile as in
    # the whole image, so each tile's own rows are bit for bit the whole's
    p = RegularizerParams.init(channels=16, layers=5, spatial_rank=rank, seed=31, scale=1.0)
    x = crandn(np.random.default_rng(32), *shape)
    want = whole_branch(p, x)
    for tiles in counts:
        assert np.array_equal(autodiff._tiled_branch(p, x, tiles), want), tiles


def test_tiled_branch_on_rows_that_group_their_bands_otherwise():
    # 97 columns: a 2->16 band spans several rows, so a tile that starts
    # elsewhere groups other columns into each GEMM; measured 4.3e-16 of
    # the largest value
    p = RegularizerParams.init(channels=16, layers=5, seed=33, scale=1.0)
    x = crandn(np.random.default_rng(34), 130, 97)
    want = whole_branch(p, x)
    for tiles in (2, 3, 130):
        got = autodiff._tiled_branch(p, x, tiles)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), tiles


def spy_tile_counts(monkeypatch):
    """The list that each tiled branch call appends its tile count to."""
    counts = []
    tiled = autodiff._tiled_branch
    monkeypatch.setattr(autodiff, "_tiled_branch", lambda p, x, t: counts.append(t) or tiled(p, x, t))
    return counts


@pytest.mark.parametrize("budget,tiles", [(1 << 20, 2), (800_000, 3), (1, 12)])
def test_untaped_branch_tiles_by_the_budget(monkeypatch, budget, tiles):
    # 16 channels of 128x128 are a 2 MB activation: the count is the fewest
    # tiles whose own rows fit the budget, but no tile gets fewer rows than
    # twice its 5-row halo; the values are the whole image's
    p = RegularizerParams.init(channels=16, layers=5, seed=35)
    x = crandn(np.random.default_rng(36), 128, 128)
    want = whole_branch(p, x)
    counts = spy_tile_counts(monkeypatch)
    monkeypatch.setattr(autodiff, "_TILE_BYTES", budget)
    assert np.array_equal(residual_branch(p, x), want)
    assert counts == [tiles]


@pytest.mark.parametrize("shape,rank", [((24, 24), 2), ((12, 40, 40), 3), ((4, 16, 16), 3)])
def test_branch_tiles_no_image_whose_activation_fits_or_whose_rows_are_few(monkeypatch, shape, rank):
    # training and cine images fit the budget; under a budget of one byte
    # the 24 rows make at most two tiles of 12, and 12 or 4 rows none: a
    # tile of fewer than 10 rows would recompute more than it keeps
    p = RegularizerParams.init(channels=16, layers=5, spatial_rank=rank, seed=37)
    x = crandn(np.random.default_rng(38), *shape)
    counts = spy_tile_counts(monkeypatch)
    residual_branch(p, x)
    assert counts == []
    monkeypatch.setattr(autodiff, "_TILE_BYTES", 1)
    residual_branch(p, x)
    assert counts == ([2] if shape[0] == 24 else [])


def test_taped_branch_never_tiles(monkeypatch):
    monkeypatch.setattr(autodiff, "_TILE_BYTES", 1)
    monkeypatch.setattr(autodiff, "_tiled_branch", None)  # calling it would raise
    p = RegularizerParams.init(channels=4, layers=3, seed=39)
    x = crandn(np.random.default_rng(40), 64, 64)
    acts = []
    residual_branch(p, x, acts)
    assert [a.shape[1:] for a in acts] == [(64, 64)] * 3


def test_retained_bytes_hand_count():
    # 4x4 image, 1 channel, 2 layers: w0 [1, 2, 3, 3] and w1 [2, 1, 3, 3]
    # are 144 B each; c2ch(x) [2, 4, 4] is 256 B and the relu output
    # [1, 4, 4] 128 B. The biases are never kept. Total 672 bytes.
    rng = np.random.default_rng(2)
    p = reg_of(*random_layers(rng, channels=1, layers=2))
    tape = Tape()
    tape.record(p, Tensor(crandn(rng, 4, 4)))
    assert tape.saved_bytes == 672


def test_relu_output_feeding_conv_is_held_once():
    # 3 layers: weights 144 + 72 + 144 B, c2ch(x) 256 B and two relu outputs
    # of 128 B, each kept once as the next conv's input. Total 872 bytes;
    # keeping relu inputs as well would hold 256 B more.
    rng = np.random.default_rng(13)
    p = reg_of(*random_layers(rng, channels=1, layers=3))
    tape = Tape()
    tape.record(p, Tensor(crandn(rng, 4, 4)))
    assert [a.shape for a in tape.unrolls[0]] == [(2, 4, 4), (1, 4, 4), (1, 4, 4)]
    assert tape.saved_bytes == 872


def test_bare_tape_reports_peak_through_own_ledger():
    # two unrolls share the weights (288 B), counted once, and keep 384 B of
    # activations each; popping them frees the activations but the ledger
    # keeps its peak
    rng = np.random.default_rng(3)
    p = reg_of(*random_layers(rng, channels=1, layers=2))
    x = Tensor(crandn(rng, 4, 4))
    tape = Tape()
    tape.record(p, tape.record(p, x))
    assert tape.saved_bytes == 288 + 2 * 384
    for _ in range(2):
        tape.backward(p, Tensor(np.ones((4, 4), dtype=complex)), {})
    assert tape.unrolls == []
    assert tape.saved_bytes == 288 + 2 * 384


# --- backward -----------------------------------------------------------------


def test_relu_gradient_at_positive_and_zero():
    # G(x) = relu(re x) through centre-tap convs: on x = [2, -1, 0] the
    # relu passes the gradient, scaled by c, at the positive voxel only, not
    # at the exactly-zero pre-activation
    w0, w1 = np.zeros((1, 2, 3, 3)), np.zeros((2, 1, 3, 3))
    w0[0, 0, 1, 1] = w1[0, 0, 1, 1] = 1.0
    p = reg_of([w0, w1], [np.zeros(1), np.zeros(2)])
    x = Tensor(np.array([[2.0, -1.0, 0.0]], dtype=complex))
    gx, grads = unroll_vjp(p, x, Tensor(np.ones((1, 3), dtype=complex)))
    assert gx.tolist() == [[1 + CONTRACTION, 1.0, 1.0]]
    assert grads["b0"].tolist() == [CONTRACTION]


def test_conv_weight_grad_matches_finite_differences():
    # 2 -> 3 -> 2 channels, 3x5 kernels on a 5x4 grid: a channel/offset or
    # row/column transposition in the kernel layout changes the gradient
    rng = np.random.default_rng(3)
    ws, bs = random_layers(rng, channels=3, layers=2, kshape=(3, 5))
    x = Tensor(crandn(rng, 5, 4))
    t = crandn(rng, 5, 4)
    _, grads = unroll_vjp(reg_of(ws, bs), x, half_sq(regularizer_forward(reg_of(ws, bs), x), t)[1])
    for i in range(2):
        def loss_of(w):
            wi = ws[:i] + [w] + ws[i + 1:]
            return half_sq(regularizer_forward(reg_of(wi, bs), x), t)[0]
        assert close(grads[f"w{i}"], central_diff(loss_of, ws[i].copy())), i


def test_conv_input_and_bias_grads_match_finite_differences():
    rng = np.random.default_rng(4)
    ws, bs = random_layers(rng, channels=3, layers=3)
    xa = crandn(rng, 4, 4)
    t = crandn(rng, 4, 4)
    p = reg_of(ws, bs)
    gx, grads = unroll_vjp(p, Tensor(xa), half_sq(regularizer_forward(p, Tensor(xa)), t)[1])
    assert close(gx, fd_of_x(lambda a: half_sq(regularizer_forward(p, Tensor(a)), t)[0], xa))
    for i in range(3):
        def loss_of(b):
            return half_sq(regularizer_forward(reg_of(ws, bs[:i] + [b] + bs[i + 1:]), Tensor(xa)), t)[0]
        assert close(grads[f"b{i}"], central_diff(loss_of, bs[i].copy())), i


def test_complex_composite_matches_finite_differences():
    # l1(x + c*G(x)): every cast, conv, relu, scale and add of the unroll,
    # seeded with the l1 loss's closed-form gradient; the complex input is
    # checked channel-wise against the real-pair convention
    rng = np.random.default_rng(5)
    p = reg_of(*random_layers(rng, channels=3, layers=2))
    xa = crandn(rng, 4, 4)
    target = Tensor(crandn(rng, 4, 4))
    gx, _ = unroll_vjp(p, Tensor(xa), l1_loss(regularizer_forward(p, Tensor(xa)), target)[1])
    fd = fd_of_x(lambda a: l1_loss(regularizer_forward(p, Tensor(a)), target)[0], xa)
    assert np.linalg.norm(gx - fd) <= max(1e-6, 1e-4 * np.linalg.norm(fd))


def test_linear_branch_vjp_is_its_adjoint():
    # b0 = 100 keeps the one relu open around x = 0, so z(x) - z(0) is the
    # Jacobian J applied to x, and the VJP must be J's adjoint in the
    # real-pair inner product: <J x, y> = <x, J^T y>
    rng = np.random.default_rng(6)
    ws, bs = random_layers(rng, channels=3, layers=2)
    bs[0] = np.full(3, 100.0)
    p = reg_of(ws, bs)
    x = Tensor(crandn(rng, 6, 6))
    y = crandn(rng, 6, 6)
    jx = regularizer_forward(p, x).data - regularizer_forward(p, Tensor(np.zeros((6, 6), dtype=complex))).data
    gx, _ = unroll_vjp(p, x, Tensor(y))
    lhs = np.vdot(y, jx).real
    assert abs(lhs - np.vdot(gx, x.data).real) <= 1e-10 * max(1.0, abs(lhs))


def test_vjp_linear_in_seed():
    # three unrolls of one x on one tape, popped with seeds s1, s2 and
    # a*s1 + b*s2: every gradient is linear in the seed
    rng = np.random.default_rng(8)
    p = reg_of(*random_layers(rng, channels=2, layers=3))
    x = Tensor(crandn(rng, 4, 4))
    tape = Tape()
    for _ in range(3):
        tape.record(p, x)
    s1, s2 = crandn(rng, 4, 4), crandn(rng, 4, 4)
    a, b = 1.3, -2.1
    out = []
    for s in (s1, s2, a * s1 + b * s2):
        grads = {}
        out.append((tape.backward(p, Tensor(s), grads).data, grads))
    (g1, m1), (g2, m2), (g12, m12) = out
    assert np.linalg.norm(g12 - (a * g1 + b * g2)) <= 1e-12 * np.linalg.norm(g12)
    for k in m12:
        assert np.linalg.norm(m12[k] - (a * m1[k] + b * m2[k])) <= 1e-12 * np.linalg.norm(m12[k]), k


def test_backward_error_cases():
    # an empty tape, params of another layer count than the unroll's, and a
    # gradient not shaped like the unroll's input raise ValueError; a
    # rejected call leaves the unroll on the tape
    rng = np.random.default_rng(9)
    p = reg_of(*random_layers(rng, channels=2, layers=3))
    tape = Tape()
    with pytest.raises(ValueError, match="no recorded unroll"):
        tape.backward(p, Tensor(np.zeros((3, 3), dtype=complex)), {})
    tape.record(p, Tensor(crandn(rng, 3, 3)))
    for layers in (2, 5):
        grads = {}
        with pytest.raises(ValueError, match=f"params have {layers} layers but the unroll recorded 3"):
            tape.backward(reg_of(*random_layers(rng, channels=2, layers=layers)),
                          Tensor(np.zeros((3, 3), dtype=complex)), grads)
        assert grads == {} and len(tape.unrolls[0]) == 3
    with pytest.raises(ValueError, match=r"\(2, 3\) != unroll input shape \(3, 3\)"):
        tape.backward(p, Tensor(np.zeros((2, 3), dtype=complex)), {})
    assert tape.backward(p, Tensor(np.zeros((3, 3), dtype=complex)), {}).shape == (3, 3)
    assert tape.unrolls == []


def test_regularizer_vjp_3d_matches_finite_differences():
    # the cine branch: 3x3x3 kernels on a 3x3x3 complex image; the gradient
    # at x and at every weight and bias against central differences
    rng = np.random.default_rng(10)
    ws, bs = random_layers(rng, channels=2, layers=3, kshape=(3, 3, 3), w_scale=0.3)
    xa = crandn(rng, 3, 3, 3)
    t = crandn(rng, 3, 3, 3)

    def loss(ws_, bs_, a):
        return half_sq(regularizer_forward(reg_of(ws_, bs_), Tensor(a)), t)[0]

    p = reg_of(ws, bs)
    gx, grads = unroll_vjp(p, Tensor(xa), half_sq(regularizer_forward(p, Tensor(xa)), t)[1])
    assert set(grads) == {f"{k}{i}" for k in "wb" for i in range(3)}
    assert close(gx, fd_of_x(lambda a: loss(ws, bs, a), xa))
    for i in range(3):
        fd_w = central_diff(lambda w: loss(ws[:i] + [w] + ws[i + 1:], bs, xa), ws[i].copy())
        fd_b = central_diff(lambda b: loss(ws, bs[:i] + [b] + bs[i + 1:], xa), bs[i].copy())
        assert close(grads[f"w{i}"], fd_w), i
        assert close(grads[f"b{i}"], fd_b), i
