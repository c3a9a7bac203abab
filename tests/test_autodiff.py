import tracemalloc

import numpy as np
import pytest

from melrecon.autodiff import Tape, apply_op
from melrecon.mel import l1_loss
from melrecon.tensor import Tensor, add, conv_nd

from oracles import central_diff


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def n_op_nodes(tape):
    return sum(1 for n in tape.nodes if n.op_kind != "leaf")


# --- recording ----------------------------------------------------------------


def test_record_matches_untaped_bitwise():
    rng = np.random.default_rng(0)
    x = Tensor(crandn(rng, 4, 4))
    y = Tensor(crandn(rng, 4, 4))
    tape = Tape()
    out = tape.record("add", x, y)
    assert np.array_equal(out.data, add(x, y).data)


def test_tape_appends_one_node_per_op():
    rng = np.random.default_rng(1)
    x = Tensor(crandn(rng, 3, 3))
    tape = Tape()
    h = tape.record("scale", x, a=2.0)
    h = tape.record("add", h, x)
    h = tape.record("c2ch", h)
    assert n_op_nodes(tape) == 3


def test_retained_bytes_hand_count():
    # conv saves x (1x4x4 = 128 B) and w (1x1x3x3 = 72 B); relu saves its
    # output (128 B); add saves nothing. Total 328 bytes.
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((1, 4, 4)))
    w = Tensor(rng.standard_normal((1, 1, 3, 3)))
    b = Tensor(np.zeros(1))
    tape = Tape()
    h = tape.record("conv", x, w, b)
    h = tape.record("relu", h)
    tape.record("add", h, x)
    assert tape.saved_bytes == 328


def test_relu_output_feeding_conv_is_held_once():
    # conv saves x (128 B) and w0 (72 B); relu saves its output (128 B),
    # which the second conv saves again as its input, counted once; w1 72 B.
    # Total 400 bytes; a relu saving its input would hold 128 B more.
    rng = np.random.default_rng(13)
    x = Tensor(rng.standard_normal((1, 4, 4)))
    w0, w1 = Tensor(rng.standard_normal((1, 1, 3, 3))), Tensor(rng.standard_normal((1, 1, 3, 3)))
    b = Tensor(np.zeros(1))
    tape = Tape()
    h = tape.record("relu", tape.record("conv", x, w0, b))
    tape.record("conv", h, w1, b)
    assert tape.saved_bytes == 400


def test_bare_tape_reports_peak_through_own_ledger():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((1, 4, 4)))
    tape = Tape()
    tape.record("relu", tape.record("relu", x))  # two saved outputs, 128 B each
    assert tape.saved_bytes == 256


# --- backward -----------------------------------------------------------------


def test_backward_linear_scale():
    x = Tensor(np.ones((4, 4), dtype=complex))
    tape = Tape()
    out = tape.record("scale", x, a=3.0)
    g = tape.backward(out, Tensor(np.ones((4, 4), dtype=complex)), [x])
    assert np.allclose(g[x.alloc_id].data, 3.0 * np.ones((4, 4)))


def test_backward_releases_consumed_adjoints():
    # a chain of 20 scales on a 1 MB tensor: the sweep holds a few adjoints
    # at a time, not one per node; requested ones (leaf and an intermediate)
    # survive with exact values
    x = Tensor(np.ones(1 << 17))
    tape = Tape()
    h = x
    for _ in range(10):
        h = tape.record("scale", h, a=1.5)
    mid = h
    for _ in range(10):
        h = tape.record("scale", h, a=-0.5)
    seed = Tensor(np.full(x.shape, 2.0))
    tracemalloc.start()
    try:
        g = tape.backward(h, seed, [x, mid])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * x.nbytes
    assert np.all(g[mid.alloc_id].data == 2.0 * (-0.5) ** 10)
    assert np.all(g[x.alloc_id].data == 2.0 * (-0.5) ** 10 * 1.5**10)


def test_relu_gradient_at_positive_and_zero():
    x = Tensor(np.array([2.0, -1.0, 0.0]).reshape(1, 1, 3))
    tape = Tape()
    out = tape.record("relu", x)
    g = tape.backward(out, Tensor(np.ones((1, 1, 3))), [x])
    assert g[x.alloc_id].data.tolist() == [[[1.0, 0.0, 0.0]]]


def test_conv_weight_grad_matches_finite_differences():
    # 2 -> 3 channels, a 3x5 kernel on a 5x4 grid: a channel/offset or
    # row/column transposition in the kernel layout changes the gradient
    rng = np.random.default_rng(3)
    xa = rng.standard_normal((2, 5, 4))
    wa = rng.standard_normal((3, 2, 3, 5))
    ba = np.zeros(3)

    def loss_of(warr):
        h = conv_nd(Tensor(xa), Tensor(warr), Tensor(ba))
        return 0.5 * float(np.vdot(h.data, h.data).real)

    x = Tensor(xa)
    w = Tensor(wa)
    tape = Tape()
    h = tape.record("conv", x, w, Tensor(ba))
    g = tape.backward(h, h, [w])[w.alloc_id].data  # seed h: gradient of 0.5*||h||^2

    fd = central_diff(loss_of, wa.copy(), h=1e-6)
    assert np.linalg.norm(g - fd) <= 1e-6 * np.linalg.norm(fd)


def test_conv_input_and_bias_grads_match_finite_differences():
    rng = np.random.default_rng(4)
    xa = rng.standard_normal((2, 4, 4))
    wa = rng.standard_normal((3, 2, 3, 3)) * 0.5
    ba = rng.standard_normal(3)
    t = rng.standard_normal((3, 4, 4))

    def loss_parts(xarr, barr):
        h = conv_nd(Tensor(xarr), Tensor(wa), Tensor(barr))
        d = h.data - t
        return 0.5 * float((d * d).sum())

    x = Tensor(xa)
    b = Tensor(ba)
    tape = Tape()
    h = tape.record("conv", x, Tensor(wa), b)
    d = tape.record("add", h, Tensor(-t))
    g = tape.backward(d, d, [x, b])  # seed d: gradient of 0.5*||d||^2

    fd_x = central_diff(lambda a: loss_parts(a, ba), xa.copy())
    fd_b = central_diff(lambda a: loss_parts(xa, a), ba.copy())
    assert np.linalg.norm(g[x.alloc_id].data - fd_x) <= 1e-6 * np.linalg.norm(fd_x)
    assert np.linalg.norm(g[b.alloc_id].data - fd_b) <= 1e-6 * np.linalg.norm(fd_b)


def test_complex_composite_matches_finite_differences():
    # l1(x + a*ch2c(conv(relu(conv(c2ch(x)))))): every cast, conv, relu,
    # scale and add on one chain, seeded with the l1 loss's closed-form
    # gradient; complex leaf checked channel-wise against the real-pair
    # convention.
    rng = np.random.default_rng(5)
    xa = crandn(rng, 4, 4)
    w0, b0 = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.5), Tensor(rng.standard_normal(3))
    w1, b1 = Tensor(rng.standard_normal((2, 3, 3, 3)) * 0.5), Tensor(rng.standard_normal(2))
    target = Tensor(crandn(rng, 4, 4))

    def fwd(x, op):
        h = op("relu", op("conv", op("c2ch", x), w0, b0))
        g = op("ch2c", op("conv", h, w1, b1))
        return op("add", x, op("scale", g, a=1.3))

    def loss_channels(ch):
        return l1_loss(fwd(Tensor(ch[0] + 1j * ch[1]), apply_op), target)[0]

    x = Tensor(xa)
    tape = Tape()
    out = fwd(x, tape.record)
    g = tape.backward(out, l1_loss(out, target)[1], [x])[x.alloc_id].data

    ch = np.stack([xa.real, xa.imag])
    fd = central_diff(loss_channels, ch.copy())
    got = np.stack([g.real, g.imag])
    assert np.linalg.norm(got - fd) <= max(1e-6, 1e-4 * np.linalg.norm(fd))


def _linear_inputs(kind, rng):
    """Inputs for ``kind`` and how many leading ones it is jointly linear in
    (conv with a zero bias is linear in its input for fixed weights)."""
    if kind == "ch2c":
        return [Tensor(rng.standard_normal((2, 6, 6)))], 1
    if kind == "add":
        return [Tensor(crandn(rng, 6, 6)), Tensor(crandn(rng, 6, 6))], 2
    if kind == "conv":
        x, w = rng.standard_normal((2, 6, 6)), rng.standard_normal((3, 2, 3, 3))
        return [Tensor(x), Tensor(w), Tensor(np.zeros(3))], 1
    return [Tensor(crandn(rng, 6, 6))], 1


@pytest.mark.parametrize("kind,attrs", [("ch2c", {}), ("add", {}), ("c2ch", {}), ("scale", {"a": -1.7}), ("conv", {})])
def test_linear_op_adjoint_identity(kind, attrs):
    # <op(x), y> = sum_i <x_i, vjp_i(y)> in the real-pair inner product.
    rng = np.random.default_rng(6)
    inputs, n_linear = _linear_inputs(kind, rng)
    xs = inputs[:n_linear]
    tape = Tape()
    out = tape.record(kind, *inputs, **attrs)
    if np.iscomplexobj(out.data):
        y = Tensor(crandn(rng, *out.shape))
    else:
        y = Tensor(rng.standard_normal(out.shape))
    lhs = np.vdot(y.data, out.data).real
    g = tape.backward(out, y, xs)
    rhs = sum(np.vdot(g[x.alloc_id].data, x.data).real for x in xs)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_vjp_linear_in_seed():
    # x + ch2c(conv(c2ch(0.7 x))) with a zero bias is linear in x
    rng = np.random.default_rng(8)
    x = Tensor(crandn(rng, 4, 4))
    w = Tensor(rng.standard_normal((2, 2, 3, 3)))
    tape = Tape()
    h = tape.record("c2ch", tape.record("scale", x, a=0.7))
    h = tape.record("ch2c", tape.record("conv", h, w, Tensor(np.zeros(2))))
    out = tape.record("add", x, h)
    s1 = crandn(rng, 4, 4)
    s2 = crandn(rng, 4, 4)
    a, b = 1.3, -2.1
    g1 = tape.backward(out, Tensor(s1), [x])[x.alloc_id].data
    g2 = tape.backward(out, Tensor(s2), [x])[x.alloc_id].data
    g12 = tape.backward(out, Tensor(a * s1 + b * s2), [x])[x.alloc_id].data
    assert np.linalg.norm(g12 - (a * g1 + b * g2)) <= 1e-12 * np.linalg.norm(g12)


def test_backward_error_cases():
    rng = np.random.default_rng(9)
    x = Tensor(crandn(rng, 3, 3))
    other = Tensor(crandn(rng, 3, 3))
    tape = Tape()
    out = tape.record("scale", x, a=1.0)
    with pytest.raises(ValueError):
        tape.backward(out, Tensor(np.zeros((2, 2), dtype=complex)), [x])
    with pytest.raises(ValueError):
        tape.backward(out, Tensor(np.zeros((3, 3), dtype=complex)), [other])
    with pytest.raises(ValueError):
        tape.backward(other, Tensor(np.zeros((3, 3), dtype=complex)), [x])


def test_unreached_leaf_gets_zero_gradient():
    # ``unused`` is on the tape, read by an op outside ``out``'s graph
    rng = np.random.default_rng(10)
    x = Tensor(crandn(rng, 3, 3))
    unused = Tensor(crandn(rng, 3, 3))
    tape = Tape()
    out = tape.record("scale", x, a=2.0)
    tape.record("scale", unused, a=3.0)
    g = tape.backward(out, Tensor(np.ones((3, 3), dtype=complex)), [x, unused])
    assert np.all(g[unused.alloc_id].data == 0)
    assert g[unused.alloc_id].shape == unused.shape
