import numpy as np
import pytest

from melrecon.tensor import (
    MemoryLedger,
    Tensor,
    add,
    channels_to_complex,
    complex_to_channels,
    conv_nd,
    fft_centered,
    ifft_centered,
    inner_product,
    melt_read,
    melt_write,
    norm2,
    relu,
    scale,
)

from oracles import conv_same_loops, dft_centered_direct, max_prefix_sum


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# --- the one constructor -----------------------------------------------------


@pytest.mark.parametrize(
    "data,dtype",
    [
        (np.arange(6.0).reshape(2, 3), np.float64),
        (np.arange(6, dtype=np.float32), np.float64),
        (np.arange(6).reshape(3, 2), np.float64),
        (np.array([True, False, True]), np.float64),
        (1.0, np.float64),
        (np.ones(4, dtype=np.complex64), np.complex128),
        (np.ones((2, 2), dtype=np.complex128), np.complex128),
        (1.0 + 2.0j, np.complex128),
    ],
)
def test_tensor_dtype_is_float64_or_complex128(data, dtype):
    t = Tensor(data)
    assert t.data.dtype == dtype
    assert np.array_equal(t.data, np.asarray(data))
    assert t.nbytes == t.data.size * (16 if dtype == np.complex128 else 8)


def test_tensor_stores_c_contiguous():
    view = np.arange(12.0).reshape(3, 4).T
    assert not view.flags.c_contiguous
    t = Tensor(view)
    assert t.data.flags.c_contiguous
    assert np.array_equal(t.data, view)


def test_add_rejects_real_plus_complex():
    with pytest.raises(ValueError, match="dtype"):
        add(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2), dtype=complex)))


# --- FFT -------------------------------------------------------------------


def test_fft_delta_at_center_is_flat():
    d = np.zeros((8, 8), dtype=np.complex128)
    d[4, 4] = 1.0
    out = fft_centered(Tensor(d))
    assert np.allclose(out.data, np.full((8, 8), 1.0 / 8.0), atol=1e-14)


def test_fft_roundtrip():
    rng = np.random.default_rng(0)
    x = Tensor(crandn(rng, 12, 10))
    back = ifft_centered(fft_centered(x))
    assert np.linalg.norm(back.data - x.data) <= 1e-12 * np.linalg.norm(x.data)


def test_fft_unitary_16x16():
    rng = np.random.default_rng(1)
    x = Tensor(crandn(rng, 16, 16))
    assert abs(norm2(fft_centered(x)) - norm2(x)) <= 1e-12 * norm2(x)


@pytest.mark.parametrize("shape", [(4,), (13,), (8, 8), (5, 7), (16, 16), (4, 4, 8), (3, 5, 7)])
def test_fft_matches_direct_dft(shape):
    rng = np.random.default_rng(sum(shape))
    x = crandn(rng, *shape)
    got = fft_centered(Tensor(x)).data
    want = dft_centered_direct(x)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    # inverse agrees with conjugate-transpose route
    inv = ifft_centered(Tensor(want)).data
    assert np.linalg.norm(inv - x) <= 1e-10 * np.linalg.norm(x)


def test_fft_axis_subset():
    rng = np.random.default_rng(2)
    x = crandn(rng, 3, 8, 8)
    got = fft_centered(Tensor(x), dims=(1, 2)).data
    want = np.stack([dft_centered_direct(x[i]) for i in range(3)])
    assert np.allclose(got, want, atol=1e-12)


def test_fft_rejects_bad_dims():
    x = Tensor(np.zeros((4, 4), dtype=complex))
    with pytest.raises(ValueError):
        fft_centered(x, dims=())
    with pytest.raises(ValueError):
        fft_centered(x, dims=(2,))


# --- convolution -----------------------------------------------------------


def test_conv_identity_kernel():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((1, 6, 6)))
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    out = conv_nd(x, Tensor(w), Tensor(np.zeros(1)))
    assert np.allclose(out.data, x.data, atol=1e-15)


def test_conv_zero_input_gives_bias():
    w = np.zeros((3, 2, 3, 3))
    b = np.array([1.0, -2.0, 0.5])
    out = conv_nd(Tensor(np.zeros((2, 4, 4))), Tensor(w), Tensor(b))
    assert np.allclose(out.data, b[:, None, None] * np.ones((3, 4, 4)))


def test_conv_matches_loop_oracle():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((1, 5, 5))
    w = rng.standard_normal((1, 1, 3, 3))
    b = rng.standard_normal(1)
    got = conv_nd(Tensor(x), Tensor(w), Tensor(b)).data
    want = conv_same_loops(x, w, b)
    assert np.linalg.norm(got - want) <= 1e-12


def test_conv_multichannel_matches_loop_oracle():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 6, 4))
    w = rng.standard_normal((2, 3, 3, 5))
    b = rng.standard_normal(2)
    got = conv_nd(Tensor(x), Tensor(w), Tensor(b)).data
    want = conv_same_loops(x, w, b)
    assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want))


def test_conv_3d_identity():
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((2, 4, 5, 6)))
    w = np.zeros((2, 2, 3, 3, 3))
    for c in range(2):
        w[c, c, 1, 1, 1] = 1.0
    out = conv_nd(x, Tensor(w), Tensor(np.zeros(2)))
    assert np.allclose(out.data, x.data)


def test_conv_linearity():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 5, 5))
    y = rng.standard_normal((2, 5, 5))
    w = Tensor(rng.standard_normal((3, 2, 3, 3)))
    b0 = Tensor(np.zeros(3))
    a, bb = 1.7, -0.3
    lhs = conv_nd(Tensor(a * x + bb * y), w, b0).data
    rhs = a * conv_nd(Tensor(x), w, b0).data + bb * conv_nd(Tensor(y), w, b0).data
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))


def test_conv_rejects_bad_args():
    x = Tensor(np.zeros((2, 4, 4)))
    with pytest.raises(ValueError):  # even kernel
        conv_nd(x, Tensor(np.zeros((1, 2, 2, 2))), Tensor(np.zeros(1)))
    with pytest.raises(ValueError):  # channel mismatch
        conv_nd(x, Tensor(np.zeros((1, 3, 3, 3))), Tensor(np.zeros(1)))
    with pytest.raises(ValueError):  # spatial rank 1
        conv_nd(Tensor(np.zeros((2, 4))), Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros(1)))


# --- elementwise / casts ----------------------------------------------------


def test_relu_values():
    out = relu(Tensor(np.array([-1.5, 0.0, 2.0])))
    assert out.data.tolist() == [0.0, 0.0, 2.0]


def test_add_and_scale():
    rng = np.random.default_rng(8)
    x = Tensor(crandn(rng, 4, 4))
    y = Tensor(crandn(rng, 4, 4))
    assert np.allclose(add(x, y).data, x.data + y.data)
    assert np.allclose(scale(x, 2.5).data, 2.5 * x.data)
    with pytest.raises(ValueError):
        add(x, Tensor(np.zeros((2, 2), dtype=complex)))


def test_channel_cast_roundtrip():
    rng = np.random.default_rng(9)
    x = Tensor(crandn(rng, 5, 3))
    ch = complex_to_channels(x)
    assert ch.shape == (2, 5, 3)
    back = channels_to_complex(ch)
    assert np.array_equal(back.data, x.data)


def test_inner_product_and_norm():
    rng = np.random.default_rng(10)
    x = Tensor(crandn(rng, 6, 6))
    ip = inner_product(x, x)
    assert abs(ip - norm2(x) ** 2) <= 1e-12 * abs(ip)
    assert abs(ip.imag) <= 1e-12


# --- memory ledger -----------------------------------------------------------


def test_ledger_retain_bytes():
    led = MemoryLedger()
    t = Tensor(np.zeros((8, 8), dtype=complex))
    led.retain(t, "x")
    assert led.live_bytes == 1024  # 64 samples x 16 bytes
    assert led.peak_bytes == 1024


def test_ledger_retain_release_conserves():
    led = MemoryLedger()
    a = Tensor(np.zeros(10))
    before = led.live_bytes
    led.retain(a)
    led.release(a.alloc_id)
    assert led.live_bytes == before


def test_ledger_peak_is_max_prefix_sum():
    rng = np.random.default_rng(11)
    led = MemoryLedger()
    live = []
    for step in range(60):
        if live and rng.random() < 0.45:
            led.release(live.pop(rng.integers(len(live))).alloc_id)
        else:
            t = Tensor(np.zeros(int(rng.integers(1, 200))))
            led.retain(t)
            live.append(t)
    want = max_prefix_sum(d for _, d, _ in led.events)
    assert led.peak_bytes == want
    for t in live:
        led.release(t.alloc_id)
    assert led.live_bytes == 0


def test_ledger_errors():
    led = MemoryLedger()
    t = Tensor(np.zeros(4))
    led.retain(t)
    with pytest.raises(ValueError):
        led.retain(t)
    with pytest.raises(ValueError):
        led.release(999999)


# --- MELT format --------------------------------------------------------------


@pytest.mark.parametrize("shape", [(7,), (4, 4), (2, 3, 4), (2, 2, 2, 2), (1, 2, 3, 4, 5)])
def test_melt_roundtrip_complex(tmp_path, shape):
    rng = np.random.default_rng(12)
    t = Tensor(crandn(rng, *shape))
    p = tmp_path / "t.melt"
    melt_write(p, t)
    back = melt_read(p)
    assert back.data.dtype == np.complex128
    assert back.shape == t.shape
    assert np.array_equal(back.data, t.data)


def test_melt_roundtrip_real(tmp_path):
    t = Tensor(np.random.default_rng(13).standard_normal((3, 5)))
    p = tmp_path / "r.melt"
    melt_write(p, t)
    back = melt_read(p)
    assert back.data.dtype == np.float64
    assert np.array_equal(back.data, t.data)


def test_melt_header_layout(tmp_path):
    p = tmp_path / "h.melt"
    melt_write(p, Tensor(np.arange(6.0).reshape(2, 3)))
    raw = p.read_bytes()
    assert raw[:4] == b"MELT"
    assert raw[4] == 1  # version
    assert raw[5] == 0  # real64
    assert raw[6] == 2  # rank
    import struct

    assert struct.unpack_from("<5Q", raw, 7) == (2, 3, 1, 1, 1)
    assert len(raw) == 47 + 6 * 8


def test_melt_rejects_garbage(tmp_path):
    p = tmp_path / "bad.melt"
    p.write_bytes(b"NOPE" + b"\x00" * 60)
    with pytest.raises(ValueError):
        melt_read(p)


def test_melt_rejects_bad_dtype_code(tmp_path):
    p = tmp_path / "d.melt"
    melt_write(p, Tensor(np.arange(6.0).reshape(2, 3)))
    raw = bytearray(p.read_bytes())
    raw[5] = 7  # neither real64 (0) nor complex128 (1)
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="bad dtype code 7"):
        melt_read(p)


def test_finite_outputs():
    rng = np.random.default_rng(14)
    x = Tensor(crandn(rng, 8, 8))
    for t in (fft_centered(x), ifft_centered(x), scale(x, 3.0), add(x, x)):
        assert np.all(np.isfinite(t.data.real)) and np.all(np.isfinite(t.data.imag))
