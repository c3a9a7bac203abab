import math
import struct
import tracemalloc

import numpy as np
import pytest

from melrecon import tensor as tensor_mod
from melrecon.tensor import (
    Tensor,
    conv_input_grad,
    conv_nd,
    conv_weight_grad,
    melt_read,
    melt_write,
)

from oracles import (
    central_diff,
    conv_same_loops,
    dft_centered_direct,
    fft_centered,
    ifft_centered,
    inner_product,
    norm2,
)


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
    x = rng.standard_normal((1, 6, 6))
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    out = conv_nd(x, w, np.zeros(1))
    assert np.allclose(out, x, atol=1e-15)


def test_conv_zero_input_gives_bias():
    w = np.zeros((3, 2, 3, 3))
    b = np.array([1.0, -2.0, 0.5])
    out = conv_nd(np.zeros((2, 4, 4)), w, b)
    assert np.allclose(out, b[:, None, None] * np.ones((3, 4, 4)))


def test_conv_matches_loop_oracle():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((1, 5, 5))
    w = rng.standard_normal((1, 1, 3, 3))
    b = rng.standard_normal(1)
    got = conv_nd(x, w, b)
    want = conv_same_loops(x, w, b)
    assert np.linalg.norm(got - want) <= 1e-12


def test_conv_multichannel_matches_loop_oracle():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 6, 4))
    w = rng.standard_normal((2, 3, 3, 5))
    b = rng.standard_normal(2)
    got = conv_nd(x, w, b)
    want = conv_same_loops(x, w, b)
    assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want))


def test_conv_3d_identity():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 4, 5, 6))
    w = np.zeros((2, 2, 3, 3, 3))
    for c in range(2):
        w[c, c, 1, 1, 1] = 1.0
    out = conv_nd(x, w, np.zeros(2))
    assert np.allclose(out, x)


def test_conv_3d_multichannel_matches_loop_oracle():
    # [C, T, H, W] with an anisotropic 3x3x5 kernel: the 2D+time path
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 4, 5, 7))
    w = rng.standard_normal((3, 2, 3, 3, 5))
    b = rng.standard_normal(3)
    got = conv_nd(x, w, b)
    want = conv_same_loops(x, w, b)
    assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want))


@pytest.mark.parametrize(
    "spatial,kshape", [((6, 6), (3, 3)), ((4, 5, 7), (3, 3, 5))], ids=["2d", "3d"])
def test_conv_input_grad_is_adjoint(spatial, kshape):
    # <conv(x), g> = <x, conv_input_grad(g)> for a zero bias, 2 -> 3 channels
    rng = np.random.default_rng(9)
    x = rng.standard_normal((2,) + spatial)
    w = rng.standard_normal((3, 2) + kshape)
    g = rng.standard_normal((3,) + spatial)
    lhs = np.vdot(g, conv_nd(x, w, np.zeros(3)))
    rhs = np.vdot(conv_input_grad(g, w), x)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_conv_3d_weight_grad_matches_finite_differences():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((2, 4, 5, 7))
    w = rng.standard_normal((3, 2, 3, 3, 5))
    g = rng.standard_normal((3, 4, 5, 7))
    b0 = np.zeros(3)
    fd = central_diff(lambda wa: float(np.vdot(g, conv_nd(x, wa, b0))), w.copy())
    got = conv_weight_grad(x, g, w.shape[2:])
    assert got.shape == w.shape
    assert np.linalg.norm(got - fd) <= 1e-6 * np.linalg.norm(fd)


_NO_CAP = 1 << 62


@pytest.mark.parametrize(
    "spatial,kshape,band_macs,band_bytes,n_bands",
    [
        ((5, 7), (3, 3), 1, _NO_CAP, 35),  # one voxel per band
        ((5, 7), (3, 3), 54 * 7 * 2, _NO_CAP, 3),  # two rows per band, the last one partial
        ((5, 7), (3, 3), 54 * 3, _NO_CAP, 15),  # runs of three voxels of each row
        ((4, 5, 7), (3, 3, 5), 270 * 35 * 3, _NO_CAP, 2),  # three frames per band, the last one partial
        ((4, 5, 7), (3, 3, 5), 270 * 7 * 2, _NO_CAP, 12),  # two rows of each frame per band
        ((4, 5, 7), (3, 3, 5), 1, _NO_CAP, 140),
        # the byte cap, not the multiply-adds, sets these: a column is
        # 2 * prod(kshape) * 8 bytes
        ((5, 7), (3, 3), _NO_CAP, 144 * 7 * 2 + 143, 3),  # two rows per band
        ((4, 5, 7), (3, 3, 5), _NO_CAP, 720 * 3, 60),  # runs of three voxels of each row
    ],
    ids=["2d_voxel", "2d_rows", "2d_row_runs", "3d_frames", "3d_rows", "3d_voxel",
         "2d_rows_by_bytes", "3d_row_runs_by_bytes"],
)
def test_conv_bands_match_one_band(monkeypatch, spatial, kshape, band_macs, band_bytes, n_bands):
    # 2 -> 3 channels: every conv GEMM does w.size = 3 * 2 * prod(kshape)
    # multiply-adds per voxel
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2,) + spatial)
    w = rng.standard_normal((3, 2) + kshape)
    b = rng.standard_normal(3)
    g = rng.standard_normal((3,) + spatial)

    def kernels():
        return (conv_nd(x, w, b), conv_input_grad(g, w), conv_weight_grad(x, g, kshape))

    monkeypatch.setattr(tensor_mod, "_GEMM_MACS", _NO_CAP)
    monkeypatch.setattr(tensor_mod, "_BAND_BYTES", _NO_CAP)
    whole = kernels()
    monkeypatch.setattr(tensor_mod, "_GEMM_MACS", band_macs)
    monkeypatch.setattr(tensor_mod, "_BAND_BYTES", band_bytes)
    banded = kernels()
    spans = [span for span, _ in tensor_mod._im2col_bands(x, kshape, w.size)]
    assert len(spans) == n_bands
    assert np.array_equal(np.concatenate([np.arange(x[0].size)[s] for s in spans]), np.arange(x[0].size))
    want = conv_same_loops(x, w, b)
    assert np.linalg.norm(banded[0] - want) <= 1e-12 * np.linalg.norm(want)
    for got, ref in zip(banded, whole):
        assert got.shape == ref.shape
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


class _AxisZeroReads(np.ndarray):
    """An input that records each run of axis-0 indices read from it."""

    def __getitem__(self, key):
        self.runs.append(key[1])
        return np.asarray(self)[key]


@pytest.mark.parametrize(
    "spatial,kshape,band_macs,slab_rows,n_slabs",
    [
        ((9, 6), (1, 1), 6, 2, 5),  # one voxel per band, slabs of 2, 2, 2, 2, 1 rows
        ((11, 7), (3, 3), 54 * 3, 4, 3),  # runs of three voxels of each row, slabs of 4, 4, 3 rows
        ((6, 5), (5, 5), 150, 1, 6),  # one-row slabs, four of them with halo rows past an edge
        ((11, 7), (5, 5), 150 * 7 * 2, 5, 3),  # two rows per band: slabs of 4, 4, 3 rows
        ((10, 7), (3, 5), 90 * 7 * 3, 7, 2),  # three rows per band: slabs of 6 and 4 rows
        ((5, 4, 6), (3, 3, 3), 162 * 6 * 2, 2, 3),  # two rows of each frame per band
        ((5, 4, 6), (3, 3, 3), 162 * 24 * 2, 2, 3),  # two frames per band
    ],
    ids=["2d_1x1", "2d_3x3", "2d_5x5_one_row", "2d_5x5_rows", "2d_3x5_rows", "3d_rows", "3d_frames"],
)
def test_conv_slabs_match_one_slab(monkeypatch, spatial, kshape, band_macs, slab_rows, n_slabs):
    # 2 -> 3 channels; a slab of r axis-0 indices holds r + k0 - 1 padded planes
    rng = np.random.default_rng(13)
    x = rng.standard_normal((2,) + spatial)
    w = rng.standard_normal((3, 2) + kshape)
    b = rng.standard_normal(3)
    g = rng.standard_normal((3,) + spatial)
    plane_bytes = 2 * math.prod(n + k - 1 for n, k in zip(spatial[1:], kshape[1:])) * x.itemsize

    def run():
        reads = x.view(_AxisZeroReads)
        reads.runs = []
        spans = [(s.start, s.stop) for s, _ in tensor_mod._im2col_bands(reads, kshape, w.size)]
        fwd = conv_nd(x, w, b)
        return len(reads.runs), spans, fwd, conv_input_grad(g, w), conv_weight_grad(x, g, kshape)

    monkeypatch.setattr(tensor_mod, "_GEMM_MACS", band_macs)
    one = run()
    monkeypatch.setattr(tensor_mod, "_SLAB_BYTES", (slab_rows + kshape[0] - 1) * plane_bytes)
    slabs = run()
    assert (one[0], slabs[0]) == (1, n_slabs)
    assert slabs[1] == one[1]
    for got, ref in zip(slabs[2:], one[2:]):
        assert np.array_equal(got, ref)
    want = conv_same_loops(x, w, b)
    assert np.max(np.abs(slabs[2] - want)) <= 1e-12 * np.max(np.abs(want))



@pytest.mark.parametrize(
    "spatial,kshape,band_macs,slab_rows,n_slabs",
    [
        ((9, 7), (3, 3), None, None, 1),  # the default budgets: one slab
        ((9, 7), (3, 3), 81 * 7, 2, 5),  # one row per band, slabs of 2, 2, 2, 2, 1 rows
        ((11, 7), (3, 3), 81 * 3, 4, 3),  # runs of three voxels of each row
        ((6, 5), (5, 5), 225, 1, 6),  # one-row slabs under a four-row halo
        ((11, 7), (5, 5), 225 * 7 * 2, 2, 6),  # two rows per band, slabs of 2 rows
        ((5, 4, 6), (3, 3, 3), 243 * 6, 2, 3),  # one row of each frame per band
        ((7, 4, 5), (5, 5, 5), 1125, 1, 7),  # one voxel per band, one-frame slabs
    ],
    ids=["2d_3x3_one_slab", "2d_3x3_rows", "2d_3x3_row_runs", "2d_5x5_one_row", "2d_5x5_rows",
         "3d_3x3x3_rows", "3d_5x5x5_one_frame"],
)
def test_conv_over_its_input_matches_a_fresh_output(monkeypatch, spatial, kshape, band_macs, slab_rows, n_slabs):
    # 3 -> 3 channels: each run reads x before its output rows are written
    # over it, and only rows no earlier run's output has reached
    rng = np.random.default_rng(29)
    x = rng.standard_normal((3,) + spatial)
    w = rng.standard_normal((3, 3) + kshape)
    b = rng.standard_normal(3)
    if band_macs is not None:
        plane_bytes = 3 * math.prod(n + k - 1 for n, k in zip(spatial[1:], kshape[1:])) * x.itemsize
        monkeypatch.setattr(tensor_mod, "_GEMM_MACS", band_macs)
        monkeypatch.setattr(tensor_mod, "_SLAB_BYTES", (slab_rows + kshape[0] - 1) * plane_bytes)
    reads = x.view(_AxisZeroReads)
    reads.runs = []
    for _ in tensor_mod._im2col_bands(reads, kshape, w.size):
        pass
    assert len(reads.runs) == n_slabs
    fresh = conv_nd(x, w, b)
    over = x.copy()
    got = conv_nd(over, w, b, overwrite_x=True)
    assert np.shares_memory(got, over)
    assert np.array_equal(got, fresh)


def test_conv_over_its_input_needs_equal_channels():
    with pytest.raises(ValueError, match="over its input"):
        conv_nd(np.zeros((2, 4, 4)), np.zeros((3, 2, 3, 3)), np.zeros(3), overwrite_x=True)

def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_conv_holds_one_slab_not_a_padded_copy():
    # 16 -> 16 channels of 128x128, the recon-large regularizer's conv. Its
    # padded input would take 2.16 MB, more than eight slab budgets.
    rng = np.random.default_rng(17)
    x = rng.standard_normal((16, 128, 128))
    w = rng.standard_normal((16, 16, 3, 3))
    g = rng.standard_normal((16, 128, 128))
    b = np.zeros(16)
    band = max(cols.nbytes for _, cols in tensor_mod._im2col_bands(x, (3, 3), w.size))
    held = tensor_mod._SLAB_BYTES + band
    assert held < x.nbytes / 5

    peak, out = _traced_peak(lambda: conv_nd(x, w, b))
    assert peak - out.nbytes <= held
    peak, gw = _traced_peak(lambda: conv_weight_grad(x, g, (3, 3)))
    # the running sum and one band's product are each the size of the result
    assert peak - 3 * gw.nbytes <= held


def _convs(c_in, c_out, n):
    """The [c_out, c_in, 3, 3] conv on n x n, its weight VJP and its input VJP.
    For each: a thunk, and the bytes it holds beside its slab and band,
    given its result."""
    rng = np.random.default_rng(19)
    x = rng.standard_normal((c_in, n, n))
    w = rng.standard_normal((c_out, c_in, 3, 3))
    g = rng.standard_normal((c_out, n, n))
    b = np.zeros(c_out)
    return {
        "forward": (lambda: conv_nd(x, w, b), lambda out: out.nbytes),
        # the running sum and one band's product are each the size of the result
        "weight_vjp": (lambda: conv_weight_grad(x, g, (3, 3)), lambda gw: 3 * gw.nbytes),
        # the flipped kernel is the size of w
        "input_vjp": (lambda: conv_input_grad(g, w), lambda gx: gx.nbytes + w.nbytes),
    }


@pytest.mark.parametrize("n", [24, 128])
@pytest.mark.parametrize(
    "conv,c_in,c_out",
    [
        ("forward", 16, 2),  # the last layer
        ("weight_vjp", 16, 2),
        ("input_vjp", 2, 16),  # the first layer: [16, n, n] gradient, [16, 2, 3, 3] kernel
    ],
)
def test_conv_bands_hold_to_band_bytes(monkeypatch, conv, c_in, c_out, n):
    # a conv with 2 output channels would take 8 times a 16 -> 16 conv's
    # band from the multiply-add budget alone: 663,552 B at 24x24 and
    # 1,032,192 B at 128x128
    fn, beside = _convs(c_in, c_out, n)[conv]
    sizes = []
    bands = tensor_mod._im2col_bands

    def spy(*args):
        for span, cols in bands(*args):
            sizes.append(cols.nbytes)
            yield span, cols

    monkeypatch.setattr(tensor_mod, "_im2col_bands", spy)
    fn()
    monkeypatch.undo()
    assert len(sizes) > 1
    band = max(sizes)
    assert band <= tensor_mod._BAND_BYTES
    held = tensor_mod._SLAB_BYTES + band

    peak, out = _traced_peak(fn)
    assert peak - beside(out) <= held


@pytest.mark.parametrize("c_in,c_out,n", [(16, 16, 24), (16, 16, 128), (2, 16, 24), (2, 16, 128)])
def test_band_cap_leaves_unbound_partitions_alone(monkeypatch, c_in, c_out, n):
    # the byte cap is just above every 16 -> 16 and 2 -> 16 band of the
    # workloads, so those convs keep the bands _GEMM_MACS alone gives them
    x = np.zeros((c_in, n, n))

    def spans():
        return [(s.start, s.stop) for s, _ in tensor_mod._im2col_bands(x, (3, 3), c_out * c_in * 9)]

    capped = spans()
    monkeypatch.setattr(tensor_mod, "_BAND_BYTES", _NO_CAP)
    assert spans() == capped


def test_conv_linearity():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 5, 5))
    y = rng.standard_normal((2, 5, 5))
    w = rng.standard_normal((3, 2, 3, 3))
    b0 = np.zeros(3)
    a, bb = 1.7, -0.3
    lhs = conv_nd(a * x + bb * y, w, b0)
    rhs = a * conv_nd(x, w, b0) + bb * conv_nd(y, w, b0)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))


def test_conv_rejects_bad_args():
    x = np.zeros((2, 4, 4))
    with pytest.raises(ValueError):  # even kernel
        conv_nd(x, np.zeros((1, 2, 2, 2)), np.zeros(1))
    with pytest.raises(ValueError):  # channel mismatch
        conv_nd(x, np.zeros((1, 3, 3, 3)), np.zeros(1))
    with pytest.raises(ValueError):  # spatial rank 1
        conv_nd(np.zeros((2, 4)), np.zeros((1, 2, 3)), np.zeros(1))


# --- oracles -------------------------------------------------------------------


def test_inner_product_and_norm():
    rng = np.random.default_rng(10)
    x = Tensor(crandn(rng, 6, 6))
    ip = inner_product(x, x)
    assert abs(ip - norm2(x) ** 2) <= 1e-12 * abs(ip)
    assert abs(ip.imag) <= 1e-12


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
    assert struct.unpack_from("<5Q", raw, 7) == (2, 3, 1, 1, 1)
    assert len(raw) == 47 + 6 * 8


def test_melt_rejects_garbage(tmp_path):
    p = tmp_path / "bad.melt"
    p.write_bytes(b"NOPE" + b"\x00" * 60)
    with pytest.raises(ValueError):
        melt_read(p)


@pytest.mark.parametrize("size", [5, 10, 30, 46])
def test_melt_rejects_truncated_header(tmp_path, size):
    # a valid header's prefix, cut short of the 47 header bytes
    p = tmp_path / "short.melt"
    melt_write(p, Tensor(np.arange(6.0).reshape(2, 3)))
    p.write_bytes(p.read_bytes()[:size])
    with pytest.raises(ValueError, match="MELT header"):
        melt_read(p)


def test_melt_rejects_bad_dtype_code(tmp_path):
    p = tmp_path / "d.melt"
    melt_write(p, Tensor(np.arange(6.0).reshape(2, 3)))
    raw = bytearray(p.read_bytes())
    raw[5] = 7  # neither real64 (0) nor complex128 (1)
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="bad dtype code 7"):
        melt_read(p)


def test_melt_rejects_a_payload_size_that_wraps(tmp_path):
    # 274177 * 67280421310721 = 2**64 + 1 elements: a size computed modulo
    # 2**64 would expect the one 8-byte element this file holds
    p = tmp_path / "wrap.melt"
    p.write_bytes(b"MELT" + struct.pack("<BBB5Q", 1, 0, 2, 274177, 67280421310721, 1, 1, 1) + bytes(8))
    with pytest.raises(ValueError, match=r"wrap\.melt: payload size 55 != expected"):
        melt_read(p)
