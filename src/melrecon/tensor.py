"""One dense tensor type and N-d convolution.

Everything here is gradient-free. A :class:`Tensor` is a float64 or
complex128 array; the dtype is the only real/complex distinction. It is
the value type of the public API: parameters, cases, layer inputs and
outputs, engine results and the ``MELT`` files that datasets, checkpoints
and reconstructions are stored in, whose reader and writer live here too.
The convolution and its two VJPs are kernels: they take and return plain
arrays, as the residual branch in :mod:`.autodiff` does.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from itertools import product
from pathlib import Path

import numpy as np

__all__ = [
    "Tensor",
    "conv_nd",
    "melt_write",
    "melt_read",
]


class Tensor:
    """Row-major float64 or complex128 array.

    Complex input of any precision is stored as complex128, every other
    input (float, int, bool) as float64, so the dtype alone says whether a
    tensor is real or complex and ``nbytes`` is 8 or 16 bytes per element.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        dtype = np.complex128 if np.iscomplexobj(data) else np.float64
        self.data = np.asarray(data, dtype=dtype, order="C")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"


def _check_conv_shapes(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    spatial_rank = x.ndim - 1
    if spatial_rank not in (2, 3):
        raise ValueError(f"conv_nd supports 2 or 3 spatial dims, got {spatial_rank}")
    if w.ndim != spatial_rank + 2:
        raise ValueError(f"kernel rank {w.ndim} does not match input rank {x.ndim}")
    if w.shape[1] != x.shape[0]:
        raise ValueError(f"channel mismatch: input has {x.shape[0]}, kernel expects {w.shape[1]}")
    if b.shape != (w.shape[0],):
        raise ValueError(f"bias shape {b.shape} != ({w.shape[0]},)")
    for k in w.shape[2:]:
        if k % 2 == 0:
            raise ValueError(f"kernel extents must be odd, got {w.shape[2:]}")


# Multiply-adds per conv GEMM at most. OpenBLAS runs a GEMM this small on
# the calling thread; a larger one it hands to worker threads, whose hand-off
# and busy-waiting cost more than they save at these sizes and make a conv's
# time depend on whether another core is free at that moment.
_GEMM_MACS = 1 << 18

# Bytes of zero-padded input a conv holds at once. Its im2col bands are cut
# from one reused slab that covers a run of consecutive axis-0 indices plus
# the kernel's halo, not from a padded copy of the whole input. The padded
# input of every training conv fits in one slab; at 16 channels of 128x128 a
# slab holds 13 of the 128 rows, 250 KB where the whole padded copy took
# 2.16 MB. A slab never holds less than one axis-0 index, or one band when
# bands run along axis 0, even where that exceeds this budget.
_SLAB_BYTES = 1 << 18

# Bytes of one im2col band at most, whatever the channel counts. _GEMM_MACS
# alone gives a conv with few output channels wide bands: a 16->2 conv's
# would take 8 times a 16->16 one's, 1 MB at 128x128. At 8 bytes a value
# the two budgets allow the same columns at 16 output channels, so this
# one can narrow only the bands of convs with fewer: in 2D training and
# recon the 16->2 conv, its weight VJP and the first layer's input VJP.
# A band never holds less than one voxel.
_BAND_BYTES = 1 << 17


def _im2col_bands(x: np.ndarray, kshape: tuple[int, ...], macs_per_col: int):
    """im2col in bands of consecutive voxels of the flattened spatial grid.

    Yields ``(span, cols)``: ``span`` slices the flattened grid and ``cols``
    [C_in*prod(k), len(span)] holds its columns, rows laid out [C_in, *k]:
    cols[(i, *d), p] = xpad[i, *(p + d)] for every kernel offset d, where
    xpad is x zero-padded by k//2 on each side.

    A band is a run of indices along one spatial axis, with all of the
    trailing axes and one index of each leading axis. Its columns are held
    to a width: the most that keeps ``macs_per_col`` times the columns
    within ``_GEMM_MACS`` and the band within ``_BAND_BYTES``, at least one.
    The band runs along the first axis whose trailing block fits that
    width, taking as many indices of it as fit (at least one).

    xpad is never built whole. The bands are copied from read-only strided
    views of a slab, the rows [a, a + m + k0 - 1) of xpad that a run [a, a + m)
    of axis-0 indices reads. A slab holds at most ``_SLAB_BYTES`` (see there)
    and, when the bands run along axis 0, a whole number of bands, so the
    partition and every GEMM are those of one slab over all of xpad. Each
    view stays in its slab, since p + d <= m + k0 - 2 along axis 0 and
    n + k - 2 along the others, and halo rows past either end of axis 0 read
    as zeros. Every band is copied into one reused buffer, so ``cols`` is
    valid only until the next band is yielded.

    The slab rolls: each run after the first moves the last k0 - 1 rows of
    the previous run's slab to its top and reads from x only the rows below
    them, [a + k0//2, a + m + k0//2). So every run reads x once, before its
    first band is yielded, and only rows at or past a, which no earlier run
    covers. A caller may therefore write each run's output rows [a, a + m)
    over x as its bands come, as :func:`_correlate` does for
    ``overwrite_x``. A conv holds one slab and one band buffer beside its
    input and output, which may be one array.
    """
    c, spatial = x.shape[0], x.shape[1:]
    k = c * math.prod(kshape)
    width = max(1, min(_GEMM_MACS // macs_per_col, _BAND_BYTES // (k * x.itemsize)))
    ax = 0
    while ax < len(spatial) - 1 and math.prod(spatial[ax + 1:]) > width:
        ax += 1
    row = math.prod(spatial[ax + 1:])
    step = max(1, width // row)

    n0, halo = spatial[0], kshape[0] - 1
    plane = tuple([n + q - 1 for n, q in zip(spatial[1:], kshape[1:])])
    rows = max(1, _SLAB_BYTES // (c * math.prod(plane) * x.itemsize) - halo)
    if ax == 0 and rows < n0:
        rows = max(step, rows - rows % step)
    rows = min(rows, n0)
    slab = np.zeros((c, rows + halo) + plane, dtype=x.dtype)
    s = slab.strides
    # numpy refuses a shape and strides that would reach past the buffer
    view = np.ndarray((c,) + tuple(kshape) + (rows,) + spatial[1:], x.dtype,
                      memoryview(slab).toreadonly(), 0, s[:1] + s[1:] + s[1:])
    inner = tuple([slice(q // 2, q // 2 + n) for n, q in zip(spatial[1:], kshape[1:])])
    lead = (slice(None),) * (1 + len(kshape))
    buf = np.empty(k * min(step, spatial[ax]) * row, dtype=x.dtype)
    into = {}  # band width -> the prefix of buf shaped as such a band, and as [k, voxels]
    for a in range(0, n0, rows):
        m = min(rows, n0 - a)
        top = a - kshape[0] // 2  # the x row that slab row 0 holds
        if a:
            # one channel at a time: the rows of all channels interleave in
            # memory, so one copy would look overlapping to numpy and go
            # through a temporary
            for ch in slab:
                ch[:halo] = ch[rows:rows + halo]
        # the first run's rows before x's first stay zero from np.zeros;
        # rows past its last may hold x from an earlier run
        lo = max(top + (halo if a else 0), 0)
        hi = max(min(top + m + halo, n0), lo)
        slab[:, hi - top:m + halo] = 0
        slab[(slice(None), slice(lo - top, hi - top)) + inner] = x[:, lo:hi]
        local = (m,) + spatial[1:]
        n, base = local[ax], a * math.prod(spatial[1:])
        for i, outer in enumerate(product(*map(range, local[:ax]))):
            for r in range(0, n, step):
                e = min(r + step, n)
                band = view[lead + outer + (slice(r, e),)]
                if e - r not in into:
                    t = buf[:band.size].reshape(band.shape)
                    into[e - r] = t, t.reshape(k, -1)
                t, cols = into[e - r]
                t[...] = band
                yield slice(base + (i * n + r) * row, base + (i * n + e) * row), cols


def _correlate(x: np.ndarray, w: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
    """Channelled 'same' cross-correlation, out[o] = sum_i x[i] * w[o,i].

    One GEMM per im2col band: the columns are laid out [C_in, *k] by
    spatial position, so each band is [C_in*prod(k), band voxels] with rows
    in the order of ``w.reshape(C_out, -1)``'s columns. With ``overwrite_x``
    the output is written over x, a C-contiguous array of the output's
    shape and dtype, band by band as :func:`_im2col_bands` allows; the
    values are the same.
    """
    w2 = w.reshape(w.shape[0], -1)
    out = x if overwrite_x else np.empty(w.shape[:1] + x.shape[1:], dtype=np.result_type(x, w))
    flat = out.reshape(w.shape[0], -1)  # a view: out owns its buffer, as a kept activation should
    for span, cols in _im2col_bands(x, w.shape[2:], w2.size):
        np.matmul(w2, cols, out=flat[:, span])
    return out


def conv_nd(x: np.ndarray, w: np.ndarray, b: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
    """'Same' zero-padded cross-correlation over 2 or 3 spatial dims.

    ``x`` is [C_in, *spatial], ``w`` is [C_out, C_in, *kernel] with odd
    kernel extents, ``b`` is [C_out]. Output spatial shape equals input
    spatial shape. ``overwrite_x`` writes the output over x, which then
    needs C_in == C_out and to be C-contiguous of the output's dtype.
    """
    _check_conv_shapes(x, w, b)
    if overwrite_x and not (w.shape[0] == w.shape[1] and x.dtype == np.result_type(x, w)
                            and x.flags.c_contiguous):
        raise ValueError(f"cannot write a {w.shape[1]}->{w.shape[0]} conv of {x.dtype} over its input")
    out = _correlate(x, w, overwrite_x)
    out += b.reshape((-1,) + (1,) * (x.ndim - 1))
    return out


def conv_input_grad(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`conv_nd` in the input argument (w fixed)."""
    nk = w.ndim - 2
    flip = tuple(slice(None, None, -1) for _ in range(nk))
    w_t = np.ascontiguousarray(np.swapaxes(w, 0, 1)[(slice(None), slice(None)) + flip])
    return _correlate(g, w_t)


def conv_weight_grad(x: np.ndarray, g: np.ndarray, kshape: tuple[int, ...]) -> np.ndarray:
    """Adjoint of :func:`conv_nd` in the kernel argument (x fixed): the sum
    over im2col bands of the band [C_in*prod(k), voxels] times g's matching
    [voxels, C_out] slice, transposed to [C_out, C_in, *k] at the end."""
    g2 = g.reshape(g.shape[0], -1)
    gw_t = None
    for span, cols in _im2col_bands(x, kshape, g2.shape[0] * x.shape[0] * math.prod(kshape)):
        part = cols @ g2[:, span].T
        gw_t = part if gw_t is None else np.add(gw_t, part, out=gw_t)
    return np.ascontiguousarray(gw_t.T).reshape(g.shape[:1] + x.shape[:1] + tuple(kshape))


@contextmanager
def atomic_write(path):
    """Yield a sibling temp path for the new content of ``path``. It replaces
    ``path`` in one rename when the block completes, so a reader never sees
    a half-written file, and is removed when the block raises."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        yield tmp
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


# --- MELT binary tensor format -------------------------------------------
#
# magic 'MELT' | u8 version=1 | u8 dtype (0=real64, 1=complex128) | u8 rank |
# 5 x u64 little-endian dims (trailing unused dims = 1) | payload,
# little-endian row-major, complex interleaved re,im.

_MELT_MAGIC = b"MELT"
_MELT_VERSION = 1
_DT_REAL = 0
_DT_COMPLEX = 1
_MAX_RANK = 5
_MELT_HEADER = len(_MELT_MAGIC) + 3 + 8 * _MAX_RANK  # 47 bytes before the payload


def melt_write(path, t: Tensor) -> None:
    """Write ``t`` to ``path`` through :func:`atomic_write`."""
    rank = len(t.shape)
    if not 1 <= rank <= _MAX_RANK:
        raise ValueError(f"MELT supports rank 1..{_MAX_RANK}, got {rank}")
    dt = _DT_COMPLEX if np.iscomplexobj(t.data) else _DT_REAL
    dims = list(t.shape) + [1] * (_MAX_RANK - rank)
    payload = t.data.astype("<c16" if dt == _DT_COMPLEX else "<f8").tobytes(order="C")
    with atomic_write(path) as tmp, open(tmp, "wb") as f:
        f.write(_MELT_MAGIC)
        f.write(struct.pack("<BBB", _MELT_VERSION, dt, rank))
        f.write(struct.pack("<5Q", *dims))
        f.write(payload)


def melt_read(path) -> Tensor:
    raw = Path(path).read_bytes()
    if raw[:4] != _MELT_MAGIC:
        raise ValueError(f"{path}: not a MELT file")
    if len(raw) < _MELT_HEADER:
        raise ValueError(f"{path}: {len(raw)} bytes, shorter than the {_MELT_HEADER}-byte MELT header")
    version, dt, rank = struct.unpack_from("<BBB", raw, 4)
    if version != _MELT_VERSION:
        raise ValueError(f"{path}: unsupported MELT version {version}")
    if dt not in (_DT_REAL, _DT_COMPLEX):
        raise ValueError(f"{path}: bad dtype code {dt}")
    if not 1 <= rank <= _MAX_RANK:
        raise ValueError(f"{path}: bad rank {rank}")
    dims = struct.unpack_from("<5Q", raw, 7)
    shape = dims[:rank]
    if any(d != 1 for d in dims[rank:]):
        raise ValueError(f"{path}: unused trailing dims must be 1")
    n = math.prod(shape)  # exact: a product taken modulo 2**64 can match a short payload
    dtype = np.dtype("<c16") if dt == _DT_COMPLEX else np.dtype("<f8")
    expected = _MELT_HEADER + n * dtype.itemsize
    if len(raw) != expected:
        raise ValueError(f"{path}: payload size {len(raw)} != expected {expected}")
    data = np.frombuffer(raw, dtype=dtype, count=n, offset=_MELT_HEADER).reshape(shape)
    return Tensor(data)
