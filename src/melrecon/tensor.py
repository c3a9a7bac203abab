"""One dense tensor type, centered unitary FFTs, N-d convolution, and
byte-accurate allocation accounting.

Everything here is gradient-free. A :class:`Tensor` is a float64 or
complex128 array (the dtype is the only real/complex distinction) with a
unique allocation id, so the memory ledger and the tape can track and
release payloads by identity. The ``MELT`` binary format used for datasets,
checkpoints and reconstructions also lives here.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path

import numpy as np

__all__ = [
    "Tensor",
    "MemoryLedger",
    "fft_centered",
    "ifft_centered",
    "conv_nd",
    "relu",
    "add",
    "scale",
    "complex_to_channels",
    "channels_to_complex",
    "inner_product",
    "norm2",
    "melt_write",
    "melt_read",
]

_alloc_ids = count(1)

class Tensor:
    """Row-major array plus a unique allocation id.

    Complex input of any precision is stored as complex128, every other
    input (float, int, bool) as float64, so the dtype alone says whether a
    tensor is real or complex and ``nbytes`` is 8 or 16 bytes per element.
    """

    __slots__ = ("data", "alloc_id")

    def __init__(self, data):
        dtype = np.complex128 if np.iscomplexobj(data) else np.float64
        self.data = np.asarray(data, dtype=dtype, order="C")
        self.alloc_id = next(_alloc_ids)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a single-element tensor")
        return float(self.data.reshape(-1)[0])

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, alloc_id={self.alloc_id})"


def _fft_axes(x: Tensor, dims) -> tuple[int, ...]:
    if dims is None:
        dims = tuple(range(x.data.ndim))
    axes = tuple(int(d) for d in dims)
    if not axes:
        raise ValueError("fft dims must be non-empty")
    for a in axes:
        if a < -x.data.ndim or a >= x.data.ndim:
            raise ValueError(f"fft axis {a} out of range for rank {x.data.ndim}")
    return axes


def fft_centered(x: Tensor, dims=None) -> Tensor:
    """Centered orthonormal DFT over ``dims`` (all axes if None).

    The convention is ifftshift -> fft(norm="ortho") -> fftshift, i.e. both
    the image-space and k-space origins sit at index n//2. Unitary, so the
    l2 norm is preserved and ``ifft_centered`` is the exact inverse/adjoint.
    """
    axes = _fft_axes(x, dims)
    d = np.fft.ifftshift(x.data, axes=axes)
    d = np.fft.fftn(d, axes=axes, norm="ortho")
    return Tensor(np.fft.fftshift(d, axes=axes))


def ifft_centered(x: Tensor, dims=None) -> Tensor:
    """Inverse of :func:`fft_centered` (also its adjoint)."""
    axes = _fft_axes(x, dims)
    d = np.fft.ifftshift(x.data, axes=axes)
    d = np.fft.ifftn(d, axes=axes, norm="ortho")
    return Tensor(np.fft.fftshift(d, axes=axes))


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


def _pad_input(x: np.ndarray, kshape: tuple[int, ...], mode: str) -> np.ndarray:
    pads = [(0, 0)] + [(k // 2, k // 2) for k in kshape]
    return np.pad(x, pads, mode=mode)


def _correlate(x: np.ndarray, w: np.ndarray, pad_mode: str) -> np.ndarray:
    """Channelled 'same' cross-correlation, out[o] = sum_i x[i] * w[o,i]."""
    kshape = w.shape[2:]
    xp = _pad_input(x, kshape, pad_mode)
    # windows: [C_in, *spatial, *k]
    win = np.lib.stride_tricks.sliding_window_view(xp, kshape, axis=tuple(range(1, x.ndim)))
    nk = len(kshape)
    # contract C_in and the kernel offsets against w[C_out, C_in, *k]
    out = np.tensordot(win, w, axes=([0] + list(range(x.ndim, x.ndim + nk)), [1] + list(range(2, 2 + nk))))
    return np.ascontiguousarray(np.moveaxis(out, -1, 0))


def conv_nd(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """'Same' zero-padded cross-correlation over 2 or 3 spatial dims.

    ``x`` is [C_in, *spatial], ``w`` is [C_out, C_in, *kernel] with odd
    kernel extents, ``b`` is [C_out]. Output spatial shape equals input
    spatial shape.
    """
    _check_conv_shapes(x.data, w.data, b.data)
    out = _correlate(x.data, w.data, "constant")
    out += b.data.reshape((-1,) + (1,) * (x.data.ndim - 1))
    return Tensor(out)


def conv_input_grad(g: np.ndarray, w: np.ndarray, pad_mode: str = "constant") -> np.ndarray:
    """Adjoint of :func:`conv_nd` in the input argument (w fixed)."""
    nk = w.ndim - 2
    flip = tuple(slice(None, None, -1) for _ in range(nk))
    w_t = np.ascontiguousarray(np.swapaxes(w, 0, 1)[(slice(None), slice(None)) + flip])
    return _correlate(g, w_t, pad_mode)


def conv_weight_grad(x: np.ndarray, g: np.ndarray, kshape: tuple[int, ...]) -> np.ndarray:
    """Adjoint of :func:`conv_nd` in the kernel argument (x fixed)."""
    xp = _pad_input(x, kshape, "constant")
    win = np.lib.stride_tricks.sliding_window_view(xp, kshape, axis=tuple(range(1, x.ndim)))
    # win: [C_in, *spatial, *k], g: [C_out, *spatial] -> [C_out, C_in, *k]
    spatial_axes = list(range(1, x.ndim))
    gw = np.tensordot(g, win, axes=(spatial_axes, spatial_axes))
    return np.ascontiguousarray(gw)


def relu(x: Tensor) -> Tensor:
    return Tensor(np.maximum(x.data, 0.0))


def add(x: Tensor, y: Tensor) -> Tensor:
    if x.data.dtype != y.data.dtype:
        raise ValueError(f"dtype mismatch in add: {x.data.dtype} vs {y.data.dtype}")
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch in add: {x.shape} vs {y.shape}")
    return Tensor(x.data + y.data)


def scale(x: Tensor, a: float) -> Tensor:
    return Tensor(x.data * float(a))


def complex_to_channels(x: Tensor) -> Tensor:
    """Stack real and imaginary parts as 2 leading channels."""
    return Tensor(np.stack([x.data.real, x.data.imag]))


def channels_to_complex(x: Tensor) -> Tensor:
    """Exact inverse of :func:`complex_to_channels`."""
    if x.shape[0] != 2:
        raise ValueError(f"expected 2 leading channels, got {x.shape[0]}")
    return Tensor(x.data[0] + 1j * x.data[1])


def inner_product(x: Tensor, y: Tensor):
    """<x, y> = sum(conj(x) * y); complex for complex tensors, float otherwise."""
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch in inner_product: {x.shape} vs {y.shape}")
    v = np.vdot(x.data, y.data)
    return complex(v) if np.iscomplexobj(x.data) or np.iscomplexobj(y.data) else float(v.real)


def norm2(x: Tensor) -> float:
    return float(np.linalg.norm(x.data.reshape(-1)))


@dataclass
class MemoryLedger:
    """Byte-accurate record of tape-retained tensor payloads.

    ``live_bytes`` is the sum of currently retained allocations,
    ``peak_bytes`` its running maximum, and ``events`` an append-only list of
    (alloc_id, signed byte delta, label). Single-writer: one ledger per
    gradient evaluation / training run.
    """

    live_bytes: int = 0
    peak_bytes: int = 0
    events: list[tuple[int, int, str]] = field(default_factory=list)
    _held: dict[int, int] = field(default_factory=dict, repr=False)

    def retain(self, t: Tensor, label: str = "") -> None:
        if t.alloc_id in self._held:
            raise ValueError(f"alloc_id {t.alloc_id} retained twice")
        n = t.nbytes
        self._held[t.alloc_id] = n
        self.live_bytes += n
        self.peak_bytes = max(self.peak_bytes, self.live_bytes)
        self.events.append((t.alloc_id, n, label))

    def release(self, alloc_id: int) -> None:
        if alloc_id not in self._held:
            raise ValueError(f"release of unknown alloc_id {alloc_id}")
        n = self._held.pop(alloc_id)
        self.live_bytes -= n
        self.events.append((alloc_id, -n, "release"))


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


def melt_write(path, t: Tensor) -> None:
    rank = len(t.shape)
    if not 1 <= rank <= _MAX_RANK:
        raise ValueError(f"MELT supports rank 1..{_MAX_RANK}, got {rank}")
    dt = _DT_COMPLEX if np.iscomplexobj(t.data) else _DT_REAL
    dims = list(t.shape) + [1] * (_MAX_RANK - rank)
    payload = t.data.astype("<c16" if dt == _DT_COMPLEX else "<f8").tobytes(order="C")
    with open(path, "wb") as f:
        f.write(_MELT_MAGIC)
        f.write(struct.pack("<BBB", _MELT_VERSION, dt, rank))
        f.write(struct.pack("<5Q", *dims))
        f.write(payload)


def melt_read(path) -> Tensor:
    raw = Path(path).read_bytes()
    if raw[:4] != _MELT_MAGIC:
        raise ValueError(f"{path}: not a MELT file")
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
    n = int(np.prod(shape))
    dtype = np.dtype("<c16") if dt == _DT_COMPLEX else np.dtype("<f8")
    expected = 47 + n * dtype.itemsize
    if len(raw) != expected:
        raise ValueError(f"{path}: payload size {len(raw)} != expected {expected}")
    data = np.frombuffer(raw, dtype=dtype, count=n, offset=47).reshape(shape)
    return Tensor(data)
