"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (direct summation, nested loops,
dense matrices, finite differences) and shares no code with the package
paths it checks.
"""

import numpy as np

from melrecon.tensor import Tensor


def dft_centered_direct(x: np.ndarray, axes=None) -> np.ndarray:
    """Centered orthonormal DFT by direct O(n^2) summation per axis."""
    if axes is None:
        axes = tuple(range(x.ndim))
    out = x.astype(np.complex128)
    for ax in axes:
        n = out.shape[ax]
        c = n // 2
        k = np.arange(n)
        f = np.exp(-2j * np.pi * np.outer(k - c, k - c) / n) / np.sqrt(n)
        out = np.moveaxis(np.tensordot(f, np.moveaxis(out, ax, 0), axes=(1, 0)), 0, ax)
    return out


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
    """Centered orthonormal DFT over ``dims`` (all axes if None), by numpy's
    FFT between shifts: the shifted reference for the shift-free operator.

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


def inner_product(x: Tensor, y: Tensor):
    """<x, y> = sum(conj(x) * y); complex for complex tensors, float otherwise."""
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch in inner_product: {x.shape} vs {y.shape}")
    v = np.vdot(x.data, y.data)
    return complex(v) if np.iscomplexobj(x.data) or np.iscomplexobj(y.data) else float(v.real)


def norm2(x: Tensor) -> float:
    return float(np.linalg.norm(x.data.reshape(-1)))


def conv_same_loops(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Zero-padded 'same' cross-correlation by explicit loops over channels,
    output voxels and kernel taps; any number of spatial dims (2D and the
    3D 2D+time case)."""
    c_out, c_in = w.shape[0], w.shape[1]
    kshape = w.shape[2:]
    spatial = x.shape[1:]
    out = np.zeros((c_out,) + spatial)
    for o in range(c_out):
        for i in range(c_in):
            for p in np.ndindex(*spatial):
                acc = 0.0
                for d in np.ndindex(*kshape):
                    q = tuple(pj + dj - kj // 2 for pj, dj, kj in zip(p, d, kshape))
                    if all(0 <= qj < n for qj, n in zip(q, spatial)):
                        acc += x[(i,) + q] * w[(o, i) + d]
                out[(o,) + p] += acc
        out[o] += b[o]
    return out


def central_diff(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of scalar f at real array x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def dense_matrix_of(op_apply, shape, dtype=np.complex128) -> np.ndarray:
    """Materialize a linear operator by applying it to basis vectors."""
    n = int(np.prod(shape))
    cols = []
    for j in range(n):
        e = np.zeros(n, dtype=dtype)
        e[j] = 1.0
        cols.append(op_apply(e.reshape(shape)).reshape(-1))
    return np.stack(cols, axis=1)


def conv_circular_norm_exact(w: np.ndarray, spatial: tuple[int, ...]) -> float:
    """Exact spectral norm of the circular-padding conv operator.

    Block-circulant structure: the operator diagonalizes per frequency into
    the kernel's DFT transfer matrix H(f) in C^{C_out x C_in}; the norm is
    the max singular value over frequencies.
    """
    c_out, c_in = w.shape[0], w.shape[1]
    kshape = w.shape[2:]
    nd = len(spatial)
    h = np.zeros((c_out, c_in) + tuple(spatial), dtype=np.complex128)
    for o in range(c_out):
        for i in range(c_in):
            k = np.zeros(spatial)
            # place kernel taps at circular offsets relative to the center
            for idx in np.ndindex(*kshape):
                off = tuple((idx[d] - kshape[d] // 2) % spatial[d] for d in range(nd))
                k[off] += w[(o, i) + idx]
            h[o, i] = np.fft.fftn(k)
    smax = 0.0
    for f in np.ndindex(*spatial):
        m = h[(slice(None), slice(None)) + f]
        smax = max(smax, float(np.linalg.svd(m, compute_uv=False)[0]))
    return smax


def poisson_darts_scan(shape, calib, rng_order, min_dist, scale):
    """One Poisson-disk dart-throwing pass that tests each candidate against
    every accepted point; returns the accepted 0/1 mask."""
    w = shape[1]
    mask = np.zeros(shape)
    mask[tuple(slice(n // 2 - c // 2, n // 2 - c // 2 + c) for n, c in zip(shape, calib))] = 1.0
    pts = np.argwhere(mask > 0).astype(float)
    ai, aj = pts[:, 0], pts[:, 1]
    for flat in rng_order:
        i, j = divmod(int(flat), w)
        if mask[i, j]:
            continue
        d = min_dist[i, j] * scale
        if ai.size:
            dd = (ai - i) ** 2 + (aj - j) ** 2
            if dd.min() < d * d:
                continue
        mask[i, j] = 1.0
        ai = np.append(ai, i)
        aj = np.append(aj, j)
    return mask
