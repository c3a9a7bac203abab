"""MRI encoding physics and synthetic data.

The encoding operator is the multi-coil SENSE model: per coil, multiply by
the sensitivity map, take the centered unitary FFT over the trailing two
(in-plane) axes, and keep only the sampled k-space locations. Images are
either [H, W] or [T, H, W] (leading time axis for cine); sensitivity maps
are a complex [C, H, W] Tensor and broadcast across time.

The centered FFT is applied without shifts. Along an axis of length n with
m = n//2, the centered DFT is diag(a) . DFT . diag(b) with
a_k = exp(2 pi i k m/n) exp(-2 pi i m^2/n) and b_j = exp(2 pi i j m/n)
(both +-1 for even n). The operator folds a into a phased copy of the mask
and b into one [H, W] image modulation once, at construction, so every
application is a modulation, a plain FFT and a mask product.

The adjoint and the normal operator run over groups of consecutive coils
whose k-space fits ``_GROUP_BYTES``, so a call holds one group's k-space,
not all C coils': at 128x128 a group is two coils. Per group the adjoint
makes one masked copy of its k-space input and the normal operator reuses
the forward's output for that group; both then run the inverse FFT and
the map product in place on that buffer and add its coil images into one
image-sized sum, in coil order, which is the order numpy's sum over the
coil axis adds them in: the grouping changes no bit of the result. The
coil sum uses sum_c conj(S_c) I_c = conj(sum_c S_c conj(I_c)), so no
conjugate copy of the maps is made.

Also here: Poisson-disk and k-t sampling-mask generators, smooth synthetic
coil maps, ellipse phantoms, and dataset construction/persistence on top of
the MELT tensor format. A mask is a float64 0/1 Tensor on the image grid,
as the coil maps are a complex Tensor; :func:`realized_acceleration` reads
its R. A dataset manifest holds the config once, and per case only its
id, split, image shape, coil count, seed and realized R.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np
import scipy.fft as sfft

from .tensor import Tensor, atomic_write, melt_read, melt_write

__all__ = [
    "EncodingOperator",
    "DatasetConfig",
    "Case",
    "Dataset",
    "make_poisson_disk_mask",
    "make_kt_mask",
    "realized_acceleration",
    "make_sensitivities",
    "make_phantom",
    "build_dataset",
    "save_dataset",
    "load_dataset",
]

_FFT_AXES = (-2, -1)  # in-plane axes of image and k-space arrays

# Bytes of coil k-space that the adjoint and the normal operator hold at
# once: they run over groups of consecutive coils that fit it, at least one
# coil each. Every training case's coils fit one group; 128x128 takes two
# coils a group, so an 8-coil normal holds 512 KB of k-space, not 2 MB.
_GROUP_BYTES = 1 << 19


def _centering_factors(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) with centered DFT_n = diag(a) . DFT_n . diag(b), m = n//2:
    a_k = exp(2 pi i k m/n) exp(-2 pi i m^2/n), b_j = exp(2 pi i j m/n).
    For even n both are exactly +-1 and returned real."""
    m = n // 2
    j = np.arange(n)
    if n % 2 == 0:
        b = 1.0 - 2.0 * (j % 2)
        return b * (1.0 - 2.0 * (m % 2)), b
    b = np.exp(2j * np.pi * (j * m % n) / n)
    return b * np.exp(-2j * np.pi * (m * m % n) / n), b


class EncodingOperator:
    """A = P.F.S with adjoint and normal operator.

    Shapes: image [H, W] or [T, H, W]; k-space [C, *image]; mask matches the
    image grid; maps [C, H, W]. FFT runs over the trailing two axes.

    The centering of F is folded in at construction (see the module
    docstring): the output-side factor into a phased copy of the mask, the
    input-side factor into an [H, W] image modulation, so the operator keeps
    O(H*W) state of its own (the factors, and on odd grids their
    conjugates) and no copy of the coil maps. The mask is snapshotted then
    and ``sens.data`` viewed; rebinding either's ``data`` afterwards does
    not change the operator. ``mask`` and ``sens`` stay public and
    unshifted.

    ``_normal`` calls ``_forward`` once per coil group and runs the
    adjoint's steps in place on the buffer it returns, so one call holds
    one group's k-space; ``_adjoint`` holds one masked copy of a group of
    y. The coil sum is formed as conj(sum_c S_c conj(I_c)), which equals
    sum_c conj(S_c) I_c exactly. ``_forward`` maps all coils unless given
    a group.
    """

    def __init__(self, mask: Tensor, sens: Tensor):
        if mask.data.ndim not in (2, 3):
            raise ValueError(f"mask rank must be 2 or 3, got {mask.data.ndim}")
        if sens.data.ndim != 3:
            raise ValueError("sensitivity maps must be [C, H, W]")
        if mask.data.shape[-2:] != sens.shape[-2:]:
            raise ValueError(
                f"mask grid {mask.data.shape[-2:]} does not match maps {sens.shape[-2:]}"
            )
        self.mask = mask
        self.sens = sens
        self.image_shape = tuple(mask.data.shape)
        (a_h, b_h), (a_w, b_w) = (_centering_factors(n) for n in self.image_shape[-2:])
        self._kmask = mask.data * np.outer(a_h, a_w)  # a (x) M, [*image]
        self._phase = np.outer(b_h, b_w)  # b, [H, W]
        # ndarray.conj() of a real array is that array: no copy on even grids
        self._kmask_conj = self._kmask.conj()
        self._phase_conj = self._phase.conj()
        # the maps viewed to broadcast against [C, *image], and runs of
        # consecutive coils whose complex k-space fits _GROUP_BYTES
        m = sens.data
        self._maps = m.reshape(m.shape[:1] + (1,) * (len(self.image_shape) - 2) + m.shape[1:])
        per = max(1, _GROUP_BYTES // (16 * math.prod(self.image_shape)))
        self._groups = [slice(c, c + per) for c in range(0, self.coils, per)]

    @property
    def coils(self) -> int:
        return self.sens.shape[0]

    # raw ndarray paths (used by CG loops where wrapper churn would dominate)

    def _forward(self, x: np.ndarray, coils: slice = slice(None)) -> np.ndarray:
        k = sfft.fftn(self._maps[coils] * (self._phase * x), axes=_FFT_AXES,
                      norm="ortho", overwrite_x=True)
        k *= self._kmask
        return k

    def _coil_sum(self, masked) -> np.ndarray:
        """A^H after its mask product: ``masked(coils)`` returns a group's
        k-space already multiplied by conj(a (x) M), which this consumes,
        running every coil-sized step in place on it. The coil images are
        added in coil order, as numpy's sum over the coil axis adds them,
        so the grouping does not change the result."""
        x = None
        for coils in self._groups:
            img = sfft.ifftn(masked(coils), axes=_FFT_AXES, norm="ortho", overwrite_x=True)
            np.conjugate(img, out=img)
            img *= self._maps[coils]
            if x is None:
                x = img.sum(axis=0)
            else:
                for c in range(len(img)):  # no loop variable left holding a view of img
                    x += img[c]
            del img  # before the next group's k-space is formed
        np.conjugate(x, out=x)
        x *= self._phase_conj
        return x

    def _adjoint(self, y: np.ndarray) -> np.ndarray:
        return self._coil_sum(lambda coils: y[coils] * self._kmask_conj)

    def _normal(self, x: np.ndarray, mu: float) -> np.ndarray:
        def masked(coils):
            k = self._forward(x, coils)
            k *= self._kmask_conj  # not one |a (x) M|^2 product: keeps _adjoint(_forward(x))'s arithmetic
            return k

        out = self._coil_sum(masked)
        out += mu * x
        return out

    # wrapped contract surface

    def forward(self, x: Tensor) -> Tensor:
        if x.shape != self.image_shape:
            raise ValueError(f"image shape {x.shape} != operator shape {self.image_shape}")
        return Tensor(self._forward(x.data))

    def adjoint(self, y: Tensor) -> Tensor:
        if y.shape != (self.coils,) + self.image_shape:
            raise ValueError(f"k-space shape {y.shape} != {(self.coils,) + self.image_shape}")
        return Tensor(self._adjoint(y.data))


# --- sampling masks ---------------------------------------------------------


def _radius_grid(shape) -> np.ndarray:
    """Normalized k-space radius, 0 at the grid center, ~1 at edge midpoints."""
    axes = [(np.arange(n) - n // 2) / max(1, n // 2) for n in shape]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.sqrt(sum(g * g for g in grids))


def _calib_slices(shape, calib):
    return tuple(slice(n // 2 - c // 2, n // 2 - c // 2 + c) for n, c in zip(shape, calib))


def _poisson_darts(shape, calib, rng_order, min_dist, scale):
    """One dart-throwing pass; returns the accepted 0/1 mask.

    A candidate is rejected when an accepted point (the calib box included)
    lies closer than its scaled minimum distance, which is at most
    R = ceil(max(min_dist) * scale). ``d2`` holds, per grid point, the
    smallest squared distance to the calib box or to an accepted point
    within R on each axis; each accept lowers it in its (2R+1)^2 window, so
    a candidate costs one lookup. A point outside the window is farther than
    R and could reject nothing. The squared distances are integers, exact in
    float64, so the decisions are those of a scan over every accepted point.
    """
    h, w = shape
    cal = _calib_slices(shape, calib)
    mask = np.zeros(shape)
    mask[cal] = 1.0
    if mask.any():  # squared distance to the nearest point of the calib box
        di, dj = (np.maximum(np.maximum(s.start - np.arange(n), np.arange(n) - (s.stop - 1)), 0)
                  for s, n in zip(cal, shape))
        d2 = (di[:, None] ** 2 + dj[None, :] ** 2).astype(float)
    else:
        d2 = np.full(shape, np.inf)
    dist = min_dist * scale
    thr = (dist * dist).ravel().tolist()
    r = int(np.ceil(dist.max()))
    off = np.arange(-r, r + 1) ** 2
    win = (off[:, None] + off[None, :]).astype(float)
    d2f = d2.ravel()
    for flat in rng_order.tolist():
        if d2f[flat] < thr[flat]:
            continue
        i, j = divmod(flat, w)
        mask[i, j] = 1.0
        i0, i1, j0, j1 = max(i - r, 0), min(i + r + 1, h), max(j - r, 0), min(j + r + 1, w)
        np.minimum(d2[i0:i1, j0:j1], win[i0 - i + r: i1 - i + r, j0 - j + r: j1 - j + r], out=d2[i0:i1, j0:j1])
    return mask


# Density falloff radius of the Poisson-disk masks, as a fraction of the
# k-space half-width
_DENSITY_R0 = 0.25


def make_poisson_disk_mask(shape, accel: float, calib=(8, 8), seed: int = 0) -> Tensor:
    """Variable-density Poisson-disk mask by dart throwing.

    The minimum distance grows with k-space radius as (1 + r/r0), i.e.
    density ~ (1 + r/r0)^-2 with r0 = ``_DENSITY_R0``. A global distance
    scale is calibrated by bisection so the realized sample count lands a
    little under the total/accel budget (within the +-15% policy).
    Deterministic per seed.
    """
    if len(shape) != 2:
        raise ValueError("poisson-disk mask is 2D")
    if not 1 <= accel < math.inf:
        raise ValueError(f"acceleration must be finite and >= 1, got {accel}")
    total = int(np.prod(shape))
    if accel <= 1.0 + 1e-12:
        return Tensor(np.ones(shape))
    budget = total / accel
    calib = tuple(int(c) for c in calib)
    if any(c > n for c, n in zip(calib, shape)):
        raise ValueError(f"calibration region {calib} exceeds grid {shape}")
    n_calib = int(np.prod(calib))
    if n_calib > budget:
        raise ValueError(f"calibration region alone ({n_calib}) exceeds budget ({budget:.0f})")

    rng = np.random.default_rng(seed)
    order = rng.permutation(total)
    min_dist = 1.0 + _radius_grid(shape) / _DENSITY_R0

    lo_count, hi_count = 0.87 * budget, 0.99 * budget
    lo_s, hi_s = 0.05, 8.0
    best = None
    for _ in range(24):
        s = 0.5 * (lo_s + hi_s)
        mask = _poisson_darts(shape, calib, order, min_dist, s)
        ones = mask.sum()
        if lo_count <= ones <= hi_count:
            best = mask
            break
        if ones > hi_count:
            lo_s = s  # too dense -> larger exclusion radius
        else:
            hi_s = s
        best = mask if best is None or abs(ones - 0.93 * budget) < abs(best.sum() - 0.93 * budget) else best
    mask = best
    realized = total / mask.sum()
    if abs(realized - accel) > 0.15 * accel:
        raise ValueError(f"could not realize R={accel} (got {realized:.2f})")
    return Tensor(mask)


def make_kt_mask(spatial_shape, frames: int, accel: float, seed: int = 0) -> Tensor:
    """Variable-density k-t mask: per-frame ky-line selection with
    complementary golden-ratio offsets across frames; center line always on."""
    if frames < 1:
        raise ValueError("frames must be >= 1")
    h, w = spatial_shape
    if not 1 <= accel < math.inf:
        raise ValueError(f"acceleration must be finite and >= 1, got {accel}")
    if accel <= 1.0 + 1e-12:
        return Tensor(np.ones((frames, h, w)))
    n_keep = max(1, round(h / accel))
    if abs(h / n_keep - accel) > 0.15 * accel:
        raise ValueError(f"cannot realize R={accel} with {h} ky lines")

    dy = np.abs(np.arange(h) - h // 2) / max(1, h // 2)
    dens = (1.0 + dy / 0.5) ** -2
    cdf = np.cumsum(dens) / dens.sum()
    rng = np.random.default_rng(seed)
    u0 = float(rng.random())
    golden = 0.618033988749895

    mask = np.zeros((frames, h, w))
    center = h // 2
    for f in range(frames):
        off = (u0 + f * golden) % 1.0
        lines: list[int] = []
        for j in range(n_keep):
            u = (j + off) / n_keep
            ky = int(np.searchsorted(cdf, u))
            while ky in lines:  # deterministic collision repair
                ky = (ky + 1) % h
            lines.append(ky)
        if center not in lines:
            # the comb line nearest the center is the most redundant one
            lines[min(range(n_keep), key=lambda t: abs(lines[t] - center))] = center
        mask[f, sorted(lines), :] = 1.0
    return Tensor(mask)


def realized_acceleration(mask: Tensor) -> float:
    """Grid points per sampled point of a 0/1 mask."""
    return mask.data.size / max(1.0, float(mask.data.sum()))


# --- synthetic coils and phantoms -------------------------------------------


def make_sensitivities(shape, coils: int, seed: int = 0) -> Tensor:
    """Smooth complex Gaussian-lobe coil profiles [C, H, W], SOS-normalized."""
    if coils < 1:
        raise ValueError("coils must be >= 1")
    h, w = shape
    rng = np.random.default_rng(seed)
    yy, xx = np.meshgrid(np.linspace(-1, 1, h), np.linspace(-1, 1, w), indexing="ij")
    width = 0.9
    maps = np.zeros((coils, h, w), dtype=np.complex128)
    phase0 = rng.uniform(0, 2 * np.pi)
    for c in range(coils):
        ang = phase0 + 2 * np.pi * c / coils
        cy, cx = 1.25 * np.sin(ang), 1.25 * np.cos(ang)
        mag = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * width**2))
        ramp = rng.uniform(-0.5, 0.5, size=2)
        phase = ramp[0] * yy + ramp[1] * xx + rng.uniform(0, 2 * np.pi)
        maps[c] = mag * np.exp(1j * phase)
    sos = np.sqrt((np.abs(maps) ** 2).sum(axis=0))
    maps /= sos
    return Tensor(maps)


def _raster_ellipse(yy, xx, cy, cx, ay, ax, theta):
    ct, st = np.cos(theta), np.sin(theta)
    u = (xx - cx) * ct + (yy - cy) * st
    v = -(xx - cx) * st + (yy - cy) * ct
    return ((u / ax) ** 2 + (v / ay) ** 2 <= 1.0).astype(float)


def make_phantom(shape, kind: str = "static2d", seed: int = 0, frames: int = 1, motion_amp: float = 0.1) -> Tensor:
    """Randomized ellipse phantom with piecewise-smooth texture and smooth
    phase; magnitude clamped to [0, 1].

    ``cine`` modulates one ellipse's radii periodically across ``frames``
    (amplitude ``motion_amp``); all other draws are shared between frames.
    """
    if min(shape) < 16:
        raise ValueError("spatial extents must be >= 16")
    if kind not in ("static2d", "cine"):
        raise ValueError(f"unknown phantom kind {kind!r}")
    h, w = shape
    rng = np.random.default_rng(seed)
    yy, xx = np.meshgrid(np.linspace(-1, 1, h), np.linspace(-1, 1, w), indexing="ij")

    # all randomness drawn up front so cine frames share the static draws
    n_ell = 5
    ells = [
        dict(
            cy=rng.uniform(-0.45, 0.45),
            cx=rng.uniform(-0.45, 0.45),
            ay=rng.uniform(0.08, 0.38),
            ax=rng.uniform(0.08, 0.38),
            th=rng.uniform(0, np.pi),
            val=rng.uniform(0.15, 0.5) * rng.choice([-1.0, 1.0]),
        )
        for _ in range(n_ell)
    ]
    tex_k = rng.uniform(0.5, 2.0, size=(3, 2))
    tex_p = rng.uniform(0, 2 * np.pi, size=3)
    tex_a = rng.uniform(0.02, 0.05, size=3)
    ph_c = rng.uniform(-0.4, 0.4, size=3)
    mot_phase = rng.uniform(0, 2 * np.pi)

    def frame(t_frac: float) -> np.ndarray:
        img = 0.8 * _raster_ellipse(yy, xx, 0.0, 0.0, 0.88, 0.78, 0.0)
        for i, e in enumerate(ells):
            scale_r = 1.0
            if kind == "cine" and i == 0:
                scale_r = 1.0 + motion_amp * np.sin(2 * np.pi * t_frac + mot_phase)
            img = img + e["val"] * _raster_ellipse(
                yy, xx, e["cy"], e["cx"], e["ay"] * scale_r, e["ax"] * scale_r, e["th"]
            )
        tex = sum(a * np.cos(np.pi * (k[0] * yy + k[1] * xx) + p) for a, k, p in zip(tex_a, tex_k, tex_p))
        mag = np.clip(img + tex * (img > 0.05), 0.0, 1.0)
        phase = ph_c[0] * yy + ph_c[1] * xx + ph_c[2] * yy * xx
        return mag * np.exp(1j * phase)

    if kind == "static2d":
        return Tensor(frame(0.0))
    return Tensor(np.stack([frame(t / frames) for t in range(frames)]))


# --- dataset ------------------------------------------------------------------


@dataclass
class DatasetConfig:
    shape: tuple[int, int]
    coils: int
    accel: float
    calib: tuple[int, int]
    noise_sigma: float  # relative to max |y|
    n_train: int
    n_val: int
    n_test: int
    seed: int
    kind: str = "static2d"  # static2d (Poisson-disk mask) | cine (k-t mask)
    frames: int = 1


@dataclass
class Case:
    case_id: str
    split: str
    x: Tensor
    y: Tensor
    mask: Tensor  # float64 0/1 on the image grid
    sens: Tensor  # [C, H, W] coil maps
    seed: int

    def operator(self) -> EncodingOperator:
        return EncodingOperator(self.mask, self.sens)


@dataclass
class Dataset:
    config: DatasetConfig
    cases: list[Case] = field(default_factory=list)

    def split(self, name: str) -> list[Case]:
        return [c for c in self.cases if c.split == name]


def build_dataset(cfg: DatasetConfig) -> Dataset:
    """Phantom -> sensitivities -> mask -> y = A x* (+ masked complex noise).
    The image kind fixes the mask: Poisson-disk for ``static2d``, k-t for
    ``cine``."""
    counts = [("train", cfg.n_train), ("val", cfg.n_val), ("test", cfg.n_test)]
    if any(n < 1 for _, n in counts):
        raise ValueError("each split needs at least one case")
    if not 0 <= cfg.noise_sigma < math.inf:
        raise ValueError(f"noise_sigma must be finite and >= 0, got {cfg.noise_sigma}")
    if cfg.kind == "static2d" and cfg.frames != 1:
        raise ValueError(f"static2d images have one frame; got frames={cfg.frames}")
    root = np.random.default_rng(cfg.seed)
    cases = []
    idx = 0
    for split, n in counts:
        for _ in range(n):
            cseed = int(root.integers(0, 2**31 - 1))
            x = make_phantom(cfg.shape, kind=cfg.kind, seed=cseed, frames=cfg.frames)
            sens = make_sensitivities(cfg.shape, cfg.coils, seed=cseed + 1)
            if cfg.kind == "cine":
                mask = make_kt_mask(cfg.shape, cfg.frames, cfg.accel, seed=cseed + 2)
            else:
                mask = make_poisson_disk_mask(cfg.shape, cfg.accel, cfg.calib, seed=cseed + 2)
            op = EncodingOperator(mask, sens)
            y = op.forward(x).data
            if cfg.noise_sigma > 0:
                nrng = np.random.default_rng(cseed + 3)
                s = cfg.noise_sigma * np.abs(y).max()
                noise = (nrng.standard_normal(y.shape) + 1j * nrng.standard_normal(y.shape)) / np.sqrt(2)
                y = (y + s * noise) * mask.data
            cases.append(Case(f"case{idx:04d}", split, x, Tensor(y), mask, sens, cseed))
            idx += 1
    return Dataset(cfg, cases)


def save_dataset(ds: Dataset, out_dir) -> Path:
    """Write every case, then the manifest. An old manifest is removed
    first and the new one is swapped in last, so an interrupted save leaves
    no manifest and the directory fails to load instead of mixing cases."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").unlink(missing_ok=True)
    manifest = {"format": "melrecon-dataset", "version": 1, "config": asdict(ds.config), "cases": []}
    for c in ds.cases:
        cdir = out / c.case_id
        cdir.mkdir(exist_ok=True)
        melt_write(cdir / "x.melt", c.x)
        melt_write(cdir / "y.melt", c.y)
        melt_write(cdir / "mask.melt", c.mask)
        melt_write(cdir / "sens.melt", c.sens)
        manifest["cases"].append(
            {
                "id": c.case_id,
                "split": c.split,
                "shape": list(c.x.shape),
                "coils": c.sens.shape[0],
                "seed": c.seed,
                "accel_realized": realized_acceleration(c.mask),
            }
        )
    with atomic_write(out / "manifest.json") as tmp:
        tmp.write_text(json.dumps(manifest, indent=2))
    return out


def load_dataset(path) -> Dataset:
    root = Path(path)
    manifest = json.loads((root / "manifest.json").read_text())
    if manifest.get("format") != "melrecon-dataset":
        raise ValueError(f"{path}: not a dataset directory")
    cfg_d = manifest["config"]
    # manifests written before the density radius became a constant store it
    r0 = cfg_d.pop("density_r0", _DENSITY_R0)
    if r0 != _DENSITY_R0:
        raise ValueError(f"{path}: density_r0 {r0} is not supported (only {_DENSITY_R0})")
    # manifests written before the image kind fixed the sampling store the mask kind
    want = "kt" if cfg_d.get("kind") == "cine" else "poisson"
    mask_kind = cfg_d.pop("mask_kind", want)
    if mask_kind != want:
        raise ValueError(f"{path}: mask_kind {mask_kind!r} does not fit kind {cfg_d.get('kind')!r} (only {want!r})")
    cfg = DatasetConfig(
        **{
            **cfg_d,
            "shape": tuple(cfg_d["shape"]),
            "calib": tuple(cfg_d["calib"]),
        }
    )
    cases = []
    for m in manifest["cases"]:
        cdir = root / m["id"]
        x = melt_read(cdir / "x.melt")
        y = melt_read(cdir / "y.melt")
        mask = melt_read(cdir / "mask.melt")
        sens = melt_read(cdir / "sens.melt")
        if tuple(m["shape"]) != x.shape:
            raise ValueError(f"{m['id']}: manifest shape {m['shape']} != tensor {x.shape}")
        # older manifests also carry per-case sigma, accel_target and calib,
        # which restate the config; they are not read
        cases.append(Case(m["id"], m["split"], x, y, mask, sens, m["seed"]))
    return Dataset(cfg, cases)
