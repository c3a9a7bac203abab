"""MRI encoding physics and synthetic data.

The encoding operator is the multi-coil SENSE model: per coil, multiply by
the sensitivity map, take the centered unitary FFT over the trailing two
(in-plane) axes, and keep only the sampled k-space locations. Images are
either [H, W] or [T, H, W] (leading time axis for cine); sensitivity maps
are [C, H, W] and broadcast across time.

Also here: Poisson-disk and k-t sampling-mask generators, smooth synthetic
coil maps, ellipse phantoms, and dataset construction/persistence on top of
the MELT tensor format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .tensor import Tensor, melt_read, melt_write

__all__ = [
    "SamplingMask",
    "SensitivityMaps",
    "EncodingOperator",
    "DatasetConfig",
    "Case",
    "Dataset",
    "make_poisson_disk_mask",
    "make_kt_mask",
    "make_sensitivities",
    "make_phantom",
    "build_dataset",
    "save_dataset",
    "load_dataset",
]


@dataclass
class SamplingMask:
    """Binary k-space indicator with a fully sampled calibration center."""

    data: np.ndarray  # float64 0/1, [H, W] or [T, H, W]
    acceleration: float  # target R
    calib_region: tuple[int, ...]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def realized_acceleration(self) -> float:
        return self.data.size / max(1.0, float(self.data.sum()))


@dataclass
class SensitivityMaps:
    maps: Tensor  # [C, H, W], SOS-normalized per voxel

    @property
    def coils(self) -> int:
        return self.maps.shape[0]


class EncodingOperator:
    """A = P.F.S with adjoint and normal operator.

    Shapes: image [H, W] or [T, H, W]; k-space [C, *image]; mask matches the
    image grid; maps [C, H, W]. FFT runs over the trailing two axes.
    """

    def __init__(self, mask: SamplingMask, sens: SensitivityMaps):
        if mask.data.ndim not in (2, 3):
            raise ValueError(f"mask rank must be 2 or 3, got {mask.data.ndim}")
        if sens.maps.data.ndim != 3:
            raise ValueError("sensitivity maps must be [C, H, W]")
        if mask.data.shape[-2:] != sens.maps.shape[-2:]:
            raise ValueError(
                f"mask grid {mask.data.shape[-2:]} does not match maps {sens.maps.shape[-2:]}"
            )
        self.mask = mask
        self.sens = sens
        self.image_shape = tuple(mask.data.shape)
        self.fft_dims = (len(self.image_shape) - 2, len(self.image_shape) - 1)

    @property
    def coils(self) -> int:
        return self.sens.coils

    # raw ndarray paths (used by CG loops where wrapper churn would dominate)

    def _forward(self, x: np.ndarray) -> np.ndarray:
        m = self.sens.maps.data
        s = m.reshape(m.shape[:1] + (1,) * (x.ndim - 2) + m.shape[1:])
        coils = s * x
        axes = tuple(a + 1 for a in self.fft_dims)
        k = np.fft.ifftshift(coils, axes=axes)
        k = np.fft.fftn(k, axes=axes, norm="ortho")
        k = np.fft.fftshift(k, axes=axes)
        return k * self.mask.data

    def _adjoint(self, y: np.ndarray) -> np.ndarray:
        axes = tuple(a + 1 for a in self.fft_dims)
        k = y * self.mask.data
        img = np.fft.ifftshift(k, axes=axes)
        img = np.fft.ifftn(img, axes=axes, norm="ortho")
        img = np.fft.fftshift(img, axes=axes)
        m = self.sens.maps.data
        s = m.reshape(m.shape[:1] + (1,) * (img.ndim - 3) + m.shape[1:])
        return (np.conj(s) * img).sum(axis=0)

    def _normal(self, x: np.ndarray, mu: float) -> np.ndarray:
        return self._adjoint(self._forward(x)) + mu * x

    # wrapped contract surface

    def forward(self, x: Tensor) -> Tensor:
        if x.shape != self.image_shape:
            raise ValueError(f"image shape {x.shape} != operator shape {self.image_shape}")
        return Tensor(self._forward(x.data))

    def adjoint(self, y: Tensor) -> Tensor:
        if y.shape != (self.coils,) + self.image_shape:
            raise ValueError(f"k-space shape {y.shape} != {(self.coils,) + self.image_shape}")
        return Tensor(self._adjoint(y.data))

    def normal(self, x: Tensor, mu: float = 0.0) -> Tensor:
        if mu < 0:
            raise ValueError(f"mu must be >= 0, got {mu}")
        if x.shape != self.image_shape:
            raise ValueError(f"image shape {x.shape} != operator shape {self.image_shape}")
        return Tensor(self._normal(x.data, mu))


# --- sampling masks ---------------------------------------------------------


def _radius_grid(shape) -> np.ndarray:
    """Normalized k-space radius, 0 at the grid center, ~1 at edge midpoints."""
    axes = [(np.arange(n) - n // 2) / max(1, n // 2) for n in shape]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.sqrt(sum(g * g for g in grids))


def _calib_slices(shape, calib):
    return tuple(slice(n // 2 - c // 2, n // 2 - c // 2 + c) for n, c in zip(shape, calib))


def _poisson_darts(shape, calib, rng_order, min_dist, scale):
    """One dart-throwing pass; returns the accepted 0/1 mask."""
    h, w = shape
    mask = np.zeros(shape)
    mask[_calib_slices(shape, calib)] = 1.0
    pts = np.argwhere(mask > 0).astype(float)
    acc_i = list(pts[:, 0])
    acc_j = list(pts[:, 1])
    ai = np.array(acc_i)
    aj = np.array(acc_j)
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


def make_poisson_disk_mask(shape, accel: float, calib=(8, 8), seed: int = 0, r0: float = 0.25) -> SamplingMask:
    """Variable-density Poisson-disk mask by dart throwing.

    The minimum distance grows with k-space radius as (1 + r/r0), i.e.
    density ~ (1 + r/r0)^-2. A global distance scale is calibrated by
    bisection so the realized sample count lands a little under the
    total/accel budget (within the +-15% policy). Deterministic per seed.
    """
    if len(shape) != 2:
        raise ValueError("poisson-disk mask is 2D")
    if accel < 1:
        raise ValueError(f"acceleration must be >= 1, got {accel}")
    total = int(np.prod(shape))
    if accel <= 1.0 + 1e-12:
        return SamplingMask(np.ones(shape), 1.0, tuple(calib))
    budget = total / accel
    calib = tuple(int(c) for c in calib)
    if any(c > n for c, n in zip(calib, shape)):
        raise ValueError(f"calibration region {calib} exceeds grid {shape}")
    n_calib = int(np.prod(calib))
    if n_calib > budget:
        raise ValueError(f"calibration region alone ({n_calib}) exceeds budget ({budget:.0f})")

    rng = np.random.default_rng(seed)
    order = rng.permutation(total)
    min_dist = 1.0 + _radius_grid(shape) / r0

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
    return SamplingMask(mask, float(accel), calib)


def make_kt_mask(spatial_shape, frames: int, accel: float, seed: int = 0, r0: float = 0.5) -> SamplingMask:
    """Variable-density k-t mask: per-frame ky-line selection with
    complementary golden-ratio offsets across frames; center line always on."""
    if frames < 1:
        raise ValueError("frames must be >= 1")
    h, w = spatial_shape
    if accel < 1:
        raise ValueError(f"acceleration must be >= 1, got {accel}")
    if accel <= 1.0 + 1e-12:
        return SamplingMask(np.ones((frames, h, w)), 1.0, (1, w))
    n_keep = max(1, round(h / accel))
    if abs(h / n_keep - accel) > 0.15 * accel:
        raise ValueError(f"cannot realize R={accel} with {h} ky lines")

    dy = np.abs(np.arange(h) - h // 2) / max(1, h // 2)
    dens = (1.0 + dy / r0) ** -2
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
    return SamplingMask(mask, float(accel), (1, w))


# --- synthetic coils and phantoms -------------------------------------------


def make_sensitivities(shape, coils: int, seed: int = 0) -> SensitivityMaps:
    """Smooth complex Gaussian-lobe coil profiles, SOS-normalized."""
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
    return SensitivityMaps(Tensor(maps))


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
    shape: tuple[int, int] = (32, 32)
    coils: int = 4
    accel: float = 4.0
    mask_kind: str = "poisson"  # poisson | kt
    kind: str = "static2d"  # static2d | cine
    frames: int = 1
    calib: tuple[int, int] = (6, 6)
    noise_sigma: float = 0.0  # relative to max |y|
    n_train: int = 8
    n_val: int = 2
    n_test: int = 2
    seed: int = 0
    density_r0: float = 0.25


@dataclass
class Case:
    case_id: str
    split: str
    x: Tensor
    y: Tensor
    mask: SamplingMask
    sens: SensitivityMaps
    seed: int
    sigma: float

    def operator(self) -> EncodingOperator:
        return EncodingOperator(self.mask, self.sens)


@dataclass
class Dataset:
    config: DatasetConfig
    cases: list[Case] = field(default_factory=list)

    def split(self, name: str) -> list[Case]:
        return [c for c in self.cases if c.split == name]


def build_dataset(cfg: DatasetConfig) -> Dataset:
    """Phantom -> sensitivities -> mask -> y = A x* (+ masked complex noise)."""
    counts = [("train", cfg.n_train), ("val", cfg.n_val), ("test", cfg.n_test)]
    if any(n < 1 for _, n in counts):
        raise ValueError("each split needs at least one case")
    root = np.random.default_rng(cfg.seed)
    cases = []
    idx = 0
    for split, n in counts:
        for _ in range(n):
            cseed = int(root.integers(0, 2**31 - 1))
            x = make_phantom(cfg.shape, kind=cfg.kind, seed=cseed, frames=cfg.frames)
            sens = make_sensitivities(cfg.shape, cfg.coils, seed=cseed + 1)
            if cfg.mask_kind == "poisson":
                mask = make_poisson_disk_mask(cfg.shape, cfg.accel, cfg.calib, seed=cseed + 2, r0=cfg.density_r0)
            elif cfg.mask_kind == "kt":
                mask = make_kt_mask(cfg.shape, cfg.frames, cfg.accel, seed=cseed + 2)
            else:
                raise ValueError(f"unknown mask kind {cfg.mask_kind!r}")
            op = EncodingOperator(mask, sens)
            y = op._forward(x.data)
            if cfg.noise_sigma > 0:
                nrng = np.random.default_rng(cseed + 3)
                s = cfg.noise_sigma * np.abs(y).max()
                noise = (nrng.standard_normal(y.shape) + 1j * nrng.standard_normal(y.shape)) / np.sqrt(2)
                y = (y + s * noise) * mask.data
            cases.append(
                Case(f"case{idx:04d}", split, x, Tensor(y), mask, sens, cseed, cfg.noise_sigma)
            )
            idx += 1
    return Dataset(cfg, cases)


def save_dataset(ds: Dataset, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"format": "melrecon-dataset", "version": 1, "config": asdict(ds.config), "cases": []}
    for c in ds.cases:
        cdir = out / c.case_id
        cdir.mkdir(exist_ok=True)
        melt_write(cdir / "x.melt", c.x)
        melt_write(cdir / "y.melt", c.y)
        melt_write(cdir / "mask.melt", Tensor(c.mask.data))
        melt_write(cdir / "sens.melt", c.sens.maps)
        manifest["cases"].append(
            {
                "id": c.case_id,
                "split": c.split,
                "shape": list(c.x.shape),
                "coils": c.sens.coils,
                "seed": c.seed,
                "sigma": c.sigma,
                "accel_target": c.mask.acceleration,
                "accel_realized": c.mask.realized_acceleration,
                "calib": list(c.mask.calib_region),
            }
        )
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return out


def load_dataset(path) -> Dataset:
    root = Path(path)
    manifest = json.loads((root / "manifest.json").read_text())
    if manifest.get("format") != "melrecon-dataset":
        raise ValueError(f"{path}: not a dataset directory")
    cfg_d = manifest["config"]
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
        mask_t = melt_read(cdir / "mask.melt")
        sens_t = melt_read(cdir / "sens.melt")
        if tuple(m["shape"]) != x.shape:
            raise ValueError(f"{m['id']}: manifest shape {m['shape']} != tensor {x.shape}")
        mask = SamplingMask(mask_t.data, m["accel_target"], tuple(m["calib"]))
        cases.append(
            Case(m["id"], m["split"], x, y, mask, SensitivityMaps(sens_t), m["seed"], m["sigma"])
        )
    return Dataset(cfg, cases)
