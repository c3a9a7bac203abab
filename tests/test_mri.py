import math
import tracemalloc

import numpy as np
import pytest

from melrecon import mri
from melrecon.mri import (
    Dataset,
    DatasetConfig,
    EncodingOperator,
    build_dataset,
    load_dataset,
    make_kt_mask,
    make_phantom,
    make_poisson_disk_mask,
    make_sensitivities,
    realized_acceleration,
    save_dataset,
)
from melrecon.tensor import Tensor

from oracles import dense_matrix_of, dft_centered_direct, fft_centered, norm2, poisson_darts_scan


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def full_op(shape, coils=1, seed=0):
    mask = Tensor(np.ones(shape))
    sens = make_sensitivities(shape[-2:], coils, seed=seed)
    return EncodingOperator(mask, sens)


def random_op(rng, shape=(8, 8), coils=2, accel=2.0):
    mask = make_poisson_disk_mask(shape, accel, calib=(4, 4), seed=int(rng.integers(1 << 30)))
    sens = make_sensitivities(shape, coils, seed=int(rng.integers(1 << 30)))
    return EncodingOperator(mask, sens)


# --- encoding operator -------------------------------------------------------


def test_forward_full_mask_single_flat_coil_is_fft():
    rng = np.random.default_rng(0)
    x = Tensor(crandn(rng, 8, 8))
    mask = Tensor(np.ones((8, 8)))
    sens = Tensor(np.ones((1, 8, 8), dtype=complex))
    op = EncodingOperator(mask, sens)
    y = op.forward(x)
    assert np.allclose(y.data[0], fft_centered(x).data, atol=1e-13)


def test_forward_of_zero_is_zero():
    op = full_op((8, 8), coils=3)
    y = op.forward(Tensor(np.zeros((8, 8), dtype=complex)))
    assert np.all(y.data == 0)


def test_forward_zero_off_mask():
    rng = np.random.default_rng(1)
    op = random_op(rng)
    y = op.forward(Tensor(crandn(rng, 8, 8)))
    assert np.all(y.data[:, op.mask.data == 0] == 0)


def test_adjointness_inner_product_8x8_c2():
    rng = np.random.default_rng(2)
    op = random_op(rng, coils=2)
    x = Tensor(crandn(rng, 8, 8))
    y = Tensor(crandn(rng, 2, 8, 8))
    lhs = np.vdot(y.data, op.forward(x).data)
    rhs = np.vdot(op.adjoint(y).data, x.data)
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_adjoint_matches_dense_conjugate_transpose():
    rng = np.random.default_rng(3)
    op = random_op(rng, coils=2)
    a = dense_matrix_of(op._forward, (8, 8)).reshape(2 * 64, 64)
    ah = dense_matrix_of(op._adjoint, (2, 8, 8)).reshape(64, 2 * 64)
    assert np.linalg.norm(ah - a.conj().T) <= 1e-10 * np.linalg.norm(a)


def test_normal_matches_dense_oracle():
    rng = np.random.default_rng(4)
    op = random_op(rng, coils=2)
    mu = 0.07
    n = dense_matrix_of(lambda v: op._normal(v, mu), (8, 8))
    a = dense_matrix_of(op._forward, (8, 8)).reshape(2 * 64, 64)
    want = a.conj().T @ a + mu * np.eye(64)
    assert np.linalg.norm(n - want) <= 1e-10 * np.linalg.norm(want)


def test_normal_full_mask_is_identity_plus_mu():
    rng = np.random.default_rng(5)
    op = full_op((8, 8), coils=3, seed=7)
    x = Tensor(crandn(rng, 8, 8))
    out = op._normal(x.data, 0.3)
    assert np.linalg.norm(out - 1.3 * x.data) <= 1e-10 * norm2(x)


def test_normal_is_psd_plus_mu():
    rng = np.random.default_rng(6)
    op = random_op(rng, coils=3)
    mu = 0.05
    x = Tensor(crandn(rng, 8, 8))
    q = np.vdot(x.data, op._normal(x.data, mu)).real
    assert q >= mu * norm2(x) ** 2 - 1e-12


def test_operator_shape_checks():
    op = full_op((8, 8), coils=2)
    with pytest.raises(ValueError):
        op.forward(Tensor(np.zeros((4, 4), dtype=complex)))
    with pytest.raises(ValueError):
        op.adjoint(Tensor(np.zeros((3, 8, 8), dtype=complex)))


def test_cine_operator_adjointness():
    rng = np.random.default_rng(7)
    mask = make_kt_mask((8, 8), frames=3, accel=2.0, seed=5)
    sens = make_sensitivities((8, 8), 2, seed=6)
    op = EncodingOperator(mask, sens)
    x = Tensor(crandn(rng, 3, 8, 8))
    y = Tensor(crandn(rng, 2, 3, 8, 8))
    lhs = np.vdot(y.data, op.forward(x).data)
    rhs = np.vdot(op.adjoint(y).data, x.data)
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


@pytest.mark.parametrize("kind", ["odd_odd", "even_odd", "kt_cine"])
def test_operator_matches_direct_dft_off_even_grids(kind):
    # odd extents give complex (not +-1) centering factors
    rng = np.random.default_rng(8)
    if kind == "kt_cine":
        mask = make_kt_mask((15, 16), frames=3, accel=3.0, seed=9)
    else:
        shape = (15, 17) if kind == "odd_odd" else (16, 15)
        mask = Tensor((rng.random(shape) < 0.5).astype(float))
    sens = make_sensitivities(mask.shape[-2:], 3, seed=10)
    op = EncodingOperator(mask, sens)
    x = crandn(rng, *mask.shape)
    y = op._forward(x)
    for c in range(3):
        want = mask.data * dft_centered_direct(sens.data[c] * x, axes=(-2, -1))
        assert np.abs(y[c] - want).max() <= 1e-12 * np.abs(want).max()
    v = crandn(rng, *y.shape)
    lhs = np.vdot(v, y)
    rhs = np.vdot(op._adjoint(v), x)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


@pytest.mark.parametrize("kind", ["even_24", "even_32x16", "kt_cine", "odd_odd", "even_odd"])
def test_normal_equals_adjoint_of_forward(kind):
    # the normal runs the adjoint's tail in place on the forward's output;
    # on even grids the arithmetic is that of the two calls, bit for bit
    rng = np.random.default_rng(11)
    if kind == "kt_cine":
        mask = make_kt_mask((16, 16), frames=4, accel=4.0, seed=12)
    else:
        shape = {"even_24": (24, 24), "even_32x16": (32, 16), "odd_odd": (15, 17), "even_odd": (16, 15)}[kind]
        mask = Tensor((rng.random(shape) < 0.4).astype(float))
    op = EncodingOperator(mask, make_sensitivities(mask.shape[-2:], 3, seed=13))
    x = crandn(rng, *mask.shape)
    mu = 0.3
    got = op._normal(x, mu)
    want = op._adjoint(op._forward(x)) + mu * x
    if kind in ("odd_odd", "even_odd"):
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)
    else:
        assert np.array_equal(got, want)


@pytest.mark.parametrize("method", ["_normal", "_adjoint"])
def test_operator_call_holds_one_coil_sized_buffer(method):
    # 128x128 with 8 coils: one [C, H, W] complex buffer is 2 MB; the call
    # may add image-sized temporaries but no second coil-sized one
    rng = np.random.default_rng(14)
    mask = Tensor((rng.random((128, 128)) < 0.25).astype(float))
    op = EncodingOperator(mask, make_sensitivities((128, 128), 8, seed=15))
    x = crandn(rng, 128, 128)
    arg = (x, 0.05) if method == "_normal" else (op._forward(x),)
    fn = getattr(op, method)
    fn(*arg)  # warm the FFT plan cache
    tracemalloc.start()
    try:
        fn(*arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * 128 * 128 * 16



@pytest.mark.parametrize("shape,coils,per_group", [((130, 130), 5, 2), ((64, 96), 12, 5), ((4, 16, 16), 3, 2)],
                         ids=["130x130_5_coils", "64x96_12_coils", "cine_3_coils"])
def test_coil_groups_match_one_group(monkeypatch, shape, coils, per_group):
    # groups that do not divide the coil count: the coil images are added
    # in coil order whatever the grouping, so the results are bit for bit
    # those of one group
    rng = np.random.default_rng(21)
    mask = Tensor((rng.random(shape) < 0.4).astype(float))
    sens = make_sensitivities(shape[-2:], coils, seed=22)
    x = crandn(rng, *shape)

    def operator(per):
        monkeypatch.setattr(mri, "_GROUP_BYTES", per * 16 * math.prod(shape))
        return EncodingOperator(mask, sens)

    one, grouped = operator(coils), operator(per_group)
    assert one._groups == [slice(0, coils)]
    assert len(grouped._groups) == -(-coils // per_group) and coils % per_group
    y = one._forward(x)
    assert np.array_equal(grouped._adjoint(y), one._adjoint(y))
    assert np.array_equal(grouped._normal(x, 0.05), one._normal(x, 0.05))
    for g in grouped._groups:  # a group's forward is its coils' slice of the whole
        assert np.array_equal(grouped._forward(x, g), y[g])


@pytest.mark.parametrize("method", ["_normal", "_adjoint"])
def test_operator_call_holds_one_coil_group(method):
    # 128x128 with 8 coils runs as four groups of two: a call holds one
    # group's 512 KB of k-space and a few images, not all 2 MB
    rng = np.random.default_rng(14)
    mask = Tensor((rng.random((128, 128)) < 0.25).astype(float))
    op = EncodingOperator(mask, make_sensitivities((128, 128), 8, seed=15))
    x = crandn(rng, 128, 128)
    image = x.nbytes  # one coil's k-space is as large
    assert len(op._groups) == 4
    arg = (x, 0.05) if method == "_normal" else (op._forward(x),)
    fn = getattr(op, method)
    fn(*arg)  # warm the FFT plan cache
    tracemalloc.start()
    try:
        fn(*arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * image + 3 * image  # the group, then the coil sum, x's phased copy and numpy's buffers

# --- poisson-disk masks --------------------------------------------------------


def test_poisson_r1_is_all_ones():
    m = make_poisson_disk_mask((16, 16), 1.0, calib=(4, 4), seed=0)
    assert np.all(m.data == 1)


def test_poisson_64x64_r8_ones_count_in_window():
    m = make_poisson_disk_mask((64, 64), 8.0, calib=(8, 8), seed=7)
    ones = int(m.data.sum())
    assert 410 <= ones <= 512  # +-15% policy minus calib overlap, target 512


def test_poisson_deterministic():
    a = make_poisson_disk_mask((32, 32), 4.0, calib=(6, 6), seed=3)
    b = make_poisson_disk_mask((32, 32), 4.0, calib=(6, 6), seed=3)
    assert np.array_equal(a.data, b.data)
    c = make_poisson_disk_mask((32, 32), 4.0, calib=(6, 6), seed=4)
    assert not np.array_equal(a.data, c.data)


@pytest.mark.parametrize("accel,seed", [(2.0, 0), (4.0, 1), (6.0, 2), (8.0, 3)])
def test_poisson_realized_acceleration_within_15pct(accel, seed):
    m = make_poisson_disk_mask((48, 48), accel, calib=(6, 6), seed=seed)
    assert abs(realized_acceleration(m) - accel) <= 0.15 * accel
    assert set(np.unique(m.data)) <= {0.0, 1.0}


def test_poisson_calib_region_fully_sampled():
    m = make_poisson_disk_mask((32, 32), 4.0, calib=(8, 8), seed=9)
    c = m.data[16 - 4 : 16 + 4, 16 - 4 : 16 + 4]
    assert np.all(c == 1)


def test_poisson_infeasible_calib():
    with pytest.raises(ValueError):
        make_poisson_disk_mask((16, 16), 8.0, calib=(16, 16), seed=0)


@pytest.mark.parametrize("accel", [0.5, float("nan"), float("inf")])
def test_masks_reject_accel_below_one_or_not_finite(accel):
    # NaN fails every comparison, so only a range check rejects it; an
    # infinite accel would otherwise build a mask far from its R
    with pytest.raises(ValueError, match="acceleration must be finite and >= 1"):
        make_poisson_disk_mask((32, 32), accel, calib=(4, 4), seed=0)
    with pytest.raises(ValueError, match="acceleration must be finite and >= 1"):
        make_kt_mask((16, 16), 2, accel, seed=0)


@pytest.mark.parametrize(
    "shape,calib,r0",
    [
        ((24, 24), (6, 6), 0.25),  # the training benchmark's grid
        ((15, 17), (4, 4), 0.25),
        ((20, 13), (20, 3), 0.5),  # calib spans the first axis
        ((33, 21), (5, 21), 0.3),  # calib spans the second axis
        ((16, 16), (16, 16), 0.25),  # calib is the whole grid
        ((9, 31), (0, 0), 0.25),  # no calib
    ],
    ids=["train_grid", "odd", "calib_spans_rows", "calib_spans_cols", "calib_whole_grid", "no_calib"],
)
def test_poisson_darts_match_scan(shape, calib, r0):
    rng = np.random.default_rng(sum(shape))
    order = rng.permutation(shape[0] * shape[1])
    min_dist = 1.0 + mri._radius_grid(shape) / r0
    for radius in (1.5, 2.3, 3.0, 4.7, 8.0):
        scale = radius / min_dist.max()
        want = poisson_darts_scan(shape, calib, order, min_dist, scale)
        assert np.array_equal(mri._poisson_darts(shape, calib, order, min_dist, scale), want)


@pytest.mark.parametrize("shape,accel,calib,seed", [((24, 24), 3.0, (6, 6), 103), ((128, 128), 4.0, (8, 8), 109)],
                         ids=["train_24x24_r3", "recon_128x128_r4"])
def test_poisson_mask_matches_scan_passes(monkeypatch, shape, accel, calib, seed):
    # the benchmark's mask configs, through every bisection step
    got = make_poisson_disk_mask(shape, accel, calib=calib, seed=seed)
    monkeypatch.setattr(mri, "_poisson_darts", poisson_darts_scan)
    want = make_poisson_disk_mask(shape, accel, calib=calib, seed=seed)
    assert np.array_equal(got.data, want.data)


# --- k-t masks ------------------------------------------------------------------


def test_kt_r1_full():
    m = make_kt_mask((8, 8), frames=4, accel=1.0, seed=0)
    assert np.all(m.data == 1)


def test_kt_union_coverage():
    m = make_kt_mask((32, 16), frames=8, accel=4.0, seed=11)
    line_used = m.data[:, :, 0].max(axis=0)  # 1 if a ky line appears in any frame
    assert line_used.sum() >= 0.8 * 32


def test_kt_deterministic_and_realized_r():
    a = make_kt_mask((32, 16), frames=6, accel=4.0, seed=2)
    b = make_kt_mask((32, 16), frames=6, accel=4.0, seed=2)
    assert np.array_equal(a.data, b.data)
    assert abs(realized_acceleration(a) - 4.0) <= 0.15 * 4.0


def test_kt_center_line_every_frame():
    m = make_kt_mask((32, 16), frames=5, accel=4.0, seed=3)
    assert np.all(m.data[:, 16, :] == 1)


def test_kt_frames_differ():
    m = make_kt_mask((32, 16), frames=4, accel=4.0, seed=4)
    assert not np.array_equal(m.data[0], m.data[1])


# --- sensitivities ---------------------------------------------------------------


def test_sens_single_coil_unit_magnitude():
    s = make_sensitivities((16, 16), 1, seed=0)
    assert np.allclose(np.abs(s.data[0]), 1.0, atol=1e-12)


def test_sens_sos_normalized():
    s = make_sensitivities((24, 24), 6, seed=1)
    sos = (np.abs(s.data) ** 2).sum(axis=0)
    assert np.allclose(sos, 1.0, atol=1e-10)


def test_sens_smooth():
    s = make_sensitivities((32, 32), 4, seed=2)
    m = s.data
    for ax in (1, 2):
        grad = np.abs(np.diff(m, axis=ax))
        assert grad.max() < 0.5


# --- phantoms ----------------------------------------------------------------------


def test_phantom_magnitude_in_unit_interval():
    for seed in range(5):
        p = make_phantom((32, 32), seed=seed)
        mag = np.abs(p.data)
        assert mag.min() >= 0.0 and mag.max() <= 1.0 + 1e-12


def test_phantom_cine_zero_motion_is_static():
    p = make_phantom((32, 32), kind="cine", seed=3, frames=4, motion_amp=0.0)
    assert p.shape == (4, 32, 32)
    for t in range(1, 4):
        assert np.array_equal(p.data[t], p.data[0])


def test_phantom_cine_motion_changes_frames():
    p = make_phantom((32, 32), kind="cine", seed=3, frames=4, motion_amp=0.15)
    assert any(not np.array_equal(p.data[t], p.data[0]) for t in range(1, 4))


def test_phantom_deterministic():
    a = make_phantom((32, 32), seed=5)
    b = make_phantom((32, 32), seed=5)
    assert np.array_equal(a.data, b.data)


def test_phantom_rejects_small_grid():
    with pytest.raises(ValueError):
        make_phantom((8, 8), seed=0)


# --- dataset -------------------------------------------------------------------------


def small_cfg(**kw):
    base = dict(shape=(16, 16), coils=2, accel=2.0, calib=(4, 4), noise_sigma=0.0, n_train=2, n_val=1, n_test=1,
                seed=42)
    base.update(kw)
    return DatasetConfig(**base)


def test_dataset_noise_free_y_is_exact_forward():
    ds = build_dataset(small_cfg(noise_sigma=0.0))
    for c in ds.cases:
        op = c.operator()
        assert np.array_equal(c.y.data, op._forward(c.x.data))
        assert np.all(c.y.data[:, c.mask.data == 0] == 0)


@pytest.mark.parametrize("sigma", [-1e-3, float("nan"), float("inf")])
def test_dataset_rejects_negative_or_non_finite_noise(sigma):
    # ``noise_sigma > 0`` is False for these, so they must not pass as noise-free
    with pytest.raises(ValueError, match="noise_sigma must be finite and >= 0"):
        build_dataset(small_cfg(noise_sigma=sigma))


def test_dataset_noise_stays_on_mask():
    ds = build_dataset(small_cfg(noise_sigma=1e-2))
    c = ds.cases[0]
    assert np.all(c.y.data[:, c.mask.data == 0] == 0)
    assert not np.array_equal(c.y.data, c.operator()._forward(c.x.data))


def test_dataset_splits_disjoint_and_sized():
    ds = build_dataset(small_cfg())
    ids = {s: {c.case_id for c in ds.split(s)} for s in ("train", "val", "test")}
    assert len(ids["train"]) == 2 and len(ids["val"]) == 1 and len(ids["test"]) == 1
    assert not (ids["train"] & ids["val"]) and not (ids["train"] & ids["test"]) and not (ids["val"] & ids["test"])


def test_dataset_roundtrip_bit_exact(tmp_path):
    ds = build_dataset(small_cfg(noise_sigma=1e-3))
    save_dataset(ds, tmp_path / "d")
    back = load_dataset(tmp_path / "d")
    assert isinstance(back, Dataset)
    assert len(back.cases) == len(ds.cases)
    for a, b in zip(ds.cases, back.cases):
        assert a.case_id == b.case_id and a.split == b.split
        assert np.array_equal(a.x.data, b.x.data)
        assert np.array_equal(a.y.data, b.y.data)
        assert np.array_equal(a.mask.data, b.mask.data)
        assert np.array_equal(a.sens.data, b.sens.data)


def test_interrupted_save_does_not_load_as_mixed_dataset(tmp_path, monkeypatch):
    # a save that dies part-way over an existing dataset must not leave the
    # old manifest pointing at a mix of old and new case files
    save_dataset(build_dataset(small_cfg()), tmp_path / "d")
    real_write = mri.melt_write
    calls = []

    def failing_write(path, t):
        calls.append(path)
        if len(calls) == 3:
            raise OSError("simulated interruption")
        real_write(path, t)

    monkeypatch.setattr(mri, "melt_write", failing_write)
    with pytest.raises(OSError, match="simulated"):
        save_dataset(build_dataset(small_cfg(seed=43)), tmp_path / "d")
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "d")


def test_dataset_deterministic_per_seed():
    a = build_dataset(small_cfg())
    b = build_dataset(small_cfg())
    for ca, cb in zip(a.cases, b.cases):
        assert np.array_equal(ca.y.data, cb.y.data)


def test_load_rejects_manifest_tensor_mismatch(tmp_path):
    import json

    ds = build_dataset(small_cfg())
    root = save_dataset(ds, tmp_path / "d")
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["cases"][0]["shape"] = [99, 99]
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError):
        load_dataset(root)


def test_load_ignores_per_case_config_keys_of_older_manifests(tmp_path):
    # manifests written while cases restated the config carry per-case
    # sigma, accel_target and calib; they load bit-identically
    import json

    ds = build_dataset(small_cfg(noise_sigma=1e-3))
    root = save_dataset(ds, tmp_path / "d")
    manifest = json.loads((root / "manifest.json").read_text())
    assert not {"sigma", "accel_target", "calib"} & set(manifest["cases"][0])
    for m in manifest["cases"]:
        m.update(sigma=1e-3, accel_target=2.0, calib=[4, 4])
    (root / "manifest.json").write_text(json.dumps(manifest))
    back = load_dataset(root)
    assert back.config == ds.config
    for a, b in zip(ds.cases, back.cases, strict=True):
        assert (a.case_id, a.split, a.seed) == (b.case_id, b.split, b.seed)
        for f in ("x", "y", "mask", "sens"):
            assert np.array_equal(getattr(a, f).data, getattr(b, f).data)


def test_load_accepts_legacy_density_r0_only_at_its_constant_value(tmp_path):
    # manifests written while the density radius was a config field store it
    import json

    root = save_dataset(build_dataset(small_cfg()), tmp_path / "d")
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["config"]["density_r0"] = 0.25
    (root / "manifest.json").write_text(json.dumps(manifest))
    assert load_dataset(root).config == build_dataset(small_cfg()).config
    manifest["config"]["density_r0"] = 0.5
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="density_r0"):
        load_dataset(root)


@pytest.mark.parametrize("kind,fits,other", [("static2d", "poisson", "kt"), ("cine", "kt", "poisson")])
def test_load_accepts_legacy_mask_kind_only_where_it_fits_the_kind(tmp_path, kind, fits, other):
    # manifests written while the mask kind was a config field store it
    import json

    cfg = small_cfg(kind=kind, frames=2 if kind == "cine" else 1)
    root = save_dataset(build_dataset(cfg), tmp_path / "d")
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["config"]["mask_kind"] = fits
    (root / "manifest.json").write_text(json.dumps(manifest))
    assert load_dataset(root).config == cfg
    manifest["config"]["mask_kind"] = other
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="mask_kind"):
        load_dataset(root)
