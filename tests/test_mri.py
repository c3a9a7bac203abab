import numpy as np
import pytest

from melrecon.mri import (
    Dataset,
    DatasetConfig,
    EncodingOperator,
    SamplingMask,
    SensitivityMaps,
    build_dataset,
    load_dataset,
    make_kt_mask,
    make_phantom,
    make_poisson_disk_mask,
    make_sensitivities,
    save_dataset,
)
from melrecon.tensor import Tensor, fft_centered, norm2

from oracles import dense_matrix_of


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def full_op(shape, coils=1, seed=0):
    mask = SamplingMask(np.ones(shape), 1.0, (0, 0))
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
    mask = SamplingMask(np.ones((8, 8)), 1.0, (0, 0))
    sens = SensitivityMaps(Tensor(np.ones((1, 8, 8), dtype=complex)))
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
    out = op.normal(x, mu=0.3)
    assert np.linalg.norm(out.data - 1.3 * x.data) <= 1e-10 * norm2(x)


def test_normal_is_psd_plus_mu():
    rng = np.random.default_rng(6)
    op = random_op(rng, coils=3)
    mu = 0.05
    x = Tensor(crandn(rng, 8, 8))
    q = np.vdot(x.data, op.normal(x, mu).data).real
    assert q >= mu * norm2(x) ** 2 - 1e-12


def test_normal_rejects_negative_mu():
    op = full_op((8, 8))
    with pytest.raises(ValueError):
        op.normal(Tensor(np.zeros((8, 8), dtype=complex)), mu=-0.1)


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
    assert abs(m.realized_acceleration - accel) <= 0.15 * accel
    assert set(np.unique(m.data)) <= {0.0, 1.0}


def test_poisson_calib_region_fully_sampled():
    m = make_poisson_disk_mask((32, 32), 4.0, calib=(8, 8), seed=9)
    c = m.data[16 - 4 : 16 + 4, 16 - 4 : 16 + 4]
    assert np.all(c == 1)


def test_poisson_infeasible_calib():
    with pytest.raises(ValueError):
        make_poisson_disk_mask((16, 16), 8.0, calib=(16, 16), seed=0)


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
    assert abs(a.realized_acceleration - 4.0) <= 0.15 * 4.0


def test_kt_center_line_every_frame():
    m = make_kt_mask((32, 16), frames=5, accel=4.0, seed=3)
    assert np.all(m.data[:, 16, :] == 1)


def test_kt_frames_differ():
    m = make_kt_mask((32, 16), frames=4, accel=4.0, seed=4)
    assert not np.array_equal(m.data[0], m.data[1])


# --- sensitivities ---------------------------------------------------------------


def test_sens_single_coil_unit_magnitude():
    s = make_sensitivities((16, 16), 1, seed=0)
    assert np.allclose(np.abs(s.maps.data[0]), 1.0, atol=1e-12)


def test_sens_sos_normalized():
    s = make_sensitivities((24, 24), 6, seed=1)
    sos = (np.abs(s.maps.data) ** 2).sum(axis=0)
    assert np.allclose(sos, 1.0, atol=1e-10)


def test_sens_smooth():
    s = make_sensitivities((32, 32), 4, seed=2)
    m = s.maps.data
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
    base = dict(shape=(16, 16), coils=2, accel=2.0, calib=(4, 4), n_train=2, n_val=1, n_test=1, seed=42)
    base.update(kw)
    return DatasetConfig(**base)


def test_dataset_noise_free_y_is_exact_forward():
    ds = build_dataset(small_cfg(noise_sigma=0.0))
    for c in ds.cases:
        op = c.operator()
        assert np.array_equal(c.y.data, op._forward(c.x.data))
        assert np.all(c.y.data[:, c.mask.data == 0] == 0)


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
        assert np.array_equal(a.sens.maps.data, b.sens.maps.data)


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
