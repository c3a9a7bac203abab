import json
import math

import numpy as np
import pytest

from melrecon import train
from melrecon.autodiff import Tape, apply_op
from melrecon.mri import DatasetConfig, build_dataset
from melrecon.tensor import Tensor
from melrecon.train import (
    AdamState,
    TrainConfig,
    adam_step,
    cg_sense,
    load_checkpoint,
    psnr,
    save_checkpoint,
    ssim,
    train_loop,
    train_steps,
    zero_filled,
)
from melrecon.unrolled import RegularizerParams, UnrolledNetParams, lipschitz_bound, project_weights

from oracles import central_diff


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def small_dataset(seed=0, n_train=2, accel=2.0, shape=(16, 16)):
    cfg = DatasetConfig(shape=shape, coils=2, accel=accel, calib=(4, 4),
                        n_train=n_train, n_val=1, n_test=1, seed=seed)
    return build_dataset(cfg)


def tiny_net(seed=0, n_unrolls=2, channels=4, layers=2, mu=0.3, n_cg=20):
    reg = project_weights(RegularizerParams.init(channels=channels, layers=layers, seed=seed, scale=1.0))
    return UnrolledNetParams(reg, mu, n_unrolls, n_cg)


# --- l1 loss -------------------------------------------------------------------


def test_l1_zero_at_target():
    rng = np.random.default_rng(0)
    x = Tensor(crandn(rng, 4, 4))
    assert apply_op("l1", x, target=x.data).item() == 0.0


def test_l1_constant_offset_is_one():
    rng = np.random.default_rng(1)
    t = Tensor(crandn(rng, 5, 5))
    x = Tensor(t.data + (1.0 + 0.0j))
    assert apply_op("l1", x, target=t.data).item() == pytest.approx(1.0, abs=1e-15)


def test_l1_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    xa = crandn(rng, 4, 4)
    target = Tensor(crandn(rng, 4, 4))

    def loss_channels(ch):
        return apply_op("l1", Tensor(ch[0] + 1j * ch[1]), target=target.data).item()

    x = Tensor(xa)
    tape = Tape()
    tape.watch(x)
    out = tape.record("l1", x, target=target.data)
    g = tape.backward(out, Tensor(1.0), [x])[x.alloc_id].data
    fd = central_diff(loss_channels, np.stack([xa.real, xa.imag]).copy())
    got = np.stack([g.real, g.imag])
    assert np.abs(got - fd).max() <= 1e-6


def test_l1_shape_mismatch():
    with pytest.raises(ValueError):
        apply_op("l1", Tensor(np.zeros((2, 2), dtype=complex)), target=np.zeros((3, 3)))


# --- adam ----------------------------------------------------------------------


def zero_grads(net):
    return {k: Tensor(np.zeros(t.shape)) for k, t in net.named_leaves()}


def test_adam_zero_gradients_leave_params():
    net = tiny_net()
    st = AdamState.init(net, lr=1e-3)
    st2, net2 = adam_step(st, net, zero_grads(net))
    assert st2.t == 1
    for (k, a), (_, b) in zip(net.named_leaves(), net2.named_leaves()):
        assert np.array_equal(a.data, b.data), k


def test_adam_first_step_unit_gradient():
    net = tiny_net()
    lr = 1e-3
    st = AdamState.init(net, lr=lr)
    grads = zero_grads(net)
    grads["b0"].data[0] = 1.0
    _, net2 = adam_step(st, net, grads)
    moved = net2.reg.biases[0].data[0] - net.reg.biases[0].data[0]
    assert moved == pytest.approx(-lr / (1 + 1e-8), rel=1e-9)
    assert np.array_equal(net2.reg.biases[0].data[1:], net.reg.biases[0].data[1:])


def test_adam_projection_applied():
    net = tiny_net()
    st = AdamState.init(net, lr=0.5)  # huge lr to blow past the bound
    rng = np.random.default_rng(3)
    grads = {k: Tensor(rng.standard_normal(t.shape)) for k, t in net.named_leaves()}
    for _ in range(10):
        st, net = adam_step(st, net, grads)
    assert lipschitz_bound(net.reg) <= 0.95


def test_adam_deterministic_across_engines():
    net = tiny_net()
    st = AdamState.init(net)
    rng = np.random.default_rng(4)
    grads = {k: Tensor(rng.standard_normal(t.shape)) for k, t in net.named_leaves()}
    _, a = adam_step(st, net, grads)
    _, b = adam_step(AdamState.init(net), net, grads)
    for (k, ta), (_, tb) in zip(a.named_leaves(), b.named_leaves()):
        assert np.array_equal(ta.data, tb.data), k


# --- metrics --------------------------------------------------------------------


def test_psnr_exact_match_is_infinite():
    rng = np.random.default_rng(5)
    x = Tensor(crandn(rng, 8, 8))
    assert math.isinf(psnr(x, x))
    assert ssim(x, x) == pytest.approx(1.0, abs=1e-12)


def test_psnr_formula_30db():
    ref = np.zeros((8, 8))
    ref[4, 4] = 1.0
    x = ref + 10 ** (-1.5)
    got = psnr(Tensor(x), Tensor(ref))
    assert got == pytest.approx(30.0, abs=1e-9)


def test_psnr_scale_consistent():
    rng = np.random.default_rng(6)
    x = crandn(rng, 8, 8)
    ref = crandn(rng, 8, 8)
    p1 = psnr(Tensor(x), Tensor(ref))
    p2 = psnr(Tensor(3.7 * x), Tensor(3.7 * ref))
    assert abs(p1 - p2) <= 1e-9


def test_psnr_rejects_zero_reference():
    with pytest.raises(ValueError):
        psnr(Tensor(np.ones((4, 4), dtype=complex)), Tensor(np.zeros((4, 4), dtype=complex)))


def test_ssim_checkerboard_inverse_is_low():
    i, j = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
    board = ((i + j) % 2).astype(float)
    s = ssim(Tensor(board), Tensor(1.0 - board))
    assert s < 0.1


def test_ssim_in_valid_range_and_matches_skimage():
    skimage = pytest.importorskip("skimage.metrics")
    rng = np.random.default_rng(7)
    from scipy.ndimage import gaussian_filter

    a = gaussian_filter(rng.random((32, 32)), 2.0)
    b = a + 0.05 * gaussian_filter(rng.standard_normal((32, 32)), 1.0)
    got = ssim(Tensor(a), Tensor(b))
    want = skimage.structural_similarity(
        a, np.abs(b), win_size=7, gaussian_weights=False, data_range=np.abs(b).max(), K1=0.01, K2=0.03
    )
    assert -1.0 <= got <= 1.0
    assert got == pytest.approx(want, abs=1e-7)


def test_ssim_cine_averages_frames():
    rng = np.random.default_rng(8)
    x = crandn(rng, 3, 16, 16)
    s = ssim(Tensor(x), Tensor(x))
    assert s == pytest.approx(1.0, abs=1e-12)


# --- baselines -------------------------------------------------------------------


def test_baselines_full_mask_recover_truth():
    from melrecon.mri import EncodingOperator, SamplingMask, make_sensitivities

    rng = np.random.default_rng(9)
    xstar = crandn(rng, 8, 8)
    op = EncodingOperator(SamplingMask(np.ones((8, 8)), 1.0, (0, 0)), make_sensitivities((8, 8), 2, seed=1))
    y = op.forward(Tensor(xstar))
    zf = zero_filled(op, y)
    assert np.linalg.norm(zf.data - xstar) <= 1e-10 * np.linalg.norm(xstar)
    lam = 1e-3
    cg = cg_sense(op, y, lam=lam, iters=50)
    assert np.linalg.norm(cg.data - xstar) <= lam * np.linalg.norm(xstar)
    exact = cg_sense(op, y, lam=0.0, iters=50)
    assert np.linalg.norm(exact.data - xstar) <= 1e-10 * np.linalg.norm(xstar)


def test_cg_sense_beats_zero_filled_when_undersampled():
    ds = small_dataset(seed=10, accel=3.0, shape=(24, 24))
    for c in ds.split("val"):
        op = c.operator()
        p_zf = psnr(zero_filled(op, c.y), c.x)
        p_cg = psnr(cg_sense(op, c.y), c.x)
        assert p_cg >= p_zf


# --- checkpoints ------------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path):
    net = tiny_net(seed=11)
    save_checkpoint(tmp_path / "ck", net, seed=11, step=7, extra={"val_psnr": 21.5})
    back, meta = load_checkpoint(tmp_path / "ck")
    assert meta["step"] == 7 and meta["mu"] == net.mu and meta["val_psnr"] == 21.5
    for (k, a), (_, b) in zip(net.named_leaves(), back.named_leaves()):
        assert np.array_equal(a.data, b.data), k


def test_checkpoint_save_is_atomic(tmp_path, monkeypatch):
    first = tiny_net(seed=12)
    save_checkpoint(tmp_path / "ck", first, step=1)
    calls = []
    real_write = train.melt_write

    def failing_write(path, t):
        calls.append(path)
        if len(calls) == 2:
            raise OSError("disk full")
        real_write(path, t)

    monkeypatch.setattr(train, "melt_write", failing_write)
    with pytest.raises(OSError):
        save_checkpoint(tmp_path / "ck", tiny_net(seed=13), step=2)
    assert len(calls) == 2
    back, meta = load_checkpoint(tmp_path / "ck")
    assert meta["step"] == 1
    for (k, a), (_, b) in zip(first.named_leaves(), back.named_leaves()):
        assert np.array_equal(a.data, b.data), k
    assert [p.name for p in tmp_path.iterdir()] == ["ck"]


def test_checkpoint_save_recovers_interrupted_swap(tmp_path, monkeypatch):
    save_checkpoint(tmp_path / "ck", tiny_net(seed=12), step=1)
    (tmp_path / "ck").rename(tmp_path / ".ck.old")  # crash between the two renames

    def failing_write(path, t):
        raise OSError("disk full")

    monkeypatch.setattr(train, "melt_write", failing_write)
    with pytest.raises(OSError):
        save_checkpoint(tmp_path / "ck", tiny_net(seed=13), step=2)
    assert load_checkpoint(tmp_path / "ck")[1]["step"] == 1


def test_load_checkpoint_rejects_tampered_manifest(tmp_path):
    save_checkpoint(tmp_path / "ck", tiny_net(seed=14, channels=4, layers=3))
    manifest = tmp_path / "ck" / "manifest.json"
    meta = json.loads(manifest.read_text())
    meta["channels"] = 8
    manifest.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="manifest expects"):
        load_checkpoint(tmp_path / "ck")


# --- training loop ----------------------------------------------------------------


def batch_of(ds, k=2):
    return [(c.operator(), c.y, c.x) for c in ds.split("train")[:k]]


def test_train_steps_smoke():
    ds = small_dataset(seed=12)
    net = tiny_net(seed=12)
    adam = AdamState.init(net)
    net2, adam2, loss, peak = train_steps(net, adam, batch_of(ds), "standard")
    assert math.isfinite(loss) and loss > 0
    assert peak > 0 and adam2.t == 1


def test_twin_engines_track_for_three_steps():
    ds = small_dataset(seed=13)
    batch = batch_of(ds)
    nets = {}
    for engine in ("standard", "mel"):
        net = tiny_net(seed=13)
        adam = AdamState.init(net)
        for _ in range(3):
            net, adam, _, _ = train_steps(net, adam, batch, engine, invert_tol=1e-12)
        nets[engine] = net
    for (k, a), (_, b) in zip(nets["standard"].named_leaves(), nets["mel"].named_leaves()):
        denom = max(np.abs(a.data).max(), 1e-12)
        assert np.abs(a.data - b.data).max() <= 1e-5 * denom, k


def test_engine_handoff_keeps_loss_trajectory():
    ds = small_dataset(seed=14)
    batch = batch_of(ds)
    net = tiny_net(seed=14)
    adam = AdamState.init(net)
    for _ in range(2):
        net, adam, _, _ = train_steps(net, adam, batch, "standard")

    trajectories = {}
    for engine in ("standard", "mel"):
        n, a = net, adam
        losses = []
        for _ in range(3):
            n, a, loss, _ = train_steps(n, a, batch, engine, invert_tol=1e-12)
            losses.append(loss)
        trajectories[engine] = losses
    for ls, lm in zip(trajectories["standard"], trajectories["mel"]):
        assert abs(ls - lm) <= 1e-4 * abs(ls)


def test_train_loop_smoke_and_determinism(tmp_path):
    from melrecon.mri import save_dataset

    ds = small_dataset(seed=15)
    data_dir = save_dataset(ds, tmp_path / "data")
    cfg = TrainConfig(
        dataset_dir=str(data_dir), out_dir=str(tmp_path / "run_a"),
        epochs=2, batch_size=2, seed=3, lr=1e-3,
        n_unrolls=2, n_cg=10, mu=0.3, channels=4, layers=2, val_every=2,
    )
    res_a = train_loop(cfg)
    assert res_a.checkpoint_dir.exists() and res_a.log_path.exists()
    assert len(res_a.log_rows) == 2
    assert all(math.isfinite(float(r[3])) for r in res_a.log_rows)

    cfg_b = TrainConfig(**{**cfg.__dict__, "out_dir": str(tmp_path / "run_b")})
    res_b = train_loop(cfg_b)
    assert [r[3] for r in res_a.log_rows] == [r[3] for r in res_b.log_rows]
    assert res_a.best_val_psnr == res_b.best_val_psnr


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(dataset_dir="x", out_dir="y", engine="sgd")
    with pytest.raises(ValueError):
        TrainConfig(dataset_dir="x", out_dir="y", epochs=0)
