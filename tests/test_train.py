import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from melrecon import train
from melrecon.mel import l1_loss
from melrecon.mri import DatasetConfig, build_dataset
from melrecon.tensor import Tensor
from melrecon.train import (
    AdamState,
    MetricsReport,
    TrainConfig,
    adam_step,
    cg_sense,
    load_checkpoint,
    psnr,
    save_checkpoint,
    ssim,
    train_loop,
    train_steps,
)
from melrecon.unrolled import (
    RegularizerParams,
    UnrolledNetParams,
    lipschitz_bound,
    project_weights,
    regularizer_invert,
)

from oracles import central_diff


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def small_dataset(seed=0, n_train=2, accel=2.0, shape=(16, 16)):
    cfg = DatasetConfig(shape=shape, coils=2, accel=accel, calib=(4, 4), noise_sigma=0.0,
                        n_train=n_train, n_val=1, n_test=1, seed=seed)
    return build_dataset(cfg)


def tiny_net(seed=0, n_unrolls=2, channels=4, layers=2, mu=0.3, n_cg=20):
    reg = project_weights(RegularizerParams.init(channels=channels, layers=layers, seed=seed, scale=1.0))
    return UnrolledNetParams(reg, mu, n_unrolls, n_cg)


# --- l1 loss -------------------------------------------------------------------


def test_l1_zero_at_target():
    rng = np.random.default_rng(0)
    x = Tensor(crandn(rng, 4, 4))
    assert l1_loss(x, x)[0] == 0.0


def test_l1_constant_offset_is_one():
    rng = np.random.default_rng(1)
    t = Tensor(crandn(rng, 5, 5))
    x = Tensor(t.data + (1.0 + 0.0j))
    assert l1_loss(x, t)[0] == pytest.approx(1.0, abs=1e-15)


def test_l1_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    xa = crandn(rng, 4, 4)
    target = Tensor(crandn(rng, 4, 4))

    def loss_channels(ch):
        return l1_loss(Tensor(ch[0] + 1j * ch[1]), target)[0]

    g = l1_loss(Tensor(xa), target)[1].data
    fd = central_diff(loss_channels, np.stack([xa.real, xa.imag]).copy())
    got = np.stack([g.real, g.imag])
    assert np.abs(got - fd).max() <= 1e-6


def test_l1_shape_mismatch():
    with pytest.raises(ValueError):
        l1_loss(Tensor(np.zeros((2, 2), dtype=complex)), Tensor(np.zeros((3, 3))))


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


def test_import_does_not_load_scipy_ndimage():
    # only ssim needs scipy.ndimage, and its import is a noticeable share of
    # the package's start-up time
    src = str(Path(train.__file__).resolve().parents[1])
    code = "import sys, melrecon; print('scipy.ndimage' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


# --- baselines -------------------------------------------------------------------


def test_baselines_full_mask_recover_truth():
    from melrecon.mri import EncodingOperator, make_sensitivities

    rng = np.random.default_rng(9)
    xstar = crandn(rng, 8, 8)
    op = EncodingOperator(Tensor(np.ones((8, 8))), make_sensitivities((8, 8), 2, seed=1))
    y = op.forward(Tensor(xstar))
    zf = op.adjoint(y)
    assert np.linalg.norm(zf.data - xstar) <= 1e-10 * np.linalg.norm(xstar)
    lam = 1e-3
    cg = cg_sense(op, y, lam=lam, iters=50)
    assert np.linalg.norm(cg.data - xstar) <= lam * np.linalg.norm(xstar)
    exact = cg_sense(op, y, lam=0.0, iters=50)
    assert np.linalg.norm(exact.data - xstar) <= 1e-10 * np.linalg.norm(xstar)


def test_cg_sense_rejects_k_space_of_the_wrong_shape():
    # 3 frames and 3 coils: a [C, H, W] y would broadcast against the
    # [T, H, W] mask and come back a 2D image without the adjoint's check
    from melrecon.mri import EncodingOperator, make_kt_mask, make_sensitivities

    op = EncodingOperator(make_kt_mask((8, 8), frames=3, accel=2.0, seed=0), make_sensitivities((8, 8), 3, seed=1))
    y = Tensor(crandn(np.random.default_rng(11), 3, 8, 8))
    with pytest.raises(ValueError, match="k-space shape"):
        cg_sense(op, y)


@pytest.mark.parametrize("lam", [-1e-3, float("nan"), float("inf")])
def test_cg_sense_rejects_negative_or_non_finite_lam(lam):
    # NaN fails every comparison, so only a range check rejects it
    from melrecon.mri import EncodingOperator, make_sensitivities

    op = EncodingOperator(Tensor(np.ones((8, 8))), make_sensitivities((8, 8), 2, seed=1))
    with pytest.raises(ValueError, match="lam must be finite and >= 0"):
        cg_sense(op, Tensor(np.zeros((2, 8, 8), dtype=complex)), lam=lam)


def test_cg_sense_beats_zero_filled_when_undersampled():
    ds = small_dataset(seed=10, accel=3.0, shape=(24, 24))
    for c in ds.split("val"):
        op = c.operator()
        p_zf = psnr(op.adjoint(c.y), c.x)
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


def test_load_checkpoint_accepts_only_the_written_cg_exit(tmp_path):
    # manifests from before the CG exit and the residual gain became
    # constants store 1e-12 and 0.9
    net = tiny_net(seed=15)
    save_checkpoint(tmp_path / "ck", net)
    manifest = tmp_path / "ck" / "manifest.json"
    meta = json.loads(manifest.read_text())
    for key, written, other in (("cg_exit", 1e-12, 1e-6), ("contraction", 0.9, 0.5)):
        assert key not in meta
        manifest.write_text(json.dumps({**meta, key: written}))
        back, _ = load_checkpoint(tmp_path / "ck")
        assert (back.mu, back.n_unrolls, back.n_cg) == (net.mu, net.n_unrolls, net.n_cg)
        manifest.write_text(json.dumps({**meta, key: other}))
        with pytest.raises(ValueError, match=key):
            load_checkpoint(tmp_path / "ck")


def test_load_checkpoint_rejects_tampered_manifest(tmp_path):
    # too many channels, and too few layers: w1 is then 4 -> 4, not 4 -> 2
    save_checkpoint(tmp_path / "ck", tiny_net(seed=14, channels=4, layers=3))
    manifest = tmp_path / "ck" / "manifest.json"
    meta = json.loads(manifest.read_text())
    for key, value, match in (("channels", 8, "manifest expects"), ("layers", 2, "w1")):
        manifest.write_text(json.dumps({**meta, key: value}))
        with pytest.raises(ValueError, match=match):
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


class _NoWorker:
    def __init__(self):
        pytest.fail("a worker process started")


class _SendRecorder:
    def __init__(self):
        self.sent = []

    def send(self, request):
        self.sent.append(request)


def test_train_steps_rejects_unknown_engine_before_any_gradient(monkeypatch):
    # a misspelt engine name fails loudly instead of training with mel, and
    # before any worker starts or gets a request
    calls = []
    monkeypatch.setattr(train, "backprop_standard", lambda *a: calls.append("standard"))
    monkeypatch.setattr(train, "backprop_mel", lambda *a: calls.append("mel"))
    worker = _SendRecorder()
    monkeypatch.setattr(train, "_POOL", [worker])
    monkeypatch.setattr(train, "_Worker", _NoWorker)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    net = tiny_net(seed=12)
    with pytest.raises(ValueError, match="standrad"):
        train_steps(net, AdamState.init(net), batch_of(small_dataset(seed=12, n_train=3), 3), "standrad")
    assert calls == [] and worker.sent == []


# --- parallel batches --------------------------------------------------------------
# os.sched_getaffinity is what train_steps reads to size its worker pool:
# {0, 1} gives one worker on any host, {0} the one-process path.


def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def cine_net(seed):
    reg = project_weights(RegularizerParams.init(channels=4, layers=2, spatial_rank=3, seed=seed, scale=1.0))
    return UnrolledNetParams(reg, 0.3, 2, 10)


def cine_batch(seed, k):
    ds = build_dataset(DatasetConfig(shape=(16, 16), coils=2, accel=4.0, calib=(4, 4), noise_sigma=1e-3,
                                     n_train=k, n_val=1, n_test=1, seed=seed, kind="cine", frames=3))
    return batch_of(ds, k)


def three_steps(net, batch, engine):
    adam = AdamState.init(net)
    losses, peaks = [], []
    for _ in range(3):
        net, adam, loss, peak = train_steps(net, adam, batch, engine)
        losses.append(loss)
        peaks.append(peak)
    return net, adam, losses, peaks


def assert_same_steps(par, one):
    """``three_steps`` results equal bit for bit: losses, peaks, weights, Adam m/v."""
    (net_p, adam_p, loss_p, peak_p), (net_1, adam_1, loss_1, peak_1) = par, one
    assert loss_p == loss_1 and peak_p == peak_1
    for (k, a), (_, b) in zip(net_p.named_leaves(), net_1.named_leaves()):
        assert np.array_equal(a.data, b.data), k
        assert np.array_equal(adam_p.m[k], adam_1.m[k]) and np.array_equal(adam_p.v[k], adam_1.v[k]), k


@pytest.mark.parametrize("engine", ["standard", "mel"])
@pytest.mark.parametrize("kind, n_cases, cpus", [
    pytest.param("2d", 2, {0, 1}, id="2d-2"),
    pytest.param("2d", 3, {0, 1}, id="2d-3"),
    pytest.param("2d", 5, {0, 1, 2}, id="2d-5-3cpus"),
    pytest.param("cine", 2, {0, 1}, id="cine-2"),
])
def test_parallel_step_is_bit_identical_to_one_process(monkeypatch, engine, kind, n_cases, cpus):
    # the uneven splits: a batch of 3 on 2 processes gives the caller case 0
    # and the worker cases 1 and 2; a batch of 5 on 3 processes gives the
    # caller case 0 and the two workers cases 1-2 and 3-4, whose replies
    # must be summed in worker order
    if kind == "cine":
        net, batch = cine_net(seed=20), cine_batch(seed=20, k=n_cases)
    else:
        net, batch = tiny_net(seed=20), batch_of(small_dataset(seed=20, n_train=n_cases), n_cases)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    par = three_steps(net, batch, engine)
    assert len(train._POOL) >= len(cpus) - 1, "a worker did not run"
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one = three_steps(net, batch, engine)
    assert_same_steps(par, one)


def test_step_without_sched_getaffinity_counts_cpu_count(monkeypatch):
    # macOS and Windows have no os.sched_getaffinity: the step sizes its
    # pool from os.cpu_count() instead, and still equals the one-process step
    net, batch = tiny_net(seed=21), batch_of(small_dataset(seed=21), 2)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    par = three_steps(net, batch, "mel")
    assert train._POOL, "no worker ran"
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    one = three_steps(net, batch, "mel")
    assert_same_steps(par, one)


def non_contractive(net):
    """``net`` with its weights scaled to a Lipschitz bound of 30 and zero
    biases: a real case diverges in the mel inversion, while an all-zero
    case maps to zero in every unroll and passes."""
    f = (30.0 / lipschitz_bound(net.reg)) ** (1.0 / net.reg.layers)
    reg = RegularizerParams([Tensor(w.data * f) for w in net.reg.weights],
                            [Tensor(np.zeros_like(b.data)) for b in net.reg.biases])
    return UnrolledNetParams(reg, net.mu, net.n_unrolls, net.n_cg)


def zero_case(case):
    op, y, x = case
    return op, Tensor(np.zeros_like(y.data)), Tensor(np.zeros_like(x.data))


def test_worker_exception_reaches_the_caller(monkeypatch):
    # the worker's case diverges in the mel inversion; the caller's is the
    # zero case, so only the worker raises
    from melrecon.mel import backprop_mel
    from melrecon.unrolled import FixedPointDivergence

    two_cpus(monkeypatch)
    net = tiny_net(seed=16)
    batch = batch_of(small_dataset(seed=16))
    zero = zero_case(batch[0])
    bad = non_contractive(net)
    with pytest.raises(FixedPointDivergence) as want:
        backprop_mel(bad, *batch[1])
    with pytest.raises(FixedPointDivergence) as got:
        train_steps(bad, AdamState.init(bad), [zero, batch[1]], "mel")
    assert any("gradient worker process" in note for note in got.value.__notes__)
    assert str(got.value) == str(want.value)
    assert (got.value.unroll, got.value.residual) == (want.value.unroll, want.value.residual)
    assert got.value.unroll is not None
    _, adam, loss, _ = train_steps(net, AdamState.init(net), batch, "mel")
    assert math.isfinite(loss) and adam.t == 1


@pytest.mark.parametrize("zero_at", [0, 1], ids=["failing-1-2", "failing-0-2"])
def test_lowest_failing_case_wins_across_shares(monkeypatch, zero_at):
    # a batch of 3 on 2 processes: the caller takes case 0, the worker cases
    # 1 and 2. Whichever process holds the lowest failing case, its
    # exception is the one raised, as in one process.
    net = non_contractive(tiny_net(seed=16))
    batch = batch_of(small_dataset(seed=16))
    batch.insert(zero_at, zero_case(batch[0]))
    raised = []
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        with pytest.raises(Exception) as got:
            train_steps(net, AdamState.init(net), batch, "mel")
        raised.append((type(got.value), str(got.value)))
    assert raised[0] == raised[1]


class _ExitWhenUnpickled:
    def __init__(self, code):
        self.code = code

    def __reduce__(self):
        return os._exit, (self.code,)


def test_dead_worker_fails_the_step_and_the_next_step_starts_a_fresh_one(monkeypatch):
    two_cpus(monkeypatch)
    net = tiny_net(seed=17)
    batch = batch_of(small_dataset(seed=17))
    adam = AdamState.init(net)
    train_steps(net, adam, batch, "standard")
    # killed between steps
    dead = train._POOL[0].proc
    dead.kill()
    dead.wait(timeout=30)
    with pytest.raises(RuntimeError, match=rf"process {dead.pid} exited with code -9"):
        train_steps(net, adam, batch, "standard")
    # exits while it reads its request
    _, _, loss, _ = train_steps(net, adam, batch, "standard")
    dead = train._POOL[0].proc
    with pytest.raises(RuntimeError, match=rf"process {dead.pid} exited with code 3"):
        train_steps(net, adam, [batch[0], (_ExitWhenUnpickled(3),)], "standard")
    _, _, loss_after, _ = train_steps(net, adam, batch, "standard")
    assert train._POOL[0].proc.pid != dead.pid
    assert loss_after == loss


_TRAIN_ONE_BATCH = """
import os, sys
sys.path.insert(0, {src!r})
os.sched_getaffinity = lambda pid: {{0, 1}}
from melrecon import train
from melrecon.mri import DatasetConfig, build_dataset
from melrecon.unrolled import RegularizerParams, UnrolledNetParams, project_weights
ds = build_dataset(DatasetConfig(shape=(16, 16), coils=2, accel=2.0, calib=(4, 4), noise_sigma=0.0,
                                 n_train=2, n_val=1, n_test=1, seed=0))
net = UnrolledNetParams(project_weights(RegularizerParams.init(channels=4, layers=2, seed=0)), 0.3, 2, 10)
batch = [(c.operator(), c.y, c.x) for c in ds.split("train")]
train.train_steps(net, train.AdamState.init(net), batch, "standard")
print(train._POOL[0].proc.pid, flush=True)
"""


def train_one_batch_script(tmp_path, tail=""):
    # a plain script: no __main__ guard
    script = tmp_path / "train_one_batch.py"
    script.write_text(_TRAIN_ONE_BATCH.format(src=str(Path(train.__file__).resolve().parents[1])) + tail)
    return script


def test_script_without_main_guard_exits_and_reaps_its_worker(tmp_path):
    out = subprocess.run([sys.executable, str(train_one_batch_script(tmp_path))],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert not Path(f"/proc/{int(out.stdout)}").exists()  # not even a zombie


# Runs the script given as argv[1] as a child, SIGKILLs it once it has
# printed its worker's pid, then waits for the worker, which it inherits as
# the orphans' subreaper, to exit. Prints the worker's state from
# /proc/<pid>/stat: Z once it has exited; anything else after a minute.
_KILL_PARENT = """
import ctypes, os, subprocess, sys, time
prctl = ctypes.CDLL(None, use_errno=True).prctl
prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
prctl.restype = ctypes.c_int
if prctl(36, 1, 0, 0, 0) != 0:  # PR_SET_CHILD_SUBREAPER
    sys.exit(f"prctl: errno {ctypes.get_errno()}")
parent = subprocess.Popen([sys.executable, sys.argv[1]], stdout=subprocess.PIPE)
pid = int(parent.stdout.readline())
parent.kill()
parent.wait()
deadline = time.monotonic() + 60
while True:
    with open(f"/proc/{pid}/stat") as f:
        state = f.read().rsplit(")", 1)[1].split()[0]
    if state == "Z" or time.monotonic() > deadline:
        break
    time.sleep(0.05)
if state != "Z":
    os.kill(pid, 9)
os.waitpid(pid, 0)
print(state)
"""


def test_killed_parent_leaves_no_running_worker(tmp_path):
    script = train_one_batch_script(tmp_path, tail="import time\ntime.sleep(600)\n")
    out = subprocess.run([sys.executable, "-c", _KILL_PARENT, str(script)], capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["Z"]


def test_empty_batch_is_rejected(monkeypatch):
    monkeypatch.setattr(train, "_Worker", _NoWorker)
    net = tiny_net(seed=12)
    with pytest.raises(ValueError, match="empty"):
        train_steps(net, AdamState.init(net), [], "standard")


@pytest.mark.parametrize("cpus, n_cases", [({0, 1}, 1), ({0}, 2)])
def test_no_worker_starts_for_one_case_or_one_cpu(monkeypatch, cpus, n_cases):
    monkeypatch.setattr(train, "_POOL", [])
    monkeypatch.setattr(train, "_Worker", _NoWorker)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    net = tiny_net(seed=12)
    _, _, loss, _ = train_steps(net, AdamState.init(net), batch_of(small_dataset(seed=12), n_cases), "standard")
    assert math.isfinite(loss) and train._POOL == []


def test_twin_engines_track_for_three_steps():
    ds = small_dataset(seed=13)
    batch = batch_of(ds)
    nets = {}
    for engine in ("standard", "mel"):
        net = tiny_net(seed=13)
        adam = AdamState.init(net)
        for _ in range(3):
            net, adam, _, _ = train_steps(net, adam, batch, engine)
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
            n, a, loss, _ = train_steps(n, a, batch, engine)
            losses.append(loss)
        trajectories[engine] = losses
    for ls, lm in zip(trajectories["standard"], trajectories["mel"]):
        assert abs(ls - lm) <= 1e-4 * abs(ls)


def test_train_loop_smoke_and_determinism(tmp_path):
    from melrecon.mri import save_dataset

    ds = small_dataset(seed=15)
    data_dir = save_dataset(ds, tmp_path / "data")
    cfg = TrainConfig(
        data=str(data_dir), out=str(tmp_path / "run_a"),
        epochs=2, batch_size=2, seed=3, lr=1e-3, unrolls=2, cg_iters=10, mu=0.3,
        channels=4, layers=2, engine="standard", val_every=2,
    )
    res_a = train_loop(cfg)
    assert res_a.checkpoint_dir.exists() and res_a.log_path.exists()
    assert len(res_a.log_rows) == 2
    assert all(math.isfinite(float(r[3])) for r in res_a.log_rows)

    cfg_b = TrainConfig(**{**cfg.__dict__, "out": str(tmp_path / "run_b")})
    res_b = train_loop(cfg_b)
    assert [r[3] for r in res_a.log_rows] == [r[3] for r in res_b.log_rows]
    assert res_a.best_val_psnr == res_b.best_val_psnr


def test_nan_psnr_is_not_a_perfect_score(tmp_path, monkeypatch):
    # exact matches (+inf) are left out of the mean; a NaN is not
    assert MetricsReport("m", ["a", "b"], [math.inf, 30.0], [1.0, 0.5]).mean_psnr == 30.0
    assert MetricsReport("m", ["a"], [math.inf], [1.0]).mean_psnr == math.inf
    for ps in ([math.nan, math.nan], [math.inf, math.nan], [30.0, math.nan]):
        assert math.isnan(MetricsReport("m", ["a", "b"], ps, [0.0, 0.0]).mean_psnr)

    # a run whose validation gives NaN keeps no checkpoint and fails; its log
    # reads nan where validation ran and is blank where it did not
    from melrecon.mri import save_dataset

    data_dir = save_dataset(small_dataset(seed=15), tmp_path / "data")
    monkeypatch.setattr(train, "psnr", lambda x, ref: math.nan)
    cfg = train_config(data=str(data_dir), out=str(tmp_path / "run"), epochs=2, batch_size=2,
                       cg_iters=10, val_every=2)
    with pytest.raises(ValueError, match="no checkpoint written"):
        train_loop(cfg)
    assert not (tmp_path / "run" / "checkpoint_best").exists()
    log = (tmp_path / "run" / "train_log.csv").read_text().splitlines()
    assert [row.split(",")[4] for row in log[1:]] == ["", "nan"]


def train_config(**kw) -> TrainConfig:
    cfg = dict(data="x", out="y", epochs=1, batch_size=1, seed=0, lr=1e-3, unrolls=1, cg_iters=1,
               mu=0.3, channels=4, layers=2, engine="standard", val_every=1)
    return TrainConfig(**{**cfg, **kw})


def test_train_config_validation():
    train_config()
    with pytest.raises(ValueError):
        train_config(engine="sgd")
    with pytest.raises(ValueError):
        train_config(epochs=0)


@pytest.mark.parametrize("key,value", [("mu", float("nan")), ("lr", float("nan")), ("lr", float("inf")),
                                       ("mu", float("inf")), ("epochs", float("nan"))])
def test_train_config_rejects_non_finite_settings(key, value):
    # NaN fails ``v <= 0`` as it fails ``v > 0``, so only the latter catches it
    with pytest.raises(ValueError, match=f"{key} must be positive and finite"):
        train_config(**{key: value})


@pytest.mark.parametrize("tol", [0.0, -1e-10, float("inf"), float("nan")])
def test_nonpositive_invert_tol_is_rejected(tol):
    # a tolerance no fixed-point iteration can reach is a caller's error,
    # not a FixedPointDivergence blamed on the contraction; an infinite one
    # would accept the first iterate
    net = tiny_net(seed=6)
    z = Tensor(crandn(np.random.default_rng(6), 8, 8))
    with pytest.raises(ValueError, match="tolerance"):
        regularizer_invert(net.reg, z, tol=tol)
