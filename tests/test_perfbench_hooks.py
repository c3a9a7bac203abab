"""The benchmark's tracer patches melrecon functions by name; a rename in the
library, or a refactor that stops a traced layer from running, must fail
here, not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

import pytest

from melrecon import mel, unrolled

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_trace_target_is_patched_and_restored():
    # the benchmark's drift check spies on mel's binding of the inversion
    assert mel.regularizer_invert is unrolled.regularizer_invert
    tracing = load_perfbench("tracing")
    tracer = tracing.Tracer()
    originals = {name: getattr(owner, attr) for name, owner, attr, _ in tracing.TARGETS}
    tracer.install()
    try:
        for name, owner, attr, _ in tracing.TARGETS:
            assert getattr(owner, attr).__wrapped__ is originals[name], name
        assert mel.regularizer_invert is unrolled.regularizer_invert
    finally:
        tracer.uninstall()
    for name, owner, attr, _ in tracing.TARGETS:
        assert getattr(owner, attr) is originals[name], name


@pytest.mark.parametrize("workload", sorted(load_perfbench("workloads").WORKLOADS))
def test_traced_request_fires_every_expected_span(workload):
    # what ``run.py --trace 1`` checks before it reports: one request of the
    # workload under the tracer must run every span in its ``expect`` set
    tracing = load_perfbench("tracing")
    wl = load_perfbench("workloads").WORKLOADS[workload]()
    wl.setup(7)
    tracer = tracing.Tracer()
    tracer.request = 0
    tracer.install()
    try:
        _, _, ok, _ = wl.request()
    finally:
        tracer.uninstall()
    assert ok
    tracing.check_fired(tracer, wl.expect)  # raises SystemExit(3) naming the missing spans


@pytest.mark.parametrize("workload,calls", [
    ("train-mel-deep", {"autodiff.record": 20, "autodiff.backward": 20, "unrolled.regularizer_invert": 20,
                        "unrolled.dc_invert": 20}),
    ("train-standard-shallow", {"autodiff.record": 8, "autodiff.backward": 8}),
])
def test_traced_training_request_attributes_spans_to_its_engine(monkeypatch, workload, calls):
    # with one usable CPU both cases of the batch run in the caller, under the
    # tracer: mel records, pops and inverts each of its 10 unrolls once per
    # case and every mel phase gets time; standard records and pops 4 per
    # case and never enters mel's span
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0})
    tracing = load_perfbench("tracing")
    wl = load_perfbench("workloads").WORKLOADS[workload]()
    wl.setup(7)
    tracer = tracing.Tracer()
    tracer.request = 0
    tracer.install()
    try:
        _, cases, ok, _ = wl.request()
    finally:
        tracer.uninstall()
    assert ok and cases == 2
    m = tracer.summary(1, wl.layers)
    assert {name: m[f"{name}.calls"] for name in calls} == calls
    if wl.engine == "mel":
        for phase in ("invert_dc", "invert_reg", "rebuild", "backward"):
            assert m[f"mel.phase.{phase}_s"] > 0, phase
    else:
        assert m["mel.backprop_mel.s"] == 0
