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
