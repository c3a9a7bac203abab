"""The benchmark's tracer patches melrecon functions by name; a rename in the
library must fail here, not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

from melrecon import mel, unrolled

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_trace_target_is_patched_and_restored():
    # the benchmark's drift check spies on mel's binding of the inversion
    assert mel.regularizer_invert is unrolled.regularizer_invert
    tracing = load_tracing()
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

