"""melrecon benchmark: closed-loop training and reconstruction workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout and nowhere else. One client sends each request after the
previous one completes; the benchmark starts no threads or processes of its
own, and OpenBLAS keeps its default thread count, which is recorded.

``--trace 0`` reports the end-to-end metrics with tracing off. ``--trace 1``
runs untraced for part of the time (for the tracing overhead), then traced,
and reports per-layer metrics per request. The last stdout line is the
result object; the line before it is a report with the environment, the
workload's reason to exist and the sample counts. Reports and spans are also
written to ``.bench_out/``.
"""

import argparse
import ctypes
import json
import os
import platform
import statistics
import sys
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

T_START = perf_counter()  # setup_s includes importing melrecon

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
UNTRACED_SHARE = 0.4  # of a traced run's seconds, run untraced to measure the tracing overhead

END_TO_END = {
    "setup_s": "s",
    "cases_per_s": "cases/s",
    "request_s_p90": "s",
    "peak_heap_bytes": "B",
    "psnr_db": "dB",
}


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".iters", "fp_iters", "fft_points")):
        return "count"
    if name.endswith(".flops"):
        return "flop"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("bytes"):
        return "B"
    return "ratio"


@dataclass
class Loop:
    latencies: list[float] = field(default_factory=list)
    cases: int = 0
    attempted: int = 0
    failed: int = 0
    peak_tape_bytes: int = 0

    @property
    def cases_per_s(self) -> float:
        busy = sum(self.latencies)
        return self.cases / busy if busy else 0.0


def timed_loop(wl, seconds: float, tracer=None, first_id: int = 0) -> Loop:
    """Closed loop in whole request cycles until ``seconds`` pass, so every
    run measures the same mix of requests. A request that raises or fails
    its check counts as failed and the loop goes on."""
    lp = Loop()
    deadline = perf_counter() + seconds
    while lp.attempted == 0 or wl.done % wl.cycle or perf_counter() < deadline:
        if tracer is not None:
            tracer.request = first_id + lp.attempted
        lp.attempted += 1
        try:
            dt, cases, ok, peak = wl.request()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            lp.failed += 1
            continue
        if not ok:
            print(f"request {lp.attempted - 1}: output check failed", file=sys.stderr)
            lp.failed += 1
            continue
        lp.latencies.append(dt)
        lp.cases += cases
        lp.peak_tape_bytes = max(lp.peak_tape_bytes, peak)
    if tracer is not None:
        tracer.request = -1
    return lp


def blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def plain_run(wl, args, import_s: float):
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        wl.setup(args.seed)
        setups.append(perf_counter() - t0)
    lp = timed_loop(wl, args.seconds)
    psnr_db = wl.psnr_db()
    tracemalloc.start()
    try:
        wl.heap_request()
        heap = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lat = lp.latencies
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "cases_per_s": lp.cases_per_s,
        "request_s_p90": statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else 0.0,
        "peak_heap_bytes": float(heap),
        "psnr_db": psnr_db,
    }
    units = END_TO_END
    # The median flips between the host's fast and slow states from run to
    # run, so it is reported here rather than gated as a result metric.
    ungated = {"request_s_p50": {"value": statistics.median(lat) if lat else 0.0, "unit": "s"}}
    report = {"import_s": import_s, "setup_runs_s": setups, "requests": len(lat),
              "beyond_p90": sum(x > metrics["request_s_p90"] for x in lat), "ungated": ungated,
              "latencies_s": lat}
    return lp, metrics, units, report


def traced_run(wl, args, import_s: float):
    from tracing import Tracer, check_fired

    wl.setup(args.seed)
    untraced = timed_loop(wl, args.seconds * UNTRACED_SHARE)
    tracer = Tracer()
    tracer.install()
    try:
        traced = timed_loop(wl, args.seconds * (1 - UNTRACED_SHARE), tracer, untraced.attempted)
    finally:
        tracer.uninstall()
    check_fired(tracer, wl.expect)
    metrics = tracer.summary(traced.attempted, wl.layers)
    metrics.update({"grad_gap": 0.0, "mel.x0_drift": 0.0})
    metrics.update(wl.check())
    metrics["peak_tape_bytes"] = float(max(untraced.peak_tape_bytes, traced.peak_tape_bytes))
    metrics["trace.overhead"] = untraced.cases_per_s / traced.cases_per_s if traced.cases_per_s else 0.0
    spans = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.json"
    tracer.write(spans)
    lp = Loop(untraced.latencies + traced.latencies, untraced.cases + traced.cases,
              untraced.attempted + traced.attempted, untraced.failed + traced.failed)
    units = {k: layer_unit(k) for k in metrics}
    report = {"untraced_cases_per_s": untraced.cases_per_s, "traced_cases_per_s": traced.cases_per_s,
              "traced_requests": traced.attempted, "spans": len(tracer.name), "spans_file": str(spans.relative_to(ROOT)),
              "zero": sorted(k for k, v in metrics.items() if v == 0)}
    return lp, metrics, units, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "melrecon" / "__init__.py").is_file():
        print(f"error: no melrecon package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import melrecon

    if Path(melrecon.__file__).resolve().parent != (src / "melrecon").resolve():
        print(f"error: imported melrecon from {melrecon.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    import_s = perf_counter() - T_START

    run = traced_run if args.trace else plain_run
    lp, metrics, units, report = run(wl, args, import_s)

    report.update({"workload": wl.name, "why": wl.why, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "client": "closed loop, 1 client", "environment": environment(),
                   "metrics": metrics})
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"report-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": lp.failed == 0 and lp.attempted > 0,
        "attempted": lp.attempted,
        "failed": lp.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
