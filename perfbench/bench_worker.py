"""One cold run of one benchmark workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/bench_worker.py --workload gl-shadow --seed 1

Prints one JSON object: when ``import qtransfer`` finished on the monotonic
clock, which the parent turns into set-up time, and the reference slice
time right after it; the checks attempted and failed; the time of the
whole case set and of its slowest case, raw and calibrated (see
``CalibratedClock``); and the peak resident memory.  With ``--trace-out``
the run is traced, the spans are written to that file and the per-layer
metrics are added.  ``--import-only`` stops after the import.  Everything
but ``time`` is imported after ``qtransfer``, so the set-up time is the
package's own.
"""

import time

import qtransfer

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

from qtransfer.algebra import orbit  # noqa: E402
from qtransfer.finitegl import BudgetError, cached_group  # noqa: E402
from qtransfer.finitegl.fqmat import monic_irreducibles, rref_subspaces  # noqa: E402
from qtransfer.weylcomb import EnumerationBudgetError, all_perms  # noqa: E402

import bench_cases  # noqa: E402
from bench_metrics import REF_SECONDS  # noqa: E402
import bench_trace  # noqa: E402

# public memo caches that a cold process starts with empty
PUBLIC_CACHES = (cached_group, all_perms, orbit, rref_subspaces, monic_irreducibles)

REFUSALS = ((BudgetError, "finitegl"), (EnumerationBudgetError, "weylcomb"))

REF_ITERATIONS = 250
SAMPLE_PERIOD_S = 0.05


class WarmStart(RuntimeError):
    """A public cache held entries before the first case ran."""


def assert_cold() -> None:
    warm = [fn.__qualname__ for fn in PUBLIC_CACHES if fn.cache_info().currsize]
    if warm:
        raise WarmStart(f"caches not empty at the start of the run: {warm}")


def reference_slice() -> float:
    """Time one fixed slice of plain-Python work that uses no qtransfer code:
    Fraction sums, small tuples and a dict, as in the package's hot loops."""
    started = time.perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(1, REF_ITERATIONS):
        acc += Fraction(i % 97, i % 13 + 1)
        key = tuple(j * i % 7 for j in range(6))
        seen[key] = seen.get(key, 0) + 1
    return time.perf_counter() - started


class CalibratedClock:
    """Case time in seconds at reference speed.

    While the clock runs, a timer signal every SAMPLE_PERIOD_S runs a
    reference slice and takes the core's speed as REF_SECONDS over the
    slice's time.  Time between two samples is scaled by the mean of their
    speeds; the slices themselves are left out of both raw and calibrated
    time.  In a traced run a slice's time counts in the span it interrupts.
    """

    def __init__(self):
        self.raw = 0.0
        self.calibrated = 0.0

    def __enter__(self) -> "CalibratedClock":
        self._speed = REF_SECONDS / reference_slice()
        self._last = time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        now = time.perf_counter()
        speed = REF_SECONDS / reference_slice()
        self.raw += now - self._last
        self.calibrated += (now - self._last) * (self._speed + speed) / 2
        self._speed = speed
        self._last = time.perf_counter()

    def now(self) -> tuple[float, float]:
        """(raw, calibrated) seconds since the clock started."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            elapsed = time.perf_counter() - self._last
            return self.raw + elapsed, self.calibrated + elapsed * self._speed
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


def run_cases(cases, tracer=None) -> dict:
    """Run every case once, in order; a check that is unequal, raises or is
    refused by a budget counts as failed.  Times are calibrated."""
    failures = []
    refusals = Counter()
    slowest = (0.0, "")
    with CalibratedClock() as clock:
        root = tracer.open(bench_trace.ROOT_SPAN) if tracer else None
        for case in cases:
            frame = tracer.open(bench_trace.CASE_SPAN) if tracer else None
            started = clock.now()[1]
            try:
                ok = case.check() is True
                reason = "unequal"
            except Exception as exc:  # every fault of a case is a failed check
                ok = False
                reason = f"{type(exc).__name__}: {exc}"
                refused = [layer for kind, layer in REFUSALS if isinstance(exc, kind)]
                refusals.update(refused)
                if not refused:
                    traceback.print_exc(file=sys.stderr)
            slowest = max(slowest, (clock.now()[1] - started, case.label))
            if tracer:
                tracer.close(frame)
            if not ok:
                failures.append(f"{case.label}: {reason}")
        if tracer:
            tracer.close(root)
        raw_wall, wall = clock.now()
    return {
        "attempted": len(cases),
        "failed": len(failures),
        "failures": failures[:20],
        "refusals": dict(refusals),
        "wall_s": wall,
        "raw_wall_s": raw_wall,
        "max_case_s": slowest[0],
        "max_case": slowest[1],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(bench_cases.WORKLOAD_CASES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=bench_cases.SIZES, default="full")
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args(argv)
    setup_ref = statistics.median(reference_slice() for _ in range(5))
    if args.import_only:
        print(json.dumps({"imported_at": IMPORTED_AT, "setup_ref_s": setup_ref}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    assert_cold()
    cases = bench_cases.build(args.workload, args.seed, args.size)
    if args.trace_out is None:
        result = run_cases(cases)
    else:
        tracer = bench_trace.Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
        with bench_trace.installed(tracer):
            result = run_cases(cases, tracer)
        tracer.write(args.trace_out)
        result["layers"] = tracer.metrics(Counter(result["refusals"]))
    result["imported_at"] = IMPORTED_AT
    result["setup_ref_s"] = setup_ref
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
