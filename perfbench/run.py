"""Benchmark of qtransfer: time to a verified answer, in cold processes.

    python3 perfbench/run.py --workload gl-shadow --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
One client runs a closed loop: it starts a fresh interpreter, which imports
``qtransfer`` with every cache empty, verifies the workload's whole case
set once and exits; then it starts the next, until ``--seconds`` is used
up.  Each case is one exact check of two independent paths (see
``bench_cases.py``); a run whose checks do not all pass, or that attempts
fewer checks than the workload's fixed count, reports ``correct: false``
and exits with 1.

With ``--trace 0`` the run reports, per workload, the medians over its
processes of

* ``wall_s``      time to verify the whole case set, after import;
* ``max_case_s``  time of the slowest single case;
* ``setup_s``     interpreter start plus ``import qtransfer``, also taken
                  from extra import-only starts;
* ``peak_rss_mb`` peak resident memory of the process;

and prints ``fail_share`` (failed over attempted checks) beside them.
With ``--trace 1`` it alternates untraced and traced processes and reports
the per-layer metrics of ``bench_trace.py``, whose spans it writes under
``.perfbench_out/``.  The last line of the output is one JSON object with
the run's metrics; the line before it holds the uncalibrated medians of
``wall_s`` and ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_metrics import END_TO_END, EXPECTED_CHECKS, PER_LAYER, REF_SECONDS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKER = HERE / "bench_worker.py"

SETUP_STARTS = 8  # import-only starts per run, for setup_s
MIN_PROCESSES = 3  # cold processes per untraced run, even past --seconds
CHILD_TIMEOUT_S = 150


class RunFailed(RuntimeError):
    """A benchmark process failed or printed no result."""


def spawn(args: list[str], timeout: float) -> dict:
    """Run one worker process to completion and return its JSON result,
    with ``setup_s`` (start to end of import) and ``elapsed_s`` added."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"worker {args} ran past {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunFailed(f"worker {args} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["raw_setup_s"] = result["imported_at"] - started
    result["setup_s"] = result["raw_setup_s"] * REF_SECONDS / result["setup_ref_s"]
    result["elapsed_s"] = time.monotonic() - started
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full") -> dict:
    """One benchmark run; returns the result object printed last."""
    deadline = time.monotonic() + seconds
    budget_end = time.monotonic() + 170

    def timeout() -> float:
        return max(5.0, min(CHILD_TIMEOUT_S, budget_end - time.monotonic()))

    setups = [spawn(["--import-only"], timeout()) for _ in range(SETUP_STARTS)]
    base = ["--workload", workload, "--seed", str(seed), "--size", size]
    plain, traced = [], []
    while True:
        plain.append(spawn(base, timeout()))
        if trace:
            OUT.mkdir(exist_ok=True)
            traced.append(spawn(base + ["--trace-out", str(OUT / f"spans-{workload}.jsonl")],
                                timeout()))
        per_loop = sum(statistics.median(r["elapsed_s"] for r in runs)
                       for runs in (plain, traced) if runs)
        enough = trace or len(plain) >= MIN_PROCESSES
        if enough and time.monotonic() + per_loop > deadline:
            break
    runs = plain + traced
    expected = EXPECTED_CHECKS[size][workload]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    short = [r["attempted"] for r in runs if r["attempted"] != expected]
    summary = {
        "workload": workload, "seed": seed, "processes": len(plain),
        "traced_processes": len(traced), "checks_per_process": runs[0]["attempted"],
        "fail_share": failed / attempted, "failures": [f for r in runs for f in r["failures"]],
        "refusals": {k: sum(r["refusals"].get(k, 0) for r in runs)
                     for k in ("finitegl", "weylcomb")},
        "slowest_case": max((r["max_case_s"], r["max_case"]) for r in plain)[1],
        "checks_short": short,
        "checks_expected": expected,
    }
    samples = {
        "wall_s": [r["wall_s"] for r in plain],
        "max_case_s": [r["max_case_s"] for r in plain],
        "setup_s": [r["setup_s"] for r in setups + plain + traced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    raw = {
        "wall_s": [r["raw_wall_s"] for r in plain],
        "setup_s": [r["raw_setup_s"] for r in setups + plain + traced],
    }
    if trace:
        names = traced[0]["layers"]
        layers = {name: statistics.median(r["layers"][name] for r in traced) for name in names}
        layers["trace.overhead_ratio"] = (statistics.median(r["wall_s"] for r in traced)
                                          / statistics.median(samples["wall_s"]))
        metrics = layers
    else:
        metrics = {name: statistics.median(values) for name, values in samples.items()}
    return {
        "correct": failed == 0 and not short,
        "attempted": attempted,
        "failed": failed,
        "samples": samples,
        "raw": raw,
        "summary": summary,
        "metrics": metrics,
        "units": PER_LAYER if trace else END_TO_END,
    }


def report(result: dict) -> None:
    s = result["summary"]
    print(f"workload {s['workload']}  seed {s['seed']}  cold processes {s['processes']}"
          f" (+{s['traced_processes']} traced)  checks per process {s['checks_per_process']}")
    for name, values in result["samples"].items():
        q1, med, q3 = quartiles(values)
        print(f"  {name:<12} {med:10.4f} {END_TO_END[name]:<3} "
              f"q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}")
    for name, values in result["raw"].items():
        q1, med, q3 = quartiles(values)
        print(f"  {name:<12} {med:10.4f} s   uncalibrated, q1 {q1:.4f}  q3 {q3:.4f}")
    print(f"  {'fail_share':<12} {s['fail_share']:10.4f} ratio "
          f"({result['failed']}/{result['attempted']} checks failed, refusals {s['refusals']})")
    print(f"  slowest case: {s['slowest_case']}")
    for line in s["failures"][:20]:
        print(f"  FAILED {line}")
    if s["checks_short"]:
        print(f"  FAILED attempted {s['checks_short']} checks, expected "
              f"{s['checks_expected']}")
    if s["traced_processes"]:
        for name, value in result["metrics"].items():
            print(f"  {name:<52} {value:14.6f} {result['units'][name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qtransfer" / "__init__.py").is_file():
        print(f"no qtransfer sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    report(result)
    # the uncalibrated medians, so that a comparison can check whether the
    # calibration moved a result; the last line holds the metrics only
    print(json.dumps({"uncalibrated": {name: statistics.median(values)
                                       for name, values in result["raw"].items()}}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
