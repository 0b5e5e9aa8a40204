"""qtangle benchmark: one workload, one seed, one process, closed loop.

    python3 perfbench/run.py --workload ghz_w_sweep --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from ``src/``.
With ``--trace 0`` the run repeats whole workload passes, each after the
previous one returns, until the next pass would end past ``--seconds`` (at
least two passes), and reports the end-to-end metrics; set-up (fresh
interpreters) is measured in three groups: before the first pass, after it
and after the last. Pass times are taken with the speed probe running and
reported at its reference speed (see ``speed.py``). With ``--trace 1`` it
makes one untraced pass and two traced passes and reports the per-layer
metrics. Every pass is checked against
references, and passes of one seed must agree bit for bit (traced counts
exactly). Stdout carries the run facts, a table of every metric with its unit,
and, as its last line, the result as one JSON object. Spans, facts and the
result are also written under ``perfbench/.out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

import layers
from references import Checks, RoofTally
from speed import PartClock, SpeedProbe, Stretch, at_reference, best_pass, timed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / ".out"

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "roof_value_sum": "tangle",
    "roof_excess": "tangle",
}
MIN_PASSES = 2
TRACED_PASSES = 2
SETUP_SPAWNS_PER_GROUP = 3
# What a CLI invocation pays before its first number: a fresh interpreter,
# ``import qtangle`` and one kernel call.
SETUP_CODE = (
    "import qtangle\n"
    "from qtangle import _batched\n"
    "_batched.three_tangle_batch(qtangle.ghz(3).amplitudes[None, :])\n"
)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup(spawns: int) -> list[float]:
    """Wall times of fresh interpreters importing qtangle and calling one kernel."""
    times = []
    env = _child_env()
    for _ in range(spawns):
        t0 = perf_counter()
        # No timeout: with one, the wait polls at up to 50 ms intervals and the
        # times come out in 50 ms steps.
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return times


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qtangle").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable: not a git checkout"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else "unavailable: git failed"


def run_facts(args: argparse.Namespace, roof_config) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "roof_config": asdict(roof_config),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _warm_up() -> None:
    import numpy as np
    from qtangle import _batched

    rows = np.zeros((2, 64), dtype=complex)
    rows[:, 0] = 1.0
    _batched.e_ms_batch(rows, 6)
    _batched.three_tangle_batch(rows[:, :8])


def _timed(wl, checks):
    """Run one pass; returns (seconds, outputs, or None if the pass raised)."""
    t0 = perf_counter()
    try:
        out = wl.run()
    except Exception as exc:  # a failed pass is a failed operation, not a crash
        checks.raised("workload pass", exc)
        return perf_counter() - t0, None
    return perf_counter() - t0, out


def _checked(wl, out, checks, tally=None) -> str | None:
    """Score one pass's outputs against the references; returns their digest."""
    if out is None:
        return None
    try:
        wl.check(out, checks, tally if tally is not None else RoofTally())
    except Exception as exc:
        checks.raised("reference check", exc)
    return wl.digest(out)


def _same(checks, digests: list, what: str) -> None:
    done = [d for d in digests if d is not None]
    checks.expect(len(set(done)) <= 1, f"{what}: passes of one seed differ")


def timed_run(wl, seconds: int, checks) -> tuple[dict[str, float], dict]:
    """End-to-end metrics, and the raw stretches behind them."""
    _warm_up()
    tally = RoofTally()
    probe = SpeedProbe()
    setup: list[float] = []
    done: list[tuple[Stretch, dict]] = []
    digests = []
    setup += measure_setup(SETUP_SPAWNS_PER_GROUP)
    begin = perf_counter()
    while True:
        clock = PartClock(probe)
        out = None
        with probe.running(), timed(probe, lambda s: done.append((s, clock.parts))):
            try:
                out = wl.run(clock)
            except Exception as exc:  # a failed pass is a failed operation, not a crash
                checks.raised("workload pass", exc)
        if out is None:
            break
        digests.append(_checked(wl, out, checks, tally if len(done) == 1 else None))
        if len(done) == 1:
            setup += measure_setup(SETUP_SPAWNS_PER_GROUP)
        typical = statistics.median(total.wall for total, _ in done)
        if len(done) >= MIN_PASSES and perf_counter() - begin + typical > seconds:
            break
    setup += measure_setup(SETUP_SPAWNS_PER_GROUP)
    _same(checks, digests, "outputs")
    passes_total = Stretch()
    for total, _ in done:
        passes_total.add(total)
    return {
        "wall_s": best_pass(done),
        "setup_s": at_reference(statistics.median(setup), passes_total.probe_mean()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "roof_value_sum": tally.value_sum,
        "roof_excess": tally.excess,
    }, {"passes": [{"total": asdict(total), "parts": {str(k): asdict(v) for k, v in parts.items()}}
                   for total, parts in done],
        "setup_seconds": setup}


def traced_run(wl, checks, trace_path: Path, facts: dict) -> tuple[dict[str, float], dict[str, str]]:
    _warm_up()
    untraced, out = _timed(wl, checks)
    digests = [_checked(wl, out, checks)]
    walls, folded, spans = [], [], []
    for _ in range(TRACED_PASSES):
        tracer = layers.Tracer()
        tracer.install()
        try:
            t, out = _timed(wl, checks)
        finally:
            tracer.uninstall()
        checks.expect(tracer.restored(), "tracer left a wrapper installed")
        walls.append(t)
        digests.append(_checked(wl, out, checks))
        folded.append(layers.layer_metrics(tracer.spans, tracer.absent))
        spans.append(tracer.records())
    _same(checks, digests, "outputs (untraced and traced)")
    for key in layers.COUNT_METRICS:
        seen = {values[key] for values, _ in folded}
        checks.expect(len(seen) == 1, f"traced count {key} differs between passes: {sorted(seen)}")

    metrics = {}
    for key, unit in layers.METRIC_UNITS.items():
        if key == "trace.overhead_s":
            metrics[key] = statistics.median(walls) - untraced
        elif unit in ("count", "bytes"):
            metrics[key] = folded[0][0][key]
        else:
            metrics[key] = statistics.median(values[key] for values, _ in folded)
    why = folded[0][1]
    trace_path.write_text(json.dumps({"facts": facts, "absent": why,
                                      "fields": layers.RECORD_FIELDS, "passes": spans}),
                          encoding="utf-8")
    return metrics, why


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "qtangle" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'qtangle'}; run from a qtangle source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qtangle

    if Path(qtangle.__file__).resolve().parent != (SRC / "qtangle").resolve():
        print(f"error: imported qtangle from {qtangle.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    facts = run_facts(args, workloads.roof_config(args.workload, args.seed))
    wl = workloads.build(args.workload, args.seed, OUT_DIR)
    checks = Checks()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    absent: dict[str, str] = {}
    raw: dict = {}
    if args.trace:
        values, absent = traced_run(wl, checks, OUT_DIR / f"spans-{stem}.json", facts)
        units = layers.METRIC_UNITS
    else:
        values, raw = timed_run(wl, args.seconds, checks)
        units = END_TO_END

    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    (OUT_DIR / f"result-{stem}.json").write_text(
        json.dumps({"facts": facts, "raw": raw, "absent": absent,
                    "failures": checks.failures, "result": result}, indent=1),
        encoding="utf-8",
    )
    print("facts " + json.dumps(facts))
    for key, unit in units.items():
        note = f"  (absent: {absent[key]})" if key in absent else ""
        print(f"{key:36s} {values[key]:<24.12g} {unit}{note}")
    for failure in checks.failures:
        print("FAILED " + failure)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
