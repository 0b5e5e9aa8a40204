"""The benchmark's own checks: names, tracer hygiene and the exact roof reference.

    python3 -m pytest perfbench/tests
"""

import json
import re
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import layers
import run
import speed
import workloads
from references import LOSU_LINEAR_START, LOSU_ZERO_END, losu_tau3_roof

from qtangle import _batched, catalog, measures, roof, sweep
from qtangle.roof import RoofConfig

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_every_metric_and_workload_is_named_and_valid():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRIC_UNITS
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in spec[key]]
    assert len(names) == len(set(names))
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(entry["name"]) and UNIT.fullmatch(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    for entry in spec["end_to_end"]:
        assert 0.0 < entry["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_layer_metrics_cover_every_per_layer_name():
    values, _ = layers.layer_metrics([], {})
    assert set(values) == set(layers.METRIC_UNITS)


def _slots():
    """Every value the tracer may replace, keyed by where it lives."""
    slots = {}
    for name, mod in sys.modules.items():
        if name == "qtangle" or name.startswith("qtangle."):
            for key, value in vars(mod).items():
                slots[(name, key)] = value
    for family, table in sweep.FAMILY_COLUMNS.items():
        for key, value in table.items():
            slots[("columns", family, key)] = value
    slots[("polish", "iterate")] = vars(roof._LockstepPolish)["iterate"]
    return slots


def test_tracer_records_nested_spans_and_restores_every_original():
    before = _slots()
    cfg = RoofConfig(restarts=2, max_iterations=12)
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert _slots() != before
        roof.roof_minimize(catalog.rho_ghz_w(0.5), "three_tangle", cfg)
        measures.e_ms(catalog.psi4(0.5))
    finally:
        tracer.uninstall()
    assert tracer.restored()
    after = _slots()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    names = [s[layers.NAME] for s in tracer.spans]
    assert {"roof", "roof.draw", "roof.lm", "batched.three_tangle", "batched.conc_sq_e2",
            "measures.e_ms", "catalog.psi4", "states.partial_trace"} <= set(names)
    nested = [s for s in tracer.spans if s[layers.NAME] == "batched.conc_sq_e2"]
    assert all(tracer.spans[s[layers.PARENT]][layers.NAME] == "batched.three_tangle"
               for s in nested)
    values, _ = layers.layer_metrics(tracer.spans, tracer.absent)
    assert values["roof.calls"] == 1 and values["roof.eval_rows"] > 0

    count = len(tracer.spans)
    roof.roof_minimize(catalog.rho_ghz_w(0.5), "three_tangle", cfg)
    _batched.e_ms_batch(catalog.psi4(0.3).amplitudes[None, :], 4)
    assert len(tracer.spans) == count


def test_part_clock_times_sweep_columns_and_restores_them():
    table = sweep.FAMILY_COLUMNS["ghz_w"]
    before = dict(table)
    clock = speed.PartClock()
    spec = sweep.SweepSpec("ghz_w", 0.0, 1.0, 3, ("concurrence_sq_AB", "e_ms_psi4"), RoofConfig())
    with clock.columns(table):
        _, rows = sweep.run_sweep(spec)
    assert all(table[k] is before[k] for k in before) and table.keys() == before.keys()
    assert set(clock.parts) == {(c, p) for c in spec.measures for p in (0.0, 0.5, 1.0)}
    assert rows == sweep.run_sweep(spec)[1]


def test_best_pass_takes_each_part_at_its_best():
    S = speed.Stretch
    passes = [(S(10.0), {"a": S(4.0), "b": S(5.0)}), (S(12.0), {"a": S(6.0), "b": S(4.5)})]
    assert speed.best_pass(passes) == pytest.approx(4.0 + 4.5 + 1.0)
    assert speed.best_pass([(S(10.0), {"a": S(4.0)}), (S(9.0), {"b": S(4.0)})]) == 9.0


def test_probe_rescales_to_the_reference_speed():
    ref = speed.REFERENCE_PROBE_S
    # Twice the reference probe time: the machine ran at half speed.
    slow = speed.Stretch(wall=2.2, samples=10, probe_s=10 * 2 * ref)
    assert slow.at_reference() == pytest.approx((2.2 - 20 * ref) / 2)
    few = speed.Stretch(wall=1.0, samples=1, probe_s=ref)
    assert few.at_reference(fallback_mean=2 * ref) == pytest.approx((1.0 - ref) / 2)
    assert speed.Stretch(wall=1.0).at_reference() == 1.0
    assert speed.at_reference(2.0, 2 * ref) == pytest.approx(1.0)
    assert speed.at_reference(2.0, None) == 2.0

    probe = speed.SpeedProbe()
    with probe.running():
        deadline = time.perf_counter() + 0.5
        while time.perf_counter() < deadline:
            pass
    assert probe.count >= speed.MIN_SAMPLES and probe.total > 0.0
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_missing_private_phase_is_reported_absent(monkeypatch):
    monkeypatch.delattr(roof, "_rotation_sweep")
    tracer = layers.Tracer()
    tracer.install()
    tracer.uninstall()
    _, why = layers.layer_metrics(tracer.spans, tracer.absent)
    assert "roof.sweep.calls" in why and "roof.budget_stops" in why


def test_losu_reference():
    for p in np.linspace(0.0, LOSU_ZERO_END, 7):
        assert losu_tau3_roof(float(p)) == 0.0
    assert abs(LOSU_ZERO_END - 0.626851) < 1e-6 and abs(LOSU_LINEAR_START - 0.708683) < 1e-6
    eps = 1e-9
    left = losu_tau3_roof(LOSU_LINEAR_START - eps)
    right = losu_tau3_roof(LOSU_LINEAR_START + eps)
    assert abs(left - right) < 1e-7
    assert losu_tau3_roof(1.0) == pytest.approx(1.0, abs=1e-15)
    # A convex hull: no jumps anywhere on [0, 1], and no negative curvature.
    values = np.array([losu_tau3_roof(float(p)) for p in np.linspace(0.0, 1.0, 100_001)])
    assert np.max(np.abs(np.diff(values))) < 1e-4
    assert np.min(np.diff(values, 2)) > -1e-12


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "measure_scan", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
