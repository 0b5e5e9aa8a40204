"""Per-layer tracing from outside the package.

``Tracer.install`` wraps the calls into each module of ``qtangle`` (the layers)
and ``uninstall`` puts every original back. A wrapper records one span per
call: name, start, end, parent span, and for the batched kernels the row count
and qubit number. Spans stay in memory; ``layer_metrics`` folds them into the
per-layer metrics and the runner writes them out when the run ends.

Names bound by ``from .x import y`` are wrapped in every importing module, so
calls that go through ``sweep``, ``formulas`` or ``verification`` are seen too.
The roof's private phases are wrapped read-only; if one no longer exists, its
metrics are reported absent instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

KERNELS = ("one_tangle", "conc_sq_e2", "conc_sq_svd", "three_tangle", "e_ms")
# rate name -> (kernel, qubit number)
RATES = {
    "one_tangle_n3": ("one_tangle", 3),
    "conc_sq_e2": ("conc_sq_e2", 3),
    "conc_sq_e4": ("conc_sq_svd", 4),
    "three_tangle": ("three_tangle", 3),
    "e_ms_n4": ("e_ms", 4),
    "e_ms_n6": ("e_ms", 6),
}
MEASURES = ("concurrence", "negativity", "one_tangle", "three_tangle_pure", "e_ms")
STATES = ("spectral_decomposition", "partial_trace")
SWEEP_COLUMNS = {
    "ghz_w": ("concurrence_sq_AB", "tau3_roof_ABC", "one_tangle_roof_A", "e_ms_psi4"),
    "smolin": ("concurrence_sum", "tau3_plus_tau4_roof", "negativity_avg", "e_ms_psi6"),
}
ROOF_PHASES = (("_draw_isometries", "roof.draw"), ("_rotation_sweep", "roof.sweep"))


def _metric_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for k in KERNELS:
        units[f"batched.{k}.calls"] = "count"
        units[f"batched.{k}.rows"] = "count"
        units[f"batched.{k}.self_s"] = "s"
    for r in RATES:
        units[f"batched.rate.{r}"] = "rows/s"
    units.update({
        "roof.calls": "count",
        "roof.s": "s",
        "roof.spectral_exits": "count",
        "roof.draw.s": "s",
        "roof.sweep.calls": "count",
        "roof.sweep.s": "s",
        "roof.lm.iters": "count",
        "roof.lm.s": "s",
        "roof.lm.accept_ratio": "ratio",
        "roof.lm.attempted": "count",
        "roof.budget_stops": "count",
        "roof.eval_rows": "count",
    })
    for m in MEASURES:
        units[f"measures.{m}.calls"] = "count"
        units[f"measures.{m}.s"] = "s"
    for s in STATES:
        units[f"states.{s}.calls"] = "count"
        units[f"states.{s}.s"] = "s"
    for layer in ("catalog", "formulas"):
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.s"] = "s"
    units["sweep.points"] = "count"
    for cols in SWEEP_COLUMNS.values():
        for c in cols:
            units[f"sweep.column.{c}.s"] = "s"
    units["serialize.write_table.s"] = "s"
    units["serialize.write_table.bytes"] = "bytes"
    units["trace.overhead_s"] = "s"
    return units


METRIC_UNITS = _metric_units()
# Metrics that must repeat exactly between two traced passes of one seed.
COUNT_METRICS = tuple(k for k, u in METRIC_UNITS.items() if u in ("count", "bytes"))

# Span record fields.
NAME, START, END, PARENT, ROWS, NQ, OUTER, LAYER_OUTER, IN_ROOF, META = range(10)


def _conc_name(args: tuple) -> str:
    states = args[0]
    return "batched.conc_sq_e2" if states.shape[1] == 8 else "batched.conc_sq_svd"


def _roof_budget(args: tuple, kwargs: dict, out: Any) -> int:
    from qtangle.roof import RoofConfig

    cfg = args[2] if len(args) > 2 else kwargs.get("config")
    return (cfg or RoofConfig()).max_iterations


def _lm_accepts(args: tuple, kwargs: dict, out: Any) -> tuple[int, int]:
    accept = out[3]
    return int(accept.sum()), int(accept.size)


def _rows_out(args: tuple, kwargs: dict, out: Any) -> int:
    return len(out[1])


def _file_bytes(args: tuple, kwargs: dict, out: Any) -> int:
    return Path(args[0]).stat().st_size


class Tracer:
    """Wraps the package's layers while installed and keeps one record per call."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.absent: dict[str, str] = {}
        self._stack: list[int] = []
        self._active_name: Counter[str] = Counter()
        self._active_layer: Counter[str] = Counter()
        self._patches: list[tuple[Any, str, Any, bool]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn: Callable, name: str | Callable[[tuple], str],
              meta: Callable[[tuple, dict, Any], Any] | None = None,
              batched: bool = False) -> Callable:
        spans, stack = self.spans, self._stack
        by_name, by_layer = self._active_name, self._active_layer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nm = name(args) if callable(name) else name
            layer = nm.split(".", 1)[0]
            rows = nq = 0
            if batched:
                rows = args[0].shape[0]
                nq = args[0].shape[1].bit_length() - 1
            rec = [nm, 0.0, 0.0, stack[-1] if stack else -1, rows, nq,
                   by_name[nm] == 0, by_layer[layer] == 0, by_name["roof"] > 0, None]
            stack.append(len(spans))
            spans.append(rec)
            by_name[nm] += 1
            by_layer[layer] += 1
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
                by_name[nm] -= 1
                by_layer[layer] -= 1
            if meta is not None:
                rec[META] = meta(args, kwargs, out)
            return out

        return wrapper

    def _patch(self, owner: Any, key: str, wrapper: Callable, item: bool = False) -> None:
        original = owner[key] if item else getattr(owner, key)
        self._patches.append((owner, key, original, item))
        if item:
            owner[key] = wrapper
        else:
            setattr(owner, key, wrapper)

    def _patch_everywhere(self, module: Any, attr: str, name, meta=None, batched=False,
                          absent_as: tuple[str, ...] = ()) -> None:
        """Wrap ``module.attr`` and every other qtangle module's binding of it.

        If it is missing, the metric stems in ``absent_as`` (default: the span
        name) are reported absent.
        """
        original = getattr(module, attr, None)
        if original is None:
            for key in absent_as or (name,):
                self.absent[key] = f"{module.__name__}.{attr} not found"
            return
        wrapper = self._wrap(original, name, meta, batched)
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "qtangle" or mod_name.startswith("qtangle.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def install(self) -> None:
        from qtangle import _batched, catalog, formulas, measures, roof, serialize, states, sweep

        self._patch_everywhere(_batched, "one_tangle_batch", "batched.one_tangle", batched=True)
        self._patch_everywhere(_batched, "concurrence_sq_batch", _conc_name, batched=True,
                               absent_as=("batched.conc_sq_e2", "batched.conc_sq_svd"))
        self._patch_everywhere(_batched, "three_tangle_batch", "batched.three_tangle", batched=True)
        self._patch_everywhere(_batched, "e_ms_batch", "batched.e_ms", batched=True)

        self._patch_everywhere(roof, "roof_minimize", "roof", meta=_roof_budget)
        for attr, name in ROOF_PHASES:
            self._patch_everywhere(roof, attr, name)
        polish = getattr(roof, "_LockstepPolish", None)
        if polish is not None and "iterate" in vars(polish):
            self._patch(polish, "iterate", self._wrap(vars(polish)["iterate"], "roof.lm", _lm_accepts))
        else:
            self.absent["roof.lm"] = "qtangle.roof._LockstepPolish.iterate not found"

        for m in MEASURES:
            self._patch_everywhere(measures, m, f"measures.{m}")
        for s in STATES:
            self._patch_everywhere(states, s, f"states.{s}")
        for fn_name in catalog.__all__:
            self._patch_everywhere(catalog, fn_name, f"catalog.{fn_name}")
        for fn_name in formulas.__all__:
            if not isinstance(getattr(formulas, fn_name, None), type):
                self._patch_everywhere(formulas, fn_name, f"formulas.{fn_name}")

        self._patch_everywhere(sweep, "run_sweep", "sweep.run_sweep", meta=_rows_out,
                               absent_as=("sweep.points",))
        self._patch_everywhere(sweep, "run_surface", "sweep.run_surface")
        for family, cols in SWEEP_COLUMNS.items():
            table = sweep.FAMILY_COLUMNS.get(family, {})
            for c in cols:
                if c in table:
                    self._patch(table, c, self._wrap(table[c], f"sweep.column.{c}"), item=True)
                else:
                    self.absent[f"sweep.column.{c}"] = f"sweep family {family} has no column {c}"
        self._patch_everywhere(serialize, "write_table", "serialize.write_table", meta=_file_bytes)

    def uninstall(self) -> None:
        for owner, key, original, item in reversed(self._patches):
            if item:
                owner[key] = original
            else:
                setattr(owner, key, original)

    def restored(self) -> bool:
        """True when every slot this tracer wrapped holds its original again."""
        return all(
            (owner[key] if item else vars(owner)[key]) is original
            for owner, key, original, item in self._patches
        )

    def records(self) -> list[list]:
        return [[s[NAME], s[START], s[END], s[PARENT], s[ROWS]] for s in self.spans]


RECORD_FIELDS = ["name", "start", "end", "parent", "rows"]


# -- folding spans into metrics ------------------------------------------------


def layer_metrics(spans: list[list], absent: dict[str, str]) -> tuple[dict[str, float], dict[str, str]]:
    """Every per-layer metric (trace.overhead_s excepted), and why any is absent.

    ``.s`` is inclusive time over the outermost calls of that name (or layer,
    for catalog and formulas); ``self_s`` subtracts the time of child spans.
    """
    values = {k: 0.0 for k in METRIC_UNITS}
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]

    roofs: dict[int, dict[str, int]] = {}
    rate_rows: Counter[str] = Counter()
    rate_time: Counter[str] = Counter()
    accepted = attempted = 0
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        layer, _, rest = name.partition(".")
        if layer == "batched":
            values[f"batched.{rest}.calls"] += 1
            values[f"batched.{rest}.rows"] += s[ROWS]
            values[f"batched.{rest}.self_s"] += dur - child_time[i]
            for rate, (kernel, nq) in RATES.items():
                if kernel == rest and nq == s[NQ]:
                    rate_rows[rate] += s[ROWS]
                    rate_time[rate] += dur
            if s[LAYER_OUTER] and s[IN_ROOF]:
                values["roof.eval_rows"] += s[ROWS]
        elif name == "roof":
            values["roof.calls"] += 1
            if s[OUTER]:
                values["roof.s"] += dur
            roofs[i] = {"draws": 0, "steps": 0, "budget": s[META]}
        elif name in ("roof.draw", "roof.sweep", "roof.lm"):
            values[f"{name}.s"] += dur
            owner = s[PARENT]
            while owner >= 0 and spans[owner][NAME] != "roof":
                owner = spans[owner][PARENT]
            if owner not in roofs:
                continue
            if name == "roof.draw":
                roofs[owner]["draws"] += 1
            else:
                roofs[owner]["steps"] += 1
                if name == "roof.sweep":
                    values["roof.sweep.calls"] += 1
                else:
                    values["roof.lm.iters"] += 1
                    accepted += s[META][0]
                    attempted += s[META][1]
        elif layer in ("measures", "states"):
            values[f"{name}.calls"] += 1
            if s[OUTER]:
                values[f"{name}.s"] += dur
        elif layer in ("catalog", "formulas"):
            values[f"{layer}.calls"] += 1
            if s[LAYER_OUTER]:
                values[f"{layer}.s"] += dur
        elif name.startswith("sweep.column."):
            values[f"{name}.s"] += dur
        elif name == "sweep.run_sweep":
            values["sweep.points"] += s[META]
        elif name == "serialize.write_table":
            values["serialize.write_table.s"] += dur
            values["serialize.write_table.bytes"] += s[META]

    for rate in RATES:
        if rate_time[rate] > 0.0:
            values[f"batched.rate.{rate}"] = rate_rows[rate] / rate_time[rate]
    values["roof.lm.attempted"] = attempted
    values["roof.lm.accept_ratio"] = accepted / attempted if attempted else 0.0
    for r in roofs.values():
        values["roof.spectral_exits"] += r["draws"] == 0
        values["roof.budget_stops"] += r["budget"] is not None and r["steps"] >= r["budget"]

    why = {}
    phase_missing = {n for n in ("roof.draw", "roof.sweep", "roof.lm") if n in absent}
    for key in METRIC_UNITS:
        stem = key.rsplit(".", 1)[0]
        if key in absent or stem in absent:
            why[key] = absent.get(key) or absent[stem]
        elif key == "roof.spectral_exits" and "roof.draw" in phase_missing:
            why[key] = absent["roof.draw"]
        elif key == "roof.budget_stops" and phase_missing & {"roof.sweep", "roof.lm"}:
            why[key] = "; ".join(absent[n] for n in sorted(phase_missing))
    for k in KERNELS:
        if values[f"batched.{k}.calls"] == 0 and f"batched.{k}.calls" not in why:
            for suffix in ("calls", "rows", "self_s"):
                why[f"batched.{k}.{suffix}"] = "no calls on this workload"
    for rate, (kernel, nq) in RATES.items():
        key = f"batched.rate.{rate}"
        if rate_time[rate] == 0.0 and key not in why:
            why[key] = f"no {kernel} calls at n={nq} on this workload"
    return values, why
