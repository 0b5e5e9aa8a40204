"""Command-line front end: parameter sweeps, the verification suite, state files.

Exit codes: 0 success, 1 check or write failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Callable, Sequence

from . import catalog, serialize
from .roof import RoofConfig
from .states import StateError
from .sweep import FAMILY_COLUMNS, SweepSpec, preset_spec, run_surface, run_sweep
from .verification import build_report

__all__ = ["main"]


class _UsageError(Exception):
    pass


_STATE_FAMILIES: dict[str, tuple[Callable, tuple[Callable, ...]]] = {
    "ghz": (catalog.ghz, (int,)),
    "w": (catalog.w, (int,)),
    "bell": (catalog.bell, (int,)),
    "psi4": (catalog.psi4, (float,)),
    "rho_ghz_w": (catalog.rho_ghz_w, (float,)),
    "rho_abd": (catalog.rho_abd, (float,)),
    "phi_abd": (catalog.phi_abd, (float, float, float)),
    "smolin": (catalog.smolin, (float,)),
    "psi6": (catalog.psi6, (float,)),
    "rho_wn_mix": (catalog.rho_wn_mix, (int, float)),
    "psi_n1": (catalog.psi_n1, (int, float)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtangle",
        description="Entanglement sweeps, state files, and the verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sw = sub.add_parser("sweep", help="evaluate measure columns over a parameter grid")
    sw.add_argument("--family", choices=sorted(FAMILY_COLUMNS))
    sw.add_argument("--from", dest="start", type=float, help="grid start (default 0)")
    sw.add_argument("--to", dest="stop", type=float, help="grid stop (default 1)")
    sw.add_argument("--steps", type=int, help="grid points (default 101; 41 for fig2)")
    sw.add_argument("--out", required=True, help="output CSV path")
    sw.add_argument("--config", help="JSON file overriding roof-search defaults")
    sw.add_argument("--seed", type=int, help="override the roof-search seed")
    sw.add_argument("--preset", choices=["fig1", "fig2", "fig3"])

    vf = sub.add_parser("verify", help="run the acceptance checklist")
    vf.add_argument("--config", help="JSON file overriding roof-search defaults")
    vf.add_argument("--seed", type=int, help="override the roof-search seed")
    vf.add_argument("--out", help="also write the report as JSON")

    st = sub.add_parser("state", help="write a catalog state to a CSV file")
    st.add_argument("--family", required=True, choices=sorted(_STATE_FAMILIES))
    st.add_argument("params", nargs="*", help="family parameters, in order")
    st.add_argument("--out", required=True, help="output CSV path")
    return parser


def _load_config(path: str | None, seed: int | None) -> RoofConfig:
    kwargs: dict = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise _UsageError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise _UsageError(f"malformed config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise _UsageError(f"config {path} must hold a JSON object")
        # RoofConfig refuses each bad value with a StateError naming its key.
        known = {field.name for field in dataclasses.fields(RoofConfig)}
        for key in data:
            if key not in known:
                raise _UsageError(f"unknown config key {key!r}")
        kwargs.update(data)
    if seed is not None:
        kwargs["seed"] = seed
    return RoofConfig(**kwargs)


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args.config, args.seed)
    if args.preset == "fig2":
        if args.family is not None or args.start is not None or args.stop is not None:
            raise _UsageError("fig2 is an (alpha, p) surface; only --steps applies")
        header, rows = run_surface(args.steps if args.steps is not None else 41)
    else:
        if args.preset is not None:
            base = preset_spec(args.preset, config)
            family, measures = base.family, base.measures
            if args.family is not None and args.family != family:
                raise _UsageError(f"preset {args.preset} sweeps family {family!r}")
        elif args.family is not None:
            family = args.family
            measures = tuple(FAMILY_COLUMNS[family])
        else:
            raise _UsageError("sweep needs --family or --preset")
        spec = SweepSpec(
            family,
            args.start if args.start is not None else 0.0,
            args.stop if args.stop is not None else 1.0,
            args.steps if args.steps is not None else 101,
            measures,
            config,
        )
        header, rows = run_sweep(spec)
    serialize.write_table(args.out, header, rows)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    config = _load_config(args.config, args.seed)
    report = build_report(config)
    width = max(len(row.name) for row in report.checks)
    for row in report.checks:
        print(
            f"{row.name:<{width}}  {row.status:<8}  "
            f"printed={row.printed_value:<22.17g}  direct={row.direct_value:<22.17g}  "
            f"tol={row.tolerance:g}"
        )
    n_pass = sum(1 for row in report.checks if row.status == "pass")
    print(
        f"{len(report.checks)} checks: {n_pass} pass, "
        f"{len(report.failures)} fail, {len(report.ledgered)} ledgered"
    )
    if args.out is not None:
        payload = {"checks": [dataclasses.asdict(row) for row in report.checks]}
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return 1 if report.failures else 0


def _cmd_state(args: argparse.Namespace) -> int:
    maker, converters = _STATE_FAMILIES[args.family]
    if len(args.params) != len(converters):
        raise _UsageError(
            f"family {args.family!r} takes {len(converters)} parameter(s), "
            f"got {len(args.params)}"
        )
    values = []
    for text, convert in zip(args.params, converters):
        try:
            number = float(text)
        except ValueError as exc:
            raise _UsageError(f"bad parameter {text!r}: {exc}") from exc
        # A whole number stands for a count; the family refuses any other.
        values.append(int(number) if convert is int and number.is_integer() else number)
    state = maker(*values)
    serialize.save_state(args.out, state)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_state(args)
    except (_UsageError, StateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
