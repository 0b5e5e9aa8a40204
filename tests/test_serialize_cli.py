import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtangle import (
    DensityMatrix,
    RoofConfig,
    StateError,
    StateVector,
    ghz,
    load_state,
    psi4,
    rho_ghz_w,
    save_state,
)
from qtangle.cli import _load_config, main
from qtangle.serialize import format_number, write_table
from qtangle.sweep import FAMILY_COLUMNS, SweepSpec, preset_spec, run_surface, run_sweep
from qtangle.verification import CheckRow, VerifyReport

from helpers import random_density, random_state


def test_format_number_round_trips():
    rng = np.random.default_rng(71)
    for x in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
        assert float(format_number(float(x))) == float(x)


def test_write_table_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["a", "b"], [[1.0, 0.5], [2.0, 0.25]])
    assert path.read_text() == "a,b\n1,0.5\n2,0.25\n"


def test_state_vector_round_trip(tmp_path):
    rng = np.random.default_rng(73)
    for psi in (psi4(0.3), random_state(rng, 2)):
        path = tmp_path / "v.csv"
        save_state(path, psi)
        loaded = load_state(path)
        assert isinstance(loaded, StateVector)
        assert np.array_equal(loaded.amplitudes, psi.amplitudes)


def test_density_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(79)
    for rho in (rho_ghz_w(0.37), random_density(rng, 2, 3)):
        path = tmp_path / "m.csv"
        save_state(path, rho)
        loaded = load_state(path)
        assert isinstance(loaded, DensityMatrix)
        assert np.array_equal(loaded.matrix, rho.matrix)


def test_load_state_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(StateError):
        load_state(empty)
    odd = tmp_path / "odd.csv"
    odd.write_text("foo,bar\n1,2\n")
    with pytest.raises(StateError):
        load_state(odd)
    short = tmp_path / "short.csv"
    short.write_text("row,col,re,im\n0,0,1,0\n0,1,0,0\n1,0,0,0\n")
    with pytest.raises(StateError):
        load_state(short)


@pytest.mark.parametrize(
    "body, match",
    [
        ("index,re,im\n0,1,0\n0,1,0\n", r":3: duplicate index 0, first on line 2"),
        ("index,re,im\n0,1,0\n", r"missing index 1"),
        ("index,re,im\n0,1,0\n1,0,0\n2,0,0\n", r"missing index 3"),
        ("index,re,im\n0,1,0\n2,0,0\n", r":3: index 2 is not an integer in \[0, 2\)"),
        ("index,re,im\n0,1,0\n-1,0,0\n", r":3: index -1 is not"),
        ("index,re,im\n0.5,1,0\n1,0,0\n", r":2: index 0.5 is not"),
        ("index,re,im\n0,1,0\n1,0\n", r":3: 2 cells, expected 3"),
        ("index,re,im\n0,1,0,0\n1,0,0\n", r":2: 4 cells, expected 3"),
        ("index,re,im\n0,1,0\n1,zero,0\n", r":3: could not convert"),
        ("index,re,im\n0,1,0\n1,nan,0\n", r"finite"),
        ("row,col,re,im\n0,0,1,0\n0,1,0,0\n1,0,0,0\n0,0,0,0\n", r":5: duplicate index 0,0"),
        ("row,col,re,im\n0,0,1,0\n0,1,0,0\n1,0,0,0\n", r"missing index 1,1"),
        ("row,col,re,im\n0,0,1,0\n0,1,0,0\n1,0,0,0\n1,2,0,0\n", r":5: index 1,2 is not"),
        ("row,col,re,im\n0,0,1,0\n0,1,0,0\n1,0,0\n1,1,0,0\n", r":4: 3 cells, expected 4"),
        ("row,col,re,im\n0,0,1,0\n0,1,0,0\n1,0,0,0\n1,1,0,i\n", r":5: could not convert"),
    ],
)
def test_load_state_rejects_malformed_rows(tmp_path, body, match):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(StateError, match=match) as info:
        load_state(path)
    assert str(path) in str(info.value)


def test_load_state_accepts_any_row_order(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("index,re,im\n1,0,0\n\n0,1,0\n")
    assert np.array_equal(load_state(path).amplitudes, [1.0, 0.0])


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


# One cell on one line: no comma, no control or line-separator character.
_NON_NUMERIC = st.text(
    st.characters(exclude_categories=("Cs", "Cc", "Zl", "Zp"), exclude_characters=","),
    max_size=6,
).filter(lambda text: not _is_number(text))
_NON_INTEGER = st.floats().filter(lambda x: not x.is_integer()).map(repr)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.data())
def test_load_state_round_trips_and_refuses_broken_files(tmp_path_factory, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if data.draw(st.booleans(), label="matrix"):
        n = data.draw(st.integers(1, 2), label="n")
        state = random_density(rng, n, data.draw(st.integers(1, 2**n), label="rank"))
        entries, n_keys = state.matrix, 2
    else:
        n = data.draw(st.integers(1, 3), label="n")
        state = random_state(rng, n)
        entries, n_keys = state.amplitudes, 1
    path = tmp_path_factory.getbasetemp() / "state.csv"
    save_state(path, state)
    header, *rows = path.read_text().splitlines()
    rows = [rows[k] for k in data.draw(st.permutations(range(len(rows))), label="order")]

    def load(body: list[str]):
        path.write_text("\n".join([header, *body]) + "\n")
        return load_state(path)

    loaded = load(rows)
    assert type(loaded) is type(state)
    assert np.array_equal(loaded.matrix if n_keys == 2 else loaded.amplitudes, entries)

    k = data.draw(st.integers(0, len(rows) - 1), label="row")
    cells = rows[k].split(",")
    col = data.draw(st.integers(0, len(cells) - 1), label="column")
    non_numeric = cells[:col] + [data.draw(_NON_NUMERIC, label="cell")] + cells[col + 1 :]
    key = data.draw(st.integers(0, n_keys - 1), label="index column")
    non_integer = cells[:key] + [data.draw(_NON_INTEGER, label="index")] + cells[key + 1 :]
    broken = [
        rows[:k] + rows[k + 1 :],
        rows[:k] + [rows[k]] + rows[k:],
        rows[:k] + [",".join(non_numeric)] + rows[k + 1 :],
        rows[:k] + [",".join(non_integer)] + rows[k + 1 :],
    ]
    for body in broken:
        with pytest.raises(StateError):
            load(body)


def test_sweep_spec_validation():
    cfg = RoofConfig()
    with pytest.raises(StateError):
        SweepSpec("nope", 0.0, 1.0, 5, ("concurrence_sum",), cfg)
    with pytest.raises(StateError):
        SweepSpec("ghz_w", 0.0, 1.0, 1, ("e_ms_psi4",), cfg)
    with pytest.raises(StateError):
        SweepSpec("ghz_w", 0.5, 0.5, 5, ("e_ms_psi4",), cfg)
    with pytest.raises(StateError):
        SweepSpec("ghz_w", 0.0, 1.5, 5, ("e_ms_psi4",), cfg)
    with pytest.raises(StateError):
        SweepSpec("ghz_w", 0.0, 1.0, 5, (), cfg)
    with pytest.raises(StateError):
        SweepSpec("ghz_w", 0.0, 1.0, 5, ("negativity_avg",), cfg)
    # Non-integer step counts are refused, not handed to np.linspace.
    for bad in (3.0, 2.5, np.float64(5.0), True, "5", None):
        with pytest.raises(StateError):
            SweepSpec("ghz_w", 0.0, 1.0, bad, ("e_ms_psi4",), cfg)
    assert len(SweepSpec("ghz_w", 0.0, 1.0, np.int64(3), ("e_ms_psi4",), cfg).grid()) == 3


def test_run_sweep_endpoints():
    spec = SweepSpec(
        "ghz_w", 0.0, 1.0, 2, ("concurrence_sq_AB", "e_ms_psi4"), RoofConfig()
    )
    header, rows = run_sweep(spec)
    assert header == ["param", "concurrence_sq_AB", "e_ms_psi4"]
    assert len(rows) == 2
    p0_row, p1_row = rows
    assert abs(p0_row[1] - 4.0 / 9.0) < 1e-12 and abs(p0_row[2]) < 1e-12
    assert abs(p1_row[1]) < 1e-12 and abs(p1_row[2] - 0.75) < 1e-12


@pytest.mark.parametrize("family", sorted(FAMILY_COLUMNS))
def test_run_sweep_rows_equal_per_point_columns(family):
    # run_sweep batches each roof column over the grid; every value must be
    # the per-point column call's, bit for bit.
    cfg = RoofConfig(restarts=4, max_iterations=120)
    spec = SweepSpec(family, 0.0, 1.0, 5, tuple(FAMILY_COLUMNS[family]), cfg)
    header, rows = run_sweep(spec)
    assert header == ["param", *FAMILY_COLUMNS[family]]
    expect = [
        [x] + [float(fn(x, cfg)) for fn in FAMILY_COLUMNS[family].values()]
        for x in (float(x) for x in spec.grid())
    ]
    assert rows == expect


def test_run_surface_shape():
    header, rows = run_surface(3)
    assert header == ["alpha", "p", "tau3"]
    assert len(rows) == 9
    assert rows[0][:2] == [0.0, 0.0]
    assert rows[-1][:2] == [1.0, 1.0]
    with pytest.raises(StateError):
        run_surface(1)
    for bad in (2.5, 3.0, True, "3", None):
        with pytest.raises(StateError):
            run_surface(bad)


def test_preset_specs():
    fig1 = preset_spec("fig1", RoofConfig())
    assert fig1.family == "ghz_w" and fig1.steps == 101
    assert "tau3_roof_ABC" in fig1.measures
    fig3 = preset_spec("fig3", RoofConfig())
    assert fig3.family == "smolin"
    assert "tau3_plus_tau4_roof" in fig3.measures
    with pytest.raises(StateError):
        preset_spec("fig2", RoofConfig())


def _light_config(tmp_path) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"restarts": 4, "max_iterations": 120}))
    return str(path)


def test_cli_sweep_is_deterministic(tmp_path):
    cfg = _light_config(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["sweep", "--family", "wn_mix", "--steps", "5", "--config", cfg]
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "param,concurrence_sum,one_tangle_roof_A1"


def test_cli_sweep_range_override(tmp_path):
    out = tmp_path / "r.csv"
    code = main(
        [
            "sweep",
            "--family",
            "ghz_w",
            "--from",
            "0.25",
            "--to",
            "0.75",
            "--steps",
            "3",
            "--config",
            _light_config(tmp_path),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    params = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
    assert params == ["0.25", "0.5", "0.75"]


def test_cli_surface_preset(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--preset", "fig2", "--steps", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,p,tau3"
    assert len(lines) == 10


def test_cli_state_round_trips(tmp_path):
    out = tmp_path / "ghz.csv"
    assert main(["state", "--family", "ghz", "3", "--out", str(out)]) == 0
    loaded = load_state(out)
    assert np.array_equal(loaded.amplitudes, ghz(3).amplitudes)
    out2 = tmp_path / "rho.csv"
    assert main(["state", "--family", "rho_ghz_w", "0.3", "--out", str(out2)]) == 0
    assert np.array_equal(load_state(out2).matrix, rho_ghz_w(0.3).matrix)


def test_cli_usage_errors(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    assert main(["state", "--family", "ghz", "--out", out]) == 2  # missing param
    assert main(["state", "--family", "ghz", "3.5", "--out", out]) == 2
    assert main(["state", "--family", "ghz", "three", "--out", out]) == 2
    for text in ("inf", "nan"):  # int(inf) overflows, int(nan) is a ValueError
        assert main(["state", "--family", "ghz", text, "--out", out]) == 2
    assert main(["state", "--family", "psi4", "1.5", "--out", out]) == 2  # domain
    assert main(["sweep", "--out", out]) == 2  # neither family nor preset
    assert main(["sweep", "--preset", "fig2", "--family", "ghz_w", "--out", out]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["sweep", "--family", "wn_mix", "--config", str(bad), "--out", out]) == 2
    for key, text in (
        ("objective_tolerance", '{"objective_tolerance": NaN}'),
        ("max_iterations", '{"max_iterations": -5}'),
        ("restarts", '{"restarts": 3.7}'),
        ("seed", '{"seed": true}'),
        ("max_iterations", '{"max_iterations": "7"}'),
        ("max_ensemble_size", '{"seed": 1, "max_ensemble_size": []}'),
    ):
        invalid = tmp_path / "invalid.json"
        invalid.write_text(text)
        assert main(["verify", "--config", str(invalid)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"population": 3}')
    assert (
        main(["sweep", "--family", "wn_mix", "--config", str(unknown), "--out", out])
        == 2
    )
    assert "'population'" in capsys.readouterr().err


_CONFIG_FIELDS = [field.name for field in dataclasses.fields(RoofConfig)]
_COUNT_FLOORS = {"restarts": 1, "max_iterations": 0, "seed": 0, "max_ensemble_size": 1}


def _expected_config(data: dict) -> RoofConfig | None:
    """The RoofConfig a config object must load as, or None if it must be refused."""
    for key, value in data.items():
        if key == "objective_tolerance":
            if type(value) not in (int, float) or not 0 <= value < math.inf:
                return None
        elif key == "max_ensemble_size" and value is None:
            continue
        elif key not in _COUNT_FLOORS or type(value) is not int or value < _COUNT_FLOORS[key]:
            return None
    return RoofConfig(**data)


_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=2**40),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)


_VALID_CONFIGS = st.fixed_dictionaries(
    {},
    optional={
        "restarts": st.integers(min_value=1, max_value=2**40),
        "max_ensemble_size": st.none() | st.integers(min_value=1, max_value=64),
        "objective_tolerance": st.integers(min_value=0, max_value=3)
        | st.floats(min_value=0.0, allow_infinity=False),
        "max_iterations": st.integers(min_value=0, max_value=2**40),
        "seed": st.integers(min_value=0, max_value=2**70),
    },
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    _VALID_CONFIGS
    | st.dictionaries(
        st.sampled_from([*_CONFIG_FIELDS, "population", "Seed"]), _JSON_VALUES, max_size=5
    )
)
@example({"objective_tolerance": float("nan")})
@example({"objective_tolerance": -1e-8})
@example({"max_ensemble_size": None, "objective_tolerance": 0})
@example({"restarts": 3.0})
@example({"seed": True})
def test_config_json_loads_or_exits_2(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "config.json"
    path.write_text(json.dumps(data))
    expect = _expected_config(data)
    if expect is not None:
        assert _load_config(str(path), None) == expect
        return
    # Two spectral-exit points, so a wrongly accepted config ends quickly.
    out = str(tmp_path_factory.getbasetemp() / "refused.csv")
    argv = ["sweep", "--family", "wn_mix", "--steps", "2", "--config", str(path), "--out", out]
    assert main(argv) == 2


@pytest.mark.parametrize("text", ["[]", "3", '"restarts"', "null"])
def test_config_json_must_be_an_object(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["verify", "--config", str(path)]) == 2


def test_readme_config_example_loads_as_defaults(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "config.json"
    path.write_text(block)
    assert _load_config(str(path), None) == RoofConfig()


def test_cli_unwritable_path_fails(tmp_path):
    code = main(["state", "--family", "ghz", "3", "--out", "/nonexistent/dir/x.csv"])
    assert code == 1


def _fake_report(statuses) -> VerifyReport:
    rows = tuple(
        CheckRow(f"check_{i}", status, 1.0, 1.0, 1e-6)
        for i, status in enumerate(statuses)
    )
    return VerifyReport(rows)


def test_cli_verify_summary_and_exit(tmp_path, monkeypatch, capsys):
    report = _fake_report(["pass", "pass", "ledgered"])
    monkeypatch.setattr("qtangle.cli.build_report", lambda config: report)
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "3 checks: 2 pass, 0 fail, 1 ledgered" in out
    assert out.count("check_") == 3

    failing = _fake_report(["pass", "fail"])
    monkeypatch.setattr("qtangle.cli.build_report", lambda config: failing)
    assert main(["verify"]) == 1
    assert "2 checks: 1 pass, 1 fail, 0 ledgered" in capsys.readouterr().out


def test_cli_verify_json_out(tmp_path, monkeypatch):
    report = _fake_report(["pass", "ledgered"])
    monkeypatch.setattr("qtangle.cli.build_report", lambda config: report)
    out = tmp_path / "report.json"
    assert main(["verify", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"checks"}
    assert [row["status"] for row in payload["checks"]] == ["pass", "ledgered"]
    assert set(payload["checks"][0]) == {
        "name",
        "status",
        "printed_value",
        "direct_value",
        "tolerance",
    }


def test_cli_verify_passes_config_through(tmp_path, monkeypatch):
    seen = {}

    def capture(config):
        seen["config"] = config
        return _fake_report(["pass"])

    monkeypatch.setattr("qtangle.cli.build_report", capture)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"restarts": 7, "objective_tolerance": 1e-7}')
    assert main(["verify", "--config", str(cfg), "--seed", "5"]) == 0
    assert seen["config"] == RoofConfig(
        restarts=7, objective_tolerance=1e-7, seed=5
    )
