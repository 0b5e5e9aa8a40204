"""End-to-end acceptance run: one test per checklist criterion.

The full report is built once per module with the default search configuration;
each test then pins its criterion's row, so ``pytest -v`` shows one line per
criterion. Representative values are also checked against frozen literals at
the same tolerances the checks themselves use.
"""

import math

import pytest

from qtangle import RoofConfig
from qtangle.verification import build_report


@pytest.fixture(scope="module")
def report():
    return build_report(RoofConfig())


def test_criterion_1_pair_concurrence_threshold(report):
    row = report.row("criterion_1")
    assert row.status == "pass"
    assert abs(row.direct_value - (7.0 - 3.0 * math.sqrt(5.0))) < 1e-12


def test_criterion_2_peak_and_closed_form(report):
    row = report.row("criterion_2")
    assert row.status == "pass"
    assert abs(row.direct_value - 153.0 / 156.0) <= 2e-4


def test_criterion_3_zero_tangle_family(report):
    row = report.row("criterion_3")
    assert row.status == "pass"
    assert row.direct_value <= 1e-9


def test_criterion_4_roof_vanishes_on_abd(report):
    row = report.row("criterion_4")
    assert row.status == "pass"
    assert row.direct_value <= 1e-6


def test_criterion_5_bell_mixture_structure(report):
    row = report.row("criterion_5")
    assert row.status == "pass"
    assert row.direct_value <= 1e-6


def test_criterion_6_wn_mixture_roof(report):
    row = report.row("criterion_6")
    assert row.status == "pass"
    assert abs(row.printed_value - 0.6) < 1e-15
    assert abs(row.direct_value - 0.6) <= 1e-9


def test_criterion_7_purification_round_trips(report):
    row = report.row("criterion_7")
    assert row.status == "pass"
    assert row.direct_value <= 1e-10


def test_criterion_8_povm_reaches_the_roof(report):
    row = report.row("criterion_8")
    assert row.status == "pass"
    assert row.direct_value <= 1e-9


def test_criterion_9_exactly_three_ledgered(report):
    row = report.row("criterion_9")
    assert row.status == "pass"
    assert abs(row.printed_value - 0.8235) <= 1e-3
    assert abs(row.direct_value - 0.9149) <= 1e-3


def test_criterion_10_property_suites(report):
    row = report.row("criterion_10")
    assert row.status == "pass"
    assert row.direct_value <= 1e-9


def test_ledgered_rows_are_the_known_three(report):
    names = [row.name for row in report.ledgered]
    assert names == [
        "ledgered_conditional_branch_weight",
        "ledgered_e_ms_psi4_branch_1",
        "ledgered_e_ms_psi6_branch_1",
    ]
    assert not report.failures


def test_ledgered_magnitudes(report):
    weight = report.row("ledgered_conditional_branch_weight")
    assert abs(weight.printed_value - 1.0) <= 1e-3
    assert abs(weight.direct_value - 0.6) <= 1e-3
    psi6 = report.row("ledgered_e_ms_psi6_branch_1")
    assert abs(psi6.printed_value - 10.0 / 27.0) <= 1e-3
    assert abs(psi6.direct_value - 26.0 / 27.0) <= 1e-3
