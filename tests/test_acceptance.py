"""Acceptance gate: every criterion at its stated tolerance and budget.

Each test prints one pass/fail line; the same functions back the CLI's
`report` subcommand.  Sample counts and tolerances are pinned inside
airylab.acceptance; the default seed makes every run reproducible.
"""
import json

import pytest

from airylab import acceptance
from airylab.fredholm import ProductEstimate
from airylab.mc import McEstimate


def _run(fn):
    result = fn(seed=acceptance.DEFAULT_SEED)
    print()
    print(result.line())
    print(json.dumps(result.measured, indent=1, default=str))
    assert result.passed, f"criterion {result.cid} failed: {result.measured}"
    return result


def test_criterion_1_variational_identity():
    result = _run(acceptance.criterion_1_variational_identity)
    assert result.measured["max_rel_err"] <= 1e-6


def test_criterion_2_rate_asymptotics():
    result = _run(acceptance.criterion_2_rate_asymptotics)
    assert abs(result.measured["cubic_ratio"] - 1.0 / 12.0) <= 0.01 / 12.0


def test_criterion_3_fredholm_identity():
    result = _run(acceptance.criterion_3_fredholm_identity)
    for point, stats in result.measured.items():
        if isinstance(stats, dict):
            assert stats["sigma_distance"] <= 3.0, point
            for gap in ("linear_gap", "quadratic_gap"):
                assert abs(stats[gap]) <= 3.0 * stats[f"{gap}_stderr"], (point, gap)


@pytest.mark.parametrize("linear, quadratic, passed", [(2.9, -2.9, True), (3.1, 0.0, False),
                                                       (0.0, -3.1, False)])
def test_criterion_3_gates_the_one_and_two_point_checks(monkeypatch, linear, quadratic, passed):
    # the control variates cancel the one- and two-point functions from the
    # estimate, so a gap beyond 3 sigma must fail the criterion on its own
    def sigmas(z: float) -> McEstimate:
        return McEstimate(mean=z * 1e-3, stderr=1e-3, n_samples=400, seed=1)

    def rows(cases, config, n_samples, seed):
        est = ProductEstimate(mean=0.5, stderr=1e-3, n_samples=400, plain=sigmas(0.0),
                              linear_gap=sigmas(linear), quadratic_gap=sigmas(quadratic))
        return [(0.5, est, 0.0) for _ in cases]

    monkeypatch.setattr(acceptance, "determinant_vs_point_process", rows)
    assert acceptance.criterion_3_fredholm_identity(seed=1, fast=True).passed is passed


def test_criterion_4_riccati_matrix_agreement():
    result = _run(acceptance.criterion_4_riccati_matrix)
    assert result.measured["sao_agreement"] >= 0.95
    assert result.measured["hill_agreement"] >= 0.95


def test_criterion_5_wkb_inequality():
    result = _run(acceptance.criterion_5_wkb)
    assert result.measured["violations"] == 0


def test_criterion_6_localization_sandwich():
    result = _run(acceptance.criterion_6_sandwich)
    m = result.measured
    assert m["lower"] <= m["middle"] + 3.0 * (m["lower_stderr"] ** 2 + m["middle_stderr"] ** 2) ** 0.5
    assert m["middle"] <= m["upper"] + 3.0 * (m["middle_stderr"] ** 2 + m["upper_stderr"] ** 2) ** 0.5


def test_criterion_7_ldp_trend():
    result = _run(acceptance.criterion_7_ldp_trend)
    assert result.measured["t16_rel_gap"] <= 0.35


def test_criterion_8_dual_representation():
    result = _run(acceptance.criterion_8_dual_representation)
    assert result.measured["max_rel_err"] <= 1e-6


def test_criterion_9_proxy_bounds():
    _run(acceptance.criterion_9_proxy_bounds)


def test_budget_overrun_fails_the_criterion(monkeypatch):
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", [])

    @acceptance._criterion(99, "overrun", "deterministic", budget_s=-1.0)
    def overrun(seed, fast):
        return True, {}

    result = overrun()
    assert (result.cid, result.label, result.group) == (99, "overrun", "deterministic")
    assert (result.passed, result.measured) == (False, {"runtime_exceeded": True})
    assert acceptance.ALL_CRITERIA == [(overrun, "deterministic")]
