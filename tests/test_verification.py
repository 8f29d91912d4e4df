"""The claim reduction of the verify registry: a NaN anywhere fails its claim."""

import numpy as np
import pytest

from enmsim import correlations, qstate, verification
from enmsim.errors import ConfigError


@pytest.mark.parametrize("where", [0, 2, 4])
def test_nan_fails_its_claim_wherever_it_sits(where):
    values = [1e-13, 2e-13, 3e-13, 4e-13, 5e-13]
    values[where] = np.nan
    result = verification._result(
        "nan", ("clean", [1e-13, 2e-13], 1e-12), ("dirty", values, 1e-12)
    )
    assert not result.passed
    assert result.claims[0] == ("clean", 2e-13, 1e-12)
    assert np.isnan(result.claims[1][1])


def test_check_result_passes_when_every_claim_is_within_tolerance():
    result = verification._result("ok", ("a", [0.5, 1.0], 1.0), ("b", -3.0, 0.0))
    assert result.passed
    assert result.detail == (
        "a = 1.000e+00 (tol 1, margin 0.000e+00); "
        "b = -3.000e+00 (tol 0, margin 3.000e+00)"
    )
    assert not verification.CheckResult("over", (("a", 1.5, 1.0),)).passed


def test_negativity_law_fails_on_nan_negativity(monkeypatch):
    negativity = correlations.negativity
    calls = []

    def mostly_nan(rho):  # NaN at 47 of the suite's 51 times
        calls.append(np.shape(rho))
        values = negativity(rho)
        values[4:] = np.nan
        return values

    monkeypatch.setattr(correlations, "negativity", mostly_nan)
    result = verification.check_negativity_law()
    assert calls == [(51, 4, 4)]
    assert not result.passed, result.detail


def test_dominance_fails_on_nan_mutual_information(monkeypatch):
    mutual_information = correlations.mutual_information

    def one_nan(rho):
        values = mutual_information(rho)
        values[-1] = np.nan
        return values

    monkeypatch.setattr(correlations, "mutual_information", one_nan)
    result = verification.check_dominance()
    assert not result.passed, result.detail
    assert np.isnan(result.claims[0][1])


def test_limits_fails_on_nan_mutual_information(monkeypatch):
    mutual_information = correlations.mutual_information
    calls = []

    def nan_after_first(rho):
        calls.append(rho)
        return mutual_information(rho) if len(calls) == 1 else np.nan

    monkeypatch.setattr(correlations, "mutual_information", nan_after_first)
    result = verification.check_limits()
    assert len(calls) > 1
    assert not result.passed, result.detail


def test_limits_fails_on_nan_discord(monkeypatch):
    monkeypatch.setattr(correlations, "xstate_discord", lambda rho: np.nan)
    result = verification.check_limits()
    assert not result.passed, result.detail


def test_roundtrip_fails_on_nan_bloch_vectors(monkeypatch):
    density_to_bloch = qstate.density_to_bloch

    def with_nan(rho):
        r = density_to_bloch(rho)
        r[0] = np.nan
        return r

    monkeypatch.setattr(qstate, "density_to_bloch", with_nan)
    result = verification.check_roundtrip()
    assert not result.passed, result.detail


def test_repeated_suite_runs_once_in_first_seen_order():
    assert verification.resolve_suites("limits,roundtrip,limits, roundtrip") == [
        "limits",
        "roundtrip",
    ]


@pytest.mark.parametrize("selector", ["", " ", ",", " , "])
def test_empty_suite_selector_says_no_suite_was_named(selector):
    with pytest.raises(ConfigError, match="^no suite named; available: roundtrip, "):
        verification.resolve_suites(selector)
