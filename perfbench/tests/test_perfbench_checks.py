"""The benchmark's correctness checks accept the reference and reject perturbed values.

Run with ``PYTHONPATH=src python3 -m pytest perfbench/tests``.
"""

import json
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from reference import Mismatch, OpFailed  # noqa: E402

PERTURBATION = 1e-6

CASES = {
    "optimal-inside": wl.Case(a=1.3, x=0.52, points=40, t_max=4.0),
    "optimal-edge": wl.Case(a=0.9, x=-0.9, points=40, t_max=4.0),
    "zero-log": wl.Case(a=1.1, x=0.3, f=0.0, t_min=1e-3, t_max=5.0, points=40, spacing="log"),
    "positive-f": wl.Case(a=0.7, x=-0.2, f=0.4, points=40),
    "expr": wl.Case(a=1.1, f=("expr", 0.9), points=40),
}
COMMANDS = ("choi", "correlations", "coherence", "trajectory", "qfi", "spectrum")


def reference_rows(case, command):
    """The table the program should print, built from the reference alone."""
    if command == "spectrum":
        s = np.linspace(0.0, case.t_max, case.points)
        moduli = ref.spectrum(s)
        return np.column_stack([s, moduli, moduli.prod(axis=-1)])
    times, alpha, beta, c = case.expected()
    rho = ref.choi(alpha, beta, c)
    if command == "choi":
        return np.column_stack([times, alpha, beta, c, ref.min_eigenvalue(rho)])
    if command == "correlations":
        return np.column_stack([times, ref.negativity(rho), ref.mutual_information(rho),
                                ref.covariant_discord(alpha, beta, c),
                                ref.geometric_discord(rho), alpha])
    if command == "coherence":
        return np.column_stack([times, alpha])
    if command == "trajectory":
        r0 = case.r0
        return np.column_stack([times, alpha * r0[0], alpha * r0[1], beta * r0[2] - c])
    fisher = times**2 * alpha**2
    with np.errstate(divide="ignore"):
        return np.column_stack([times, fisher, np.where(fisher > 0, 1.0 / fisher, np.inf)])


def render(command, fmt, rows):
    headers = wl.HEADERS[command]
    if fmt == "csv":
        lines = [",".join(headers)] + [",".join(f"{v:.12g}" for v in row) for row in rows]
        return "\n".join(lines) + "\n"
    return json.dumps([dict(zip(headers, map(float, row))) for row in rows]) + "\n"


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("command", COMMANDS)
def test_reference_table_passes(case, command):
    fmt = "json" if command in ("correlations", "spectrum") else "csv"
    wl.check_table(CASES[case], command, fmt, render(command, fmt, reference_rows(CASES[case], command)))


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("command", COMMANDS)
def test_each_perturbed_column_is_rejected(case, command):
    rows = reference_rows(CASES[case], command)
    for column in range(rows.shape[1]):
        bad = rows.copy()
        bad[17, column] += PERTURBATION
        with pytest.raises(Mismatch):
            wl.check_table(CASES[case], command, "csv", render(command, "csv", bad))


def test_missing_row_is_rejected():
    case = CASES["optimal-inside"]
    with pytest.raises(Mismatch):
        wl.check_table(case, "coherence", "csv", render("coherence", "csv", reference_rows(case, "coherence")[:-1]))


def test_json_infinity_is_a_failed_op():
    case = wl.Case(a=1.0, x=0.0, t_max=5.0, points=60)
    text = render("qfi", "json", reference_rows(case, "qfi"))
    assert "Infinity" in text
    with pytest.raises(OpFailed):
        wl.check_table(case, "qfi", "json", text)
    strict = text.replace("Infinity", "null")
    wl.check_table(case, "qfi", "json", strict)


@pytest.mark.parametrize("mangle", [
    lambda t: t + "\n",
    lambda t: t[:-1],
    lambda t: t.replace("alpha", "a", 1),
    lambda t: t.replace(",", ",x", 7),
])
def test_malformed_csv_is_a_failed_op(mangle):
    case = CASES["optimal-inside"]
    text = render("choi", "csv", reference_rows(case, "choi"))
    with pytest.raises(OpFailed):
        wl.check_table(case, "choi", "csv", mangle(text))


def test_choi_floor_checks():
    ref.check_choi_floor("ok", [0.0, -5e-10], saturated=True)
    with pytest.raises(Mismatch):
        ref.check_choi_floor("negative", [0.1, -1e-8], saturated=False)
    with pytest.raises(Mismatch):
        ref.check_choi_floor("unsaturated", [0.0, 1e-6], saturated=True)


def test_non_cptp_choi_table_is_rejected():
    """A constant f far below the optimal rate leaves a negative Choi floor."""
    case = wl.Case(a=1.0, x=0.0, f=-5.0, points=20)
    with pytest.raises(Mismatch):
        wl.check_table(case, "choi", "csv", render("choi", "csv", reference_rows(case, "choi")))


def test_luo_formula_matches_direction_search():
    alpha, beta, c = ref.constant_rate_channel(1.0, 0.0, "optimal", np.linspace(0.0, 4.0, 30))
    np.testing.assert_allclose(ref.search_discord(ref.choi(alpha, beta, c)),
                               ref.luo_discord(alpha, -alpha, beta), atol=1e-12)


def test_optimal_rate_formula_reduces_to_tanh():
    a, t = 1.3, np.linspace(0.0, 4.0, 9)
    u = np.exp(-2.0 * a * t)
    np.testing.assert_allclose(ref.optimal_rate(a, 0.0, u, 0.0 * t), -a * np.tanh(a * t), atol=1e-14)


def test_longitudinal_integral_matches_constant_closed_form():
    a, x, t = 0.8, 0.3, np.linspace(0.1, 3.0, 7)
    big_a, lz = ref.longitudinal_integrals(lambda s: x + 0.0 * s, lambda s: a * s, t)
    np.testing.assert_allclose(lz, -(x / a) * (1.0 - np.exp(-2.0 * a * t)), atol=1e-14)


def timedep_outputs():
    td, t_end, r0, _ = wl.timedep_inputs(4)
    grid = np.linspace(0.0, t_end, 50)
    alpha, beta, c, f = td.expected(grid)
    zero = np.zeros_like(c)
    matrices = np.zeros((grid.size, 3, 3))
    matrices[:, 0, 0] = matrices[:, 1, 1] = alpha
    matrices[:, 2, 2] = beta
    pm = SimpleNamespace(times=grid, matrices=matrices, shifts=np.stack([zero, zero, -c], -1),
                         bloch=np.stack([alpha * r0[0], alpha * r0[1], beta * r0[2] - c], -1))
    points = [SimpleNamespace(t=t, negativity=b / 2, mutual_information=i, discord=q,
                              geometric_discord=d, coherence=al)
              for t, b, i, q, d, al in zip(
                  grid, beta, ref.mutual_information(ref.choi(alpha, beta, c)),
                  ref.covariant_discord(alpha, beta, c),
                  ref.geometric_discord(ref.choi(alpha, beta, c)), alpha)]
    return td, grid, r0, {
        "channel": (np.column_stack([alpha, beta, c]), f),
        "choi": ref.choi(alpha, beta, c).astype(complex),
        "points": points,
        "propagate": pm,
    }


def timedep_checks(td, grid, r0):
    return {
        "channel": lambda out: wl.check_channel_at(td, grid, out),
        "choi": lambda out: wl.check_choi_states(td, grid, out),
        "points": lambda out: wl.check_correlation_points(td, grid, out),
        "propagate": lambda out: wl.check_propagation(td, grid, r0, out),
    }


def test_timedep_reference_outputs_pass():
    td, grid, r0, outputs = timedep_outputs()
    for name, check in timedep_checks(td, grid, r0).items():
        check(outputs[name])


@pytest.mark.parametrize("target", [
    ("channel", lambda o: (o[0] + np.array([1e-7, 0, 0]), o[1])),
    ("channel", lambda o: (o[0] + np.array([0, 0, 1e-7]), o[1])),
    ("channel", lambda o: (o[0], o[1] + 1e-5)),
    ("choi", lambda o: o + 1e-8),
    ("points", lambda o: [SimpleNamespace(**dict(vars(p), discord=p.discord + 1e-6)) for p in o]),
    ("propagate", lambda o: SimpleNamespace(**dict(vars(o), matrices=o.matrices + 1e-6))),
    ("propagate", lambda o: SimpleNamespace(**dict(vars(o), shifts=o.shifts + 1e-6))),
])
def test_timedep_perturbed_output_is_rejected(target):
    name, perturb = target
    td, grid, r0, outputs = timedep_outputs()
    with pytest.raises(Mismatch):
        timedep_checks(td, grid, r0)[name](perturb(outputs[name]))


def test_verify_text_check():
    wl.check_verify_text("[PASS] a: ok\n[PASS] b: ok\n2/2 checks passed\n", 2)
    with pytest.raises(Mismatch):
        wl.check_verify_text("[PASS] a: ok\n[FAIL] b: bad\n1/2 checks passed\n", 2)


def test_benchmark_json_lists_every_metric():
    from tracer import PER_LAYER

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(wl.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "op_p50_s", "points_per_s", "peak_rss_mb"]
