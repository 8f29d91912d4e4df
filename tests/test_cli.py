import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from enmsim import cli, covariant, verification
from enmsim.errors import ConfigError

EXPECTED_HEADERS = {
    "trajectory": "t,r1,r2,r3",
    "choi": "t,alpha,beta,c,min_eigenvalue",
    "correlations": "t,E,I,Q,D,C",
    "coherence": "t,C",
    "qfi": "t,qfi,cramer_rao",
    "spectrum": "s,lambda1,lambda2,lambda3,lambda4,product",
}


def run_cli(argv):
    sink = io.StringIO()
    cfg = cli.parse_config(argv)
    code = cli.run(cfg, sink)
    return code, sink.getvalue()


def test_csv_headers_golden():
    fast = "--points 3 --t-max 1".split()
    for command in ("trajectory", "choi", "correlations", "coherence", "qfi"):
        code, out = run_cli([command, *fast])
        assert code == 0
        assert out.splitlines()[0] == EXPECTED_HEADERS[command]
    code, out = run_cli(["spectrum", "--points", "3"])
    assert code == 0
    assert out.splitlines()[0] == EXPECTED_HEADERS["spectrum"]


def test_output_has_exactly_one_final_newline():
    _, out = run_cli(["coherence", "--points", "3", "--t-max", "1"])
    assert out.endswith("\n") and not out.endswith("\n\n")


def test_correlations_first_row():
    code, out = run_cli(
        "correlations --a 1 --x 0 --f optimal --t-max 3 --points 50 --format csv".split()
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 51
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(0.5, abs=1e-12)
    assert float(first[5]) == pytest.approx(1.0, abs=1e-12)


def test_spectrum_json_first_entry():
    code, out = run_cli("spectrum --s-max 4 --points 10 --format json".split())
    assert code == 0
    data = json.loads(out)
    assert len(data) == 10
    first = data[0]
    assert first["s"] == 0.0
    for key in ("lambda1", "lambda2", "lambda3", "lambda4"):
        assert first[key] == pytest.approx(1.0)


def test_output_determinism():
    argv = "correlations --a 1 --x 0.3 --f optimal --t-max 2 --points 7".split()
    _, first = run_cli(argv)
    _, second = run_cli(argv)
    assert first == second
    argv_json = [*argv, "--format", "json"]
    _, j1 = run_cli(argv_json)
    _, j2 = run_cli(argv_json)
    assert j1 == j2


def test_twelve_significant_digits():
    _, out = run_cli(["coherence", "--points", "2", "--t-max", "1"])
    value = out.splitlines()[2].split(",")[1]
    assert value == f"{0.5 * (1 + np.exp(-2.0)):.12g}"


def test_f_modes():
    base = "--t-max 1 --points 3".split()
    for mode in ("optimal", "zero", "constant:0.3", "expr:-tanh(t)"):
        code, _ = run_cli(["coherence", "--f", mode, *base])
        assert code == 0
    # expr f reproducing the optimal x=0 rate matches --f optimal exactly
    _, via_expr = run_cli(["coherence", "--f", "expr:-tanh(t)", *base])
    _, via_opt = run_cli(["coherence", "--f", "optimal", *base])
    for line_e, line_o in zip(via_expr.splitlines()[1:], via_opt.splitlines()[1:]):
        c_e, c_o = float(line_e.split(",")[1]), float(line_o.split(",")[1])
        assert c_e == pytest.approx(c_o, abs=1e-9)


def test_trajectory_r0():
    code, out = run_cli(
        ["trajectory", "--r0", "0,0,1", "--x", "0.5", "--f", "zero", "--t-max", "2",
         "--points", "3"]
    )
    assert code == 0
    last = out.splitlines()[-1].split(",")
    expected = np.exp(-4.0) - 0.5 * (1 - np.exp(-4.0))
    assert float(last[3]) == pytest.approx(expected, abs=1e-12)


@pytest.mark.filterwarnings("error")  # a warning would print more than one line
def test_config_errors_exit_one(capsys):
    for flags in ("correlations --points 1", "correlations --spacing log",  # t-min 0
                  "correlations --t-min -1", "unknown-command",
                  "coherence --f expr:sin(t)", "trajectory --r0 1,2",
                  "choi --a nan", "choi --x inf", "coherence --t-min nan",
                  "coherence --t-max inf", "qfi --omega nan", "spectrum --s-max nan",
                  "choi --f constant:nan", "trajectory --r0 nan,0,0",
                  "trajectory --r0 0,-inf,0", "trajectory --r0 0,0,1e300",
                  # a divergent rate integral and rates quadrature cannot resolve
                  "coherence --f expr:1/(t-1) --points 3 --t-max 3",
                  "coherence --f expr:1/t --points 3",
                  # the whole grid is evaluated before the CPTP check, so a rate
                  # that fails at t = 3 wins over a CPTP breach at t = 1.5
                  "coherence --f expr:-5+1/(t-2.5)^2 --points 3 --t-max 3",
                  "coherence --f expr:-5+1/((t-2)*(t-2)) --points 3 --t-max 3",
                  "coherence --f expr:-3*t+exp(1000*(t-2)) --points 3 --t-max 3",
                  # t^2 C^2 overflows where the coherence has not decayed
                  "qfi --a 0 --x 0 --f zero --t-max 1e300 --points 3",
                  # grids too large to allocate
                  "coherence --points 1000001",
                  "spectrum --points 1000001",
                  "coherence --points 1000000000000",
                  # numpy's generators refuse a negative seed
                  "verify --suite roundtrip --seed -1"):
        assert cli.main(flags.split()) == 1, flags
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1, (flags, err)


@pytest.mark.filterwarnings("error")  # a warning would print more than one line
def test_infeasible_rates_exit_two(capsys):
    assert cli.main(["correlations", "--a", "1", "--x", "2", "--f", "optimal"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    for command in ("trajectory", "choi", "correlations", "coherence", "qfi"):
        for rates in ("--f constant:-5", "--x 2 --f zero"):
            assert cli.main([command, *rates.split(), "--points", "3"]) == 2
            out, err = capsys.readouterr()
            assert out == "" and len(err.splitlines()) == 1, (command, rates)
    # rates whose CPTP test overflows or turns NaN are refused the same way
    for flags in ("choi --f constant:-1000 --points 3", "choi --x 1e300 --f constant:0",
                  "choi --a 2.23e-309 --x 1 --f zero",
                  "coherence --a 0 --x -0.5 --f zero --t-max 1e200 --points 3",
                  "trajectory --a 0 --x 1e150 --f zero --t-max 1e5 --points 3",
                  "choi --a 0 --x 1 --f constant:3 --t-max 1e300 --points 3",
                  "qfi --a 0 --x 1e200 --f constant:0.5 --t-max 3 --points 3 --format json"):
        assert cli.main(flags.split()) == 2, flags
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1, (flags, err)


@pytest.mark.parametrize(
    "flags",
    [
        "--a 1 --x 1 --t-min 1 --t-max 18.8 --points 2",
        "--a 2 --x 2 --t-min 9.3 --t-max 9.4 --points 50",
        "--a 3 --x 3 --f zero --t-min 6 --t-max 7 --points 50",
        "--a 1 --x 1 --f expr:0*t --t-min 18 --t-max 19 --points 20",
    ],
)
def test_discord_of_channels_that_pass_the_cptp_guard(flags, capsys):
    # with |x| = a the Choi state tends to a product state whose |rho14|
    # sits within rounding of its positivity bound sqrt(rho11 rho44)
    assert cli.main(["correlations", *flags.split()]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    q = np.array([float(row.split(",")[3]) for row in out.splitlines()[1:]])
    assert q.size > 0 and np.all(np.isfinite(q)) and np.all(q >= 0.0)


def test_choi_refuses_non_cp_channel(capsys):
    assert cli.main(["choi", "--f", "constant:-5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_r0_outside_bloch_ball_exit_one(capsys):
    with pytest.raises(ConfigError):
        cli.parse_config(["trajectory", "--r0", "2,0,0"])
    assert cli.main(["trajectory", "--r0", "2,0,0"]) == 1
    assert capsys.readouterr().out == ""
    code, _ = run_cli(["trajectory", "--r0", "0.6,0,0.8", "--points", "3"])
    assert code == 0


def test_json_output_is_strict():
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    code, out = run_cli("qfi --t-max 5 --points 6 --format json".split())
    assert code == 0
    rows = json.loads(out, parse_constant=reject)
    assert rows[0]["t"] == 0.0 and rows[0]["cramer_rao"] is None
    assert all(isinstance(row["cramer_rao"], float) for row in rows[1:])


def test_qfi_is_zero_where_coherence_vanishes():
    # alpha underflows to 0 while t^2 overflows: the Fisher information is 0, not NaN
    base = "qfi --a 0.5 --x 0.5 --f constant:3 --t-max 1e300 --points 3".split()
    _, out = run_cli(base)
    assert [line.split(",")[1] for line in out.splitlines()[1:]] == ["0", "0", "0"]
    _, out = run_cli([*base, "--format", "json"])
    assert [row["qfi"] for row in json.loads(out)] == [0.0, 0.0, 0.0]


@pytest.mark.parametrize(
    "flags",
    ["--a 1 --t-max 1e12 --points 2", "--a 1 --t-max 1e15 --points 2",
     "--a 1e150 --points 3", "--t-max 1e308 --points 3"],
)
def test_optimal_coherence_settles_at_one_half(flags, capsys):
    # alpha = sqrt(m p) tends to sqrt(1 - (x/a)^2)/2 = 1/2 once e^{-2at} underflows
    assert cli.main(["coherence", *flags.split()]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert rows[0][1] == "1" and [c for _, c in rows[1:]] == ["0.5"] * (len(rows) - 1)


def test_identity_channel_at_the_largest_rate(capsys):
    # a t is formed before it is doubled, so t = 0 gives no inf * 0
    assert cli.main("correlations --a 1e308 --points 2".split()) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.splitlines()[1] == "0,0.5,2,1,0.5,1"


@pytest.mark.parametrize("value", ["0.5", "-0.2", "1e308"])
@pytest.mark.parametrize("command", ["trajectory", "choi", "correlations", "coherence", "qfi"])
def test_plain_number_expr_is_the_constant_rate(command, value, capsys):
    printed = []
    for mode in ("expr", "constant"):
        code = cli.main([command, "--f", f"{mode}:{value}", "--points", "5"])
        printed.append((code, *capsys.readouterr()))
    assert printed[0] == printed[1]


@pytest.mark.parametrize("command", ["trajectory", "choi", "correlations", "coherence", "qfi"])
def test_one_channel_evaluation_per_grid_time(command, monkeypatch):
    calls = []
    channel_grid = covariant.channel_grid

    def counting(rates, times):
        calls.append(np.array(times))
        return channel_grid(rates, times)

    def refuse(rates, t):
        raise AssertionError("the rate commands evaluate the grid, not single times")

    monkeypatch.setattr(covariant, "channel_grid", counting)
    monkeypatch.setattr(covariant, "channel_at", refuse)
    code, _ = run_cli([command, "--f", "expr:-0.9*tanh(t)", "--points", "50"])
    assert code == 0
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], np.linspace(0.0, 3.0, 50))


def test_verify_quick_suites_pass():
    code, out = run_cli(["verify", "--suite", "roundtrip,subadditivity", "--seed", "7"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("[PASS] roundtrip")
    assert lines[-1] == "2/2 checks passed"


def test_verify_reports_failure_with_exit_three(monkeypatch):
    def failing(seed=0):
        return verification.CheckResult("broken", (("forced failure", 1.0, 0.0),))

    monkeypatch.setitem(verification._SUITES, "broken", failing)
    sink = io.StringIO()
    cfg = cli.parse_config(["verify", "--suite", "broken"])
    assert cli.run(cfg, sink) == cli.EXIT_VERIFY
    assert "[FAIL] broken" in sink.getvalue()


def test_verify_unknown_suite():
    with pytest.raises(ConfigError):
        cli.parse_config(["verify", "--suite", "nope"])
    assert cli.main(["verify", "--suite", "nope"]) == 1


def test_verify_determinism():
    argv = ["verify", "--suite", "roundtrip,monotonicity", "--seed", "3"]
    _, first = run_cli(argv)
    _, second = run_cli(argv)
    assert first == second


def _cold_start(runs):
    """Run ``cli.main`` on each flag string in one fresh interpreter.

    pytest has already imported scipy, so only a child shows what the CLI
    loads.  Returns the exit codes and the scipy modules loaded at the end.
    """
    child = (
        "import contextlib, io, json, sys\n"
        "from enmsim import cli\n"
        "codes = []\n"
        f"for flags in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "        codes.append(cli.main(flags.split()))\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(json.dumps([codes, loaded]))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_constant_rate_commands_start_without_scipy():
    codes, loaded = _cold_start([
        "trajectory --r0 0,0,1 --x 0.5 --f zero --t-max 2 --points 40",
        "choi --a 1 --x 0.3 --f optimal --t-max 3 --points 30",
        "coherence --f zero --t-max 4 --points 80",
        "coherence --f constant:0.3 --t-max 4 --points 80",
        "coherence --f optimal --t-max 4 --points 80",
        "qfi --t-max 5 --points 60",
        "qfi --t-max 5 --points 60 --format json",
        "spectrum --s-max 4 --points 100 --format json",
        "choi --a nan",
    ])
    assert codes == [0] * 8 + [1]
    assert loaded == []


def test_correlations_loads_no_quadrature_or_ode():
    codes, loaded = _cold_start(["correlations --a 1 --x 0 --f optimal --t-max 3 --points 50"])
    assert codes == [0]
    assert "scipy.integrate" not in loaded
    assert loaded == []  # at x = 0 every state skips the discord's polish
    codes, loaded = _cold_start(["correlations --a 1 --x 0.4 --f optimal --t-max 3 --points 50"])
    assert codes == [0]
    assert "scipy.integrate" not in loaded
