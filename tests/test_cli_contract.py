"""Seeded property test of the CLI contract over random flags and expressions.

Every call ends in exit 0 with a table that strict parsers accept and that
holds no NaN (in JSON, null only as the Cramer-Rao bound), in exit 1 or 2
with one error line on stderr, no warning and nothing on stdout, or in exit 3
(a failed verify report); no exception escapes ``main()``.
"""

import contextlib
import io
import json
import math
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from enmsim import cli

MALFORMED = st.sampled_from(["-1", "1e-300", "1e300", "nan", "inf", "-inf", "abc", ""])

EXPRESSIONS = st.recursive(
    st.sampled_from(["t", "0", "0.5", "-2", "3.7", "1e308", "1e400", "(-1)"]),
    lambda inner: st.one_of(
        st.builds("({}{}{})".format, inner, st.sampled_from("+-*/^"), inner),
        st.builds(
            "{}({})".format,
            st.sampled_from(["exp", "tanh", "sinh", "cosh", "sin", "-"]),
            inner,
        ),
    ),
    max_leaves=6,
) | st.text("t0123456789.e+-*/^() ", max_size=12)


@st.composite
def invocations(draw):
    """argv for one CLI call; about half of them may hold malformed values."""
    bad = draw(st.booleans())

    def number(lo, hi):
        value = st.floats(lo, hi).map("{:.3g}".format)
        return st.one_of(value, MALFORMED) if bad else value

    def choice(*values):
        return st.sampled_from(values + ("bogus",) * bad)

    command = draw(choice("trajectory", "choi", "correlations", "coherence", "qfi",
                          "spectrum", "verify"))
    argv = [command]
    table = {"--points": st.integers(-1 if bad else 2, 6).map(str),
             "--format": choice("csv", "json")}
    if command == "verify":  # always named: all suites would take seconds
        argv += ["--suite", draw(choice("roundtrip", "subadditivity,spectrum"))]
        flags = {"--seed": st.integers(-99 if bad else 0, 99).map(str)}
    elif command == "spectrum":
        flags = {"--s-max": number(0.0, 5.0), **table}
    else:
        f_modes = st.one_of(
            choice("optimal", "zero"),
            number(-1.5, 1.5).map("constant:{}".format),
            EXPRESSIONS.map("expr:{}".format),
        )
        flags = {"--a": number(0.0, 2.0), "--x": number(-2.0, 2.0), "--f": f_modes,
                 "--t-min": number(0.01, 1.0), "--t-max": number(1.0, 6.0),
                 "--spacing": choice("linear", "log"), **table}
        if command == "trajectory":
            flags["--r0"] = st.lists(
                number(-0.57, 0.57), min_size=3 - bad, max_size=3
            ).map(",".join)
    for flag, values in flags.items():
        value = draw(st.none() | values)
        argv += [] if value is None else [flag, value]
    return argv


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(derandomize=True, max_examples=400, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
@example(["coherence", "--f", "expr:1/t", "--points", "3"])  # quadrature fails
@example(["choi", "--f", "constant:-1000", "--points", "3"])  # CPTP test overflows
# the CPTP test's products overflow
@example(["coherence", "--a", "0", "--x", "-0.5", "--f", "zero", "--t-max", "1e200",
          "--points", "3"])
@example(["trajectory", "--a", "0", "--x", "1e150", "--f", "zero", "--t-max", "1e5",
          "--points", "3"])
@example(["choi", "--a", "0", "--x", "1", "--f", "constant:3", "--t-max", "1e300",
          "--points", "3"])
@example(["qfi", "--a", "0", "--x", "1e200", "--f", "constant:0.5", "--t-max", "3",
          "--points", "3", "--format", "json"])
# t^2 overflows where the coherence is 0
@example(["qfi", "--a", "0.5", "--x", "0.5", "--f", "constant:3", "--t-max", "1e300",
          "--points", "3"])
# t^2 C^2 overflows where the coherence has not decayed
@example(["qfi", "--a", "0", "--x", "0", "--f", "zero", "--t-max", "1e300",
          "--points", "3", "--format", "json"])
@example(["trajectory", "--r0", "0,0,1e300"])  # the norm of --r0 overflows
@example(["verify", "--suite", "roundtrip", "--seed", "-1"])  # numpy refuses the seed
def test_every_invocation_honours_the_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    if code in (1, 2):
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
        assert len(err.getvalue().splitlines()) == 1
        assert not caught, [str(w.message) for w in caught]
    if code == 0 and argv[0] != "verify":
        if "json" in argv:
            rows = json.loads(out.getvalue(), parse_constant=_reject_constant)
            assert all(v is not None for row in rows for k, v in row.items()
                       if k != "cramer_rao"), rows
        else:
            header, *lines = out.getvalue().splitlines()
            keys = header.split(",")
            rows = [dict(zip(keys, map(float, line.split(",")))) for line in lines]
            assert not any(math.isnan(v) for row in rows for v in row.values()), rows
        if argv[0] == "choi":
            assert all(row["min_eigenvalue"] >= -1e-9 for row in rows)
