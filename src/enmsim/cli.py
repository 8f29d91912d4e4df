"""Command-line interface.

Subcommands emit machine-readable tables (CSV or JSON) on stdout:

    trajectory     Bloch vector of an initial state along the time grid
    choi           channel coefficients and Choi eigenvalue floor
    correlations   negativity, mutual information, discord, geometric
                   discord and coherence of the Choi state
    coherence      l1-coherence of the propagated probe state
    qfi            Fisher information and Cramer-Rao bound for the phase
    spectrum       process-matrix eigenvalue moduli of the optical channel
    verify         run the verification suites; nonzero exit on failure

Exit codes: 0 success, 1 configuration error, 2 infeasible rates,
3 verification failure.  Diagnostics go to stderr, data to stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import (
    correlations,
    covariant,
    metrology,
    qstate,
    tomography,
    verification,
)
from .errors import ConfigError, EnmError, InfeasibleRates
from .expressions import compile_rate_expression

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY = 3

#: Largest grid a table command accepts; a bigger one would exhaust memory.
MAX_POINTS = 10**6


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2)
        raise ConfigError(message)


def _finite_float(text: str) -> float:
    """Parse a finite number; argparse reports the failure against its flag."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _seed(text: str) -> int:
    """Parse ``--seed``: numpy's generators take only non-negative integers."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return value


def _bloch_vector(text: str) -> tuple[float, float, float]:
    """Parse ``--r0``: three finite components inside the Bloch ball."""
    parts = tuple(_finite_float(v) for v in text.split(","))
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("needs exactly three components")
    if math.hypot(*parts) > 1.0 + qstate.BLOCH_TOL:
        raise argparse.ArgumentTypeError(f"{text!r} lies outside the Bloch ball")
    return parts


def _add_rate_args(p):
    p.add_argument(
        "--a", type=_finite_float, default=1.0, help="transverse rate a >= 0"
    )
    p.add_argument("--x", type=_finite_float, default=0.0, help="rate asymmetry x")
    p.add_argument(
        "--f",
        dest="f_mode",
        default="optimal",
        help="dephasing rate: optimal | zero | constant:VALUE | expr:EXPRESSION",
    )


def _add_grid_args(p):
    p.add_argument("--t-min", type=_finite_float, default=0.0)
    p.add_argument("--t-max", type=_finite_float, default=3.0)
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--spacing", choices=("linear", "log"), default="linear")


def _add_format_arg(p):
    p.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")


def build_parser() -> _Parser:
    parser = _Parser(prog="enmsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("trajectory", "choi", "correlations", "coherence", "qfi"):
        p = sub.add_parser(name)
        _add_rate_args(p)
        _add_grid_args(p)
        _add_format_arg(p)
        if name == "trajectory":
            p.add_argument("--r0", type=_bloch_vector, default=(1.0, 0.0, 0.0),
                           help="initial Bloch vector")

    p = sub.add_parser("spectrum")
    p.add_argument("--s-max", type=_finite_float, default=4.0)
    p.add_argument("--points", type=int, default=50)
    _add_format_arg(p)

    p = sub.add_parser("verify")
    p.add_argument("--suite", default="all", help="all or comma-separated names")
    p.add_argument("--seed", type=_seed, default=0)
    return parser


def parse_config(argv) -> argparse.Namespace:
    cfg = build_parser().parse_args(argv)
    if cfg.command == "verify":
        cfg.suites = verification.resolve_suites(cfg.suite)
    else:
        _validate(cfg)
    return cfg


def _validate(cfg: argparse.Namespace) -> None:
    if not 2 <= cfg.points <= MAX_POINTS:
        raise ConfigError(f"points must be between 2 and {MAX_POINTS}")
    if cfg.command == "spectrum":
        if cfg.s_max < 0:
            raise ConfigError("s-max must be nonnegative")
        return
    if cfg.t_min < 0:
        raise ConfigError("t-min must be nonnegative")
    if cfg.t_max <= cfg.t_min:
        raise ConfigError("t-max must exceed t-min")
    if cfg.spacing == "log" and cfg.t_min <= 0:
        raise ConfigError("log spacing requires t-min > 0")
    if cfg.a < 0:
        raise ConfigError("rate a must be nonnegative")


def rates_from_config(cfg: argparse.Namespace) -> covariant.CovariantRates:
    mode = cfg.f_mode
    if mode == "optimal":
        return covariant.CovariantRates.optimal(cfg.a, cfg.x)
    if mode == "zero":
        return covariant.CovariantRates.from_callables(cfg.a, cfg.x, 0.0)
    if mode.startswith(("constant:", "expr:")):
        text = mode.split(":", 1)[1]
        try:  # a plain number is a constant rate, integrated in closed form
            f = _finite_float(text)
        except argparse.ArgumentTypeError as exc:
            if mode.startswith("constant:"):
                raise ConfigError(f"cannot parse {mode!r}: {exc}") from exc
            f = compile_rate_expression(text)
        return covariant.CovariantRates.from_callables(cfg.a, cfg.x, f)
    raise ConfigError(f"unknown f mode {mode!r}")


def time_grid(cfg: argparse.Namespace) -> np.ndarray:
    if cfg.spacing == "log":
        return np.geomspace(cfg.t_min, cfg.t_max, cfg.points)
    return np.linspace(cfg.t_min, cfg.t_max, cfg.points)


def _channels(cfg: argparse.Namespace):
    """(times, alpha, beta, shift) over the grid, once the channel is CPTP at all of it.

    Every rate command builds its rows from these arrays, so the channel it
    prints is the one that was checked, and a non-CPTP channel ends with
    exit 2 and no table.  The whole grid is evaluated before the check, so
    a rate that cannot be integrated at some time exits 1 even where the
    channel breaks CPTP earlier.  Overflow and invalid arithmetic stay
    silent: the inf or NaN they leave fails the check.
    """
    rates, times = rates_from_config(cfg), time_grid(cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        alpha, beta, shift = covariant.channel_grid(rates, times)
        cond_a, cond_b, _ = covariant.cptp_conditions(alpha, beta, shift)
    broken = ~(cond_a & cond_b)
    if broken.any():
        k = int(np.argmax(broken))
        which = "4 alpha^2 + c^2 <= (1 + beta)^2" if cond_a[k] else "e^-2A + |lz| <= 1"
        raise InfeasibleRates(
            f"channel is not completely positive at t={times[k]:.12g}: {which} fails"
        )
    return times, alpha, beta, shift


def _format_number(x: float) -> str:
    return f"{float(x):.12g}"


def format_csv(headers, rows) -> str:
    lines = [",".join(headers)]
    for row in rows:
        lines.append(",".join(_format_number(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_number(x) -> float | None:
    x = float(x)
    return x if np.isfinite(x) else None


def format_json(headers, rows) -> str:
    """Strict JSON: non-finite values (such as an infinite bound) become null."""
    payload = [dict(zip(headers, (_json_number(v) for v in row))) for row in rows]
    return json.dumps(payload, separators=(",", ":"), allow_nan=False) + "\n"


def emit(cfg: argparse.Namespace, headers, rows, sink) -> None:
    text = format_csv(headers, rows) if cfg.fmt == "csv" else format_json(headers, rows)
    sink.write(text)


def cmd_trajectory(cfg: argparse.Namespace, sink) -> int:
    times, alpha, beta, shift = _channels(cfg)
    rows = zip(times, alpha * cfg.r0[0], alpha * cfg.r0[1], beta * cfg.r0[2] - shift)
    emit(cfg, ("t", "r1", "r2", "r3"), rows, sink)
    return EXIT_OK


def cmd_choi(cfg: argparse.Namespace, sink) -> int:
    times, alpha, beta, shift = _channels(cfg)
    floors = np.linalg.eigvalsh(covariant.choi_states(alpha, beta, shift)).min(axis=-1)
    rows = zip(times, alpha, beta, shift, floors)
    emit(cfg, ("t", "alpha", "beta", "c", "min_eigenvalue"), rows, sink)
    return EXIT_OK


def cmd_correlations(cfg: argparse.Namespace, sink) -> int:
    rows = [  # the fields of a CorrelationPoint are the columns
        tuple(vars(point).values())
        for point in correlations.correlation_points(*_channels(cfg))
    ]
    emit(cfg, ("t", "E", "I", "Q", "D", "C"), rows, sink)
    return EXIT_OK


def cmd_coherence(cfg: argparse.Namespace, sink) -> int:
    times, alpha, _, _ = _channels(cfg)
    emit(cfg, ("t", "C"), zip(times, alpha), sink)
    return EXIT_OK


def cmd_qfi(cfg: argparse.Namespace, sink) -> int:
    times, alpha, _, _ = _channels(cfg)  # the |+> probe has C(t) = alpha(t)
    fisher = metrology.fisher_from_coherence(times, alpha)
    overflow = ~np.isfinite(fisher)
    if overflow.any():
        t = times[np.argmax(overflow)]
        raise ConfigError(f"Fisher information t^2 C^2 overflows at t={t:.12g}")
    rows = zip(times, fisher, metrology.cramer_rao_bound(fisher))
    emit(cfg, ("t", "qfi", "cramer_rao"), rows, sink)
    return EXIT_OK


def cmd_spectrum(cfg: argparse.Namespace, sink) -> int:
    s = np.linspace(0.0, cfg.s_max, cfg.points)
    moduli = tomography.spectrum_moduli(s)
    rows = zip(s, *moduli.T, moduli.prod(axis=-1))
    emit(
        cfg,
        ("s", "lambda1", "lambda2", "lambda3", "lambda4", "product"),
        rows,
        sink,
    )
    return EXIT_OK


def cmd_verify(cfg: argparse.Namespace, sink) -> int:
    results = verification.run_suites(cfg.suites, seed=cfg.seed)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        sink.write(f"[{status}] {res.name}: {res.detail}\n")
    failed = sum(1 for r in results if not r.passed)
    sink.write(f"{len(results) - failed}/{len(results)} checks passed\n")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


_COMMANDS = {
    "trajectory": cmd_trajectory,
    "choi": cmd_choi,
    "correlations": cmd_correlations,
    "coherence": cmd_coherence,
    "qfi": cmd_qfi,
    "spectrum": cmd_spectrum,
    "verify": cmd_verify,
}


def run(cfg: argparse.Namespace, sink) -> int:
    """Execute a parsed configuration, writing data to the sink."""
    return _COMMANDS[cfg.command](cfg, sink)


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv)
        return run(cfg, sys.stdout)
    except InfeasibleRates as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except EnmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
