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
import sys
from dataclasses import dataclass, field

import numpy as np

from . import (
    correlations,
    covariant,
    lindblad,
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


@dataclass
class RunConfig:
    command: str
    a: float = 1.0
    x: float = 0.0
    f_mode: str = "optimal"
    t_min: float = 0.0
    t_max: float = 3.0
    points: int = 50
    spacing: str = "linear"
    fmt: str = "csv"
    seed: int = 0
    omega: float = 1.0
    r0: tuple[float, float, float] = (1.0, 0.0, 0.0)
    s_max: float = 4.0
    suite: str = "all"
    suites: list[str] = field(default_factory=list)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2)
        raise ConfigError(message)


def _add_rate_args(p):
    p.add_argument("--a", type=float, default=1.0, help="transverse rate a >= 0")
    p.add_argument("--x", type=float, default=0.0, help="rate asymmetry x")
    p.add_argument(
        "--f",
        default="optimal",
        help="dephasing rate: optimal | zero | constant:VALUE | expr:EXPRESSION",
    )


def _add_grid_args(p, t_max=3.0):
    p.add_argument("--t-min", type=float, default=0.0)
    p.add_argument("--t-max", type=float, default=t_max)
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
            p.add_argument("--r0", default="1,0,0", help="initial Bloch vector")
        if name == "qfi":
            p.add_argument("--omega", type=float, default=1.0)

    p = sub.add_parser("spectrum")
    p.add_argument("--s-max", type=float, default=4.0)
    p.add_argument("--points", type=int, default=50)
    _add_format_arg(p)

    p = sub.add_parser("verify")
    p.add_argument("--suite", default="all", help="all or comma-separated names")
    p.add_argument("--seed", type=int, default=0)
    return parser


def parse_config(argv) -> RunConfig:
    ns = build_parser().parse_args(argv)
    cfg = RunConfig(command=ns.command)
    for attr in ("a", "x", "t_min", "t_max", "points", "spacing", "fmt", "omega",
                 "seed", "s_max"):
        if hasattr(ns, attr):
            setattr(cfg, attr, getattr(ns, attr))
    if hasattr(ns, "f"):
        cfg.f_mode = ns.f
    if hasattr(ns, "suite"):
        cfg.suite = ns.suite
        cfg.suites = verification.resolve_suites(ns.suite)
    if hasattr(ns, "r0"):
        try:
            parts = tuple(float(v) for v in ns.r0.split(","))
        except ValueError as exc:
            raise ConfigError(f"cannot parse --r0 {ns.r0!r}") from exc
        if len(parts) != 3:
            raise ConfigError("--r0 needs exactly three components")
        if float(np.linalg.norm(parts)) > 1.0 + qstate.BLOCH_TOL:
            raise ConfigError(f"--r0 {ns.r0!r} lies outside the Bloch ball")
        cfg.r0 = parts
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.command == "verify":
        return
    if cfg.command == "spectrum":
        if cfg.s_max < 0 or cfg.points < 2:
            raise ConfigError("need s-max >= 0 and points >= 2")
        return
    if cfg.t_min < 0:
        raise ConfigError("t-min must be nonnegative")
    if cfg.t_max <= cfg.t_min:
        raise ConfigError("t-max must exceed t-min")
    if cfg.points < 2:
        raise ConfigError("points must be at least 2")
    if cfg.spacing == "log" and cfg.t_min <= 0:
        raise ConfigError("log spacing requires t-min > 0")
    if cfg.a < 0:
        raise ConfigError("rate a must be nonnegative")


def rates_from_config(cfg: RunConfig) -> covariant.CovariantRates:
    mode = cfg.f_mode
    if mode == "optimal":
        if abs(cfg.x) > cfg.a:
            raise InfeasibleRates("--f optimal requires |x| <= a")
        return covariant.CovariantRates.optimal(cfg.a, cfg.x)
    if mode == "zero":
        return covariant.CovariantRates.constant(cfg.a, cfg.x, 0.0)
    if mode.startswith("constant:"):
        try:
            value = float(mode.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"cannot parse {mode!r}") from exc
        return covariant.CovariantRates.constant(cfg.a, cfg.x, value)
    if mode.startswith("expr:"):
        fn = compile_rate_expression(mode.split(":", 1)[1])
        return covariant.CovariantRates.from_callables(cfg.a, cfg.x, fn)
    raise ConfigError(f"unknown f mode {mode!r}")


def time_grid(cfg: RunConfig) -> np.ndarray:
    if cfg.spacing == "log":
        return np.geomspace(cfg.t_min, cfg.t_max, cfg.points)
    return np.linspace(cfg.t_min, cfg.t_max, cfg.points)


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


def emit(cfg: RunConfig, headers, rows, sink) -> None:
    text = format_csv(headers, rows) if cfg.fmt == "csv" else format_json(headers, rows)
    sink.write(text)


def cmd_trajectory(cfg: RunConfig, sink) -> int:
    rates = rates_from_config(cfg)
    r0 = np.asarray(cfg.r0, dtype=float)
    rows = []
    for t in time_grid(cfg):
        r = covariant.evolve_bloch(rates, r0, float(t))
        rows.append((t, r[0], r[1], r[2]))
    emit(cfg, ("t", "r1", "r2", "r3"), rows, sink)
    return EXIT_OK


def cmd_choi(cfg: RunConfig, sink) -> int:
    rates = rates_from_config(cfg)
    rows = []
    for t in time_grid(cfg):
        ch = covariant.channel_at(rates, float(t))
        omega = lindblad.choi_of_map(ch.matrix, ch.shift_vector)
        floor = float(np.linalg.eigvalsh(omega).min())
        if floor < -covariant.CPTP_TOL:
            raise InfeasibleRates(
                f"channel is not completely positive at t={t:.12g}: "
                f"minimum Choi eigenvalue {floor:.3e}"
            )
        rows.append((t, ch.alpha, ch.beta, ch.shift, floor))
    emit(cfg, ("t", "alpha", "beta", "c", "min_eigenvalue"), rows, sink)
    return EXIT_OK


def cmd_correlations(cfg: RunConfig, sink) -> int:
    rates = rates_from_config(cfg)
    table = correlations.correlation_table(rates, time_grid(cfg))
    rows = [
        (
            p.t,
            p.negativity,
            p.mutual_information,
            p.discord,
            p.geometric_discord,
            p.coherence,
        )
        for p in table
    ]
    emit(cfg, ("t", "E", "I", "Q", "D", "C"), rows, sink)
    return EXIT_OK


def cmd_coherence(cfg: RunConfig, sink) -> int:
    rates = rates_from_config(cfg)
    rows = [
        (t, correlations.coherence_factor(rates, float(t))) for t in time_grid(cfg)
    ]
    emit(cfg, ("t", "C"), rows, sink)
    return EXIT_OK


def cmd_qfi(cfg: RunConfig, sink) -> int:
    rates = rates_from_config(cfg)
    setup = metrology.PhaseEstimationSetup(omega=cfg.omega, rates=rates)
    rows = []
    for t in time_grid(cfg):
        fisher = metrology.fisher_information(setup, float(t))
        bound = metrology.cramer_rao_bound(fisher) if fisher > 1e-300 else np.inf
        rows.append((t, fisher, bound))
    emit(cfg, ("t", "qfi", "cramer_rao"), rows, sink)
    return EXIT_OK


def cmd_spectrum(cfg: RunConfig, sink) -> int:
    rows = []
    for s in np.linspace(0.0, cfg.s_max, cfg.points):
        moduli = tomography.spectrum_moduli(float(s))
        rows.append((s, *moduli, float(np.prod(moduli))))
    emit(
        cfg,
        ("s", "lambda1", "lambda2", "lambda3", "lambda4", "product"),
        rows,
        sink,
    )
    return EXIT_OK


def cmd_verify(cfg: RunConfig, sink) -> int:
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


def run(cfg: RunConfig, sink) -> int:
    """Execute a parsed configuration, writing data to the sink."""
    return _COMMANDS[cfg.command](cfg, sink)


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv)
        return run(cfg, sys.stdout)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleRates as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except EnmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
