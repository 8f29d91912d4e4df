"""The benchmark's workloads: inputs drawn from the seed, timed ops, checks.

A workload is a function ``build(seed, ctx)`` that returns ``round_ops(r)``,
the list of ops of round ``r``.  Every run executes whole rounds, so each
run holds the same mix of ops whatever its length.  An op's ``call`` is
the timed part; its ``check`` runs afterwards, untimed, and raises
:class:`reference.OpFailed` or :class:`reference.Mismatch`.

enmsim is imported inside ``build`` so that the tracer can hook the
package before its first import.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import numpy as np

import reference as ref
from reference import OpFailed, Mismatch

HERE = os.path.dirname(os.path.abspath(__file__))

HEADERS = {
    "trajectory": ("t", "r1", "r2", "r3"),
    "choi": ("t", "alpha", "beta", "c", "min_eigenvalue"),
    "correlations": ("t", "E", "I", "Q", "D", "C"),
    "coherence": ("t", "C"),
    "qfi": ("t", "qfi", "cramer_rao"),
    "spectrum": ("s", "lambda1", "lambda2", "lambda3", "lambda4", "product"),
}


@dataclass
class Op:
    kind: str
    points: int
    call: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass
class Context:
    """What a workload needs from the process that runs it."""

    root: str  # checkout root, the working directory of CLI children
    env: dict  # environment for CLI children
    tracer: Any = None  # the run's tracer.Tracer, or None when untraced


def _u(rng, lo, hi, digits=4) -> float:
    """A seeded value rounded so that its decimal string parses back exactly."""
    return round(float(rng.uniform(lo, hi)), digits)


def _ball_point(rng, radius=0.95) -> tuple[float, float, float]:
    v = rng.normal(size=3)
    v *= radius * rng.uniform(0.3, 1.0) / np.linalg.norm(v)
    return tuple(round(float(c), 6) for c in v)


# ---------------------------------------------------------------------------
# A CLI table configuration and the reference it must reproduce
# ---------------------------------------------------------------------------


@dataclass
class Case:
    """Constant a and x; f is "optimal", a number, or ("expr", K) for -K tanh t."""

    a: float = 1.0
    x: float = 0.0
    f: Any = "optimal"
    t_min: float = 0.0
    t_max: float = 3.0
    points: int = 50
    spacing: str = "linear"
    r0: tuple = (1.0, 0.0, 0.0)

    def rate_args(self) -> list[str]:
        if self.f == "optimal":
            f = "optimal"
        elif self.f == 0.0:
            f = "zero"
        elif isinstance(self.f, tuple):
            f = "expr:-tanh(t)" if self.f[1] == 1 else f"expr:-{self.f[1]}*tanh(t)"
        else:
            f = f"constant:{self.f}"
        return [f"--a={self.a}", f"--x={self.x}", "--f", f]

    def grid_args(self) -> list[str]:
        return [f"--t-min={self.t_min}", f"--t-max={self.t_max}",
                "--points", str(self.points), "--spacing", self.spacing]

    def argv(self, command: str, fmt: str) -> list[str]:
        if command == "spectrum":  # t_max and points stand for s-max and points
            return ["spectrum", f"--s-max={self.t_max}", "--points", str(self.points),
                    "--format", fmt]
        extra = ["--r0=" + ",".join(str(v) for v in self.r0)] if command == "trajectory" else []
        return [command, *self.rate_args(), *self.grid_args(), *extra, "--format", fmt]

    def expected(self):
        times = ref.time_grid(self.t_min, self.t_max, self.points, self.spacing)
        if isinstance(self.f, tuple):
            k = self.f[1]
            u = np.exp(-2.0 * self.a * times)
            alpha = np.exp(-self.a * times + k * np.log(np.cosh(times)))
            c = (self.x / self.a) * (1.0 - u)
            return times, alpha, u, c
        return (times, *ref.constant_rate_channel(self.a, self.x, self.f, times))


def check_table(case: Case, command: str, fmt: str, text: str) -> None:
    """Parse one CLI table strictly and compare it with the reference."""
    table = ref.parse_table(text, fmt, HEADERS[command])
    label = f"{command} {' '.join(case.rate_args())}"
    if command == "spectrum":
        ref.check_spectrum_table(label, table, np.linspace(0.0, case.t_max, case.points))
        return
    times, alpha, beta, c = case.expected()
    if table.shape[0] != times.size:
        raise Mismatch(f"{label}: {table.shape[0]} rows, want {times.size}")
    optimal = case.f == "optimal"
    if command == "choi":
        ref.check_channel_table(label, table, times, alpha, beta, c, saturated=optimal)
    elif command == "correlations":
        ref.check_correlation_table(label, table, times, alpha, beta, c, optimal)
    elif command == "coherence":
        ref.check_coherence_table(label, table, times, alpha)
    elif command == "qfi":
        ref.check_qfi_table(label, table, times, alpha)
    elif command == "trajectory":
        ref.check_trajectory_table(label, table, times, alpha, beta, c, case.r0)


def check_verify_text(text: str, suites: int) -> None:
    lines = text.splitlines()
    if len(lines) != suites + 1 or lines[-1] != f"{suites}/{suites} checks passed":
        raise Mismatch(f"verify output {lines[-1:]!r}, want {suites}/{suites} passed")
    failing = [line for line in lines[:-1] if not line.startswith("[PASS] ")]
    if failing:
        raise Mismatch(f"verify suites failed: {failing}")


# ---------------------------------------------------------------------------
# cli-cold: one fresh `python -m enmsim.cli` process per op
# ---------------------------------------------------------------------------


def build_cli_cold(seed: int, ctx: Context):
    rng = np.random.default_rng([seed, 1])
    specs = []  # (kind, argv, points, check(stdout))

    def table(kind, case, command, fmt):
        specs.append((kind, case.argv(command, fmt), case.points,
                      lambda out: check_table(case, command, fmt, out)))

    table("trajectory", Case(a=1.0, x=_u(rng, 0.2, 0.8), f=0.0, t_max=_u(rng, 1.5, 2.5, 3),
                             points=40, r0=_ball_point(rng)), "trajectory", "csv")
    table("choi", Case(a=_u(rng, 0.8, 1.5), x=_u(rng, -0.6, 0.6), t_max=_u(rng, 2.5, 3.5, 3),
                       points=30), "choi", "csv")
    table("correlations", Case(a=_u(rng, 0.8, 1.5), x=0.0, t_max=_u(rng, 2.5, 3.5, 3),
                               points=50), "correlations", "csv")
    table("coherence-expr", Case(a=_u(rng, 1.0, 1.5), f=("expr", 1), t_max=_u(rng, 3.5, 4.5, 3),
                                 points=80), "coherence", "csv")
    # Fixed inputs: this op fails on every run (Infinity in the JSON at t = 0).
    table("qfi-json", Case(a=1.0, x=0.0, t_max=5.0, points=60), "qfi", "json")
    table("spectrum-json", Case(t_max=_u(rng, 3.0, 5.0, 3), points=100), "spectrum", "json")
    suites = "roundtrip,subadditivity,spectrum"
    specs.append(("verify", ["verify", "--suite", suites, "--seed",
                             str(int(rng.integers(0, 10**6)))], 3,
                  lambda out: check_verify_text(out, 3)))

    def make(kind, argv, points, check_out):
        cmd = [sys.executable, "-m", "enmsim.cli", *argv]
        if ctx.tracer:
            layers = os.path.join(ctx.root, "perfbench-out", f"layers-{kind}.json")
            cmd = [sys.executable, os.path.join(HERE, "tracechild.py"), layers, *argv]

        def call():
            proc = subprocess.run(cmd, cwd=ctx.root, env=ctx.env, capture_output=True,
                                  text=True, timeout=120)
            if ctx.tracer and os.path.exists(layers):
                with open(layers) as fh:
                    ctx.tracer.absorb(json.load(fh))
                os.remove(layers)
            return proc

        def check(proc):
            if proc.returncode != 0:
                raise OpFailed(f"{' '.join(argv)}: exit {proc.returncode}: "
                               f"{proc.stderr.strip()[-200:]}")
            check_out(proc.stdout)

        return Op(kind, points, call, check)

    ops = [make(*s) for s in specs]
    return lambda r: ops


# ---------------------------------------------------------------------------
# closed-form-sweep: in-process CLI tables for constant rates on large grids
# ---------------------------------------------------------------------------

SWEEP_POINTS = 256
SWEEP_TABLES = ("correlations", "choi", "coherence", "trajectory", "qfi", "spectrum")


def sweep_cases(seed: int) -> list[tuple[str, Case, str]]:
    """Six slots: (kind, case, format).  The slot fixes the shape, the seed the numbers.

    The ranges are narrow so that the work per op, and with it the timing,
    hardly depends on the seed.
    """
    rng = np.random.default_rng([seed, 2])

    def case(x_frac, f, spacing):
        a = _u(rng, 0.9, 1.1)
        x = a * x_frac if abs(x_frac) == 1.0 else round(a * x_frac, 4)
        return Case(a=a, x=x, f=f, t_min=1e-3 if spacing == "log" else 0.0,
                    t_max=_u(rng, 4.0, 4.4, 3), points=SWEEP_POINTS, spacing=spacing,
                    r0=_ball_point(rng))

    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    return [
        ("optimal-x0", case(0.0, "optimal", "linear"), "csv"),
        ("optimal-x-inside", case(_u(rng, 0.45, 0.55), "optimal", "log"), "json"),
        ("optimal-x-edge", case(sign, "optimal", "linear"), "json"),
        ("zero-f", case(_u(rng, 0.35, 0.45), 0.0, "log"), "csv"),
        ("positive-f", case(_u(rng, -0.25, -0.15), _u(rng, 0.45, 0.55), "linear"), "json"),
        ("optimal-x-negative", case(-_u(rng, 0.45, 0.55), "optimal", "log"), "csv"),
    ]


def _run_cli_tables(cli, commands) -> list[tuple[int, str]]:
    outputs = []
    for argv in commands:
        sink = io.StringIO()
        code = cli.run(cli.parse_config(argv), sink)
        outputs.append((code, sink.getvalue()))
    return outputs


def _table_op(kind, case, fmt, tables, cli) -> Op:
    # qfi is written as CSV in every slot: its JSON form fails on any grid
    # holding t = 0, and that failure is counted once, in cli-cold.
    plan = [(t, "csv" if t == "qfi" else fmt) for t in tables]
    commands = [case.argv(t, f) for t, f in plan]

    def check(outputs):
        for (command, f), (code, text) in zip(plan, outputs):
            if code != 0:
                raise OpFailed(f"{command}: exit code {code}")
            check_table(case, command, f, text)

    return Op(kind, case.points * len(tables), lambda: _run_cli_tables(cli, commands), check)


def build_closed_form_sweep(seed: int, ctx: Context):
    from enmsim import cli

    ops = [_table_op(kind, case, fmt, SWEEP_TABLES, cli) for kind, case, fmt in sweep_cases(seed)]
    return lambda r: ops


# ---------------------------------------------------------------------------
# timedep-dynamics: time-dependent rates through quadrature and the ODE
# ---------------------------------------------------------------------------


@dataclass
class TimeDepRates:
    """a(t) = a0 + a1 sin(w t), x(t) = x1 cos(w t), around a = 1 + 0.5 sin t, x = 0.3 cos t."""

    a0: float
    a1: float
    x1: float
    w: float

    def a(self, t):
        return self.a0 + self.a1 * np.sin(self.w * t)

    def x(self, t):
        return self.x1 * np.cos(self.w * t)

    def big_a(self, t):
        return self.a0 * t + (self.a1 / self.w) * (1.0 - np.cos(self.w * t))

    def expected(self, times):
        """alpha, beta, c and the optimal f from the benchmark's own (A, lz)."""
        big_a, lz = ref.longitudinal_integrals(self.x, self.big_a, times)
        u = np.exp(-2.0 * big_a)
        f = ref.optimal_rate(self.a(times), self.x(times), u, lz)
        return ref.saturated_alpha(u, lz), u, -lz, f


def _counted(fn, tracer):
    if tracer is None:
        return fn

    def rate(t):
        tracer.count("rates.evals")
        return fn(t)

    return rate


TIMEDEP_POINTS = {"channel_at": 150, "choi_state": 300, "correlation_table": 100,
                  "propagate": 30, "expr-cli": 200}


def timedep_inputs(seed: int):
    """Rates, end time, initial Bloch vector and expr: case drawn from the seed."""
    rng = np.random.default_rng([seed, 3])
    td = TimeDepRates(a0=_u(rng, 0.98, 1.02), a1=_u(rng, 0.48, 0.52),
                      x1=_u(rng, 0.29, 0.31), w=_u(rng, 0.98, 1.02))
    t_end = _u(rng, 2.95, 3.05, 3)
    r0 = np.array(_ball_point(rng))
    # a >= 1 and K <= 1 keep f = -K tanh t completely positive (x = 0).
    expr = Case(a=_u(rng, 1.0, 1.2, 3), x=0.0, f=("expr", _u(rng, 0.8, 1.0, 3)),
                t_max=_u(rng, 3.0, 4.0, 3), points=TIMEDEP_POINTS["expr-cli"])
    return td, t_end, r0, expr


def check_channel_at(td: TimeDepRates, grid, out) -> None:
    """out = ((alpha, beta, shift) per time, optimal f per time)."""
    coeffs, f = out
    alpha, beta, c, f_opt = td.expected(grid)
    ref.close("channel_at alpha", coeffs[:, 0], alpha, atol=1e-9)
    ref.close("channel_at beta", coeffs[:, 1], beta, atol=1e-9)
    ref.close("channel_at c", coeffs[:, 2], c, atol=1e-9)
    ref.close("optimal f", f, f_opt, atol=1e-6, rtol=0.0)


def check_choi_states(td: TimeDepRates, grid, states) -> None:
    alpha, beta, c, _ = td.expected(grid)
    ref.close("choi_state", states.real, ref.choi(alpha, beta, c), atol=1e-9, rtol=0.0)
    ref.close("choi_state imaginary part", states.imag, np.zeros(states.shape), atol=1e-12)
    ref.check_choi_floor("choi_state", np.linalg.eigvalsh(states).min(axis=-1), saturated=True)


def check_correlation_points(td: TimeDepRates, grid, points) -> None:
    alpha, beta, c, _ = td.expected(grid)
    cols = np.array([[p.t, p.negativity, p.mutual_information, p.discord,
                      p.geometric_discord, p.coherence] for p in points])
    ref.check_correlation_table("correlation_table", cols, grid, alpha, beta, c, optimal=True)


def check_propagation(td: TimeDepRates, grid, r0, pm) -> None:
    """The RK45 Bloch map must agree with the closed-form channel."""
    alpha, beta, c, _ = td.expected(grid)
    ref.close("propagate times", pm.times, grid, atol=0.0, rtol=0.0)
    want = np.zeros((grid.size, 3, 3))
    want[:, 0, 0] = want[:, 1, 1] = alpha
    want[:, 2, 2] = beta
    ref.close("propagate M_t", pm.matrices, want, atol=1e-7, rtol=0.0)
    zero = np.zeros_like(c)
    ref.close("propagate v_t", pm.shifts, np.stack([zero, zero, -c], axis=-1), atol=1e-7, rtol=0.0)
    bloch = np.stack([alpha * r0[0], alpha * r0[1], beta * r0[2] - c], axis=-1)
    ref.close("propagate r(t)", pm.bloch, bloch, atol=1e-7, rtol=0.0)


def build_timedep_dynamics(seed: int, ctx: Context):
    from enmsim import cli, correlations, covariant, lindblad

    td, t_end, r0, expr = timedep_inputs(seed)
    # Grid sizes give the op kinds similar costs (about 0.3 s each here), so the
    # median op does not hop between kinds; propagate keeps its 30 points.
    channel_grid = np.linspace(0.0, t_end, TIMEDEP_POINTS["channel_at"])
    choi_grid = np.linspace(0.0, t_end, TIMEDEP_POINTS["choi_state"])
    table_grid = np.linspace(0.0, t_end, TIMEDEP_POINTS["correlation_table"])
    ode_grid = np.linspace(0.0, t_end, TIMEDEP_POINTS["propagate"])
    rates = covariant.CovariantRates.optimal(_counted(td.a, ctx.tracer), _counted(td.x, ctx.tracer))

    def channel():
        chans = [covariant.channel_at(rates, float(t)) for t in channel_grid]
        f = [rates.f(float(t)) for t in channel_grid]
        return np.array([[ch.alpha, ch.beta, ch.shift] for ch in chans]), np.array(f)

    ops = [
        Op("channel_at", channel_grid.size, channel, partial(check_channel_at, td, channel_grid)),
        Op("choi_state", choi_grid.size,
           lambda: np.array([covariant.choi_state(rates, float(t)) for t in choi_grid]),
           partial(check_choi_states, td, choi_grid)),
        Op("correlation_table", table_grid.size,
           lambda: correlations.correlation_table(rates, table_grid),
           partial(check_correlation_points, td, table_grid)),
        Op("propagate", ode_grid.size,
           lambda: lindblad.propagate(covariant.decoherence_matrix(rates), grid=ode_grid, r0=r0),
           partial(check_propagation, td, ode_grid, r0)),
        _table_op("expr-cli", expr, "csv", ("choi", "correlations", "coherence"), cli),
    ]
    return lambda r: ops


# ---------------------------------------------------------------------------
# verify-suites: every verification suite, with a seed that rotates per op
# ---------------------------------------------------------------------------


VERIFY_PASSES = 3


def build_verify_suites(seed: int, ctx: Context):
    from enmsim import verification

    names = verification.available_suites()

    def op(suite_seed):
        def check(results):
            if len(results) != len(names):
                raise Mismatch(f"{len(results)} suite results, want {len(names)}")
            failing = [f"{r.name}: {r.detail}" for r in results if not r.passed]
            if failing:
                raise Mismatch(f"suites failed with seed {suite_seed}: {failing}")

        return Op("all-suites", len(names),
                  lambda: verification.run_suites(names, seed=suite_seed), check)

    # Three passes per round: a pass takes about 4 s, and a run's median
    # needs more than the three or four passes a 15 s window holds.
    return lambda r: [op(seed * 1000 + VERIFY_PASSES * r + i) for i in range(VERIFY_PASSES)]


WORKLOADS = {
    "cli-cold": build_cli_cold,
    "closed-form-sweep": build_closed_form_sweep,
    "timedep-dynamics": build_timedep_dynamics,
    "verify-suites": build_verify_suites,
}

#: Fresh interpreter starts whose median is setup_s.
SETUP_SAMPLES = 3
