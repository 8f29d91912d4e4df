"""Randomized property suites and numerical claim checks.

Every check is deterministic for a fixed seed and returns a
:class:`CheckResult`; the CLI ``verify`` command runs a selection and exits
nonzero if anything fails.  ``_SUITES`` is the one registry of the paper's
claims: the acceptance test module runs every suite in it and checks no
claim of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import correlations, covariant, lindblad, metrology, qstate, tomography


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# ---------------------------------------------------------------------------
# Random instance generators
# ---------------------------------------------------------------------------


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random density matrix from the Ginibre ensemble."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_bloch(rng: np.random.Generator) -> np.ndarray:
    """Uniform random Bloch vector inside the unit ball."""
    while True:
        r = rng.uniform(-1.0, 1.0, 3)
        if r @ r <= 1.0:
            return r


def random_x_state_mixed_marginal(rng: np.random.Generator) -> correlations.XState:
    """Random X state whose first marginal is maximally mixed."""
    d1 = rng.uniform(0.0, 0.5)
    d2 = 0.5 - d1
    d3 = rng.uniform(0.0, 0.5)
    d4 = 0.5 - d3
    m14 = rng.uniform(0.0, 1.0) * np.sqrt(d1 * d4)
    m23 = rng.uniform(0.0, 1.0) * np.sqrt(d2 * d3)
    p14 = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    p23 = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return correlations.XState(
        diag=np.array([d1, d2, d3, d4]), rho14=m14 * p14, rho23=m23 * p23
    )


def random_covariant_channel(
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Affine map of a random CPTP covariant channel at a random time."""
    a = rng.uniform(0.2, 1.5)
    x = rng.uniform(-a, a)
    kind = rng.integers(0, 3)
    if kind == 0:
        rates = covariant.CovariantRates.optimal(a, x)
    elif kind == 1:
        rates = covariant.CovariantRates.constant(a, x, 0.0)
    else:
        rates = covariant.CovariantRates.constant(a, x, rng.uniform(0.0, 1.0))
    ch = covariant.channel_at(rates, rng.uniform(0.1, 3.0))
    return ch.matrix, ch.shift_vector


# ---------------------------------------------------------------------------
# Property suites (randomized, seed-deterministic)
# ---------------------------------------------------------------------------


def check_roundtrip(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        r = random_bloch(rng)
        rho = qstate.bloch_to_density(r)
        back = qstate.density_to_bloch(rho)
        rebuilt = qstate.bloch_to_density(back)
        worst = max(
            worst,
            float(np.max(np.abs(back - r))),
            float(np.max(np.abs(rebuilt - rho))),
        )
    return CheckResult(
        "roundtrip", worst <= 1e-12, f"max round-trip error {worst:.3e} (tol 1e-12)"
    )


def check_subadditivity(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(100):
        rho = random_density(rng, 4)
        s_ab = qstate.von_neumann_entropy(rho)
        s_a = qstate.von_neumann_entropy(qstate.partial_trace(rho, "B"))
        s_b = qstate.von_neumann_entropy(qstate.partial_trace(rho, "A"))
        worst = max(worst, s_ab - s_a - s_b)
    return CheckResult(
        "subadditivity",
        worst <= 1e-9,
        f"max S(AB) - S(A) - S(B) = {worst:.3e} (tol 1e-9)",
    )


def check_monotonicity(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(100):
        rho = random_density(rng, 4)
        matrix, shift = random_covariant_channel(rng)
        e0, i0 = correlations.negativity(rho), correlations.mutual_information(rho)
        out = lindblad.apply_to_subsystem(rho, matrix, shift, "A")
        e1, i1 = correlations.negativity(out), correlations.mutual_information(out)
        worst = max(worst, e1 - e0, i1 - i0)
    return CheckResult(
        "monotonicity",
        worst <= 1e-9,
        f"max increase of E or I under local noise {worst:.3e} (tol 1e-9)",
    )


def check_discord_oracle(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    states = [random_x_state_mixed_marginal(rng) for _ in range(100)]
    worst = max(
        abs(
            correlations.xstate_discord(x)
            - correlations.discord_brute_force(x.to_density())
        )
        for x in states
    )
    return CheckResult(
        "discord-oracle",
        worst <= 1e-5,
        f"max |candidates - brute force| = {worst:.3e} (tol 1e-5)",
    )


# ---------------------------------------------------------------------------
# Claim checks
# ---------------------------------------------------------------------------


def _ode_grid(t_max: float = 5.0, points: int = 50) -> np.ndarray:
    return np.concatenate([[0.0], np.geomspace(1e-3, t_max, points)])


def check_negativity_law(seed: int = 0) -> CheckResult:
    rates = covariant.CovariantRates.optimal(1.0, 0.0)
    grid = _ode_grid()
    pm = lindblad.propagate(covariant.decoherence_matrix(rates), grid=grid)
    worst = max(
        abs(correlations.negativity(pm.choi_at(t)) - 0.5 * np.exp(-2.0 * t))
        for t in grid
    )
    return CheckResult(
        "negativity-law",
        worst <= 1e-6,
        f"max |E(t) - e^(-2t)/2| = {worst:.3e} over 50 log-spaced t (tol 1e-6)",
    )


def _time_dependent_optimal_rates() -> covariant.CovariantRates:
    """Optimal rates with a(t) = 1 + 0.5 sin t and x(t) = 0.3 cos t."""
    return covariant.CovariantRates.optimal(
        lambda t: 1.0 + 0.5 * np.sin(t), lambda t: 0.3 * np.cos(t)
    )


def _integral_slope(rates: covariant.CovariantRates, t: float) -> float:
    """Difference quotient of F over [max(t - h, 0), t + h]."""
    h = 1e-6 * max(1.0, t)
    lo = max(t - h, 0.0)
    return (
        covariant.optimal_dephasing_integral(rates, t + h)
        - covariant.optimal_dephasing_integral(rates, lo)
    ) / (t + h - lo)


def check_optimal_rate(seed: int = 0) -> CheckResult:
    ts = np.geomspace(1e-3, 5.0, 50)
    rates0 = covariant.CovariantRates.optimal(1.0, 0.0)
    worst_tanh = max(
        abs(covariant.optimal_dephasing_rate(rates0, t) + np.tanh(t)) for t in ts
    )
    worst_slope = max(abs(_integral_slope(rates0, t) + np.tanh(t)) for t in ts)
    worst_fd = 0.0
    cases = [
        covariant.CovariantRates.optimal(a, x)
        for a, x in ((1.0, 0.0), (1.0, 0.5), (2.0, 1.0))
    ]
    fd_grid = np.union1d(np.linspace(0.05, 4.0, 12), np.linspace(0.05, 4.0, 15))
    for rates in [*cases, _time_dependent_optimal_rates()]:
        for t in fd_grid:
            fd = _integral_slope(rates, t)
            worst_fd = max(worst_fd, abs(fd - covariant.optimal_dephasing_rate(rates, t)))
    ok = worst_tanh <= 1e-8 and worst_slope <= 1e-8 and worst_fd <= 1e-6
    return CheckResult(
        "optimal-rate",
        ok,
        f"max |f+tanh t| = {worst_tanh:.3e}, max |F'+tanh t| = {worst_slope:.3e} "
        f"(tol 1e-8), "
        f"max |closed form - dF/dt| = {worst_fd:.3e} (tol 1e-6)",
    )


def check_saturation(seed: int = 0) -> CheckResult:
    grid = _ode_grid()
    worst = 0.0
    cases = [covariant.CovariantRates.optimal(1.0, x) for x in (0.0, 0.5)]
    for rates in [*cases, _time_dependent_optimal_rates()]:
        for t in grid:
            eig = np.linalg.eigvalsh(covariant.choi_state(rates, t)).min()
            worst = max(worst, abs(float(eig)))
    pm = lindblad.propagate(covariant.decoherence_matrix(cases[0]), grid=grid)
    worst_ode = max(abs(float(np.linalg.eigvalsh(pm.choi_at(t)).min())) for t in grid)
    return CheckResult(
        "saturation",
        worst <= 1e-7 and worst_ode <= 1e-7,
        f"max |min Choi eigenvalue| = {worst:.3e} closed form, {worst_ode:.3e} "
        f"propagated, for the optimal channel (tol 1e-7)",
    )


def check_limits(seed: int = 0) -> CheckResult:
    worst_i = worst_q = worst_oracle = pin = 0.0
    for ratio in (0.0, 0.3, 0.5, 0.7):
        rates = covariant.CovariantRates.optimal(1.0, ratio)
        omega = covariant.choi_state(rates, 30.0)
        worst_i = max(
            worst_i,
            abs(
                correlations.mutual_information(omega)
                - correlations.asymptotic_mutual_information(ratio)
            ),
        )
        discord = correlations.xstate_discord(omega)
        worst_q = max(worst_q, abs(discord - correlations.asymptotic_discord(ratio)))
        if ratio == 0.0:
            pin = abs(discord - 0.311278)
        if ratio in (0.0, 0.5):
            worst_oracle = max(
                worst_oracle, abs(correlations.discord_brute_force(omega) - discord)
            )
    ok = max(worst_i, worst_q, pin, worst_oracle) <= 1e-4
    return CheckResult(
        "limits",
        ok,
        f"max |I - limit| = {worst_i:.3e}, max |Q - limit| = {worst_q:.3e}, "
        f"|Q(x=0) - 0.311278| = {pin:.3e}, "
        f"max |Q - brute force| = {worst_oracle:.3e} (tol 1e-4)",
    )


def check_coherence(seed: int = 0) -> CheckResult:
    rates = covariant.CovariantRates.optimal(1.0, 0.5)
    grid = np.union1d(_ode_grid(3.0, 30), _ode_grid(5.0, 40))
    pm = lindblad.propagate(
        covariant.decoherence_matrix(rates), grid=grid, r0=np.array([1.0, 0.0, 0.0])
    )
    worst = 0.0
    for idx, t in enumerate(grid):
        c_ode = float(np.hypot(pm.bloch[idx][0], pm.bloch[idx][1]))
        worst = max(worst, abs(c_ode - covariant.channel_at(rates, t).alpha))
    tail = abs(covariant.channel_at(rates, 30.0).alpha - 0.5 * np.sqrt(1.0 - 0.25))
    ok = worst <= 1e-7 and tail <= 1e-5
    return CheckResult(
        "coherence",
        ok,
        f"max |C_ode - C_closed| = {worst:.3e} (tol 1e-7), "
        f"asymptote error {tail:.3e} (tol 1e-5)",
    )


def check_qfi(seed: int = 0) -> CheckResult:
    rates = covariant.CovariantRates.optimal(1.0, 0.3)
    worst_rel = worst_radial = 0.0
    h = 1e-6
    for t in np.linspace(0.2, 3.0, 5):
        for omega in (0.1, 0.5, 1.0, 10.0):
            setup = metrology.PhaseEstimationSetup(omega=omega, rates=rates)
            fisher = metrology.fisher_information(setup, t)
            plus = metrology.bloch_with_phase(
                metrology.PhaseEstimationSetup(omega=omega + h, rates=rates), t
            )
            minus = metrology.bloch_with_phase(
                metrology.PhaseEstimationSetup(omega=omega - h, rates=rates), t
            )
            dr = (plus - minus) / (2.0 * h)
            r = metrology.bloch_with_phase(setup, t)
            fd = metrology.fisher_information_bloch(r, dr)
            worst_rel = max(worst_rel, abs(fd - fisher) / max(fisher, 1e-12))
            worst_radial = max(worst_radial, abs(float(r @ dr)))
    ok = worst_rel <= 1e-4 and worst_radial <= 1e-9
    return CheckResult(
        "qfi",
        ok,
        f"max relative FD mismatch {worst_rel:.3e} (tol 1e-4), "
        f"max |r . dr| = {worst_radial:.3e} (tol 1e-9)",
    )


def check_decay_bound(seed: int = 0, ts=(0.5, 2.0)) -> CheckResult:
    rate = 0.5
    gen = lindblad.DecoherenceMatrix.constant(rate * np.eye(3))
    records = lindblad.correlation_decay_report(
        gen, qstate.BELL_PROJECTOR, list(ts), rate=rate
    )
    exact = all(r.bound == 2.0 * np.exp(-2.0 * rate * r.t) for r in records)
    ok = exact and all(
        r.satisfied and r.witness_distance <= r.bound + 1e-6 for r in records
    )
    worst = max(r.distance - r.bound for r in records)
    return CheckResult(
        "decay-bound",
        ok,
        f"max distance - bound = {worst:.3e} at rate 0.5 on Bell input (tol 1e-6), "
        f"bound == 2 exp(-2 rate t): {exact}",
    )


def check_enm(seed: int = 0) -> CheckResult:
    rates = covariant.CovariantRates.optimal(1.0, 0.0)
    gen = covariant.decoherence_matrix(rates)
    grid = np.linspace(0.0, 3.0, 301)
    divisible, first = lindblad.is_cp_divisible(gen, grid)
    pm = lindblad.propagate(gen, grid=np.unique(np.concatenate([grid, grid + 0.1])))
    floors = [
        lindblad.intermediate_map(pm, t, t + 0.1).choi_min_eigenvalue
        for t in (0.5, 1.0, 2.0)
    ]
    ok = (
        not divisible
        and first is not None
        and abs(first - grid[1]) < 1e-12
        and all(f < -1e-4 for f in floors)
    )
    return CheckResult(
        "enm",
        ok,
        f"divisible={divisible}, first violation t={first}, "
        f"intermediate Choi floors {[f'{f:.4f}' for f in floors]} (all < -1e-4)",
    )


def check_spectrum(seed: int = 0) -> CheckResult:
    grid = np.union1d(np.linspace(0.0, 4.0, 100), np.linspace(0.0, 4.0, 81))
    worst = 0.0
    moduli = []
    for s in grid:
        matrix, shift = tomography.channel_from_exponent(float(s))
        pmx = tomography.f_matrix(matrix, shift)
        expected = tomography.spectrum_moduli(float(s))
        worst = max(worst, float(np.max(np.abs(pmx.moduli - expected))))
        moduli.append(expected)
    moduli = np.array(moduli)
    monotone = bool(np.all(np.diff(moduli, axis=0) <= 1e-12)) and bool(
        np.all(np.diff(np.prod(moduli, axis=1)) <= 1e-12)
    )
    rates = covariant.CovariantRates.optimal(1.0, 0.0)
    s_match = 0.7
    choi_gap = qstate.trace_norm(
        tomography.choi_of_optical_channel(s_match)
        - covariant.choi_state(rates, s_match / 2.0)
    )
    m91 = tomography.spectrum_moduli(0.91)
    pin = float(np.max(np.abs(m91 - np.array([1.0, 0.701262, 0.701262, 0.402524]))))
    product_gap = abs(
        float(np.prod(m91)) - (0.5 * (1.0 + np.exp(-0.91))) ** 2 * np.exp(-0.91)
    )
    optics_gap = 0.0  # the interferometer, built from wave plates, vs the closed form
    for s in (0.2, 0.91, 1.7):
        built = tomography.beam_splitter_map(np.exp(-s))
        for got, want in zip(built, tomography.channel_from_exponent(s)):
            optics_gap = max(optics_gap, float(np.max(np.abs(got - want))))
    ok = (
        worst <= 1e-10
        and monotone
        and choi_gap <= 1e-9
        and pin <= 1e-6
        and product_gap <= 1e-12
        and optics_gap <= 1e-12
    )
    return CheckResult(
        "spectrum",
        ok,
        f"max moduli error {worst:.3e} (tol 1e-10), monotone={monotone}, "
        f"optical-vs-covariant Choi distance {choi_gap:.3e} (tol 1e-9), "
        f"s=0.91 moduli error {pin:.3e} (tol 1e-6), "
        f"product error {product_gap:.3e} (tol 1e-12), "
        f"linear-optics construction error {optics_gap:.3e} (tol 1e-12)",
    )


def check_dominance(seed: int = 0) -> CheckResult:
    grid = np.geomspace(1e-2, 4.0, 12)
    worst = -np.inf
    for a, x in ((1.0, 0.0), (1.0, 0.5)):
        opt = covariant.CovariantRates.optimal(a, x)
        opt_rate = lambda t: covariant.optimal_dephasing_rate(opt, t)
        rivals = [
            covariant.CovariantRates.constant(a, x, 0.0),
            covariant.CovariantRates.constant(a, x, a),
            covariant.CovariantRates.from_callables(
                a, x, lambda t: 0.5 * opt_rate(t)
            ),
        ]
        for t in grid:
            omega_opt = covariant.choi_state(opt, float(t))
            e_opt = correlations.negativity(omega_opt)
            i_opt = correlations.mutual_information(omega_opt)
            for rival in rivals:
                omega = covariant.choi_state(rival, float(t))
                worst = max(
                    worst,
                    correlations.negativity(omega) - e_opt,
                    correlations.mutual_information(omega) - i_opt,
                )
    return CheckResult(
        "dominance",
        worst <= 1e-9,
        f"max rival measure excess over optimal = {worst:.3e} (tol 1e-9)",
    )


_SUITES = {
    "roundtrip": check_roundtrip,
    "subadditivity": check_subadditivity,
    "monotonicity": check_monotonicity,
    "discord-oracle": check_discord_oracle,
    "negativity-law": check_negativity_law,
    "optimal-rate": check_optimal_rate,
    "saturation": check_saturation,
    "limits": check_limits,
    "coherence": check_coherence,
    "qfi": check_qfi,
    "decay-bound": check_decay_bound,
    "enm": check_enm,
    "spectrum": check_spectrum,
    "dominance": check_dominance,
}


def available_suites() -> list[str]:
    return list(_SUITES)


def resolve_suites(selector: str) -> list[str]:
    """Expand a --suite argument into suite names, validating each."""
    from .errors import ConfigError

    if selector == "all":
        return available_suites()
    names = [s.strip() for s in selector.split(",") if s.strip()]
    unknown = [n for n in names if n not in _SUITES]
    if unknown or not names:
        raise ConfigError(
            f"unknown suites {unknown}; available: {', '.join(_SUITES)}"
        )
    return names


def run_suites(names, seed: int = 0) -> list[CheckResult]:
    return [_SUITES[name](seed=seed) for name in names]
