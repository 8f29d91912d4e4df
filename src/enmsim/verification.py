"""Randomized property suites and numerical claim checks.

Every check is deterministic for a fixed seed and hands its measured values
to :func:`_result`, which reduces each claim to its worst value; the
:class:`CheckResult` decides pass/fail and reports each claim's worst value,
tolerance and margin.  The CLI ``verify`` command runs a selection and exits
nonzero if anything fails.  ``_SUITES`` is the one registry of the paper's
claims: the acceptance test module runs every suite in it and checks no
claim of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import correlations, covariant, lindblad, metrology, qstate, tomography
from .errors import ConfigError


@dataclass(frozen=True)
class CheckResult:
    """A suite's claims, each a ``(label, worst value, tolerance)`` triple."""

    name: str
    claims: tuple

    @property
    def passed(self) -> bool:
        return all(worst <= tol for _, worst, tol in self.claims)

    @property
    def detail(self) -> str:
        return "; ".join(
            f"{label} = {worst:.3e} (tol {tol:.3g}, margin {tol - worst:.3e})"
            for label, worst, tol in self.claims
        )


def _result(name: str, *claims) -> CheckResult:
    """Reduce each ``(label, values, tol)`` to its largest value.

    ``np.max`` propagates NaN, so a NaN anywhere in a claim's values fails it.
    """
    return CheckResult(
        name,
        tuple((label, float(np.max(values)), tol) for label, values, tol in claims),
    )


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


def random_x_state_mixed_marginal(rng: np.random.Generator) -> np.ndarray:
    """Random X state whose first marginal is maximally mixed."""
    d1 = rng.uniform(0.0, 0.5)
    d2 = 0.5 - d1
    d3 = rng.uniform(0.0, 0.5)
    d4 = 0.5 - d3
    m14 = rng.uniform(0.0, 1.0) * np.sqrt(d1 * d4)
    m23 = rng.uniform(0.0, 1.0) * np.sqrt(d2 * d3)
    p14 = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    p23 = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    rho = np.diag([d1, d2, d3, d4]).astype(complex)
    rho[0, 3] = m14 * p14
    rho[3, 0] = np.conj(rho[0, 3])
    rho[1, 2] = m23 * p23
    rho[2, 1] = np.conj(rho[1, 2])
    return rho


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
        rates = covariant.CovariantRates.from_callables(a, x, 0.0)
    else:
        rates = covariant.CovariantRates.from_callables(a, x, rng.uniform(0.0, 1.0))
    coeffs = covariant.channel_grid(rates, [rng.uniform(0.1, 3.0)])
    matrix, shift = covariant.bloch_maps(*coeffs)
    return matrix[0], shift[0]


# ---------------------------------------------------------------------------
# Property suites (randomized, seed-deterministic)
# ---------------------------------------------------------------------------


def check_roundtrip(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(100):
        r = random_bloch(rng)
        rho = qstate.bloch_to_density(r)
        back = qstate.density_to_bloch(rho)
        rebuilt = qstate.bloch_to_density(back)
        errors += [np.max(np.abs(back - r)), np.max(np.abs(rebuilt - rho))]
    return _result("roundtrip", ("max round-trip error", errors, 1e-12))


def check_subadditivity(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    rho = np.array([random_density(rng, 4) for _ in range(100)])
    s_ab = qstate.von_neumann_entropy(rho)
    s_a = qstate.von_neumann_entropy(qstate.partial_trace(rho, "B"))
    s_b = qstate.von_neumann_entropy(qstate.partial_trace(rho, "A"))
    excess = s_ab - s_a - s_b
    return _result("subadditivity", ("max S(AB) - S(A) - S(B)", excess, 1e-9))


def check_monotonicity(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    states, outs = [], []
    for _ in range(100):
        rho = random_density(rng, 4)
        matrix, shift = random_covariant_channel(rng)
        states.append(rho)
        outs.append(lindblad.apply_to_first_qubit(rho, matrix, shift))
    rho, out = np.array(states), np.array(outs)
    e0, i0 = correlations.negativity(rho), correlations.mutual_information(rho)
    e1, i1 = correlations.negativity(out), correlations.mutual_information(out)
    increases = [e1 - e0, i1 - i0]
    return _result(
        "monotonicity", ("max increase of E or I under local noise", increases, 1e-9)
    )


def check_discord_oracle(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    states = np.array([random_x_state_mixed_marginal(rng) for _ in range(100)])
    fast = correlations.xstate_discord(states)
    gaps = np.abs(fast - correlations.discord_brute_force(states))
    return _result("discord-oracle", ("max |candidates - brute force|", gaps, 1e-5))


# ---------------------------------------------------------------------------
# Claim checks
# ---------------------------------------------------------------------------


def _ode_grid(t_max: float = 5.0, points: int = 50) -> np.ndarray:
    return np.concatenate([[0.0], np.geomspace(1e-3, t_max, points)])


def check_negativity_law(seed: int = 0) -> CheckResult:
    rates = covariant.CovariantRates.optimal(1.0, 0.0)
    grid = _ode_grid()
    pm = lindblad.propagate(covariant.decoherence_matrix(rates), grid=grid)
    negativity = correlations.negativity(lindblad.choi_of_map(pm.matrices, pm.shifts))
    gaps = np.abs(negativity - 0.5 * np.exp(-2.0 * pm.times))
    return _result("negativity-law", ("max |E(t) - e^(-2t)/2|", gaps, 1e-6))


def _time_dependent_optimal_rates() -> covariant.CovariantRates:
    """Optimal rates with a(t) = 1 + 0.5 sin t and x(t) = 0.3 cos t."""
    return covariant.CovariantRates.optimal(
        lambda t: 1.0 + 0.5 * np.sin(t), lambda t: 0.3 * np.cos(t)
    )


def _integral_slope(rates: covariant.CovariantRates, t):
    """Difference quotient of F over [max(t - h, 0), t + h].

    Elementwise over an array t for constant rates.
    """
    h = 1e-6 * np.maximum(1.0, t)
    lo = np.maximum(t - h, 0.0)
    return (
        covariant.optimal_dephasing_integral(rates, t + h)
        - covariant.optimal_dephasing_integral(rates, lo)
    ) / (t + h - lo)


def check_optimal_rate(seed: int = 0) -> CheckResult:
    ts = np.geomspace(1e-3, 5.0, 50)
    rates0 = covariant.CovariantRates.optimal(1.0, 0.0)
    tanh_gaps = np.abs(covariant.optimal_dephasing_rate(rates0, ts) + np.tanh(ts))
    slope_gaps = np.abs(_integral_slope(rates0, ts) + np.tanh(ts))
    fd_grid = np.union1d(np.linspace(0.05, 4.0, 12), np.linspace(0.05, 4.0, 15))

    def fd_gap(rates, t):
        return np.abs(_integral_slope(rates, t) - covariant.optimal_dephasing_rate(rates, t))

    cases = ((1.0, 0.0), (1.0, 0.5), (2.0, 1.0))
    fd_gaps = [fd_gap(covariant.CovariantRates.optimal(a, x), fd_grid) for a, x in cases]
    timedep = _time_dependent_optimal_rates()  # no closed form: time by time
    fd_gaps.append([fd_gap(timedep, t) for t in fd_grid])
    return _result(
        "optimal-rate",
        ("max |f+tanh t|", tanh_gaps, 1e-8),
        ("max |F'+tanh t|", slope_gaps, 1e-8),
        ("max |closed form - dF/dt|", fd_gaps, 1e-6),
    )


def check_saturation(seed: int = 0) -> CheckResult:
    grid = _ode_grid()
    cases = [covariant.CovariantRates.optimal(1.0, x) for x in (0.0, 0.5)]
    floors = []
    for rates in [*cases, _time_dependent_optimal_rates()]:
        omega = covariant.choi_states(*covariant.channel_grid(rates, grid))
        floors.append(np.abs(np.linalg.eigvalsh(omega).min(axis=-1)))
    pm = lindblad.propagate(covariant.decoherence_matrix(cases[0]), grid=grid)
    omega = lindblad.choi_of_map(pm.matrices, pm.shifts)
    ode_floors = np.abs(np.linalg.eigvalsh(omega).min(axis=-1))
    return _result(
        "saturation",
        ("max |min Choi eigenvalue|, closed form", floors, 1e-7),
        ("max |min Choi eigenvalue|, propagated", ode_floors, 1e-7),
    )


def check_limits(seed: int = 0) -> CheckResult:
    i_gaps, q_gaps, image_gaps, oracle_states, oracle_discords = [], [], [], [], []
    # the ball flattens onto a disk of radius sqrt(1 - q^2)/2 at -q by t = 30,
    # and stays there long after e^{-2t} underflows
    times = np.array([30.0, 1e6, 1e12])
    for q in (0.0, 0.3, 0.5, 0.7, 1.0):  # |x| = a: the disk shrinks to the point -1
        rates = covariant.CovariantRates.optimal(1.0, q)
        alpha, beta, shift = covariant.channel_grid(rates, times)
        disk = np.array([[0.5 * np.sqrt(1.0 - q * q)], [0.0], [-q]])
        image_gaps.append(np.abs(np.array([alpha, beta, -shift]) - disk))
        if q == 1.0:
            continue
        omega = covariant.choi_states(alpha[0], beta[0], shift[0])  # the state at t = 30
        i_limit = correlations.asymptotic_mutual_information(q)
        i_gaps.append(abs(correlations.mutual_information(omega) - i_limit))
        discord = correlations.xstate_discord(omega)
        q_gaps.append(abs(discord - correlations.asymptotic_discord(q)))
        if q == 0.0:
            pin = abs(discord - 0.311278)
        if q in (0.0, 0.5):
            oracle_states.append(omega)
            oracle_discords.append(discord)
    oracle = correlations.discord_brute_force(np.array(oracle_states))
    oracle_gaps = np.abs(oracle - np.array(oracle_discords))
    return _result(
        "limits",
        ("max |I - limit|", i_gaps, 1e-4),
        ("max |Q - limit|", q_gaps, 1e-4),
        ("|Q(x=0) - 0.311278|", pin, 1e-4),
        ("max |Q - brute force|", oracle_gaps, 1e-4),
        ("max |image - disk|", image_gaps, 1e-12),
    )


def check_coherence(seed: int = 0) -> CheckResult:
    rates = covariant.CovariantRates.optimal(1.0, 0.5)
    grid = np.union1d(_ode_grid(3.0, 30), _ode_grid(5.0, 40))
    pm = lindblad.propagate(
        covariant.decoherence_matrix(rates), grid=grid, r0=np.array([1.0, 0.0, 0.0])
    )
    alpha, _, _ = covariant.channel_grid(rates, np.append(grid, 30.0))
    gaps = np.abs(np.hypot(pm.bloch[:, 0], pm.bloch[:, 1]) - alpha[:-1])
    tail = abs(alpha[-1] - 0.5 * np.sqrt(1.0 - 0.25))
    return _result(
        "coherence",
        ("max |C_ode - C_closed|", gaps, 1e-7),
        ("asymptote error", tail, 1e-5),
    )


def check_qfi(seed: int = 0) -> CheckResult:
    rates = covariant.CovariantRates.optimal(1.0, 0.3)
    times = np.linspace(0.2, 3.0, 5)
    alpha, _, shift = covariant.channel_grid(rates, times)
    fishers = metrology.fisher_from_coherence(times, alpha)
    relative, radial = [], []
    h = 1e-6
    for t, a, c, fisher in zip(times, alpha, shift, fishers):
        for omega in (0.1, 0.5, 1.0, 10.0):
            plus = metrology.bloch_with_phase(a, c, omega + h, t)
            minus = metrology.bloch_with_phase(a, c, omega - h, t)
            dr = (plus - minus) / (2.0 * h)
            r = metrology.bloch_with_phase(a, c, omega, t)
            fd = metrology.fisher_information_bloch(r, dr)
            relative.append(abs(fd - fisher) / max(fisher, 1e-12))
            radial.append(abs(r @ dr))
    return _result(
        "qfi",
        ("max relative FD mismatch", relative, 1e-4),
        ("max |r . dr|", radial, 1e-9),
    )


def check_decay_bound(seed: int = 0, ts=(0.5, 2.0)) -> CheckResult:
    rate = 0.5
    gen = lindblad.DecoherenceMatrix.constant(rate * np.eye(3))
    records = lindblad.correlation_decay_report(gen, qstate.BELL_PROJECTOR, list(ts))
    # gamma = rate * 1 washes out correlations at least as fast as this bound
    bounds = [2.0 * np.exp(-2.0 * rate * r.t) for r in records]
    excess = [r.distance - (b + 1e-6) for r, b in zip(records, bounds)]
    witness_excess = [r.witness_distance - (b + 1e-6) for r, b in zip(records, bounds)]
    return _result(
        "decay-bound",
        ("max distance - (bound + 1e-6)", excess, 0.0),
        ("max witness distance - (bound + 1e-6)", witness_excess, 0.0),
    )


def check_enm(seed: int = 0) -> CheckResult:
    rates = covariant.CovariantRates.optimal(1.0, 0.0)
    gen = covariant.decoherence_matrix(rates)
    grid = np.linspace(0.0, 3.0, 301)
    _, first = lindblad.is_cp_divisible(gen, grid)
    pm = lindblad.propagate(gen, grid=np.unique(np.concatenate([grid, grid + 0.1])))
    floors = [
        lindblad.intermediate_map(pm, t, t + 0.1).choi_min_eigenvalue
        for t in (0.5, 1.0, 2.0)
    ]
    # a divisible generator has no first violation, and inf fails the claim
    offset = np.inf if first is None else abs(first - grid[1])
    return _result(
        "enm",
        ("|first violation - first grid step|", offset, np.nextafter(1e-12, 0.0)),
        ("max intermediate Choi floor", floors, np.nextafter(-1e-4, -np.inf)),
    )


def check_spectrum(seed: int = 0) -> CheckResult:
    grid = np.union1d(np.linspace(0.0, 4.0, 100), np.linspace(0.0, 4.0, 81))
    moduli = tomography.spectrum_moduli(grid)
    process = tomography.f_matrix(*tomography.channel_from_exponent(grid))
    errors = np.abs(tomography.process_moduli(process) - moduli)
    rates = covariant.CovariantRates.optimal(1.0, 0.0)
    s_match = 0.7
    choi_gap = qstate.trace_norm(
        lindblad.choi_of_map(*tomography.channel_from_exponent(s_match))
        - covariant.choi_states(*covariant.channel_grid(rates, [s_match / 2.0]))[0]
    )
    m91 = tomography.spectrum_moduli(0.91)
    pin = np.max(np.abs(m91 - np.array([1.0, 0.701262, 0.701262, 0.402524])))
    product_gap = abs(
        float(np.prod(m91)) - (0.5 * (1.0 + np.exp(-0.91))) ** 2 * np.exp(-0.91)
    )
    optics_gaps = []  # the interferometer, built from wave plates, vs the closed form
    for s in (0.2, 0.91, 1.7):
        built = tomography.beam_splitter_map(np.exp(-s))
        for got, want in zip(built, tomography.channel_from_exponent(s)):
            optics_gaps.append(np.max(np.abs(got - want)))
    # the crystal's exponent s = tau^2 / 2 is the optimal channel with a = tau / 2
    crystal = covariant.CovariantRates.optimal(lambda tau: 0.5 * tau, 0.0)
    t = np.linspace(0.0, 1.5e-10, 7)
    tau = tomography.FREQUENCY_SPREAD * tomography.INDEX_DIFFERENCE * t
    crystal_maps = covariant.bloch_maps(*covariant.channel_grid(crystal, tau))
    optical = tomography.channel_from_exponent(tomography.exponent(t))
    timing_gaps = [np.max(np.abs(got - want)) for got, want in zip(crystal_maps, optical)]
    return _result(
        "spectrum",
        ("max moduli error", errors, 1e-10),
        ("max step of the moduli", np.diff(moduli, axis=0), 1e-12),
        ("max step of their product", np.diff(np.prod(moduli, axis=1)), 1e-12),
        ("optical-vs-covariant Choi distance", choi_gap, 1e-9),
        ("s=0.91 moduli error", pin, 1e-6),
        ("product error", product_gap, 1e-12),
        ("linear-optics construction error", optics_gaps, 1e-12),
        ("Gaussian-dephasing timing error", timing_gaps, 1e-10),
    )


def check_dominance(seed: int = 0) -> CheckResult:
    grid = np.geomspace(1e-2, 4.0, 12)
    excess = []
    for a, x in ((1.0, 0.0), (1.0, 0.5)):
        opt = covariant.CovariantRates.optimal(a, x)
        opt_rate = lambda t: covariant.optimal_dephasing_rate(opt, t)
        rivals = [
            covariant.CovariantRates.from_callables(a, x, 0.0),
            covariant.CovariantRates.from_callables(a, x, a),
            covariant.CovariantRates.from_callables(
                a, x, lambda t: 0.5 * opt_rate(t)
            ),
        ]
        omega_opt = covariant.choi_states(*covariant.channel_grid(opt, grid))
        e_opt = correlations.negativity(omega_opt)
        i_opt = correlations.mutual_information(omega_opt)
        for rival in rivals:
            omega = covariant.choi_states(*covariant.channel_grid(rival, grid))
            excess += [
                correlations.negativity(omega) - e_opt,
                correlations.mutual_information(omega) - i_opt,
            ]
    return _result("dominance", ("max rival measure excess over optimal", excess, 1e-9))


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
    """Expand a --suite argument into suite names, validating each.

    A name given twice runs once, in the order of its first mention.
    """
    if selector == "all":
        return available_suites()
    names = list(dict.fromkeys(s.strip() for s in selector.split(",") if s.strip()))
    available = ", ".join(_SUITES)
    if not names:
        raise ConfigError(f"no suite named; available: {available}")
    unknown = [n for n in names if n not in _SUITES]
    if unknown:
        raise ConfigError(f"unknown suites {unknown}; available: {available}")
    return names


def run_suites(names, seed: int = 0) -> list[CheckResult]:
    return [_SUITES[name](seed=seed) for name in names]
