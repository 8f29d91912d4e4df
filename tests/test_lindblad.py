import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from enmsim import covariant, lindblad, qstate
from enmsim.errors import NonHermitianGamma, NotAState, SingularIntermediateMap
from enmsim.verification import random_bloch, random_density

PLUS = [1.0, 0.0, 0.0]


def velocity(gamma, r):
    """Bloch velocity dr/dt = drift @ r + xi of one gamma."""
    drift, xi = lindblad.bloch_generator(gamma)
    return drift @ np.asarray(r) + xi


def test_generator_zero_gamma():
    np.testing.assert_allclose(velocity(np.zeros((3, 3)), PLUS), 0, atol=1e-15)


def test_generator_pure_dephasing():
    # dephasing pulls the transverse components at rate a + f = 1
    out = velocity(np.diag([0.0, 0.0, 1.0]), PLUS)
    np.testing.assert_allclose(out, [-1.0, 0.0, 0.0], atol=1e-14)


def test_generator_isotropic_velocity():
    rng = np.random.default_rng(1)
    r = random_bloch(rng)
    c = 0.7
    np.testing.assert_allclose(velocity(c * np.eye(3), r), -2.0 * c * r, atol=1e-12)


def test_generator_covariant_longitudinal_sign():
    # the covariant matrix must drive r3 toward -x/a: dr3/dt = -2a r3 - 2x
    a, x = 1.0, 0.5
    rates = covariant.CovariantRates.from_callables(a, x, 0.0)
    r = np.array([0.3, -0.2, 0.4])
    rdot = velocity(covariant.gamma_matrix(rates, 0.0), r)
    expected = np.array([-(a + 0) * r[0], -(a + 0) * r[1], -2 * a * r[2] - 2 * x])
    np.testing.assert_allclose(rdot, expected, atol=1e-12)


def test_generator_equals_the_trace_times_identity_formula():
    # the drift subtracts the trace on its diagonal, which must equal the
    # textbook gamma_S - tr(gamma) 1 bit for bit
    rng = np.random.default_rng(61)
    for scale in np.geomspace(1e-6, 1e6, 40):
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        gamma = scale * (g + g.conj().T) / 2.0
        sym = 0.5 * (gamma + gamma.T)
        drift_formula = sym.real - np.trace(gamma).real * np.eye(3)
        xi_formula = np.array(
            [
                (1j * (gamma[2, 1] - gamma[1, 2])).real,
                (1j * (gamma[0, 2] - gamma[2, 0])).real,
                (1j * (gamma[1, 0] - gamma[0, 1])).real,
            ]
        )
        drift, xi = lindblad.bloch_generator(gamma)
        assert np.array_equal(drift, drift_formula)
        assert np.array_equal(xi, xi_formula)


def test_generator_rejects_non_hermitian():
    crooked = lindblad.DecoherenceMatrix.constant([[0, 1, 0], [0, 0, 0], [0, 0, 0.0]])
    with pytest.raises(NonHermitianGamma):
        crooked.at(0.0)


def test_propagate_zero_gamma_is_identity():
    gen = lindblad.DecoherenceMatrix.constant(np.zeros((3, 3)))
    pm = lindblad.propagate(gen, grid=np.linspace(0, 2, 5)[1:])
    for t in pm.times:
        m, v = pm.at(t)
        np.testing.assert_allclose(m, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(v, 0, atol=1e-12)


def test_propagate_isotropic_decay():
    c = 0.8
    gen = lindblad.DecoherenceMatrix.constant(c * np.eye(3))
    grid = np.linspace(0.0, 2.0, 9)
    pm = lindblad.propagate(gen, grid=grid)
    for t in grid:
        m, v = pm.at(t)
        np.testing.assert_allclose(m, np.exp(-2 * c * t) * np.eye(3), atol=1e-9)
        np.testing.assert_allclose(v, 0, atol=1e-12)


def test_propagate_covariant_shift():
    rates = covariant.CovariantRates.from_callables(1.0, 0.5, 0.0)
    gen = covariant.decoherence_matrix(rates)
    grid = np.linspace(0.0, 3.0, 13)
    pm = lindblad.propagate(gen, grid=grid, r0=np.array([0.0, 0.0, 1.0]))
    for idx, t in enumerate(grid):
        expected_r3 = np.exp(-2 * t) * 1.0 - 0.5 * (1 - np.exp(-2 * t))
        assert pm.bloch[idx][2] == pytest.approx(expected_r3, abs=1e-9)


def test_propagate_matches_direct_state_integration():
    # independent oracle: integrate a single Bloch vector directly
    rates = covariant.CovariantRates.optimal(1.0, 0.4)
    gen = covariant.decoherence_matrix(rates)
    grid = np.linspace(0.0, 2.0, 5)
    pm = lindblad.propagate(gen, grid=grid)
    rng = np.random.default_rng(2)
    for _ in range(3):
        r0 = random_bloch(rng)

        def rhs(t, r):
            drift, xi = lindblad.bloch_generator(gen.at(t))
            return drift @ r + xi

        sol = solve_ivp(rhs, (0, grid[-1]), r0, rtol=1e-11, atol=1e-13, t_eval=grid)
        for idx, t in enumerate(grid):
            m, v = pm.at(t)
            np.testing.assert_allclose(m @ r0 + v, sol.y[:, idx], atol=1e-8)


def test_propagate_with_hamiltonian_rotates():
    omega = 2.0
    gen = lindblad.DecoherenceMatrix.constant(np.zeros((3, 3)), hamiltonian_rate=omega)
    grid = np.array([0.0, 1.0])
    pm = lindblad.propagate(gen, grid=grid)
    m, _ = pm.at(1.0)
    c, s = np.cos(omega), np.sin(omega)
    np.testing.assert_allclose(
        m, np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]]), atol=1e-9
    )


def test_choi_of_map_examples():
    np.testing.assert_allclose(
        lindblad.choi_of_map(np.eye(3)), qstate.BELL_PROJECTOR, atol=1e-15
    )
    np.testing.assert_allclose(
        lindblad.choi_of_map(np.zeros((3, 3))), np.eye(4) / 4, atol=1e-15
    )


def test_choi_of_map_stacks_equal_single_maps():
    rng = np.random.default_rng(11)
    matrices = rng.uniform(-1.0, 1.0, (2, 5, 3, 3))
    shifts = rng.uniform(-0.5, 0.5, (2, 5, 3))
    stacked = lindblad.choi_of_map(matrices, shifts)
    assert stacked.shape == (2, 5, 4, 4)
    for idx in np.ndindex(2, 5):
        np.testing.assert_array_equal(
            stacked[idx], lindblad.choi_of_map(matrices[idx], shifts[idx])
        )
    rates = covariant.CovariantRates.optimal(1.0, 0.3)
    grid = np.linspace(0.0, 4.0, 9)
    states = covariant.choi_states(*covariant.channel_grid(rates, grid))
    for t, omega in zip(grid, states):
        np.testing.assert_array_equal(omega, covariant.choi_state(rates, float(t)))


def test_choi_of_map_operator_basis_oracle():
    # independent definition: the channel applied to half of the
    # maximally entangled state, expanded in the matrix-unit basis
    rates = covariant.CovariantRates.optimal(1.0, 0.4)
    matrices, shifts = covariant.bloch_maps(*covariant.channel_grid(rates, [0.7]))
    matrix, shift = matrices[0], shifts[0]

    def channel(op):
        weight = np.trace(op)
        r = np.array([np.trace(s @ op) for s in qstate.PAULI[1:]])
        out_r = matrix @ r + weight * shift
        return 0.5 * (
            weight * qstate.SIGMA_0
            + out_r[0] * qstate.SIGMA_X
            + out_r[1] * qstate.SIGMA_Y
            + out_r[2] * qstate.SIGMA_Z
        )

    expected = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[i, j] = 1.0
            expected += 0.5 * np.kron(unit, channel(unit))
    np.testing.assert_allclose(
        lindblad.choi_of_map(matrix, shift), expected, atol=1e-12
    )


def test_propagate_diverging_generator():
    from enmsim.errors import IntegratorDiverged

    calls = []

    def gamma(t):
        calls.append(t)
        return (-1.0 / max(1e-300, 1.0 - t)) * np.eye(3, dtype=complex)

    # negative isotropic rates with a finite-time blowup of the map, which
    # grows like (1 - t)^-2; the solve stops once an entry passes the
    # limit, long before its step size collapses at t = 1
    with pytest.raises(IntegratorDiverged, match="exceeds 1e\\+12"):
        lindblad.propagate(lindblad.DecoherenceMatrix(gamma=gamma), grid=[0.5, 2.0])
    assert len(calls) < 5000


def test_propagate_stops_a_blowup_at_the_map_limit():
    from enmsim.errors import IntegratorDiverged

    # a non-CP map below the limit still propagates: negative isotropic
    # rates -c scale the Bloch ball by e^(2ct)
    growing = lindblad.DecoherenceMatrix.constant(-np.eye(3))
    pm = lindblad.propagate(growing, grid=[1.0, 13.0])
    assert pm.matrices[-1] == pytest.approx(np.exp(26.0) * np.eye(3), rel=1e-8)
    with pytest.raises(IntegratorDiverged, match="exceeds"):
        lindblad.propagate(growing, grid=[1.0, 14.0])


def test_propagate_rejects_non_hermitian_gamma():
    crooked = lindblad.DecoherenceMatrix(
        gamma=lambda t: np.array([[1, 1j * t, 0], [1j * t, 1, 0], [0, 0, 1.0]])
    )
    with pytest.raises(NonHermitianGamma):
        lindblad.propagate(crooked, grid=[0.5, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_gamma_is_refused(bad):
    # finite up to t = 0.5, then one diagonal entry is not
    turning = lindblad.DecoherenceMatrix(
        gamma=lambda t: np.diag([1.0, 1.0, 1.0 if t <= 0.5 else bad]).astype(complex)
    )
    with pytest.raises(NonHermitianGamma, match="finite"):
        lindblad.is_cp_divisible(turning, np.linspace(0.0, 1.0, 11))
    with pytest.raises(NonHermitianGamma, match="finite"):
        lindblad.propagate(turning, grid=[0.5, 1.0])


@pytest.mark.parametrize(
    "grid",
    [[np.nan], [1.0, np.inf], [0.5, np.nan, 1.0], [-np.inf, 1.0]],
    ids=["nan", "inf-last", "nan-inside", "minus-inf-first"],
)
def test_non_finite_grid_times_are_refused(grid):
    # a NaN passes the ascending and sign checks, and the ODE solve then never ends
    gen = lindblad.DecoherenceMatrix.constant(0.5 * np.eye(3))
    with pytest.raises(ValueError, match="finite"):
        lindblad.propagate(gen, grid=grid)
    with pytest.raises(ValueError, match="finite"):
        lindblad.is_cp_divisible(gen, grid)
    with pytest.raises(ValueError, match="finite"):
        lindblad.correlation_decay_report(gen, qstate.BELL_PROJECTOR, grid)


def test_propagated_map_at_refuses_non_finite_times():
    gen = lindblad.DecoherenceMatrix.constant(0.5 * np.eye(3))
    pm = lindblad.propagate(gen, grid=[0.5, 1.0])
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="not on the propagation grid"):
            pm.at(t)
    np.testing.assert_array_equal(pm.at(0.0)[0], np.eye(3))


def test_optimal_generator_at_the_edge():
    # |x| = a: f = 0, so gamma >= 0 and the map is the closed-form channel
    rates = covariant.CovariantRates.optimal(1.0, 1.0)
    gen = covariant.decoherence_matrix(rates)
    grid = np.linspace(0.0, 30.0, 31)
    assert lindblad.is_cp_divisible(gen, grid) == (True, None)
    pm = lindblad.propagate(gen, grid)
    alpha, beta, shift = covariant.channel_grid(rates, grid)
    matrices = np.zeros((len(grid), 3, 3))
    matrices[:, 0, 0] = matrices[:, 1, 1] = alpha
    matrices[:, 2, 2] = beta
    np.testing.assert_allclose(pm.matrices, matrices, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(pm.shifts[:, 2], -shift, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(pm.shifts[:, :2], 0.0, rtol=0.0, atol=1e-9)


def test_choi_of_map_matches_covariant_closed_form():
    rates = covariant.CovariantRates.optimal(1.0, 0.3)
    coeffs = covariant.channel_grid(rates, [0.2, 1.0, 4.0])
    maps = zip(*covariant.bloch_maps(*coeffs), covariant.choi_states(*coeffs))
    for matrix, shift, omega in maps:
        np.testing.assert_allclose(lindblad.choi_of_map(matrix, shift), omega, atol=1e-12)


def test_choi_psd_for_valid_dynamics():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.uniform(0.2, 1.5)
        x = rng.uniform(-a, a)
        rates = covariant.CovariantRates.optimal(a, x)
        t = rng.uniform(0.0, 4.0)
        matrices, shifts = covariant.bloch_maps(*covariant.channel_grid(rates, [t]))
        eig = np.linalg.eigvalsh(lindblad.choi_of_map(matrices[0], shifts[0]))
        assert eig.min() >= -1e-6


def test_apply_to_subsystem_is_kron_action():
    rng = np.random.default_rng(4)
    rho = random_density(rng, 4)
    matrix = np.diag([0.5, 0.5, 0.3])
    shift = np.array([0.0, 0.0, -0.2])
    out = lindblad.apply_to_first_qubit(rho, matrix, shift)
    # oracle: apply the channel via its Choi/Kraus-free definition on paulis
    tensor = qstate.pauli_tensor(rho)
    expected = tensor.copy()
    expected[1:, :] = matrix @ tensor[1:, :] + np.outer(shift, tensor[0, :])
    np.testing.assert_allclose(
        out, qstate.density_from_pauli_tensor(expected), atol=1e-12
    )
    # identity on the other side leaves the reduction over A invariant
    np.testing.assert_allclose(
        qstate.partial_trace(out, "A"), qstate.partial_trace(rho, "A"), atol=1e-12
    )


def test_is_cp_divisible_examples():
    markov = lindblad.DecoherenceMatrix.constant(0.5 * np.eye(3))
    ok, first = lindblad.is_cp_divisible(markov, np.linspace(0.0, 5.0, 50))
    assert ok and first is None

    rates = covariant.CovariantRates.optimal(1.0, 0.0)
    gen = covariant.decoherence_matrix(rates)
    grid = np.linspace(0.0, 3.0, 301)
    ok, first = lindblad.is_cp_divisible(gen, grid)
    assert not ok
    assert first == pytest.approx(grid[1])

    wobble = lindblad.DecoherenceMatrix(
        gamma=lambda t: np.diag([1.0, 1.0, np.sin(t)]).astype(complex)
    )
    grid = np.linspace(0.0, 8.0, 1601)
    ok, first = lindblad.is_cp_divisible(wobble, grid)
    assert not ok
    assert abs(first - np.pi) < 0.02


def test_intermediate_map_identity_at_equal_times():
    rates = covariant.CovariantRates.optimal(1.0, 0.0)
    pm = lindblad.propagate(covariant.decoherence_matrix(rates), grid=[0.5, 1.0])
    im = lindblad.intermediate_map(pm, 1.0, 1.0)
    np.testing.assert_allclose(im.matrix, np.eye(3), atol=1e-9)
    assert im.choi_min_eigenvalue == pytest.approx(0.0, abs=1e-9)


def test_intermediate_map_markovian_is_cp():
    gen = lindblad.DecoherenceMatrix.constant(0.6 * np.eye(3))
    grid = np.linspace(0.0, 2.0, 21)
    pm = lindblad.propagate(gen, grid=grid)
    for s, t in [(0.2, 0.5), (0.5, 1.5), (1.0, 2.0)]:
        assert lindblad.intermediate_map(pm, s, t).choi_min_eigenvalue >= -1e-9


def test_intermediate_map_detects_eternal_nonmarkovianity():
    rates = covariant.CovariantRates.optimal(1.0, 0.0)
    pm = lindblad.propagate(
        covariant.decoherence_matrix(rates), grid=[0.5, 1.0, 1.1, 2.0]
    )
    im = lindblad.intermediate_map(pm, 1.0, 1.1)
    assert im.choi_min_eigenvalue < -1e-4

    # independent value: for the unital optimal channel the floor is
    # -(1-b_s)(1-b_t/b_s) / (4(1+b_s)) with b_t = exp(-2t)
    b_s, b_t = np.exp(-2.0), np.exp(-2.2)
    expected = -(1 - b_s) * (1 - b_t / b_s) / (4 * (1 + b_s))
    assert im.choi_min_eigenvalue == pytest.approx(expected, abs=1e-7)


def test_intermediate_map_singular():
    # strong pure dephasing kills the transverse plane but not the axis,
    # so the map at s is numerically singular
    huge = lindblad.DecoherenceMatrix.constant(np.diag([0.0, 0.0, 20.0]))
    pm = lindblad.propagate(huge, grid=[1.5, 2.0])
    with pytest.raises(SingularIntermediateMap):
        lindblad.intermediate_map(pm, 1.5, 2.0)


def test_divisibility_implies_cp_intermediate_maps():
    rng = np.random.default_rng(5)
    diag = rng.uniform(0.1, 1.0, 3)
    gen = lindblad.DecoherenceMatrix.constant(np.diag(diag))
    grid = np.linspace(0.0, 2.0, 11)
    ok, _ = lindblad.is_cp_divisible(gen, grid)
    assert ok
    pm = lindblad.propagate(gen, grid=grid)
    for i in range(1, len(grid) - 1):
        im = lindblad.intermediate_map(pm, grid[i], grid[i + 1])
        assert im.choi_min_eigenvalue >= -1e-6


def test_trace_distance_contraction_under_divisible_dynamics():
    gen = lindblad.DecoherenceMatrix.constant(np.diag([0.3, 0.3, 0.8]))
    grid = np.linspace(0.0, 3.0, 16)
    pm = lindblad.propagate(gen, grid=grid)
    rng = np.random.default_rng(6)
    for _ in range(5):
        rho = qstate.bloch_to_density(random_bloch(rng))
        sigma = qstate.bloch_to_density(random_bloch(rng))
        dists = []
        for t in grid:
            m, v = pm.at(t)
            a = lindblad.apply_to_first_qubit(np.kron(rho, np.eye(2) / 2), m, v)
            b = lindblad.apply_to_first_qubit(np.kron(sigma, np.eye(2) / 2), m, v)
            dists.append(qstate.trace_norm(a - b))
        assert all(np.diff(dists) <= 1e-7)


def test_closest_product_state_bell():
    distance, r_a, r_b = lindblad.closest_product_state(qstate.BELL_PROJECTOR)
    # direct optimization lands on a pure product pair at trace distance sqrt(2)
    assert distance == pytest.approx(np.sqrt(2.0), abs=2e-3)
    assert np.linalg.norm(r_a) <= 1 + 1e-9
    assert np.linalg.norm(r_b) <= 1 + 1e-9


def test_closest_product_state_product_input():
    rng = np.random.default_rng(7)
    rho = np.kron(random_density(rng, 2), random_density(rng, 2))
    distance, _, _ = lindblad.closest_product_state(rho)
    assert distance <= 1e-6


def test_closest_product_state_rejects_nan():
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 3] = rho[3, 0] = np.nan
    with pytest.raises(NotAState, match="finite"):
        lindblad.closest_product_state(rho)


def decay_bound_states():
    """The two evolved Bell states of the decay-bound verify suite."""
    gen = lindblad.DecoherenceMatrix.constant(0.5 * np.eye(3))
    pm = lindblad.propagate(gen, grid=[0.5, 2.0])
    return [lindblad.apply_to_first_qubit(qstate.BELL_PROJECTOR, *pm.at(t)) for t in (0.5, 2.0)]


def full_grid_seed(rho):
    """Index and distance of the best of all product states of the seed grid."""
    n = len(lindblad._BALL)
    u = np.hstack([np.ones((n, 1)), lindblad._BALL])
    coeff = qstate.pauli_tensor(rho) - np.einsum("am,bn->abmn", u, u).reshape(-1, 4, 4)
    mats = 0.25 * (coeff.reshape(-1, 16) @ qstate.PAULI2.reshape(16, 16)).reshape(-1, 4, 4)
    dists = np.abs(np.linalg.eigvalsh(mats)).sum(axis=1)
    best = int(np.argmin(dists))
    return best, float(dists[best])


def test_pruned_seed_equals_full_grid():
    rng = np.random.default_rng(17)
    grid_pairs = lindblad._BALL[rng.integers(len(lindblad._BALL), size=(8, 2))]

    def product(r_a, r_b):
        return np.kron(qstate.bloch_to_density(r_a), qstate.bloch_to_density(r_b))

    bank = [random_density(rng, 4) for _ in range(36)]
    # grid products sit at seed distance 0; products 1e-9 off the grid are
    # where the Frobenius expansion's rounding must not prune the winner
    bank += [product(*pair) for pair in grid_pairs[:4]]
    bank += [product(*(pair * (1.0 - 1e-9))) for pair in grid_pairs[4:]]
    bank += [product(random_bloch(rng), random_bloch(rng)) for _ in range(4)]
    # the Bell projector ties many grid pairs, so the first index must win
    bank += [qstate.BELL_PROJECTOR, np.eye(4) / 4, *decay_bound_states()]
    for rho in bank:
        # distances are finite and nonnegative, so == compares their bits
        assert lindblad._grid_seed(qstate.pauli_tensor(rho)) == full_grid_seed(rho)


def test_single_grid_pair_rounds_as_in_a_stack():
    # the seed often has one candidate pair, and its distance must carry
    # the same bits as in the full grid's stacked evaluation
    rng = np.random.default_rng(18)
    for _ in range(20):
        tensor = qstate.pauli_tensor(random_density(rng, 4))
        pairs = rng.integers(len(lindblad._BALL) ** 2, size=8)
        stacked = lindblad._grid_matrices(tensor, pairs)
        for k in range(len(pairs)):
            single = lindblad._grid_matrices(tensor, pairs[k : k + 1])
            assert np.array_equal(single, stacked[k : k + 1])


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_closest_product_state_adds_little_memory():
    # A fresh interpreter, so that no earlier test has grown the heap.  Its
    # ru_maxrss starts at the peak of the process that spawned it, so it
    # reads VmHWM, the peak resident set of its own image, in kB.
    child = textwrap.dedent(
        """
        import numpy as np
        import scipy.optimize
        from enmsim import lindblad, qstate

        def peak_kb():
            with open("/proc/self/status") as status:
                line = next(line for line in status if line.startswith("VmHWM:"))
            return int(line.split()[1])

        gen = lindblad.DecoherenceMatrix.constant(0.5 * np.eye(3))
        m, v = lindblad.propagate(gen, grid=[0.5]).at(0.5)
        rho = lindblad.apply_to_first_qubit(qstate.BELL_PROJECTOR, m, v)
        before = peak_kb()
        lindblad.closest_product_state(rho)
        print(peak_kb() - before)
        """
    )
    src = os.path.dirname(os.path.dirname(lindblad.__file__))
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 20 * 1024


def test_correlation_decay_report_bell():
    gen = lindblad.DecoherenceMatrix.constant(0.5 * np.eye(3))
    records = lindblad.correlation_decay_report(
        gen, qstate.BELL_PROJECTOR, [0.5, 1.0, 2.0, 4.0]
    )
    for rec in records:
        bound = 2.0 * np.exp(-rec.t)
        assert rec.distance <= bound + 1e-6
        assert rec.witness_distance <= bound + 1e-6
        # the replacer product state for unital isotropic noise is I/2 x I/2
        assert rec.witness_distance == pytest.approx(
            1.5 * np.exp(-2.0 * 0.5 * rec.t), abs=1e-8
        )


def test_correlation_decay_report_product_input():
    gen = lindblad.DecoherenceMatrix.constant(0.5 * np.eye(3))
    rng = np.random.default_rng(8)
    rho = np.kron(random_density(rng, 2), random_density(rng, 2))
    records = lindblad.correlation_decay_report(gen, rho, [0.3, 1.0])
    assert all(rec.distance <= 1e-6 for rec in records)


def test_correlation_decay_report_deep_decay():
    # at rate * t = 10 everything is within 1e-6 of a product state
    gen = lindblad.DecoherenceMatrix.constant(0.5 * np.eye(3))
    (rec,) = lindblad.correlation_decay_report(gen, qstate.BELL_PROJECTOR, [20.0])
    assert rec.distance <= 1e-6
