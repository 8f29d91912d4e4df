import numpy as np
import pytest
from scipy.integrate import solve_ivp

from enmsim import covariant, lindblad, qstate
from enmsim.errors import NonHermitianGamma, SingularIntermediateMap
from enmsim.verification import random_bloch, random_density

PLUS = qstate.bloch_to_density([1.0, 0.0, 0.0])


def test_generator_zero_gamma():
    out = lindblad.apply_generator(np.zeros((3, 3)), PLUS)
    np.testing.assert_allclose(out, 0, atol=1e-15)


def test_generator_traceless_hermitian():
    rng = np.random.default_rng(0)
    for _ in range(20):
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        gamma = h + h.conj().T
        out = lindblad.apply_generator(gamma, random_density(rng, 2))
        assert abs(np.trace(out)) < 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-12


def test_generator_pure_dephasing():
    # dephasing pulls the transverse components at rate a + f = 1
    out = lindblad.apply_generator(np.diag([0.0, 0.0, 1.0]), PLUS)
    np.testing.assert_allclose(out, -0.5 * qstate.SIGMA_X, atol=1e-14)


def test_generator_isotropic_velocity():
    rng = np.random.default_rng(1)
    r = random_bloch(rng)
    c = 0.7
    out = lindblad.apply_generator(c * np.eye(3), qstate.bloch_to_density(r))
    velocity = np.array([np.trace(s @ out).real for s in qstate.PAULI[1:]])
    np.testing.assert_allclose(velocity, -2.0 * c * r, atol=1e-12)


def test_generator_covariant_longitudinal_sign():
    # the covariant matrix must drive r3 toward -x/a: dr3/dt = -2a r3 - 2x
    a, x = 1.0, 0.5
    rates = covariant.CovariantRates.constant(a, x, 0.0)
    r = np.array([0.3, -0.2, 0.4])
    out = lindblad.apply_generator(
        covariant.gamma_matrix(rates, 0.0), qstate.bloch_to_density(r)
    )
    rdot = np.array([np.trace(s @ out).real for s in qstate.PAULI[1:]])
    expected = np.array([-(a + 0) * r[0], -(a + 0) * r[1], -2 * a * r[2] - 2 * x])
    np.testing.assert_allclose(rdot, expected, atol=1e-12)


def test_generator_rejects_non_hermitian():
    with pytest.raises(NonHermitianGamma):
        lindblad.apply_generator(np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0.0]]), PLUS)


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
    rates = covariant.CovariantRates.constant(1.0, 0.5, 0.0)
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


def test_choi_of_map_operator_basis_oracle():
    # independent definition: the channel applied to half of the
    # maximally entangled state, expanded in the matrix-unit basis
    rates = covariant.CovariantRates.optimal(1.0, 0.4)
    ch = covariant.channel_at(rates, 0.7)
    matrix, shift = ch.matrix, ch.shift_vector

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

    # negative isotropic rates with a finite-time blowup of the map
    blow = lindblad.DecoherenceMatrix(
        gamma=lambda t: (-1.0 / max(1e-300, 1.0 - t)) * np.eye(3, dtype=complex)
    )
    with pytest.raises(IntegratorDiverged):
        lindblad.propagate(blow, grid=[0.5, 2.0])


def test_propagate_rejects_non_hermitian_gamma():
    crooked = lindblad.DecoherenceMatrix(
        gamma=lambda t: np.array([[1, 1j * t, 0], [1j * t, 1, 0], [0, 0, 1.0]])
    )
    with pytest.raises(NonHermitianGamma):
        lindblad.propagate(crooked, grid=[0.5, 1.0])


def test_choi_of_map_matches_covariant_closed_form():
    rates = covariant.CovariantRates.optimal(1.0, 0.3)
    for t in (0.2, 1.0, 4.0):
        ch = covariant.channel_at(rates, t)
        np.testing.assert_allclose(
            lindblad.choi_of_map(ch.matrix, ch.shift_vector),
            covariant.choi_state(rates, t),
            atol=1e-12,
        )


def test_choi_psd_for_valid_dynamics():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.uniform(0.2, 1.5)
        x = rng.uniform(-a, a)
        rates = covariant.CovariantRates.optimal(a, x)
        t = rng.uniform(0.0, 4.0)
        ch = covariant.channel_at(rates, t)
        eig = np.linalg.eigvalsh(lindblad.choi_of_map(ch.matrix, ch.shift_vector))
        assert eig.min() >= -1e-6


def test_apply_to_subsystem_is_kron_action():
    rng = np.random.default_rng(4)
    rho = random_density(rng, 4)
    matrix = np.diag([0.5, 0.5, 0.3])
    shift = np.array([0.0, 0.0, -0.2])
    out = lindblad.apply_to_subsystem(rho, matrix, shift, "A")
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
            a = lindblad.apply_to_subsystem(np.kron(rho, np.eye(2) / 2), m, v, "A")
            b = lindblad.apply_to_subsystem(np.kron(sigma, np.eye(2) / 2), m, v, "A")
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


def test_correlation_decay_report_bell():
    gen = lindblad.DecoherenceMatrix.constant(0.5 * np.eye(3))
    records = lindblad.correlation_decay_report(
        gen, qstate.BELL_PROJECTOR, [0.5, 1.0, 2.0, 4.0], rate=0.5
    )
    for rec in records:
        assert rec.bound == pytest.approx(2.0 * np.exp(-rec.t))
        assert rec.satisfied
        assert rec.distance <= rec.bound + 1e-6
        assert rec.witness_distance <= rec.bound + 1e-6
        # the replacer product state for unital isotropic noise is I/2 x I/2
        assert rec.witness_distance == pytest.approx(
            1.5 * np.exp(-2.0 * 0.5 * rec.t), abs=1e-8
        )


def test_correlation_decay_report_product_input():
    gen = lindblad.DecoherenceMatrix.constant(0.5 * np.eye(3))
    rng = np.random.default_rng(8)
    rho = np.kron(random_density(rng, 2), random_density(rng, 2))
    records = lindblad.correlation_decay_report(gen, rho, [0.3, 1.0], rate=0.5)
    assert all(rec.distance <= 1e-6 for rec in records)


def test_correlation_decay_report_deep_decay():
    # at rate * t = 10 everything is within 1e-6 of a product state
    gen = lindblad.DecoherenceMatrix.constant(0.5 * np.eye(3))
    (rec,) = lindblad.correlation_decay_report(
        gen, qstate.BELL_PROJECTOR, [20.0], rate=0.5
    )
    assert rec.bound == pytest.approx(2.0 * np.exp(-20.0))
    assert rec.distance <= 1e-6
    assert rec.satisfied
