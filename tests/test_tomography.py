import numpy as np
import pytest

from enmsim import covariant, lindblad, qstate, tomography
from enmsim.verification import random_covariant_channel


def test_f_matrix_identity_and_depolarizing():
    np.testing.assert_allclose(tomography.f_matrix(np.eye(3)), np.eye(4))
    np.testing.assert_allclose(
        tomography.f_matrix(np.zeros((3, 3))), np.diag([1.0, 0, 0, 0])
    )


def test_f_matrix_block_structure():
    rng = np.random.default_rng(0)
    matrix, shift = random_covariant_channel(rng)
    f = tomography.f_matrix(matrix, shift)
    assert f[0, 0] == 1.0
    np.testing.assert_allclose(f[0, 1:], 0.0)
    np.testing.assert_allclose(f[1:, 0], shift)
    np.testing.assert_allclose(f[1:, 1:], matrix)


def test_f_matrix_from_operator_overlaps():
    # oracle: F_ij = Tr[G_i Lambda(G_j)] evaluated directly on operators
    rng = np.random.default_rng(1)
    matrix, shift = random_covariant_channel(rng)

    def channel(op):
        # extend the Bloch action linearly to arbitrary operators
        weight = np.trace(op).real
        r = np.array([np.trace(s @ op).real for s in qstate.PAULI[1:]])
        out_r = matrix @ r + weight * shift
        return 0.5 * (
            weight * qstate.SIGMA_0
            + out_r[0] * qstate.SIGMA_X
            + out_r[1] * qstate.SIGMA_Y
            + out_r[2] * qstate.SIGMA_Z
        )

    basis = qstate.PAULI / np.sqrt(2.0)  # G_i = sigma_i / sqrt(2)
    expected = np.array(
        [
            [np.trace(basis[i] @ channel(basis[j])).real for j in range(4)]
            for i in range(4)
        ]
    )
    np.testing.assert_allclose(
        tomography.f_matrix(matrix, shift), expected, atol=1e-12
    )


def test_f_matrix_eigenvalue_bound_for_cptp():
    rng = np.random.default_rng(2)
    for _ in range(20):
        matrix, shift = random_covariant_channel(rng)
        moduli = tomography.process_moduli(tomography.f_matrix(matrix, shift))
        assert np.all(moduli <= 1 + 1e-9)


def test_optical_channel_examples():
    matrix, shift = tomography.channel_from_exponent(0.0)
    np.testing.assert_allclose(matrix, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(shift, 0.0)

    matrix, _ = tomography.channel_from_exponent(0.91)
    assert matrix[0, 0] == pytest.approx(0.701262, abs=1e-6)
    assert matrix[2, 2] == pytest.approx(0.402524, abs=1e-6)


def test_optical_channel_equals_optimal_covariant():
    rates = covariant.CovariantRates.optimal(1.0, 0.0)
    exponents = np.array([0.3, 0.91, 2.0])
    coeffs = covariant.channel_grid(rates, exponents / 2.0)  # exp(-2 a t) = exp(-s)
    for s, ch_matrix, ch_shift, omega in zip(
        exponents, *covariant.bloch_maps(*coeffs), covariant.choi_states(*coeffs)
    ):
        matrix, shift = tomography.channel_from_exponent(s)
        np.testing.assert_allclose(matrix, ch_matrix, atol=1e-10)
        np.testing.assert_allclose(shift, ch_shift, atol=1e-12)
        gap = qstate.trace_norm(lindblad.choi_of_map(matrix, shift) - omega)
        assert gap < 1e-9


def test_wave_plates_ground_truth():
    np.testing.assert_allclose(
        tomography.half_wave(22.5),
        (qstate.SIGMA_X + qstate.SIGMA_Z) / np.sqrt(2.0),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        tomography.quarter_wave(0.0), np.diag([1.0, 1.0j]), atol=1e-12
    )
    u2 = tomography.half_wave(22.5) @ tomography.quarter_wave(0.0)
    np.testing.assert_allclose(
        u2, np.array([[1.0, 1.0j], [1.0, -1.0j]]) / np.sqrt(2.0), atol=1e-12
    )


def test_beam_splitter_mixture_reproduces_channel():
    for s in (0.2, 0.91, 1.7):
        mag = np.exp(-s)
        matrix, shift = tomography.beam_splitter_map(mag)
        direct_m, direct_v = tomography.channel_from_exponent(s)
        np.testing.assert_allclose(matrix, direct_m, atol=1e-12)
        np.testing.assert_allclose(shift, direct_v, atol=1e-12)


def test_spectrum_moduli_values():
    np.testing.assert_allclose(tomography.spectrum_moduli(0.0), np.ones(4))
    m = tomography.spectrum_moduli(0.91)
    np.testing.assert_allclose(
        m, [1.0, 0.701262, 0.701262, 0.402524], atol=1e-6
    )
    np.testing.assert_allclose(
        tomography.spectrum_moduli(200.0), [1.0, 0.5, 0.5, 0.0], atol=1e-12
    )


def test_spectrum_moduli_of_an_array_are_the_scalar_rows():
    grid = np.linspace(0.0, 8.0, 33)
    table = tomography.spectrum_moduli(grid)
    assert table.shape == (33, 4)
    for s, row in zip(grid, table):
        np.testing.assert_array_equal(row, tomography.spectrum_moduli(float(s)))
    with pytest.raises(ValueError):
        tomography.spectrum_moduli(np.array([0.5, -1e-3]))


def test_spectrum_matches_f_matrix():
    for s in np.linspace(0.0, 10.0, 30):
        matrix, shift = tomography.channel_from_exponent(float(s))
        moduli = tomography.process_moduli(tomography.f_matrix(matrix, shift))
        np.testing.assert_allclose(
            moduli, tomography.spectrum_moduli(float(s)), atol=1e-10
        )


def test_spectrum_monotonic():
    grid = np.linspace(0.0, 6.0, 100)
    table = np.array([tomography.spectrum_moduli(float(s)) for s in grid])
    assert np.all(np.diff(table, axis=0) <= 1e-12)
    products = table.prod(axis=1)
    assert np.all(np.diff(products) <= 1e-12)


def test_f_matrix_of_a_stack_is_the_single_maps():
    rng = np.random.default_rng(5)
    maps = [random_covariant_channel(rng) for _ in range(6)]
    matrices = np.array([m for m, _ in maps]).reshape(2, 3, 3, 3)
    shifts = np.array([v for _, v in maps]).reshape(2, 3, 3)
    stacked = tomography.f_matrix(matrices, shifts)
    assert stacked.shape == (2, 3, 4, 4)
    for idx in np.ndindex(2, 3):
        np.testing.assert_array_equal(
            stacked[idx], tomography.f_matrix(matrices[idx], shifts[idx])
        )
    np.testing.assert_array_equal(
        tomography.f_matrix(matrices)[1, 2], tomography.f_matrix(matrices[1, 2])
    )


def test_channel_from_exponent_of_an_array_is_the_scalar_maps():
    grid = np.linspace(0.0, 4.0, 9)
    matrices, shifts = tomography.channel_from_exponent(grid)
    assert matrices.shape == (9, 3, 3) and shifts.shape == (9, 3)
    for s, matrix, shift in zip(grid, matrices, shifts):
        want_matrix, want_shift = tomography.channel_from_exponent(float(s))
        np.testing.assert_array_equal(matrix, want_matrix)
        np.testing.assert_array_equal(shift, want_shift)


def _lexsort_moduli(f):
    """Eigenvalue moduli sorted descending, ties broken by real part."""
    eigenvalues = np.linalg.eigvals(f)
    order = np.lexsort((-eigenvalues.real, -np.abs(eigenvalues)))
    return np.abs(eigenvalues)[order]


def test_process_moduli_match_the_lexsort_order_on_ties():
    # every covariant map's moduli include the tied pair alpha, alpha: (1 + e^-s)/2 optically
    rng = np.random.default_rng(6)
    grid = np.linspace(0.0, 4.0, 17)
    process = tomography.f_matrix(*tomography.channel_from_exponent(grid))
    process = np.concatenate(
        [process, [tomography.f_matrix(*random_covariant_channel(rng)) for _ in range(8)]]
    )
    moduli = tomography.process_moduli(process)
    assert moduli.shape == (25, 4)
    for f, row in zip(process, moduli):
        np.testing.assert_array_equal(row, _lexsort_moduli(f))
        np.testing.assert_array_equal(row, tomography.process_moduli(f))
