import numpy as np
import pytest

from enmsim import covariant, lindblad, qstate, tomography
from enmsim.verification import random_covariant_channel


def test_f_matrix_identity_and_depolarizing():
    np.testing.assert_allclose(tomography.f_matrix(np.eye(3)).matrix, np.eye(4))
    np.testing.assert_allclose(
        tomography.f_matrix(np.zeros((3, 3))).matrix, np.diag([1.0, 0, 0, 0])
    )


def test_f_matrix_block_structure():
    rng = np.random.default_rng(0)
    matrix, shift = random_covariant_channel(rng)
    f = tomography.f_matrix(matrix, shift).matrix
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
        tomography.f_matrix(matrix, shift).matrix, expected, atol=1e-12
    )


def test_f_matrix_eigenvalue_bound_for_cptp():
    rng = np.random.default_rng(2)
    for _ in range(20):
        matrix, shift = random_covariant_channel(rng)
        moduli = tomography.f_matrix(matrix, shift).moduli
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
    for s in (0.3, 0.91, 2.0):
        matrix, shift = tomography.channel_from_exponent(s)
        ch = covariant.channel_at(rates, s / 2.0)  # exp(-2 a t) = exp(-s)
        np.testing.assert_allclose(matrix, ch.matrix, atol=1e-10)
        np.testing.assert_allclose(shift, ch.shift_vector, atol=1e-12)
        gap = qstate.trace_norm(
            lindblad.choi_of_map(matrix, shift) - covariant.choi_state(rates, s / 2)
        )
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
        moduli = tomography.f_matrix(matrix, shift).moduli
        np.testing.assert_allclose(
            moduli, tomography.spectrum_moduli(float(s)), atol=1e-10
        )


def test_spectrum_monotonic():
    grid = np.linspace(0.0, 6.0, 100)
    table = np.array([tomography.spectrum_moduli(float(s)) for s in grid])
    assert np.all(np.diff(table, axis=0) <= 1e-12)
    products = table.prod(axis=1)
    assert np.all(np.diff(products) <= 1e-12)
