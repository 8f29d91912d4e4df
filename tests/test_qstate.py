import numpy as np
import pytest

from enmsim import qstate
from enmsim.errors import BlochOutOfBall, NotAState
from enmsim.verification import random_bloch, random_density


def test_pauli_basis_orthonormal():
    g = qstate.PAULI / np.sqrt(2.0)
    for i in range(4):
        for j in range(4):
            overlap = np.trace(g[i] @ g[j]).real
            assert overlap == pytest.approx(1.0 if i == j else 0.0, abs=1e-15)


def test_bloch_to_density_examples():
    np.testing.assert_allclose(
        qstate.bloch_to_density([0, 0, 0]), np.eye(2) / 2, atol=1e-15
    )
    np.testing.assert_allclose(
        qstate.bloch_to_density([0, 0, 1]), np.diag([1.0, 0.0]), atol=1e-15
    )
    np.testing.assert_allclose(
        qstate.bloch_to_density([1, 0, 0]), np.full((2, 2), 0.5), atol=1e-15
    )


def test_bloch_to_density_validates_ball():
    with pytest.raises(BlochOutOfBall):
        qstate.bloch_to_density([1.1, 0, 0])
    # boundary with tolerance is fine
    qstate.bloch_to_density([1.0 + 1e-10, 0, 0])


def test_density_to_bloch_examples():
    np.testing.assert_allclose(qstate.density_to_bloch(np.eye(2) / 2), 0, atol=1e-15)
    np.testing.assert_allclose(
        qstate.density_to_bloch(np.diag([1.0, 0.0])), [0, 0, 1], atol=1e-15
    )
    plus_i = 0.5 * np.array([[1, -1j], [1j, 1]])
    np.testing.assert_allclose(qstate.density_to_bloch(plus_i), [0, 1, 0], atol=1e-15)


def test_bloch_roundtrip_property():
    rng = np.random.default_rng(11)
    for _ in range(100):
        r = random_bloch(rng)
        rho = qstate.bloch_to_density(r)
        np.testing.assert_allclose(qstate.density_to_bloch(rho), r, atol=1e-12)
        assert abs(np.trace(rho) - 1) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12


def test_entropy_examples():
    assert qstate.von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0)
    assert qstate.von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0)
    # independent evaluation of -sum p log2 p
    p = np.array([0.75, 0.25])
    expected = float(-(p * np.log2(p)).sum())
    assert qstate.von_neumann_entropy(np.diag(p)) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.811278, abs=1e-6)


def test_entropy_rejects_negative_eigenvalues():
    with pytest.raises(NotAState):
        qstate.von_neumann_entropy(np.diag([1.1, -0.1]))


@pytest.mark.parametrize("entry", [(0, 0), (1, 2)])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_check_two_qubit_state_rejects_non_finite_entries(entry, value):
    rho = np.eye(4, dtype=complex) / 4
    rho[entry] = rho[entry[::-1]] = value
    with pytest.raises(NotAState, match="finite"):
        qstate.check_two_qubit_state(rho)


def test_entropy_bounds():
    rng = np.random.default_rng(3)
    for dim in (2, 4):
        for _ in range(25):
            s = qstate.von_neumann_entropy(random_density(rng, dim))
            assert -1e-12 <= s <= np.log2(dim) + 1e-9


def test_partial_trace_examples():
    np.testing.assert_allclose(
        qstate.partial_trace(qstate.BELL_PROJECTOR, "B"), np.eye(2) / 2, atol=1e-15
    )
    rng = np.random.default_rng(5)
    rho_a, rho_b = random_density(rng, 2), random_density(rng, 2)
    np.testing.assert_allclose(
        qstate.partial_trace(np.kron(rho_a, rho_b), "B"), rho_a, atol=1e-12
    )
    np.testing.assert_allclose(
        qstate.partial_trace(qstate.BELL_PROJECTOR, "A"), np.eye(2) / 2, atol=1e-15
    )


def test_partial_transpose_examples():
    rng = np.random.default_rng(6)
    rho_a, rho_b = random_density(rng, 2), random_density(rng, 2)
    np.testing.assert_allclose(
        qstate.partial_transpose(np.kron(rho_a, rho_b)),
        np.kron(rho_a, rho_b.T),
        atol=1e-14,
    )
    eig = np.linalg.eigvalsh(qstate.partial_transpose(qstate.BELL_PROJECTOR))
    assert eig.min() == pytest.approx(-0.5, abs=1e-12)
    # separable diagonal mixture stays PSD
    sep = np.diag([0.4, 0.1, 0.2, 0.3]).astype(complex)
    assert np.linalg.eigvalsh(qstate.partial_transpose(sep)).min() >= -1e-12


def test_partial_transpose_involutive_and_consistent():
    rng = np.random.default_rng(7)
    for _ in range(20):
        rho = random_density(rng, 4)
        pt = qstate.partial_transpose(rho)
        np.testing.assert_allclose(
            qstate.partial_transpose(pt), rho, atol=1e-14
        )
        assert abs(np.trace(pt) - 1) < 1e-12
        assert np.max(np.abs(pt - pt.conj().T)) < 1e-12
        # tracing out the transposed subsystem matches the original reduction
        np.testing.assert_allclose(
            qstate.partial_trace(pt, "B"), qstate.partial_trace(rho, "B"), atol=1e-12
        )


def test_trace_norm_examples():
    assert qstate.trace_norm(np.eye(2)) == pytest.approx(2.0)
    assert qstate.trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0)
    assert qstate.trace_norm(np.zeros((3, 3))) == pytest.approx(0.0)


def test_trace_norm_separates_states():
    rng = np.random.default_rng(8)
    for _ in range(50):
        rho, sigma = random_density(rng, 2), random_density(rng, 2)
        gap = qstate.trace_norm(rho - sigma)
        assert gap >= -1e-15
        if gap < 1e-12:
            np.testing.assert_allclose(rho, sigma, atol=1e-12)
    assert qstate.trace_norm(rho - rho) < 1e-15


def test_pauli_tensor_roundtrip():
    rng = np.random.default_rng(9)
    for _ in range(20):
        rho = random_density(rng, 4)
        tensor = qstate.pauli_tensor(rho)
        assert tensor[0, 0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(
            qstate.density_from_pauli_tensor(tensor), rho, atol=1e-12
        )


@pytest.mark.parametrize(
    "fn",
    [
        qstate.von_neumann_entropy,
        lambda rho: qstate.partial_trace(rho, "A"),
        lambda rho: qstate.partial_trace(rho, "B"),
        qstate.partial_transpose,
        qstate.pauli_tensor,
    ],
    ids=["entropy", "trace-A", "trace-B", "transpose", "pauli-tensor"],
)
def test_stack_equals_single_states(fn, state_stacks):
    for stack in state_stacks:
        assert np.array_equal(fn(stack), np.array([fn(rho) for rho in stack]))
