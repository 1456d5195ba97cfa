import numpy as np
import pytest

from qcascade.hilbert import (
    composite_ket,
    density_from_ket,
    ladder_two_level,
    two_level_ket,
    validate_density_matrix,
    validate_state_vector,
)

SM, SP, SZ = ladder_two_level()


def test_ladder_definitions():
    e, g = two_level_ket("e"), two_level_ket("g")
    assert np.array_equal(SM @ e, g)
    assert np.array_equal(SP, SM.conj().T)
    assert np.array_equal(SZ, np.diag([1.0 + 0j, -1.0]))
    # sigma+ sigma- projects onto the excited state
    assert np.array_equal(SP @ SM, np.outer(e, e.conj()))


def test_pauli_algebra_exact():
    assert np.array_equal(SP @ SM - SM @ SP, SZ)
    assert np.array_equal(SZ @ SM - SM @ SZ, -2.0 * SM)
    assert np.array_equal(SZ @ SP - SP @ SZ, 2.0 * SP)
    assert np.array_equal(SP @ SM + SM @ SP, np.eye(2, dtype=complex))


def test_kron_basics():
    i2 = np.eye(2, dtype=complex)
    assert np.array_equal(np.kron(i2, i2), np.eye(4, dtype=complex))
    eg = composite_ket("eg")
    gg = composite_ket("gg")
    assert np.array_equal(np.kron(SM, i2) @ eg, gg)


def test_kron_properties_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.integers(-4, 5, (2, 2)) + 1j * rng.integers(-4, 5, (2, 2))
        b = rng.integers(-4, 5, (2, 2)) + 1j * rng.integers(-4, 5, (2, 2))
        c = rng.integers(-4, 5, (2, 2)) + 1j * rng.integers(-4, 5, (2, 2))
        # trace multiplicativity, associativity, bilinearity: exact on integers
        assert np.trace(np.kron(a, b)) == np.trace(a) * np.trace(b)
        assert np.array_equal(np.kron(np.kron(a, b), c), np.kron(a, np.kron(b, c)))
        assert np.array_equal(np.kron(a + c, b), np.kron(a, b) + np.kron(c, b))
        assert np.array_equal(np.kron(a, b + c), np.kron(a, b) + np.kron(a, c))


def test_expectation_hermitian_real_on_density():
    rng = np.random.default_rng(11)
    for _ in range(20):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        rho = density_from_ket(psi)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = h + h.conj().T
        assert abs(np.trace(rho @ h).imag) < 1e-12
        validate_density_matrix(rho)


def test_validators_reject_bad_inputs():
    with pytest.raises(ValueError):
        validate_state_vector(np.array([1.0, 1.0]))
    validate_state_vector(composite_ket("ge"))
    with pytest.raises(ValueError):
        validate_density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        validate_density_matrix(np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(ValueError):
        validate_density_matrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError):
        density_from_ket(np.zeros(2))
