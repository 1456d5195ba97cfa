"""Dense complex operator algebra on small Hilbert spaces.

Operators, state vectors and density matrices are plain complex numpy
arrays; the array shape carries the dimension (operators are square 2-d
arrays, kets are 1-d).  Everything here targets two-level subsystems
and their 4-dimensional composite, so dense storage throughout.

Basis conventions, fixed once so matrix values are comparable everywhere:

* two-level system: (|e>, |g>) at indices (0, 1),
* composites: system 1 is always the left Kronecker factor.

All returned arrays are freshly allocated; callers may mutate them freely
without aliasing surprises.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "basis",
    "two_level_ket",
    "composite_ket",
    "ladder_two_level",
    "density_from_ket",
    "validate_state_vector",
    "validate_density_matrix",
]


def basis(dim: int, index: int) -> np.ndarray:
    """Computational basis ket |index> on a dim-dimensional space."""
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dim {dim}")
    ket = np.zeros(dim, dtype=complex)
    ket[index] = 1.0
    return ket


def two_level_ket(label: str) -> np.ndarray:
    """|e> or |g> in the (|e>, |g>) ordering."""
    try:
        return basis(2, {"e": 0, "g": 1}[label])
    except KeyError:
        raise ValueError(f"two-level label must be 'e' or 'g', got {label!r}") from None


def composite_ket(labels: str) -> np.ndarray:
    """Product ket for a string of two-level labels, e.g. 'eg' -> |e>|g>."""
    if not labels:
        raise ValueError("need at least one subsystem label")
    ket = two_level_ket(labels[0])
    for ch in labels[1:]:
        ket = np.kron(ket, two_level_ket(ch))
    return ket


def ladder_two_level() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (sigma_minus, sigma_plus, sigma_z) for one two-level system.

    sigma_minus |e> = |g>, sigma_plus is its conjugate transpose and
    sigma_z = diag(+1, -1) on (|e>, |g>).  The Pauli relations
    [s+, s-] = sz and [sz, s+-] = +-2 s+- hold exactly (integer entries).
    """
    sm = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    sp = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    return sm, sp, sz


def density_from_ket(psi: np.ndarray) -> np.ndarray:
    """Normalized density matrix |psi><psi| / <psi|psi>."""
    psi = np.asarray(psi, dtype=complex)
    norm2 = float(np.real(psi.conj() @ psi))
    if norm2 <= 0.0:
        raise ValueError("cannot form a density matrix from the zero vector")
    return np.outer(psi, psi.conj()) / norm2


_NORM_TOL = 1e-9  # largest |norm - 1| of a ket
# a density matrix's largest elementwise Hermiticity deviation and |Tr rho - 1|,
# and its least eigenvalue (slightly negative values are integrator round-off)
_HERM_TOL, _TRACE_TOL, _EIG_FLOOR = 1e-12, 1e-9, -1e-9


def validate_state_vector(psi: np.ndarray) -> None:
    """Raise ValueError unless psi is a normalized ket."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1:
        raise ValueError(f"state vector must be 1-d, got shape {psi.shape}")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > _NORM_TOL:
        raise ValueError(f"state vector norm {norm} deviates from 1 by more than {_NORM_TOL}")


def validate_density_matrix(rho: np.ndarray) -> None:
    """Raise ValueError unless rho is Hermitian, unit-trace and positive, to the tolerances above."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    herm_dev = float(np.max(np.abs(rho - rho.conj().T)))
    if herm_dev > _HERM_TOL:
        raise ValueError(f"density matrix Hermiticity deviation {herm_dev} > {_HERM_TOL}")
    trace_dev = abs(complex(np.trace(rho)) - 1.0)
    if trace_dev > _TRACE_TOL:
        raise ValueError(f"density matrix trace deviation {trace_dev} > {_TRACE_TOL}")
    min_eig = float(np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)))
    if min_eig < _EIG_FLOOR:
        raise ValueError(f"density matrix eigenvalue {min_eig} below floor {_EIG_FLOOR}")
