"""Operator algebra substrate: the Pauli basis, vectorization, dual gates.

Conventions used throughout the package
---------------------------------------
* Every site is a qubit (q = 2), and ``gates._check_qubits`` rejects
  anything else.
* Insertions are Hermitian: ``_hermitian`` is the one rule, shared by the
  transfer side and the brute-force oracle.
* Vectorization is row-major: operator element ``(i, j)`` maps to flat index
  ``i*2 + j``.  ``vec(U X V) = (U kron V^T) vec(X)``.
* Two-site indices pair as ``(a, b) -> a*2 + b`` with the LEFT site slower.
  A gate element ``U[(a, b), (c, d)]`` is the amplitude from input pair
  ``(c, d)`` to output pair ``(a, b)``.
* The operator basis ``PAULI`` = (1, sx, sy, sz) is orthonormal under
  ``tr(A^dag B)/2``; element 0 is the identity and the others are
  traceless.  It is one read-only array, checked once at import.

Tolerances are module constants so that every caller agrees on what counts
as "unitary" or "an eigenvalue equal to one".
"""

from __future__ import annotations

import numpy as np

# Gate admission: gates are built from exact exponentials, so anything worse
# than this indicates a construction bug, not roundoff.
TOL_UNITARY = 1e-10
# Eigenvalue-equals-one tests (spectra come from small dense eigensolves).
TOL_EIG = 1e-8
# Operator-basis orthonormality.
TOL_BASIS = 1e-14
# Insertion admission: the largest entry of op - op^dag that still counts as
# Hermitian.
TOL_REAL = 1e-10

__all__ = [
    "TOL_UNITARY",
    "TOL_EIG",
    "TOL_BASIS",
    "TOL_REAL",
    "PAULI",
    "op_to_vec",
    "vec_to_op",
    "normalize_coeffs",
    "dual",
    "swap_gate",
    "assert_unitary",
    "is_unitary",
]


def _checked_basis(ops: np.ndarray) -> np.ndarray:
    """``ops``, read-only, if it is a (4, 2, 2) basis orthonormal under
    ``tr(A^dag B)/2``; raises ValueError otherwise."""
    if ops.shape != (4, 2, 2):
        raise ValueError(f"basis shape {ops.shape} is not (4, 2, 2)")
    gram = np.einsum("aij,bij->ab", ops.conj(), ops) / 2
    if np.max(np.abs(gram - np.eye(4))) > TOL_BASIS:
        raise ValueError("operator basis is not orthonormal")
    ops.flags.writeable = False
    return ops


# The orthonormal one-site basis (1, sx, sy, sz).
PAULI = _checked_basis(np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
))


def op_to_vec(sigma: np.ndarray) -> np.ndarray:
    """Coefficients of ``sigma`` in ``PAULI``: ``c[a] = tr(PAULI[a]^dag sigma)/2``."""
    sigma = np.asarray(sigma, dtype=complex)
    if sigma.shape != (2, 2):
        raise ValueError(f"operator shape {sigma.shape} is not 2 x 2")
    return np.einsum("aij,ij->a", PAULI.conj(), sigma) / 2


def vec_to_op(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`op_to_vec`."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != (4,):
        raise ValueError("coefficient vector has wrong length")
    return np.einsum("a,aij->ij", coeffs, PAULI)


def normalize_coeffs(coeffs) -> np.ndarray:
    """Normalize a real 3-vector (ax, ay, az) of traceless Pauli coefficients."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (3,):
        raise ValueError("expected 3 traceless Pauli coefficients")
    nrm = np.linalg.norm(c)
    if nrm == 0:
        raise ValueError("zero operator cannot be normalized")
    return c / nrm


def is_unitary(U: np.ndarray, tol: float = TOL_UNITARY) -> bool:
    U = np.asarray(U)
    d = U.shape[0]
    return U.shape == (d, d) and np.max(np.abs(U.conj().T @ U - np.eye(d))) < tol


def assert_unitary(U: np.ndarray, tol: float = TOL_UNITARY, name: str = "gate"):
    if not is_unitary(U, tol):
        raise ValueError(f"{name} is not unitary within {tol}")


def _hermitian(op) -> np.ndarray:
    """``op`` as a complex array, if no entry of op - op^dag exceeds
    TOL_REAL; raises ValueError otherwise."""
    op = np.asarray(op, dtype=complex)
    residue = float(np.abs(op - op.conj().T).max())
    if residue > TOL_REAL:
        raise ValueError(f"operator has anti-Hermitian residue {residue:.3e}; "
                         "operators Hermitian?")
    return op


def dual(U: np.ndarray) -> np.ndarray:
    """Space-time dual of a two-site gate: ``Ud[(a,b),(c,d)] = U[(d,b),(c,a)]``.

    An involution on the index permutation; the result carries no unitarity
    guarantee (the gate is dual-unitary exactly when it does come out unitary).
    """
    from .gates import _check_qubits  # gates imports this module

    _check_qubits(U)
    U4 = np.asarray(U, dtype=complex).reshape(2, 2, 2, 2)
    return U4.transpose(3, 1, 2, 0).reshape(4, 4)


def swap_gate() -> np.ndarray:
    """The two-site SWAP gate, ``(a, b) -> (b, a)``."""
    return np.eye(4, dtype=complex)[[0, 2, 1, 3]]
