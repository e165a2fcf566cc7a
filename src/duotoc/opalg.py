"""Operator algebra substrate: bases, vectorization, dual gates.

Conventions used throughout the package
---------------------------------------
* Vectorization is row-major: operator element ``(i, j)`` maps to flat index
  ``i*q + j``.  ``vec(U X V) = (U kron V^T) vec(X)``.
* Two-site indices pair as ``(a, b) -> a*q + b`` with the LEFT site slower.
  A gate element ``U[(a, b), (c, d)]`` is the amplitude from input pair
  ``(c, d)`` to output pair ``(a, b)``.
* Operator bases are orthonormal under ``tr(A^dag B)/q``; element 0 is the
  identity and all others are traceless.

Tolerances are module constants so that every caller agrees on what counts
as "unitary" or "an eigenvalue equal to one".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Gate admission: gates are built from exact exponentials, so anything worse
# than this indicates a construction bug, not roundoff.
TOL_UNITARY = 1e-10
# Eigenvalue-equals-one tests (spectra come from small dense eigensolves).
TOL_EIG = 1e-8
# Operator-basis orthonormality.
TOL_BASIS = 1e-14

__all__ = [
    "TOL_UNITARY",
    "TOL_EIG",
    "TOL_BASIS",
    "OperatorBasis",
    "pauli_basis",
    "op_to_vec",
    "vec_to_op",
    "normalize_coeffs",
    "dual",
    "swap_gate",
    "assert_unitary",
    "is_unitary",
]


@dataclass(frozen=True)
class OperatorBasis:
    """Ordered one-site operator basis, orthonormal under ``tr(A^dag B)/q``."""

    q: int
    ops: np.ndarray  # shape (q*q, q, q)

    def __post_init__(self):
        q = self.q
        ops = self.ops
        if ops.shape != (q * q, q, q):
            raise ValueError(f"basis shape {ops.shape} does not match q={q}")
        gram = np.einsum("aij,bij->ab", ops.conj(), ops) / q
        if np.max(np.abs(gram - np.eye(q * q))) > TOL_BASIS:
            raise ValueError("operator basis is not orthonormal")


def pauli_basis(q: int = 2) -> OperatorBasis:
    """Orthonormal one-site basis: ``(1, sx, sy, sz)`` for q=2.

    For q > 2 a generalized Gell-Mann basis is returned, rescaled so that
    ``tr(s^dag s)/q = 1``.  Only q = 2 is exercised by the test suite.
    """
    if q < 2:
        raise ValueError(f"unsupported local dimension q={q}")
    if q == 2:
        ops = np.array(
            [
                [[1, 0], [0, 1]],
                [[0, 1], [1, 0]],
                [[0, -1j], [1j, 0]],
                [[1, 0], [0, -1]],
            ],
            dtype=complex,
        )
        return OperatorBasis(q=2, ops=ops)
    # Generalized Gell-Mann construction, normalized to tr(s^dag s) = q.
    mats = [np.eye(q, dtype=complex)]
    scale = np.sqrt(q / 2.0)
    for j in range(q):
        for k in range(j + 1, q):
            sym = np.zeros((q, q), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            mats.append(scale * sym)
            asym = np.zeros((q, q), dtype=complex)
            asym[j, k] = -1j
            asym[k, j] = 1j
            mats.append(scale * asym)
    for d in range(1, q):
        diag = np.zeros((q, q), dtype=complex)
        diag[np.arange(d), np.arange(d)] = 1.0
        diag[d, d] = -d
        diag *= scale * np.sqrt(2.0 / (d * (d + 1)))
        mats.append(diag)
    return OperatorBasis(q=q, ops=np.array(mats))


def op_to_vec(sigma: np.ndarray, basis: OperatorBasis) -> np.ndarray:
    """Coefficients of ``sigma`` in ``basis``: ``c[a] = tr(ops[a]^dag sigma)/q``."""
    sigma = np.asarray(sigma, dtype=complex)
    if sigma.shape != (basis.q, basis.q):
        raise ValueError(f"operator shape {sigma.shape} does not match q={basis.q}")
    return np.einsum("aij,ij->a", basis.ops.conj(), sigma) / basis.q


def vec_to_op(coeffs: np.ndarray, basis: OperatorBasis) -> np.ndarray:
    """Inverse of :func:`op_to_vec`."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != (basis.q * basis.q,):
        raise ValueError("coefficient vector has wrong length")
    return np.einsum("a,aij->ij", coeffs, basis.ops)


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


def dual(U: np.ndarray, q: int = 2) -> np.ndarray:
    """Space-time dual of a two-site gate: ``Ud[(a,b),(c,d)] = U[(d,b),(c,a)]``.

    An involution on the index permutation; the result carries no unitarity
    guarantee (the gate is dual-unitary exactly when it does come out unitary).
    """
    U4 = np.asarray(U, dtype=complex).reshape(q, q, q, q)
    return U4.transpose(3, 1, 2, 0).reshape(q * q, q * q)


def swap_gate(q: int = 2) -> np.ndarray:
    """The two-site SWAP gate."""
    d = q * q
    S = np.zeros((d, d), dtype=complex)
    for a in range(q):
        for b in range(q):
            S[a * q + b, b * q + a] = 1.0
    return S
