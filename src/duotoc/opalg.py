"""Operator algebra substrate: the Pauli basis, vectorization, dual gates.

Conventions used throughout the package
---------------------------------------
* Every site is a qubit (q = 2) and every insertion Hermitian:
  ``gates._checked_inputs`` is the one rule, shared by the transfer side,
  the channels, the closed forms, the eigenbases and the brute-force
  oracle.
* Sites, times, depths, chain lengths and bits are integers, Python or
  numpy, and never bools, and a bounded one lies within its range
  (t >= 0, n >= 1, 0 <= bit <= 1, ...): ``_integer(name, value, low,
  high)`` is the one rule for both, shared the same way, and its message
  names the argument.
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

import numbers

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


def is_unitary(U: np.ndarray) -> bool:
    U = np.asarray(U)
    d = U.shape[0]
    return U.shape == (d, d) and np.max(np.abs(U.conj().T @ U - np.eye(d))) < TOL_UNITARY


def assert_unitary(U: np.ndarray, name: str = "gate"):
    if not is_unitary(U):
        raise ValueError(f"{name} is not unitary within {TOL_UNITARY}")


def _integer(name: str, value, low: int | None = None, high: int | None = None) -> int:
    """``value`` as an int, if it is an integer (Python or numpy), not a
    bool, and within the bounds given; raises ValueError otherwise, with
    ``name`` and the value in the message."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer (got {value!r})")
    value = int(value)
    if high is not None and not low <= value <= high:
        raise ValueError(f"need {low} <= {name} <= {high} (got {value})")
    if low is not None and value < low:
        raise ValueError(f"need {name} >= {low} (got {value})")
    return value


def dual(U: np.ndarray) -> np.ndarray:
    """Space-time dual of a two-site gate: ``Ud[(a,b),(c,d)] = U[(d,b),(c,a)]``.

    An involution on the index permutation; the result carries no unitarity
    guarantee (the gate is dual-unitary exactly when it does come out unitary).
    """
    from .gates import _checked_inputs  # gates imports this module

    _checked_inputs(U)
    U4 = np.asarray(U, dtype=complex).reshape(2, 2, 2, 2)
    return U4.transpose(3, 1, 2, 0).reshape(4, 4)


def swap_gate() -> np.ndarray:
    """The two-site SWAP gate, ``(a, b) -> (b, a)``."""
    return np.eye(4, dtype=complex)[[0, 2, 1, 3]]
