"""Operator algebra: Pauli basis, vectorization, duals."""

import numpy as np
import pytest

from duotoc.opalg import (
    PAULI,
    _checked_basis,
    dual,
    is_unitary,
    normalize_coeffs,
    op_to_vec,
    swap_gate,
    vec_to_op,
)
from duotoc.gates import random_dual_unitary, random_kak, gate_matrix

TOL = 1e-14


def test_pauli_basis_orthonormal():
    assert PAULI.shape == (4, 2, 2)
    gram = np.einsum("aij,bij->ab", PAULI.conj(), PAULI) / 2
    assert np.abs(gram - np.eye(4)).max() < TOL
    # the import-time check rejects a basis that is not orthonormal
    with pytest.raises(ValueError, match="orthonormal"):
        _checked_basis(PAULI * 1.001)
    with pytest.raises(ValueError, match="shape"):
        _checked_basis(PAULI[:3])


def test_pauli_basis_hermitian_identity_first():
    for op in PAULI:
        assert np.abs(op - op.conj().T).max() < TOL
    assert np.abs(PAULI[0] - np.eye(2)).max() < TOL
    # one shared constant: no caller can change it
    with pytest.raises(ValueError, match="read-only"):
        PAULI[0, 0, 0] = 2.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_vec_roundtrip(seed):
    rng = np.random.default_rng(seed)
    sigma = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    coeffs = op_to_vec(sigma)
    assert np.abs(vec_to_op(coeffs) - sigma).max() < TOL


def test_normalize_coeffs():
    c = normalize_coeffs([3.0, 0.0, 4.0])
    assert abs(np.linalg.norm(c) - 1.0) < TOL
    assert np.abs(c - [0.6, 0.0, 0.8]).max() < TOL
    with pytest.raises(ValueError):
        normalize_coeffs([0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        normalize_coeffs([1.0, 2.0])


@pytest.mark.parametrize("seed", [0, 1])
def test_dual_involution(seed):
    u = gate_matrix(random_kak(seed))
    assert np.abs(dual(dual(u)) - u).max() < TOL


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dual_of_dual_unitary_gate_is_unitary(seed):
    u = gate_matrix(random_dual_unitary(seed))
    assert is_unitary(dual(u))


def test_dual_of_generic_gate_is_not_unitary():
    # generic KAK couplings break unitarity in the space direction
    u = gate_matrix(random_kak(0))
    assert not is_unitary(dual(u))


def test_swap_gate():
    s = swap_gate()
    assert np.abs(s @ s - np.eye(4)).max() < TOL
    v = np.arange(4.0)
    a, b = v[:2], v[2:]
    # swap exchanges the tensor factors
    x = np.kron(a, b)
    assert np.abs(s @ x - np.kron(b, a)).max() < TOL
