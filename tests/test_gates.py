"""Gate families: construction, determinism, dual-unitarity."""

import numpy as np
import pytest

from duotoc import gates
from duotoc.gates import (
    build_kak,
    build_kim,
    build_xy,
    gate_matrix,
    is_dual_unitary,
    one_qubit_gate,
    random_dual_unitary,
    random_kak,
    random_kak_params,
)
from duotoc.opalg import is_unitary

TOL = 1e-12

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _kim_reference(h1, h2):
    # independent vectorized evaluation of the matrix-element formula
    spins = np.array([1.0, -1.0])
    a = spins[:, None, None, None]
    b = spins[None, :, None, None]
    c = spins[None, None, :, None]
    d = spins[None, None, None, :]
    u = (-0.5j * np.exp(1j * (np.pi / 4) * (a - d) * (c - b))
         * np.exp(-1j * (h1 / 2) * (a + c) - 1j * (h2 / 2) * (b + d)))
    return u.reshape(4, 4)


@pytest.mark.parametrize("h1,h2", [(0.0, 0.0), (0.4, 0.6), (0.3, -0.3), (1.1, 2.7)])
def test_kim_matrix_and_unitarity(h1, h2):
    u = gate_matrix(build_kim(h1=h1, h2=h2))
    assert np.abs(u - _kim_reference(h1, h2)).max() < TOL
    assert is_unitary(u)


@pytest.mark.parametrize("h1,h2", [(0.0, 0.0), (0.4, 0.6), (0.9, 0.2)])
def test_kim_always_dual_unitary(h1, h2):
    assert is_dual_unitary(build_kim(h1=h1, h2=h2))


@pytest.mark.parametrize("j", [0.1, np.pi / 10, np.pi / 5, 0.7])
def test_xy_unitary_not_dual_unitary(j):
    g = build_xy(j=j)
    assert is_unitary(gate_matrix(g))
    assert not is_dual_unitary(g)


def test_xy_dual_unitary_at_quarter_pi():
    assert is_dual_unitary(build_xy(j=np.pi / 4))


def test_kim_accepts_positional_floats():
    assert np.array_equal(gate_matrix(build_kim(0.4, 0.6)),
                          gate_matrix(build_kim(h1=0.4, h2=0.6)))


def test_xy_accepts_positional_float():
    assert np.array_equal(gate_matrix(build_xy(0.6)), gate_matrix(build_xy(j=0.6)))


def test_xy_conjugation_identities():
    u = gate_matrix(build_xy(j=np.pi / 10))
    lhs = u @ np.kron(np.eye(2), SY) @ u.conj().T
    assert np.abs(lhs - np.kron(SY, SX)).max() < TOL
    lhs = u.conj().T @ np.kron(SZ, np.eye(2)) @ u
    assert np.abs(lhs - np.kron(SX, SZ)).max() < TOL


def test_xy_fails_loudly_when_an_identity_misses(monkeypatch):
    # a tolerance below zero makes every identity miss, as a broken
    # convention would
    monkeypatch.setattr(gates, "_XY_IDENTITY_TOL", -1.0)
    with pytest.raises(ValueError, match="kicked-XY"):
        build_xy(j=np.pi / 10)


def test_one_qubit_gate():
    theta = 0.37
    u = one_qubit_gate((theta, 0.0, 0.0))
    ref = np.array([[np.cos(theta), -1j * np.sin(theta)],
                    [-1j * np.sin(theta), np.cos(theta)]])
    assert np.abs(u - ref).max() < TOL
    n = (0.2, -0.5, 1.3)
    m = tuple(-v for v in n)
    assert np.abs(one_qubit_gate(n) @ one_qubit_gate(m) - np.eye(2)).max() < TOL


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_random_dual_unitary(seed):
    g = random_dual_unitary(seed)
    h = random_dual_unitary(seed)
    assert np.abs(gate_matrix(g) - gate_matrix(h)).max() == 0.0
    assert is_unitary(gate_matrix(g))
    assert is_dual_unitary(g)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_random_kak_generic(seed):
    g = random_kak(seed)
    assert is_unitary(gate_matrix(g))
    assert not is_dual_unitary(g)


def test_random_seeds_differ():
    a = gate_matrix(random_dual_unitary(0))
    b = gate_matrix(random_dual_unitary(1))
    assert np.abs(a - b).max() > 1e-3


def test_kak_params_control_dual_unitarity():
    p = random_kak_params(3, dual_unitary=True)
    assert p.jx == pytest.approx(np.pi / 4) and p.jy == pytest.approx(np.pi / 4)
    assert is_dual_unitary(build_kak(p))


def test_gate_matrix_accepts_arrays():
    u = np.eye(4, dtype=complex)
    assert gate_matrix(u) is not None
    assert np.abs(gate_matrix(u) - u).max() == 0.0
