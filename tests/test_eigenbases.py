"""Unit-eigenvalue eigenoperator families and their duals."""

import numpy as np
import pytest
from conftest import hermitian_coeffs

from duotoc.eigenbases import (
    bilinear,
    e_basis,
    kim_z_basis,
    product_state,
    xy_dual_basis,
    xy_left_state,
    xy_longtime_projector,
    xy_overlap,
    xy_overlap_matrix,
    xy_right_state,
)
from duotoc.gates import build_kim, build_xy, random_dual_unitary
from duotoc.opalg import PAULI
from duotoc.transfer import build_transfer, otoc_longtime

TOL_RESIDUAL = 1e-10
TOL_BASIS = 1e-12

I2, SX, SY, SZ = PAULI
ALPHA = SX / np.sqrt(6) + SY / np.sqrt(2) + SZ / np.sqrt(3)
BETA = SX / np.sqrt(6) - SY / np.sqrt(2) + SZ / np.sqrt(3)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n", [1, 2])
def test_e_states_are_unit_eigenvectors(seed, n):
    tm = build_transfer(random_dual_unitary(seed), n)
    raw, _ = e_basis(n)
    for state in raw:
        v = hermitian_coeffs(state.vec, "right")
        assert np.abs(tm @ v - v).max() < TOL_RESIDUAL * np.linalg.norm(v)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_e_tilde_orthonormal(n):
    _, tilde = e_basis(n)
    assert len(tilde) == n + 1
    for i, a in enumerate(tilde):
        for j, b in enumerate(tilde):
            want = 1.0 if i == j else 0.0
            assert abs(bilinear(a.vec, b.vec) - want) < TOL_BASIS


@pytest.mark.parametrize("n", [1, 2])
def test_kim_z_states_are_unit_eigenvectors(n):
    tm = build_transfer(build_kim(h1=0.4, h2=0.6), n)
    zs, _ = kim_z_basis(n)
    for state in zs:
        v = hermitian_coeffs(state.vec, "right")
        assert np.abs(tm @ v - v).max() < TOL_RESIDUAL * np.linalg.norm(v)


@pytest.mark.parametrize("n", [1, 2])
def test_kim_extended_family_orthonormal(n):
    _, e_tilde = e_basis(n)
    _, z_tilde = kim_z_basis(n)
    family = e_tilde + z_tilde
    assert len(family) == 2 * n + 1
    for i, a in enumerate(family):
        for j, b in enumerate(family):
            want = 1.0 if i == j else 0.0
            assert abs(bilinear(a.vec, b.vec) - want) < TOL_BASIS


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("j", [np.pi / 10, np.pi / 5])
def test_xy_states_are_unit_eigenvectors(n, j):
    tm = build_transfer(build_xy(j=j), n)
    labels = xy_overlap_matrix(n).labels
    for r in labels:
        v = hermitian_coeffs(xy_right_state(r).vec, "right")
        assert np.abs(tm @ v - v).max() < TOL_RESIDUAL * np.linalg.norm(v)
    for l in labels:
        v = hermitian_coeffs(xy_left_state(l).vec, "left")
        assert np.abs(tm.T @ v - v).max() < TOL_RESIDUAL * np.linalg.norm(v)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_xy_overlap_closed_form_matches_vectors(n):
    labels = xy_overlap_matrix(n).labels
    for l in labels:
        lv = xy_left_state(l).vec
        for r in labels:
            num = bilinear(lv, xy_right_state(r).vec)
            assert num.imag == pytest.approx(0.0, abs=TOL_BASIS)
            assert num.real == pytest.approx(xy_overlap(l, r), abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_xy_gram_identity(n):
    assert xy_overlap_matrix(n).gram_identity_holds()


@pytest.mark.parametrize("n", [1, 2])
def test_xy_dual_basis_biorthonormal(n):
    lefts, rights = xy_dual_basis(n)
    for i, l in enumerate(lefts):
        for j, r in enumerate(rights):
            want = 1.0 if i == j else 0.0
            assert abs(bilinear(l.vec, r.vec) - want) < 1e-9


@pytest.mark.parametrize("n,parity", [(1, "even"), (1, "odd"), (2, "even"), (2, "odd")])
def test_xy_projector_matches_iteration(n, parity):
    gate = build_xy(j=np.pi / 10)
    via_proj = xy_longtime_projector(ALPHA, BETA, n, parity)
    via_iter = otoc_longtime(gate, ALPHA, BETA, n, parity).value
    assert via_proj == pytest.approx(via_iter, abs=1e-8)


def test_product_state_is_kron():
    ops = (SX, SY, SZ, I2)
    vec = product_state(ops).vec
    want = np.kron(np.kron(SX.reshape(4), SY.reshape(4)),
                   np.kron(SZ.reshape(4), I2.reshape(4)))
    assert np.abs(vec - want).max() < TOL_BASIS
