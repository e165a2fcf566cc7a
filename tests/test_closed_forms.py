"""Closed-form evaluators against the iterative and brute-force routes."""

import re

import numpy as np
import pytest

from duotoc.channels import lightcone_correlator
from duotoc.closed_forms import (
    haar_projector,
    kim_correlator,
    kim_integrable_otoc,
    kim_integrable_otoc_symmetrized,
    kim_longtime,
    mc_longtime,
    xy_correlator,
    xy_longtime,
)
from duotoc.eigenbases import e_basis
from duotoc.gates import build_kim, build_xy, random_dual_unitary
from duotoc.opalg import PAULI
from duotoc.oracle import ChainSpec, oracle_otoc
from duotoc.transfer import otoc_finite, otoc_longtime

TOL_EXACT = 1e-12
TOL_ITER = 1e-8

I2, SX, SY, SZ = PAULI
ALPHA = SX / np.sqrt(6) + SY / np.sqrt(2) + SZ / np.sqrt(3)
BETA = SX / np.sqrt(6) - SY / np.sqrt(2) + SZ / np.sqrt(3)
A45 = (SX + SZ) / np.sqrt(2)


# ------------------------------------------------------------ maximal chaos

def test_mc_longtime_branch_table():
    assert mc_longtime(A45, SY, -1) == 1.0         # outside the cone
    assert mc_longtime(A45, SY, 0) == pytest.approx(-1 / 3, abs=TOL_EXACT)
    assert mc_longtime(A45, SY, 2) == 0.0
    assert mc_longtime(A45, SY, 4) == 0.0


def test_mc_longtime_odd_needs_gate():
    with pytest.raises(ValueError):
        mc_longtime(A45, SY, 1)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("t_minus_x", [1, 3])
def test_mc_longtime_odd_matches_iteration(seed, t_minus_x):
    gate = random_dual_unitary(seed)
    n = (t_minus_x + 1) // 2
    got = mc_longtime(A45, SY, t_minus_x, gate=gate)
    ref = otoc_longtime(gate, A45, SY, n, "odd").value
    assert got == pytest.approx(ref, abs=TOL_ITER)


# ------------------------------------------------------------- kicked Ising

def test_kim_longtime_cone_and_first_inside():
    assert kim_longtime(0.4, 0.6, A45, SY, 0) == pytest.approx(-0.5, abs=TOL_EXACT)
    want = 1.5 * np.sin(0.4) ** 2 - 0.5
    assert kim_longtime(0.4, 0.6, A45, SY, 1) == pytest.approx(want, abs=TOL_EXACT)
    assert kim_longtime(0.4, 0.6, A45, SY, 2) == pytest.approx(0.0, abs=TOL_EXACT)
    assert kim_longtime(0.4, 0.6, A45, SY, -1) == 1.0


def test_kim_longtime_odd_decay_slope():
    # ratio of consecutive odd-separation values is cos^2(h1+h2) from the
    # second step on
    c2 = np.cos(1.0) ** 2
    vals = [kim_longtime(0.4, 0.6, A45, SY, 2 * n - 1) for n in range(2, 6)]
    for a, b in zip(vals, vals[1:]):
        assert b / a == pytest.approx(c2, abs=TOL_EXACT)


@pytest.mark.parametrize("n,parity", [(1, "even"), (1, "odd"), (2, "even"),
                                      (2, "odd"), (3, "odd")])
def test_kim_longtime_matches_iteration(n, parity):
    gate = build_kim(h1=0.4, h2=0.6)
    t_minus_x = 2 * n - 2 if parity == "even" else 2 * n - 1
    got = kim_longtime(0.4, 0.6, A45, SY, t_minus_x)
    ref = otoc_longtime(gate, A45, SY, n, parity).value
    assert got == pytest.approx(ref, abs=TOL_ITER)


def test_kim_correlator_t0_and_lightcone():
    gate = build_kim(h1=0.4, h2=0.6)
    assert kim_correlator(0.4, 0.6, SX, SX, 0) == pytest.approx(1.0, abs=TOL_EXACT)
    assert kim_correlator(0.4, 0.6, SX, SY, 0) == pytest.approx(0.0, abs=TOL_EXACT)
    for t in range(8):
        assert kim_correlator(0.4, 0.6, A45, SY, t) == pytest.approx(
            lightcone_correlator(gate, A45, SY, t), abs=TOL_EXACT)


def test_kim_correlator_non_mixing_point_is_constant():
    vals = {kim_correlator(0.3, -0.3, A45, SY, t) for t in (1, 4, 9)}
    assert max(vals) - min(vals) < TOL_EXACT


@pytest.mark.parametrize("t", [-1, -2])
@pytest.mark.parametrize("closed,route", [
    (lambda t: kim_correlator(0.4, 0.6, SX, SY, t),
     lambda t: lightcone_correlator(build_kim(0.4, 0.6), SX, SY, t)),
    (lambda t: xy_correlator(0.3, SX, SX, t),
     lambda t: lightcone_correlator(build_xy(0.3), SX, SX, t)),
    (lambda t: kim_integrable_otoc(SX, SY, 0, t),
     lambda t: otoc_finite(build_kim(0.0, 0.0), SX, SY, 0, t)),
    (lambda t: kim_integrable_otoc_symmetrized(SX, SY, 0, t),
     lambda t: otoc_finite(build_kim(0.0, 0.0), SX, SY, 0, t)),
], ids=["kim_correlator", "xy_correlator", "kim_integrable_otoc",
        "kim_integrable_otoc_symmetrized"])
def test_negative_times_raise_as_on_the_transfer_route(closed, route, t):
    # a correlator or OTOC before t = 0 is no value: each closed form raises
    # the ValueError of the route it stands in for
    with pytest.raises(ValueError) as refused:
        route(t)
    with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
        closed(t)


# sigma = X + iY: its anti-Hermitian residue is 2
NON_HERMITIAN = SX + 1j * SY
CLOSED_FORM_CALLS = {
    "mc_longtime-cone": lambda op: mc_longtime(op, SY, 0),
    "mc_longtime-outside": lambda op: mc_longtime(op, SY, -1),
    "mc_longtime-odd": lambda op: mc_longtime(op, SY, 1, gate=random_dual_unitary(0)),
    "mc_longtime-beta": lambda op: mc_longtime(SX, op, 2),
    "kim_longtime": lambda op: kim_longtime(0.4, 0.6, op, SY, 1),
    "kim_longtime-outside": lambda op: kim_longtime(0.4, 0.6, op, SY, -1),
    "kim_longtime-beta": lambda op: kim_longtime(0.4, 0.6, SX, op, 1),
    "kim_correlator": lambda op: kim_correlator(0.4, 0.6, op, SY, 2),
    "kim_correlator-t0": lambda op: kim_correlator(0.4, 0.6, op, SY, 0),
    "kim_integrable_otoc": lambda op: kim_integrable_otoc(op, SY, 1, 2),
    "kim_integrable_otoc-t0": lambda op: kim_integrable_otoc(op, SY, 0, 0),
    "kim_integrable_otoc-outside": lambda op: kim_integrable_otoc(op, SY, 3, 2),
    "kim_integrable_otoc_symmetrized": lambda op: kim_integrable_otoc_symmetrized(op, SY, 1, 2),
    "xy_longtime": lambda op: xy_longtime(op, SX, 2),
    "xy_longtime-outside": lambda op: xy_longtime(op, SX, -1),
    "xy_longtime-beta": lambda op: xy_longtime(SX, op, 1),
    "xy_correlator": lambda op: xy_correlator(0.3, op, SX, 2),
    "xy_correlator-t0": lambda op: xy_correlator(0.3, op, SX, 0),
}


@pytest.mark.parametrize("call", CLOSED_FORM_CALLS.values(), ids=CLOSED_FORM_CALLS)
def test_non_hermitian_insertions_raise_on_every_branch(call):
    # the transfer route's input rule, on every branch: outside the light
    # cone, at t = 0 and on the branches that never read the insertion
    with pytest.raises(ValueError, match=r"operators Hermitian\?"):
        call(NON_HERMITIAN)


# -------------------------------------------------- integrable kicked Ising

def test_integrable_even_branches():
    assert kim_integrable_otoc(ALPHA, BETA, 2, 2) == pytest.approx(-8 / 9, abs=1e-10)
    assert kim_integrable_otoc(ALPHA, BETA, 0, 2) == 1.0
    assert kim_integrable_otoc(ALPHA, BETA, 4, 2) == 1.0
    # sigma_z pair saturates at the trivial cone value
    assert kim_integrable_otoc(SZ, SZ, 3, 3) == pytest.approx(1.0, abs=TOL_EXACT)


def test_integrable_t0_is_trace_algebra():
    want = float(np.trace(ALPHA @ BETA @ ALPHA @ BETA).real / 2)
    assert kim_integrable_otoc(ALPHA, BETA, 0, 0) == pytest.approx(want, abs=TOL_EXACT)
    assert kim_integrable_otoc_symmetrized(ALPHA, BETA, 0, 0) == pytest.approx(
        want, abs=TOL_EXACT)


def test_integrable_odd_variants_differ_unless_ax_degenerate():
    # (1 - ax)^2 vs (1 - ax^2) coincide exactly when ax in {0, 1}
    printed = kim_integrable_otoc(SY, BETA, 1, 2)
    sym = kim_integrable_otoc_symmetrized(SY, BETA, 1, 2)
    assert printed == pytest.approx(sym, abs=TOL_EXACT)
    assert kim_integrable_otoc(ALPHA, BETA, 1, 2) != pytest.approx(
        kim_integrable_otoc_symmetrized(ALPHA, BETA, 1, 2), abs=1e-3)


def test_integrable_odd_oracle_adjudication():
    spec = ChainSpec(gate=build_kim(h1=0.0, h2=0.0), L=8)
    ref = float(oracle_otoc(spec, ALPHA, BETA, 1, 2))
    assert kim_integrable_otoc_symmetrized(ALPHA, BETA, 1, 2) == pytest.approx(
        ref, abs=1e-10)
    assert abs(kim_integrable_otoc(ALPHA, BETA, 1, 2) - ref) > 0.1


def test_integrable_correlator():
    # the self-dual point h1 = h2 = 0: delta overlap at t = 0, then ax bx
    assert kim_correlator(0.0, 0.0, SX, SX, 5) == pytest.approx(1.0, abs=TOL_EXACT)
    assert kim_correlator(0.0, 0.0, SZ, SZ, 5) == pytest.approx(0.0, abs=TOL_EXACT)
    assert kim_correlator(0.0, 0.0, ALPHA, BETA, 3) == pytest.approx(
        1 / 6, abs=TOL_EXACT)
    assert kim_correlator(0.0, 0.0, SY, SZ, 0) == pytest.approx(0.0, abs=TOL_EXACT)


# ----------------------------------------------------------------- kicked XY

XY_BRANCH_VALUES = [1 / 3, 1 / 6, -5 / 18, -1 / 9, -2 / 9, 1 / 6, -5 / 18,
                    -1 / 9, -2 / 9]


@pytest.mark.parametrize("t_minus_x,want", list(enumerate(XY_BRANCH_VALUES)))
def test_xy_longtime_branch_table(t_minus_x, want):
    assert xy_longtime(ALPHA, BETA, t_minus_x) == pytest.approx(want, abs=TOL_EXACT)


def test_xy_longtime_outside_cone():
    assert xy_longtime(ALPHA, BETA, -1) == 1.0


def test_xy_longtime_conserved_direction():
    # beta_z = 1 on the cone with alpha_y = 0 gives the trivial value
    assert xy_longtime(A45, SZ, 0) == pytest.approx(1.0, abs=TOL_EXACT)


@pytest.mark.parametrize("n,parity", [(1, "even"), (1, "odd"), (2, "even")])
def test_xy_longtime_matches_iteration(n, parity):
    gate = build_xy(j=np.pi / 10)
    t_minus_x = 2 * n - 2 if parity == "even" else 2 * n - 1
    ref = otoc_longtime(gate, ALPHA, BETA, n, parity).value
    assert xy_longtime(ALPHA, BETA, t_minus_x) == pytest.approx(ref, abs=TOL_ITER)


@pytest.mark.parametrize("j", [np.pi / 10, np.pi / 6])
def test_xy_correlator_matches_channel_route(j):
    gate = build_xy(j=j)
    for t in range(11):
        assert xy_correlator(j, ALPHA, BETA, t) == pytest.approx(
            lightcone_correlator(gate, ALPHA, BETA, t), abs=TOL_EXACT)


def test_xy_correlator_explicit_decay():
    ax = float(np.trace(SX @ ALPHA).real / 2)
    bx = float(np.trace(SX @ BETA).real / 2)
    for t in (1, 4, 7):
        assert xy_correlator(np.pi / 10, ALPHA, BETA, t) == pytest.approx(
            ax * bx * np.sin(np.pi / 5) ** t, abs=TOL_EXACT)


def test_xy_correlator_dual_unitary_point_is_integrable_kim():
    for t in (0, 1, 5):
        assert xy_correlator(np.pi / 4, ALPHA, BETA, t) == pytest.approx(
            kim_correlator(0.0, 0.0, ALPHA, BETA, t), abs=TOL_EXACT)


# ------------------------------------------------------------ Haar projector

def test_haar_projector_structure():
    p = haar_projector()
    assert np.abs(p @ p - p).max() < TOL_EXACT
    assert np.trace(p) == pytest.approx(2.0, abs=TOL_EXACT)
    assert np.linalg.matrix_rank(p, tol=1e-10) == 2


def test_haar_projector_equals_eigenbasis_projector():
    _, tilde = e_basis(1)
    assert np.abs(haar_projector() - tilde.T @ tilde).max() < TOL_EXACT
