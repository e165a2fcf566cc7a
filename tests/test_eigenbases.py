"""Unit-eigenvalue eigenoperator families and their duals."""

from functools import reduce

import numpy as np
import pytest
from conftest import Q_LEG

from duotoc import eigenbases
from duotoc.eigenbases import (
    SlotState,
    _labels,
    e_basis,
    e_state,
    kim_z_basis,
    kim_z_state,
    product_state,
    xy_dual_basis,
    xy_left_boundary_overlap,
    xy_left_state,
    xy_longtime_projector,
    xy_overlap,
    xy_overlap_matrix,
    xy_right_boundary_overlap,
    xy_right_state,
)
from duotoc.gates import build_kim, build_xy, random_dual_unitary
from duotoc.opalg import PAULI
from duotoc.transfer import (
    N_MAX_APPLY,
    _pair_block,
    _slot_coeffs,
    build_transfer,
    otoc_longtime,
)

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
    for v in raw:
        assert np.abs(tm @ v - v).max() < TOL_RESIDUAL * np.linalg.norm(v)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_e_tilde_orthonormal(n):
    _, tilde = e_basis(n)
    assert len(tilde) == n + 1
    assert np.abs(tilde @ tilde.T - np.eye(n + 1)).max() < TOL_BASIS


@pytest.mark.parametrize("n", [1, 2])
def test_kim_z_states_are_unit_eigenvectors(n):
    tm = build_transfer(build_kim(h1=0.4, h2=0.6), n)
    zs, _ = kim_z_basis(n)
    for v in zs:
        assert np.abs(tm @ v - v).max() < TOL_RESIDUAL * np.linalg.norm(v)


@pytest.mark.parametrize("n", [1, 2])
def test_kim_extended_family_orthonormal(n):
    _, e_tilde = e_basis(n)
    _, z_tilde = kim_z_basis(n)
    family = np.vstack([e_tilde, z_tilde])
    assert len(family) == 2 * n + 1
    assert np.abs(family @ family.T - np.eye(2 * n + 1)).max() < TOL_BASIS


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("j", [np.pi / 10, np.pi / 5])
def test_xy_states_are_unit_eigenvectors(n, j):
    tm = build_transfer(build_xy(j=j), n)
    labels = _labels(n)
    for r in labels:
        v = xy_right_state(r).vector()
        assert np.abs(tm @ v - v).max() < TOL_RESIDUAL * np.linalg.norm(v)
    for l in labels:
        v = xy_left_state(l).vector()
        assert np.abs(tm.T @ v - v).max() < TOL_RESIDUAL * np.linalg.norm(v)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_xy_overlap_closed_form_matches_vectors(n):
    labels = _labels(n)
    for l in labels:
        lv = xy_left_state(l).vector()
        for r in labels:
            num = np.dot(lv, xy_right_state(r).vector())
            assert num == pytest.approx(xy_overlap(l, r), abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_xy_gram_identity(n):
    g = xy_overlap_matrix(n)
    assert g.dtype == np.int64
    assert np.array_equal(g @ g.T, 2 ** (3 * n) * np.eye(2 ** n, dtype=np.int64))


@pytest.mark.parametrize("n", [1, 2])
def test_xy_dual_basis_biorthonormal(n):
    lefts, rights = xy_dual_basis(n)
    assert np.abs(lefts @ rights.T - np.eye(2 ** n)).max() < 1e-9


@pytest.mark.parametrize("n,parity", [(1, "even"), (1, "odd"), (2, "even"), (2, "odd")])
def test_xy_projector_matches_iteration(n, parity):
    gate = build_xy(j=np.pi / 10)
    via_proj = xy_longtime_projector(ALPHA, BETA, n, parity)
    via_iter = otoc_longtime(gate, ALPHA, BETA, n, parity).value
    assert via_proj == pytest.approx(via_iter, abs=1e-8)


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("build", [
    e_basis, kim_z_basis, xy_dual_basis, xy_overlap_matrix,
    lambda n: xy_longtime_projector(ALPHA, BETA, n, "even"),
], ids=["e_basis", "kim_z_basis", "xy_dual_basis", "xy_overlap_matrix",
        "xy_longtime_projector"])
def test_builders_refuse_depths_below_one(build, n):
    # a depth below 1 has no column: no empty stack, no 1 x 1 matrix
    with pytest.raises(ValueError, match="need n >= 1"):
        build(n)


DEPTH_ZERO_CALLS = {
    "xy_left_boundary_overlap": lambda: xy_left_boundary_overlap(SX, ()),
    "xy_right_boundary_overlap": lambda: xy_right_boundary_overlap(SX, (), "odd"),
    "xy_overlap": lambda: xy_overlap((), ()),
    "xy_right_state": lambda: xy_right_state(()),
    "xy_left_state": lambda: xy_left_state(()),
    "e_state": lambda: e_state(0, 0).vector(),
}


@pytest.mark.parametrize("call", DEPTH_ZERO_CALLS.values(), ids=DEPTH_ZERO_CALLS)
def test_per_label_helpers_refuse_depth_zero(call):
    # an empty bitstring or a state on no slots is a depth-0 column, which
    # the builders refuse with the same message
    with pytest.raises(ValueError, match="need n >= 1"):
        call()


@pytest.mark.parametrize("build", [e_basis, kim_z_basis, xy_dual_basis])
def test_dense_builders_keep_the_application_budget(build):
    # each row is a 16^n vector: past N_MAX_APPLY the call refuses before it
    # allocates one
    with pytest.raises(ValueError, match="application budget"):
        build(N_MAX_APPLY + 1)


def test_product_state_is_kron():
    """A product state is the Kronecker product of its slots' coefficients
    tr(sigma_mu^T X)/sqrt(2), slot 1 slowest."""
    ops = (SX, SY, SZ, I2)
    coeffs = [np.array([np.trace(s.T @ op).real for s in PAULI]) / np.sqrt(2) for op in ops]
    want = reduce(np.kron, coeffs)
    assert np.abs(product_state(ops).vector() - want).max() < TOL_BASIS


def test_slot_builders_are_the_folded_definitions_on_either_side():
    """In the Hermitian leg basis a bra and a ket with the same slot
    description are the same vector: the folded-basis ket product vec(X), bra
    product vec(X^T), ket pair X[u,vbar] X[v,ubar] and bra pair
    X[vbar,u] X[ubar,v], mapped slot by slot (Q^T for kets, Q^dagger for
    bras), are the transfer's slot coefficients and pair block of X."""
    g = np.random.default_rng(23).standard_normal((2, 2, 2))
    x = (g[0] + 1j * g[1]) / 2
    x = x + x.conj().T
    ket_pair = np.einsum("ad,cb->abcd", x, x).reshape(4, 4)
    bra_pair = np.einsum("da,bc->abcd", x, x).reshape(4, 4)
    q, qd = Q_LEG.T, Q_LEG.conj().T  # per slot: kets, bras
    assert np.abs(q @ x.reshape(4) - _slot_coeffs(x)).max() < 1e-15
    assert np.abs(qd @ x.T.reshape(4) - _slot_coeffs(x)).max() < 1e-15
    assert np.abs(q @ ket_pair @ q.T - _pair_block(x)).max() < 1e-15
    assert np.abs(qd @ bra_pair @ qd.T - _pair_block(x)).max() < 1e-15


# sigma = X + iY: its anti-Hermitian residue is 2
NON_HERMITIAN = SX + 1j * SY
XY_OVERLAP_CALLS = {
    "left": lambda op: xy_left_boundary_overlap(op, (0, 1)),
    "right-even": lambda op: xy_right_boundary_overlap(op, (0, 1), "even"),
    "right-odd": lambda op: xy_right_boundary_overlap(op, (1, 1), "odd"),
    "right-odd-label-ending-in-0": lambda op: xy_right_boundary_overlap(op, (1, 0), "odd"),
    "projector-alpha": lambda op: xy_longtime_projector(op, SX, 2, "even"),
    "projector-beta": lambda op: xy_longtime_projector(SX, op, 2, "odd"),
}


@pytest.mark.parametrize("call", XY_OVERLAP_CALLS.values(), ids=XY_OVERLAP_CALLS)
def test_xy_boundary_overlaps_reject_non_hermitian_insertions(call):
    # the transfer route's input rule; the odd overlap of a label that ends
    # in 0 never reads its insertion, and raises all the same
    with pytest.raises(ValueError, match=r"operators Hermitian\?"):
        call(NON_HERMITIAN)


@pytest.mark.parametrize("where", ["prods", "pairs"])
def test_slot_state_rejects_non_hermitian_operators(where):
    # the state checks its operators when it is made, not in vector()
    x = SX + 1j * SY
    with pytest.raises(ValueError, match=r"operators Hermitian\?"):
        if where == "prods":
            SlotState(n=1, prods={1: x, 2: I2})
        else:
            SlotState(n=1, pairs=((1, 2, x),))


BAD_BITS = {
    "half": ([0.5, 1], r"^bit must be an integer \(got 0.5\)$"),
    "bools": ([True, False], r"^bit must be an integer \(got True\)$"),
    "two": ((0, 2), r"^need 0 <= bit <= 1 \(got 2\)$"),
    "minus-one": ((1, -1), r"^need 0 <= bit <= 1 \(got -1\)$"),
}
BIT_CALLS = {
    "xy_right_state": xy_right_state,
    "xy_left_state": xy_left_state,
    "xy_overlap": lambda label: xy_overlap(label, (0, 1)),
    "xy_left_boundary_overlap": lambda label: xy_left_boundary_overlap(SX, label),
    "xy_right_boundary_overlap": lambda label: xy_right_boundary_overlap(SX, label, "even"),
}


@pytest.mark.parametrize("label,message", BAD_BITS.values(), ids=BAD_BITS)
@pytest.mark.parametrize("call", BIT_CALLS.values(), ids=BIT_CALLS)
def test_labels_take_integer_bits_only(call, label, message):
    # every bit goes through the integer rule with 0 <= bit <= 1: 0.5 is not
    # truncated to 0, and a bool is no bit
    with pytest.raises(ValueError, match=message):
        call(label)


@pytest.mark.parametrize("call,message", [
    (lambda: SlotState(n=0), r"^need n >= 1 \(got 0\)$"),
    (lambda: e_state(2, 3), r"^need 0 <= k <= 2 \(got 3\)$"),
    (lambda: e_state(2, -1), r"^need 0 <= k <= 2 \(got -1\)$"),
    (lambda: kim_z_state(2, 0), r"^need 1 <= k <= 2 \(got 0\)$"),
], ids=["slot-state-zero", "e-state-k-above", "e-state-k-below", "kim-z-state-k-below"])
def test_states_take_depths_and_indices_in_range(call, message):
    # float, bool and string values of the same arguments are in
    # test_opalg.py's INTEGER_ARGUMENTS
    with pytest.raises(ValueError, match=message):
        call()


def test_slot_state_is_frozen_and_keeps_read_only_copies():
    # after the check nothing can change what was checked: not the fields,
    # not the mapping, not the stored arrays; the caller's array is untouched
    mine = np.array(SX)
    s = SlotState(n=1, prods={1: mine, 2: I2}, pairs=())
    t = SlotState(n=1, pairs=[(1, 2, mine)])
    with pytest.raises(AttributeError):
        s.n = 2
    with pytest.raises(TypeError):
        s.prods[1] = SX + 1j * SY
    with pytest.raises(ValueError, match="read-only"):
        s.prods[1][0, 0] = 1.0
    with pytest.raises(TypeError):
        t.pairs[0] = (1, 2, I2)
    with pytest.raises(ValueError, match="read-only"):
        t.pairs[0][2][0, 0] = 1.0
    assert mine.flags.writeable
    mine[0, 0] = 5.0
    assert s.prods[1][0, 0] == 0 and t.pairs[0][2][0, 0] == 0
    assert np.array_equal(s.vector(), product_state([SX, I2]).vector())


def test_projector_checks_its_insertions_once(monkeypatch):
    # one call of the input rule for both insertions, not one per label
    calls = []
    checked = eigenbases._checked_inputs
    monkeypatch.setattr(eigenbases, "_checked_inputs",
                        lambda *args: calls.append(args) or checked(*args))
    for parity in ("even", "odd"):
        calls.clear()
        xy_longtime_projector(ALPHA, BETA, 3, parity)
        assert len(calls) == 1, parity
