"""Brute-force chain simulator: exactness at small sizes, budgets, sampling."""

import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from duotoc.gates import build_kim, gate_matrix, random_dual_unitary, random_kak
from duotoc.opalg import PAULI
from duotoc.oracle import (
    _SITE_BASIS,
    ChainSpec,
    _conjugate_layer,
    _site_coords,
    _superoperator,
    _translate,
    evolve_heisenberg,
    haar_sample,
    oracle_correlator,
    oracle_otoc,
    site_operator,
)
from duotoc.transfer import otoc_finite

TOL = 1e-12
REF_TOL = 1e-13

I2, SX, SY, SZ = PAULI

REF_GATES = {
    "du": random_dual_unitary(3),
    "kim": build_kim(h1=0.4, h2=0.6),
    "kak": random_kak(5),
}


# ---------------------------------------------------------------------------
# Dense reference: every bond embedded as a full 2^L x 2^L matrix with np.kron
# and a transpose, layers and U(t) multiplied out.  The library conjugates by
# the even layer on real coordinates and never forms these products.

def _embed_two_site(U, i, j, L):
    """Dense embedding of a two-site gate acting on sites (i, j) of L sites."""
    rest = [s for s in range(L) if s not in (i, j)]
    order = [i, j] + rest
    perm = [order.index(s) for s in range(L)]
    A = np.kron(U, np.eye(2 ** (L - 2), dtype=complex)).reshape([2] * (2 * L))
    A = A.transpose(perm + [L + p for p in perm])
    return A.reshape(2**L, 2**L)


def _dense_layers(U, L):
    even = np.eye(2**L, dtype=complex)
    odd = np.eye(2**L, dtype=complex)
    for j in range(0, L, 2):
        even = _embed_two_site(U, j, j + 1, L) @ even
    for j in range(1, L, 2):
        odd = _embed_two_site(U, j, (j + 1) % L, L) @ odd
    return even, odd


def _dense_evolution(U, L, t):
    even, odd = _dense_layers(U, L)
    out = np.eye(2**L, dtype=complex)
    for k in range(1, t + 1):
        out = (even if k % 2 else odd) @ out
    return out


# The library's layer conjugation on real coordinates, taken to and from
# dense matrices for comparison with the references above.

def _coords(op, L):
    """The real coordinates tr(h_(a_0) (x) ... op) of a dense Hermitian op in
    the oracle's site basis."""
    # cut[(i, j), a] = h_a[j, i]: each site's digit pair (row, column) to a
    cut = _SITE_BASIS.transpose(2, 1, 0).reshape(4, 4)
    c = np.asarray(op, dtype=complex).reshape((2,) * (2 * L))
    c = c.transpose([k for s in range(L) for k in (s, L + s)])
    for _ in range(L):
        c = np.tensordot(c.reshape(4, -1), cut, axes=(0, 0))
    return np.ascontiguousarray(c.reshape(-1).real)


def _from_coords(C, L):
    """The dense operator sum_a C[a] h_(a_0) (x) ... of the coordinates C."""
    c = C
    for _ in range(L):
        c = np.tensordot(c.reshape(4, -1), _SITE_BASIS.reshape(4, 4), axes=(0, 0))
    c = c.reshape((2,) * (2 * L))
    return c.transpose(list(range(0, 2 * L, 2)) + list(range(1, 2 * L, 2))).reshape(2**L, -1)


def _by_hermitian_parts(conjugate, H):
    """conjugate(H) for any dense H = H_1 + i H_2, H_1 and H_2 Hermitian: the
    oracle carries Hermitian operators only, and conjugation is linear."""
    H1, H2 = (H + H.conj().T) / 2, (H - H.conj().T) / 2j
    return conjugate(H1) + 1j * conjugate(H2)


def _site_shift(L):
    """The permutation matrix S that moves every site one step to the right,
    site L-1 wrapping to site 0: S|d_0 ... d_(L-1)> = |d_(L-1) d_0 ...>."""
    rows = np.moveaxis(np.arange(2**L).reshape([2] * L), 0, -1).reshape(-1)
    S = np.zeros((2**L, 2**L))
    S[rows, np.arange(2**L)] = 1.0
    return S


def layer_conjugations(spec):
    """The even-bond and odd-bond layer conjugations H -> Lambda^dag H
    Lambda of the chain, each a function of a dense H: the oracle's layer
    on the coordinates of H's Hermitian parts, and for the odd layer that
    conjugation moved by one site, S even(S^dag H S) S^dag."""
    L = spec.L
    R = _superoperator(gate_matrix(spec.gate))

    def hermitian_even(H):
        C = _coords(H, L)
        result, _ = _conjugate_layer(C, np.empty_like(C), R, L)
        return _from_coords(result, L)

    def even(H):
        return _by_hermitian_parts(hermitian_even, H)

    S = _site_shift(L)
    return even, lambda H: S @ even(S.T @ H @ S) @ S.T


def evolution_conjugation(spec, H, t):
    """U(t)^dag H U(t) with the even layer first, from the oracle's layer
    conjugations: the last layer applied innermost."""
    layers = layer_conjugations(spec)
    for k in range(t, 0, -1):
        H = layers[(k + 1) % 2](H)
    return H


def _random_operator(seed):
    """A generic, non-Hermitian one-site operator, which the oracle rejects."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))


def _random_hermitian(seed):
    """A generic Hermitian one-site operator, normalized to tr(h^2)/2 = 1 so
    that the OTOCs and correlators of two of them are of order 1."""
    z = _random_operator(seed)
    h = z + z.conj().T
    return h / np.sqrt(np.trace(h @ h).real / 2)


def _random_dense(n, seed, hermitian):
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (Z + Z.conj().T) / 2 if hermitian else Z


def test_chain_spec_validation():
    gate = build_kim(h1=0.4, h2=0.6)
    with pytest.raises(ValueError):
        ChainSpec(gate=gate, L=7)  # odd chains break the brickwork
    with pytest.raises(ValueError):
        ChainSpec(gate=gate, L=2)
    with pytest.raises(ValueError, match="12-qubit"):
        ChainSpec(gate=gate, L=14)


def test_budget_guard():
    spec = ChainSpec(gate=build_kim(h1=0.4, h2=0.6), L=8)
    with pytest.raises(ValueError):
        oracle_otoc(spec, SX, SX, 0, 4)  # needs 2t < L


@pytest.mark.parametrize("L", [4, 6, 8])
def test_evolution_operator_unitary(L):
    # conjugation by U(2), from the oracle's layers, is that of a unitary: it
    # keeps the identity and every product
    spec = ChainSpec(gate=random_dual_unitary(0), L=L)
    d = 2 ** L
    assert np.abs(evolution_conjugation(spec, np.eye(d), 2) - np.eye(d)).max() < 1e-10
    a, b = _random_dense(d, 1, False), _random_dense(d, 2, True)

    def u2(H):
        return evolution_conjugation(spec, H, 2)

    assert np.abs(u2(a) @ u2(b) - u2(a @ b)).max() < 1e-10
    assert np.abs(evolution_conjugation(spec, a, 0) - a).max() < TOL


def test_site_operator_embedding():
    op = site_operator(SZ, 1, 4)
    ref = np.kron(np.kron(np.eye(2), SZ), np.eye(4))
    assert np.abs(op - ref).max() < TOL


def test_correlator_t0_is_trace_overlap():
    spec = ChainSpec(gate=random_dual_unitary(2), L=6)
    a = (SX + 2 * SY - SZ) / np.sqrt(6)
    b = (SY + SZ) / np.sqrt(2)
    want = np.trace(a @ b).real / 2
    assert float(oracle_correlator(spec, a, 0, b, 0)) == pytest.approx(want, abs=TOL)


def test_otoc_t0_is_trace_algebra():
    spec = ChainSpec(gate=random_dual_unitary(2), L=6)
    a = (SX + SZ) / np.sqrt(2)
    b = SY
    want = np.trace(a @ b @ a @ b).real / 2
    assert float(oracle_otoc(spec, a, b, 0, 0)) == pytest.approx(want, abs=TOL)


@pytest.mark.parametrize("x,t", [(2, 1), (3, 2), (-3, 2), (3, 1)])
def test_otoc_outside_lightcone_is_one(x, t):
    spec = ChainSpec(gate=random_dual_unitary(1), L=8)
    a = (SX + SY) / np.sqrt(2)
    assert float(oracle_otoc(spec, a, SZ, x, t)) == pytest.approx(1.0, abs=TOL)


def test_heisenberg_evolution_preserves_norm():
    spec = ChainSpec(gate=random_dual_unitary(0), L=6)
    ev = evolve_heisenberg(spec, SX, 1, 2)
    d = 2 ** 6
    # unitary conjugation preserves the Frobenius norm
    assert np.linalg.norm(ev) == pytest.approx(np.sqrt(d), rel=1e-12)


def test_integrable_kim_odd_value():
    # frozen adjudication point for the odd-parity saturated value; the second
    # point needs a longer chain to satisfy the 2t < L wrap-around budget
    a = SX / np.sqrt(6) + SY / np.sqrt(2) + SZ / np.sqrt(3)
    b = SX / np.sqrt(6) - SY / np.sqrt(2) + SZ / np.sqrt(3)
    spec = ChainSpec(gate=build_kim(h1=0.0, h2=0.0), L=8)
    assert float(oracle_otoc(spec, a, b, 1, 2)) == pytest.approx(-7.0 / 18.0, abs=1e-11)
    spec10 = ChainSpec(gate=build_kim(h1=0.0, h2=0.0), L=10)
    assert float(oracle_otoc(spec10, a, b, 3, 4)) == pytest.approx(-7.0 / 18.0, abs=1e-11)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_haar_sample_unitary(q):
    u = haar_sample(q, 0)
    assert np.abs(u @ u.conj().T - np.eye(q)).max() < 1e-12


def test_haar_sample_seeding():
    assert np.abs(haar_sample(2, 7) - haar_sample(2, 7)).max() == 0.0
    assert np.abs(haar_sample(2, 7) - haar_sample(2, 8)).max() > 1e-3
    rng = np.random.default_rng(3)
    u = haar_sample(2, rng)
    assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12


def test_embedding_reference_places_the_wrap_bond():
    # the reference itself: a product gate on the wrap bond (L-1, 0) acts with
    # its first leg on site L-1 and its second on site 0
    L = 4
    got = _embed_two_site(np.kron(SX, SZ), L - 1, 0, L)
    want = np.kron(np.kron(SZ, np.eye(4)), SX)
    assert np.abs(got - want).max() == 0.0


@pytest.mark.parametrize("q", [2])
def test_site_basis_is_orthonormal_and_hermitian(q):
    h = _SITE_BASIS
    assert h.shape == (q * q, q, q)
    assert not h.flags.writeable
    assert np.abs(h - h.conj().transpose(0, 2, 1)).max() == 0.0
    gram = np.einsum("aij,bji->ab", h, h)
    assert np.abs(gram - np.eye(q * q)).max() < 1e-15
    # E_00, E_11, X/sqrt2, Y/sqrt2: the diagonal units come first, so the
    # identity's coordinates are q ones
    assert np.array_equal(h[2:], PAULI[1:3] / np.sqrt(2))
    assert np.array_equal(_site_coords(np.eye(q)), np.r_[np.ones(q), np.zeros(q * q - q)])


@pytest.mark.parametrize("name", sorted(REF_GATES))
@pytest.mark.parametrize("L", [4, 6, 8])
def test_layers_match_dense_embedding(L, name):
    spec = ChainSpec(gate=REF_GATES[name], L=L)
    want_even, want_odd = _dense_layers(gate_matrix(spec.gate), L)
    even, odd = layer_conjugations(spec)
    for hermitian in (False, True):  # a non-Hermitian H by its Hermitian parts
        H = _random_dense(2**L, L, hermitian)
        assert np.abs(even(H) - want_even.conj().T @ H @ want_even).max() < REF_TOL
        # the odd layer holds the wrap bond (L-1, 0)
        assert np.abs(odd(H) - want_odd.conj().T @ H @ want_odd).max() < REF_TOL


@pytest.mark.parametrize("q,L", [(2, 4), (2, 6), (2, 8), (2, 10)])
def test_conjugation_by_bond_pairs_matches_dense_kron(q, L):
    # L/2 = 2, 3, 4, 5 bonds: pairs only, and pairs followed by one bond
    U = haar_sample(q * q, 31 + L)
    even = U
    for _ in range(L // 2 - 1):
        even = np.kron(even, U)  # bonds (0, 1), (2, 3), ... with site 0 slowest
    R = _superoperator(U)

    def conjugate(H):
        C = _coords(H, L)
        got, _ = _conjugate_layer(C, np.empty_like(C), R, L)
        return _from_coords(got, L)

    for hermitian in (True, False):  # a non-Hermitian H by its Hermitian parts
        H = _random_dense(q**L, L, hermitian)
        got = _by_hermitian_parts(conjugate, H)
        assert np.abs(got - even.conj().T @ H @ even).max() < REF_TOL


@pytest.mark.parametrize("name", sorted(REF_GATES))
@pytest.mark.parametrize("L", [4, 6, 8])
def test_evolution_matches_dense_embedding(L, name):
    spec = ChainSpec(gate=REF_GATES[name], L=L)
    U = gate_matrix(spec.gate)
    sigma = _random_hermitian(L)
    for t in range(4):
        circ = _dense_evolution(U, L, t)
        for site in (0, 1, L - 1):
            op = site_operator(sigma, site, L)
            want = circ.conj().T @ op @ circ
            assert np.abs(evolution_conjugation(spec, op, t) - want).max() < REF_TOL
            got = evolve_heisenberg(spec, sigma, site, t)
            assert np.abs(got - want).max() < REF_TOL


@pytest.mark.parametrize("x,t", [(0, 0), (1, 1), (-1, 1), (2, 2), (-2, 3), (3, 3)])
def test_oracle_values_match_dense_traces(x, t):
    L = 8
    spec = ChainSpec(gate=REF_GATES["kak"], L=L)
    circ = _dense_evolution(gate_matrix(spec.gate), L, t)
    a, b = _random_hermitian(1), _random_hermitian(2)
    anchor = (t + 1) % 2 if x >= 0 else t % 2
    A = circ.conj().T @ site_operator(a, anchor, L) @ circ
    AB = A @ site_operator(b, anchor + x, L)
    assert oracle_otoc(spec, a, b, x, t) == pytest.approx(
        np.trace(AB @ AB) / 2**L, abs=REF_TOL)
    A = circ.conj().T @ site_operator(a, x, L) @ circ
    assert oracle_correlator(spec, a, x, b, t) == pytest.approx(
        np.trace(A @ site_operator(b, 0, L)) / 2**L, abs=REF_TOL)


@pytest.mark.parametrize("L,q", [(4, 2), (6, 2), (8, 2)])
def test_otoc_trace_matches_dense_at_every_beta_site(L, q):
    # sigma_beta at every site y = s + x of the chain, x < 0 wrapping round
    U = gate_matrix(REF_GATES["kak"])
    spec = ChainSpec(gate=U, L=L)
    a, b = _random_hermitian(24), _random_hermitian(25)
    sites = set()
    for t in range(L // 2):
        circ = _dense_evolution(U, L, t)
        for x in range(-t, t + 1):
            anchor = (t + 1) % 2 if x >= 0 else t % 2
            A = circ.conj().T @ site_operator(a, anchor, L) @ circ
            AB = A @ site_operator(b, anchor + x, L)
            assert oracle_otoc(spec, a, b, x, t) == pytest.approx(
                np.trace(AB @ AB) / q**L, abs=REF_TOL), (x, t)
            # the chain c = (anchor - t) mod 2 holds the operator at c + t % 2
            sites.add(((anchor - t) % 2 + t % 2 + x) % L)
    assert sites == set(range(L))


@pytest.mark.parametrize("call", ["otoc", "correlator"])
def test_non_unitary_gate_rejected(call):
    spec = ChainSpec(gate=1.001 * gate_matrix(random_kak(5)), L=6)
    for _ in range(3):  # a failed check is never remembered by the spec
        with pytest.raises(ValueError, match="not unitary"):
            if call == "otoc":
                oracle_otoc(spec, SX, SZ, 1, 2)
            else:
                oracle_correlator(spec, SX, 1, SZ, 2)


def _calls_with(spec, op):
    """Every oracle entry point called with ``op`` as sigma_alpha, then as
    sigma_beta."""
    return [lambda: oracle_otoc(spec, op, SZ, 1, 2),
            lambda: oracle_otoc(spec, SX, op, 1, 2),
            lambda: oracle_correlator(spec, op, 1, SZ, 2),
            lambda: oracle_correlator(spec, SX, 1, op, 2),
            lambda: evolve_heisenberg(spec, op, 1, 2)]


def test_other_local_dimensions_rejected():
    # gates._check_qubits decides q = 2 for the oracle as for the transfer side
    for spec, op in ((ChainSpec(gate=haar_sample(9, 11), L=4), SY),
                     (ChainSpec(gate=REF_GATES["kak"], L=6), np.eye(3))):
        for call in _calls_with(spec, op):
            with pytest.raises(ValueError, match="only q = 2"):
                call()
    with pytest.raises(ValueError, match="only q = 2"):
        site_operator(np.eye(3), 0, 4)


def test_non_hermitian_operators_rejected(monkeypatch):
    spec = ChainSpec(gate=REF_GATES["kak"], L=6)
    for call in _calls_with(spec, _random_operator(42)):
        with pytest.raises(ValueError, match="operators Hermitian"):
            call()
    # the one rule of opalg: a residue within TOL_REAL passes, and tightening
    # TOL_REAL rejects it on both routes
    beta = SZ + 1e-11j * I2
    want = oracle_otoc(ChainSpec(gate=REF_GATES["kak"], L=6), SX, SZ, 1, 2)
    assert oracle_otoc(spec, SX, beta, 1, 2) == pytest.approx(want, abs=TOL)
    monkeypatch.setattr("duotoc.opalg.TOL_REAL", 1e-12)
    for call in _calls_with(spec, beta):
        with pytest.raises(ValueError, match="operators Hermitian"):
            call()
    with pytest.raises(ValueError, match="operators Hermitian"):
        otoc_finite(REF_GATES["kak"], SX, beta, 1, 2)


def test_wrapped_beta_site_rejected_and_the_rest_match_a_longer_ring():
    # once |x| + t >= L, sigma_beta's site wraps round into sigma_alpha(t)'s
    # support: those cells raise, and every other cell is the infinite
    # chain's, which a ring of L = 10 gives as well
    L = 6
    gate = REF_GATES["kak"]
    spec, ring = ChainSpec(gate=gate, L=L), ChainSpec(gate=gate, L=10)
    a, b = _random_hermitian(44), _random_hermitian(45)
    checked = 0
    for t in range(L // 2):
        for x in range(-L - 1, L + 2):
            for kind in ("otoc", "corr"):
                if abs(x) + t >= L:
                    with pytest.raises(ValueError, match=r"\|x\| \+ t < L"):
                        _memo_value(spec, a, b, (kind, x, t))
                else:
                    want = _memo_value(ring, a, b, (kind, x, t))
                    got = _memo_value(spec, a, b, (kind, x, t))
                    assert got == pytest.approx(want, abs=REF_TOL), (kind, x, t)
                    checked += 1
    assert checked == 2 * (11 + 9 + 7)


# ---------------------------------------------------------------------------
# Per-chain memo: one shared spec gives exactly the values of a fresh spec per
# call, re-checks a gate changed in place, holds its two buffers and nothing
# else of matrix size, and hands out no array that a caller can change.
# test_non_unitary_gate_rejected checks that a failure is never remembered.

def _memo_grid(L):
    """(kind, x, t) cells for 2t < L, t outer so one evolution serves several x."""
    return [(kind, x, t) for t in range(L // 2) for kind in ("otoc", "corr")
            for x in range(-t, t + 1)]


def _memo_value(spec, a, b, cell):
    kind, x, t = cell
    if kind == "otoc":
        return oracle_otoc(spec, a, b, x, t)
    return oracle_correlator(spec, a, x, b, t)


@pytest.mark.parametrize("L", [8, 10])
def test_memo_matches_fresh_spec_exactly(L):
    gate = REF_GATES["kak"]
    a, b = _random_hermitian(3), _random_hermitian(4)
    # L = 10 adds t = 4, on both edges and both anchors: fresh specs are slow
    cells = _memo_grid(L) if L == 8 else [
        ("otoc", -4, 4), ("otoc", -1, 4), ("otoc", 0, 4), ("otoc", 4, 4),
        ("corr", 4, 4)]
    shared = ChainSpec(gate=gate, L=L)
    for cell in cells:
        got = _memo_value(shared, a, b, cell)
        want = _memo_value(ChainSpec(gate=gate, L=L), a, b, cell)
        assert got == want, cell


def test_memo_leaves_spec_equality_and_repr_alone():
    gate = REF_GATES["kak"]
    used, fresh = ChainSpec(gate=gate, L=6), ChainSpec(gate=gate, L=6)
    oracle_otoc(used, SX, SZ, 1, 2)
    assert used == fresh
    assert repr(used) == repr(fresh)


def test_memo_key_covers_gate_operator_site_and_t():
    # each call changes one part of the key of the call before it
    U = gate_matrix(random_kak(5)).copy()
    spec = ChainSpec(gate=U, L=8)
    a, b, c = (_random_hermitian(seed) for seed in (9, 10, 11))
    # (reseed the gate in place with another unitary?, sigma_alpha, x, t)
    steps = [(None, a, 1, 3), (None, a, 1, 1), (None, a, -1, 1),
             (None, c, -1, 1), (6, c, -1, 1)]
    for reseed, sigma, x, t in steps:
        if reseed is not None:
            U[:] = gate_matrix(random_kak(reseed))
        want = oracle_otoc(ChainSpec(gate=U.copy(), L=8), sigma, b, x, t)
        assert oracle_otoc(spec, sigma, b, x, t) == want, (reseed, x, t)


# The chain's buffers are the size of one operator's real coordinates,
# 8 * 4^8 bytes at L = 8, half the size of the complex 2^8 x 2^8 matrix.
PLANE_CASE = (_random_hermitian(12), 8 * 4**8)


def test_memo_frees_the_old_matrix_before_evolving_a_new_one():
    gate = REF_GATES["kak"]
    a, matrix = PLANE_CASE
    b = _random_hermitian(13)

    def peak(warm):
        tracemalloc.start()
        try:
            spec = ChainSpec(gate=gate, L=8)
            warm(spec)
            tracemalloc.reset_peak()
            oracle_otoc(spec, a, b, 0, 3)  # another anchor and t: evolves
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the warm-up leaves sigma_alpha(1, 2) in the memo, or the same state
    # evolved by evolve_heisenberg, whose dense matrix it handed out and is
    # freed
    held = peak(lambda spec: oracle_otoc(spec, a, b, 0, 2))
    none = peak(lambda spec: evolve_heisenberg(spec, a, 1, 2))
    assert held < none + matrix // 4, matrix
    # the spec's two buffers are all that is of matrix size, even mid-step
    assert max(held, none) < 2 * matrix + matrix // 4, matrix


def test_memo_memory_stays_flat_on_a_warm_spec():
    # a step, the first check of a new gate and a trace each run in the
    # spec's two buffers
    a, matrix = PLANE_CASE
    b = _random_hermitian(29)
    U = gate_matrix(random_kak(5)).copy()
    tracemalloc.start()
    try:
        spec = ChainSpec(gate=U, L=8)
        oracle_otoc(spec, a, b, 0, 1)

        def rise(call):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - held

        step = rise(lambda: oracle_otoc(spec, a, b, 0, 2))
        trace = rise(lambda: oracle_otoc(spec, a, b, 1, 2))
        U[:] = gate_matrix(random_kak(6))
        check = rise(lambda: oracle_otoc(spec, a, b, 0, 0))
    finally:
        tracemalloc.stop()
    assert max(step, trace, check) < matrix // 4, (matrix, step, trace, check)


def test_memo_check_never_serves_a_clobbered_state():
    # the check of another gate overwrites the buffers that hold sigma(t) of
    # the first; a failing check must drop the state as well as a passing one
    U = gate_matrix(random_kak(5)).copy()
    saved = U.copy()
    a, b = _random_hermitian(30), _random_hermitian(31)
    want = oracle_otoc(ChainSpec(gate=saved.copy(), L=8), a, b, 1, 3)
    spec = ChainSpec(gate=U, L=8)
    assert oracle_otoc(spec, a, b, 1, 3) == want
    U[:] = gate_matrix(random_kak(6))
    oracle_otoc(spec, a, b, 1, 3)
    U[:] = saved
    assert oracle_otoc(spec, a, b, 1, 3) == want
    oracle_otoc(spec, a, b, 1, 3)  # sigma(3) of U is remembered again
    U *= 1.001
    with pytest.raises(ValueError, match="not unitary"):
        oracle_otoc(spec, a, b, 1, 3)
    U[:] = saved
    assert oracle_otoc(spec, a, b, 1, 3) == want


def test_memo_rechecks_gate_changed_in_place():
    U = gate_matrix(random_kak(5)).copy()
    spec = ChainSpec(gate=U, L=6)
    oracle_otoc(spec, SX, SZ, 1, 2)
    U *= 1.001
    with pytest.raises(ValueError, match="not unitary"):
        oracle_otoc(spec, SX, SZ, 1, 2)
    with pytest.raises(ValueError, match="not unitary"):
        oracle_correlator(spec, SX, 1, SZ, 2)


def test_memo_threads_sharing_a_spec_give_serial_values():
    gate = REF_GATES["du"]
    a, b = _random_hermitian(5), _random_hermitian(6)
    cells = _memo_grid(8)
    serial_spec = ChainSpec(gate=gate, L=8)
    serial = [_memo_value(serial_spec, a, b, c) for c in cells]
    shared = ChainSpec(gate=gate, L=8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between the memo's steps
    try:
        # rounds in shifted orders, so the threads keep replacing the entry
        with ThreadPoolExecutor(max_workers=8) as pool:
            for order in (cells, cells[11:] + cells[:11], cells[::-1]):
                values = pool.map(lambda c: _memo_value(shared, a, b, c), order,
                                  timeout=120)
                got = dict(zip(order, values))
                assert [got[c] for c in cells] == serial
    finally:
        sys.setswitchinterval(interval)


def test_memo_threads_check_a_fresh_spec_once(conjugations):
    # at t = 0 no step runs, so the one conjugation is the unitarity check's;
    # four threads on the shared spec start together
    spec = ChainSpec(gate=REF_GATES["kak"], L=8)
    a, b = _random_hermitian(26), _random_hermitian(27)
    start = threading.Barrier(4, timeout=60)

    def call(_):
        start.wait()
        return oracle_otoc(spec, a, b, 0, 0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            values = list(pool.map(call, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert conjugations == ["even"]
    assert values == [oracle_otoc(ChainSpec(gate=REF_GATES["kak"], L=8), a, b, 0, 0)] * 4


def test_memo_evolve_heisenberg_returns_an_owned_copy():
    spec = ChainSpec(gate=REF_GATES["kak"], L=8)
    a, b = _random_hermitian(7), _random_hermitian(8)
    x, t = 1, 3
    anchor = (t + 1) % 2
    want = oracle_otoc(spec, a, b, x, t)
    ev = evolve_heisenberg(spec, a, anchor, t)
    assert ev.flags.writeable
    ev[:] = 0.0
    assert oracle_otoc(spec, a, b, x, t) == want
    # and the other way round: evolve first, change it, then ask the oracle
    spec = ChainSpec(gate=REF_GATES["kak"], L=8)
    evolve_heisenberg(spec, a, anchor, t)[:] = 1.0
    assert oracle_otoc(spec, a, b, x, t) == want


# ---------------------------------------------------------------------------
# Two translated chains: a step translates the operator by one site and
# conjugates it by the even layer, chain c = (a - t) mod 2 serves sigma_alpha
# at site a, and a request at a later t extends the remembered chain state.

@pytest.mark.parametrize("L", [4, 6, 8])
def test_translate_moves_every_site_one_step(L):
    sigma = _random_hermitian(L)
    for x in range(L):
        C = _coords(site_operator(sigma, x, L), L)
        out = np.empty_like(C)
        assert np.array_equal(_translate(C, out, 1, L),
                              _coords(site_operator(sigma, x + 1, L), L))
        assert np.array_equal(_translate(C, out, -1, L),
                              _coords(site_operator(sigma, x - 1, L), L))
    # the odd layer is the even one moved by a site, either way round
    spec = ChainSpec(gate=REF_GATES["kak"], L=L)
    R = _superoperator(gate_matrix(spec.gate))
    H = _random_dense(2**L, L, True)
    want = _coords(layer_conjugations(spec)[1](H), L)
    for shift in (1, -1):
        C = _translate(_coords(H, L), np.empty_like(want), -shift, L)
        moved, free = _conjugate_layer(C, np.empty_like(C), R, L)
        assert np.abs(_translate(moved, free, shift, L) - want).max() < REF_TOL


def test_chain_values_match_dense_traces_at_every_cell():
    # both chains, x < 0, and odd t, where the chain's operator sits at s = 2
    # while sigma_alpha was asked for at site 0
    L = 8
    spec = ChainSpec(gate=REF_GATES["du"], L=L)
    circs = [_dense_evolution(gate_matrix(spec.gate), L, t) for t in range(L // 2)]
    a, b = _random_hermitian(14), _random_hermitian(15)
    for kind, x, t in _memo_grid(L):
        circ = circs[t]
        if kind == "otoc":
            anchor = (t + 1) % 2 if x >= 0 else t % 2
            A = circ.conj().T @ site_operator(a, anchor, L) @ circ
            AB = A @ site_operator(b, anchor + x, L)
            want = np.trace(AB @ AB) / 2**L
        else:
            A = circ.conj().T @ site_operator(a, x, L) @ circ
            want = np.trace(A @ site_operator(b, 0, L)) / 2**L
        got = _memo_value(spec, a, b, (kind, x, t))
        assert got == pytest.approx(want, abs=REF_TOL), (kind, x, t)


def test_chain_requests_in_any_order_equal_a_fresh_spec():
    gate = REF_GATES["kak"]
    a, b = _random_hermitian(16), _random_hermitian(17)
    cells = _memo_grid(8)  # both chains at every t, x < 0 included
    want = {cell: _memo_value(ChainSpec(gate=gate, L=8), a, b, cell) for cell in cells}
    shuffled = [cells[i] for i in np.random.default_rng(18).permutation(len(cells))]
    for order in (cells, cells[::-1], shuffled):
        spec = ChainSpec(gate=gate, L=8)
        for cell in order:
            assert _memo_value(spec, a, b, cell) == want[cell], cell


def test_chain_request_below_the_remembered_t_restarts(conjugations):
    gate = REF_GATES["kak"]
    a, b = _random_hermitian(19), _random_hermitian(20)
    want = oracle_otoc(ChainSpec(gate=gate, L=8), a, b, 1, 2)
    spec = ChainSpec(gate=gate, L=8)
    oracle_otoc(spec, a, b, 1, 3)
    conjugations.clear()
    assert oracle_otoc(spec, a, b, 1, 2) == want
    assert conjugations == ["even"] * 2  # two steps from t = 0
    oracle_otoc(spec, a, b, 0, 3)
    assert conjugations == ["even"] * 3  # and one on to t = 3


def test_oracle_sweep_grid_steps_each_chain_once(conjugations):
    """The oracle cells of the bench's oracle_sweep, at L = 8: the OTOC grid
    0 <= x <= t <= tmax runs chain 1 up to tmax, then the correlator at
    x = t runs chain 0 up to tmax, one step per t."""
    L, tmax = 8, 3
    spec = ChainSpec(gate=REF_GATES["kak"], L=L)
    a, b = _random_hermitian(21), _random_hermitian(22)
    for t in range(tmax + 1):
        for x in range(t + 1):
            oracle_otoc(spec, a, b, x, t)
    for t in range(tmax + 1):
        oracle_correlator(spec, a, t, b, t)
    # the unitarity check's one, then 2 * tmax steps
    assert conjugations == ["even"] + ["even"] * (2 * tmax)
