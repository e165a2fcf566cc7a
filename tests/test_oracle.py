"""Brute-force chain simulator: exactness at small sizes, budgets, sampling."""

import functools
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from duotoc.gates import build_kim, gate_matrix, random_dual_unitary, random_kak
from duotoc.opalg import PAULI, TOL_UNITARY
from duotoc.oracle import (
    _IDENTITY,
    _SITE_BASIS,
    ChainSpec,
    _checked_gate,
    _conjugate_layer,
    _dense,
    _derived_gate,
    _light_cone,
    _site_coords,
    _superoperator,
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
# and a transpose, layers and U(t) multiplied out.  The library conjugates a
# light-cone window by its bonds on real coordinates and never forms these
# products.

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

def _conjugated(coords, R, w):
    """The library's layer conjugation of the flat ``coords`` on w sites, in
    a buffer pair of the coordinates' size; a new array, coords left alone."""
    return _conjugate_layer(coords.copy(), np.empty_like(coords), R, w)[0]


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
        return _from_coords(_conjugated(_coords(H, L), R, L), L)

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
    for L in (8.0, "8", True):  # L is an int, and True is not a length
        with pytest.raises(ValueError, match="even integer"):
            ChainSpec(gate=gate, L=L)


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
        return _from_coords(_conjugated(_coords(H, L), R, L), L)

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
            if 2 * t < L:
                got = evolve_heisenberg(spec, sigma, site, t)
                assert np.abs(got - want).max() < REF_TOL
            else:  # the operator would wrap round the ring onto itself
                with pytest.raises(ValueError, match="2t < L"):
                    evolve_heisenberg(spec, sigma, site, t)
    with pytest.raises(ValueError, match="need t >= 0"):
        evolve_heisenberg(spec, sigma, 1, -1)


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
    # sigma_beta on every site of sigma_alpha(t)'s window and on the identity
    # sites next to it, x < 0 wrapping round the ring
    U = gate_matrix(REF_GATES["kak"])
    spec = ChainSpec(gate=U, L=L)
    a, b = _random_hermitian(24), _random_hermitian(25)
    places = set()
    for t in range(L // 2):
        circ = _dense_evolution(U, L, t)
        for x in range(-t - 1, t + 2):
            anchor = (t + 1) % 2 if x >= 0 else t % 2
            A = circ.conj().T @ site_operator(a, anchor, L) @ circ
            AB = A @ site_operator(b, anchor + x, L)
            assert oracle_otoc(spec, a, b, x, t) == pytest.approx(
                np.trace(AB @ AB) / q**L, abs=REF_TOL), (x, t)
            # the window is [anchor - t + c, anchor + t + c), c = 1 for x >= 0
            # and 0 for x < 0; at t = 0 it is the anchor's site alone
            places.add((t, x + t - (x >= 0) if t else x))
    top = L // 2 - 1
    assert {y for s, y in places if s == top} == set(range(-1, 2 * top + 1))


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
    # gates._checked_inputs decides q = 2 for the oracle as for the transfer side
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
    with pytest.raises(ValueError, match="operators Hermitian"):
        site_operator(_random_operator(42), 0, 4)
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
    # support on the ring: those cells raise, and every other cell is the
    # infinite chain's, which a longer chain gives as well
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
                        _value(spec, a, b, (kind, x, t))
                else:
                    want = _value(ring, a, b, (kind, x, t))
                    got = _value(spec, a, b, (kind, x, t))
                    assert got == pytest.approx(want, abs=REF_TOL), (kind, x, t)
                    checked += 1
    assert checked == 2 * (11 + 9 + 7)


# ---------------------------------------------------------------------------
# A shared spec: every call evolves its own window from scratch, so one spec
# gives exactly the values of a fresh spec per call, in any order and from
# several threads, checks a gate changed in place again, holds nothing of
# matrix size between calls, and hands out no array that a caller can change.

def _cells(L):
    """(kind, x, t) cells for 2t < L: every x of the light cone at each t."""
    return [(kind, x, t) for t in range(L // 2) for kind in ("otoc", "corr")
            for x in range(-t, t + 1)]


def _value(spec, a, b, cell):
    kind, x, t = cell
    if kind == "otoc":
        return oracle_otoc(spec, a, b, x, t)
    return oracle_correlator(spec, a, x, b, t)


@pytest.mark.parametrize("L", [8, 10])
def test_shared_spec_matches_fresh_spec_exactly(L):
    gate = REF_GATES["kak"]
    a, b = _random_hermitian(3), _random_hermitian(4)
    # L = 10 adds t = 4, on both edges and both anchors
    cells = _cells(L) if L == 8 else [
        ("otoc", -4, 4), ("otoc", -1, 4), ("otoc", 0, 4), ("otoc", 4, 4),
        ("corr", 4, 4)]
    shared = ChainSpec(gate=gate, L=L)
    for cell in cells:
        got = _value(shared, a, b, cell)
        want = _value(ChainSpec(gate=gate, L=L), a, b, cell)
        assert got == want, cell


def test_shared_spec_calls_leave_equality_and_repr_alone():
    gate = REF_GATES["kak"]
    used, fresh = ChainSpec(gate=gate, L=6), ChainSpec(gate=gate, L=6)
    oracle_otoc(used, SX, SZ, 1, 2)
    assert used == fresh
    assert repr(used) == repr(fresh)


def test_shared_spec_follows_gate_operator_site_and_t():
    # each call changes one input of the call before it, the gate in place
    # among them
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


# The real coordinates of an operator on the whole chain, 8 * 4^8 bytes at
# L = 8, half the size of the complex 2^8 x 2^8 matrix.
PLANE_CASE = (_random_hermitian(12), 8 * 4**8)


def test_shared_spec_call_pays_nothing_for_the_last_call():
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

    # the warm-up is an OTOC call, or evolve_heisenberg, whose dense matrix
    # it handed out and is freed: neither leaves anything behind that the
    # next call pays for
    held = peak(lambda spec: oracle_otoc(spec, a, b, 0, 2))
    none = peak(lambda spec: evolve_heisenberg(spec, a, 1, 2))
    assert held < none + matrix // 4, matrix
    # nothing of the chain's coordinate size, even mid-step
    assert max(held, none) < matrix // 4, matrix


def test_shared_spec_memory_stays_flat_when_warm():
    # a longer evolution, a trace at the same t and the check of a new gate
    # each allocate less than a quarter of the chain's coordinates
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


def test_shared_spec_values_outlive_checks_of_other_gates():
    # checking another gate, passing or failing, leaves the values of the
    # first as they were
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
    oracle_otoc(spec, a, b, 1, 3)
    U *= 1.001
    with pytest.raises(ValueError, match="not unitary"):
        oracle_otoc(spec, a, b, 1, 3)
    U[:] = saved
    assert oracle_otoc(spec, a, b, 1, 3) == want


def test_shared_spec_rechecks_gate_changed_in_place():
    U = gate_matrix(random_kak(5)).copy()
    spec = ChainSpec(gate=U, L=6)
    oracle_otoc(spec, SX, SZ, 1, 2)
    U *= 1.001
    with pytest.raises(ValueError, match="not unitary"):
        oracle_otoc(spec, SX, SZ, 1, 2)
    with pytest.raises(ValueError, match="not unitary"):
        oracle_correlator(spec, SX, 1, SZ, 2)


def test_shared_spec_threads_give_serial_values():
    gate = REF_GATES["du"]
    a, b = _random_hermitian(5), _random_hermitian(6)
    cells = _cells(8)
    serial_spec = ChainSpec(gate=gate, L=8)
    serial = [_value(serial_spec, a, b, c) for c in cells]
    shared = ChainSpec(gate=gate, L=8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between a call's steps
    try:
        # rounds in shifted orders, so calls at different t overlap
        with ThreadPoolExecutor(max_workers=8) as pool:
            for order in (cells, cells[11:] + cells[:11], cells[::-1]):
                values = pool.map(lambda c: _value(shared, a, b, c), order,
                                  timeout=120)
                got = dict(zip(order, values))
                assert [got[c] for c in cells] == serial
    finally:
        sys.setswitchinterval(interval)


def test_shared_spec_evolve_heisenberg_returns_an_owned_copy():
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
# Light-cone windows: sigma_alpha at site a and time t is evolved on the 2t
# sites [a - t + c, a + t + c), c = (a - t) mod 2, one layer conjugation per
# step of the growing window, and nothing of the chain's size is allocated.

def test_chain_values_match_dense_traces_at_every_cell():
    # both frames c = 0 and 1, x < 0, and odd t, where the window starts at
    # site a - t + c of the chain
    L = 8
    spec = ChainSpec(gate=REF_GATES["du"], L=L)
    circs = [_dense_evolution(gate_matrix(spec.gate), L, t) for t in range(L // 2)]
    a, b = _random_hermitian(14), _random_hermitian(15)
    for kind, x, t in _cells(L):
        circ = circs[t]
        if kind == "otoc":
            anchor = (t + 1) % 2 if x >= 0 else t % 2
            A = circ.conj().T @ site_operator(a, anchor, L) @ circ
            AB = A @ site_operator(b, anchor + x, L)
            want = np.trace(AB @ AB) / 2**L
        else:
            A = circ.conj().T @ site_operator(a, x, L) @ circ
            want = np.trace(A @ site_operator(b, 0, L)) / 2**L
        got = _value(spec, a, b, (kind, x, t))
        assert got == pytest.approx(want, abs=REF_TOL), (kind, x, t)


def test_chain_requests_in_any_order_equal_a_fresh_spec():
    gate = REF_GATES["kak"]
    a, b = _random_hermitian(16), _random_hermitian(17)
    cells = _cells(8)  # both frames at every t, x < 0 included
    want = {cell: _value(ChainSpec(gate=gate, L=8), a, b, cell) for cell in cells}
    shuffled = [cells[i] for i in np.random.default_rng(18).permutation(len(cells))]
    for order in (cells, cells[::-1], shuffled):
        spec = ChainSpec(gate=gate, L=8)
        for cell in order:
            assert _value(spec, a, b, cell) == want[cell], cell


def test_a_call_conjugates_its_growing_window_once_per_step(conjugations):
    # a call at time t conjugates windows of 2, 4, ..., 2t sites, in that
    # order and nothing else: the unitarity check conjugates nothing, and a
    # spec remembers no evolution between calls
    spec = ChainSpec(gate=REF_GATES["kak"], L=10)
    a, b = _random_hermitian(21), _random_hermitian(22)
    for t in range(5):
        steps = list(range(2, 2 * t + 1, 2))
        for call in (lambda: oracle_otoc(spec, a, b, 1, t),
                     lambda: oracle_otoc(spec, a, b, -1, t),
                     lambda: oracle_correlator(spec, a, t, b, t),
                     lambda: evolve_heisenberg(spec, a, 0, t)):
            for _ in range(2):
                conjugations.clear()
                call()
                assert conjugations == steps, t


@pytest.mark.parametrize("t", range(5))
def test_light_cone_padding_is_bit_identical_to_kron(t):
    """The window padded by outer products equals, bit for bit, the same
    evolution padded by np.kron, at both window offsets c = (site - t) mod 2."""
    spec = ChainSpec(gate=REF_GATES["kak"], L=10)
    a = _random_hermitian(25)
    R = _checked_gate(spec)
    for site in (t, t + 1):
        c = (site - t) % 2
        want = _site_coords(a)
        if t:
            padded = np.kron(want, _IDENTITY) if c else np.kron(_IDENTITY, want)
            want = _conjugated(padded, R, 2)
            for w in range(4, 2 * t + 1, 2):
                want = _conjugated(np.kron(np.kron(_IDENTITY, want), _IDENTITY), R, w)
        got, lo, _ = _light_cone(spec, a, site, t)
        assert lo == site - t + (c if t else 0)
        assert got.shape == (4,) * max(1, 2 * t)
        assert np.array_equal(got.reshape(-1), want), (site, t)


@pytest.mark.parametrize("t", range(5))
def test_light_cone_buffer_pair_is_one_block_in_two_halves(t):
    """C and spare are the two halves of one allocation of the call: they
    never overlap, each holds one window, 4^(2t) floats (4 at t = 0, one
    site), and both view one block of twice that."""
    spec = ChainSpec(gate=REF_GATES["kak"], L=10)
    size = 4 ** max(1, 2 * t)
    for site in (t, t + 1):
        C, _, spare = _light_cone(spec, _random_hermitian(36), site, t)
        assert C.size == spare.size == size
        assert not np.shares_memory(C, spare)
        assert C.base is spare.base and C.base.size == 2 * size, (site, t)


# A reference window evolution that allocates as it goes, np.kron pads, a
# new array per product and a tensordot Gram, for the oracle's buffer pair.

def _kron_window(R, sigma, c, t):
    """sigma(t)'s window coordinates, one axis per site, for the window
    offset c = (site - t) mod 2; the same for every site of that offset."""
    C = _site_coords(sigma)
    if t == 0:
        return C
    C = np.kron(C, _IDENTITY) if c else np.kron(_IDENTITY, C)
    for w in range(2, 2 * t + 1, 2):
        if w > 2:
            C = np.kron(np.kron(_IDENTITY, C), _IDENTITY)
        for _ in range(w // 2):
            C = C.reshape(len(R), -1).T @ R
        C = C.reshape(-1)
    return C.reshape((4,) * (2 * t))


def _window_start(site, t):
    """The first chain site of sigma(site, t)'s window, not reduced mod L."""
    return site - t + (site - t) % 2 if t else site


def _reference_values(windows, a, b, x, t):
    """(OTOC, correlator) at (x, t) from the reference windows, keyed by
    (t, c): the OTOC's Gram matrix by np.tensordot, the correlator's partial
    trace as the oracle takes it."""
    anchor = (t + 1) % 2 if x >= 0 else t % 2
    h = _SITE_BASIS
    left = np.einsum("cji,jk,aki->ca", h, b, h)
    A = windows[t, (anchor - t) % 2]
    y = anchor + x - _window_start(anchor, t)
    if 0 <= y < A.ndim:
        others = [s for s in range(A.ndim) if s != y]
        G = np.tensordot(A, A, axes=(others, others))
    else:
        G = np.outer(_IDENTITY, _IDENTITY) * np.sum(A * A) / 2
    otoc = float(np.sum((left.T @ left).real * G) / 2**A.ndim)
    A = windows[t, (x - t) % 2]
    y = -_window_start(x, t)
    diagonal = tuple(slice(None) if s == y else slice(2) for s in range(A.ndim))
    if 0 <= y < A.ndim:
        traced = A[diagonal].sum(axis=tuple(s for s in range(A.ndim) if s != y))
    else:
        traced = A[diagonal].sum() * _IDENTITY / 2
    return otoc, float(traced @ _site_coords(b) / 2**A.ndim)


@pytest.mark.parametrize("name", sorted(REF_GATES))
def test_buffer_pair_matches_the_kron_reference_on_every_cell(name):
    """Every cell x = -t..t, 2t < L, of the L = 8, 10 and 12 chains against
    the allocating reference: correlators equal, OTOCs within 1e-15;
    evolve_heisenberg equal at every site and t of L = 8 and for the widest
    window of L = 10 at both offsets (its dense matrix is the expensive
    part, 268 MB alone at L = 12)."""
    gate = REF_GATES[name]
    R = _superoperator(gate_matrix(gate))
    a, b = _random_hermitian(32), _random_hermitian(33)
    windows = {(t, c): _kron_window(R, a, c, t) for t in range(6) for c in (0, 1)}
    for L in (8, 10, 12):
        spec = ChainSpec(gate=gate, L=L)
        for t in range(L // 2):
            for x in range(-t, t + 1):
                otoc, corr = _reference_values(windows, a, b, x, t)
                assert abs(oracle_otoc(spec, a, b, x, t) - otoc) <= 1e-15, (L, x, t)
                assert oracle_correlator(spec, a, x, b, t) == corr, (L, x, t)
    for L, site, t in [(8, site, t) for t in range(4) for site in range(8)] + [(10, 4, 4),
                                                                             (10, 5, 4)]:
        A = windows[t, (site - t) % 2]
        for _ in range(L - A.ndim):
            A = np.multiply.outer(A, _IDENTITY)
        lo = _window_start(site, t)
        want = _dense(A.transpose([(s - lo) % L for s in range(L)]), L)
        spec = ChainSpec(gate=gate, L=L)
        assert np.array_equal(evolve_heisenberg(spec, a, site, t), want), (L, site, t)


def test_a_call_peaks_at_its_buffer_pair():
    """At L = 12 and t = 5 the window has 10 sites, 8 * 4^10 bytes (8 MiB) of
    coordinates: an OTOC call with sigma_beta inside the window and a
    correlator call each peak at two windows, their buffer pair, plus at
    most 1 MiB."""
    spec = ChainSpec(gate=REF_GATES["kak"], L=12)
    a, b = _random_hermitian(34), _random_hermitian(35)
    window = 8 * 4**10
    for call in (lambda: oracle_otoc(spec, a, b, 1, 5),
                 lambda: oracle_correlator(spec, a, 5, b, 5)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * window + 2**20, peak


def test_oracle_values_allocate_only_the_window():
    # L = 12 at t = 2: a window of 4 sites, 2 kB of coordinates, where the
    # whole ring's are 4^12 floats (128 MB)
    spec = ChainSpec(gate=REF_GATES["kak"], L=12)
    a, b = _random_hermitian(23), _random_hermitian(24)
    tracemalloc.start()
    try:
        oracle_otoc(spec, a, b, 1, 2)
        oracle_correlator(spec, a, 2, b, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_unitarity_bound_covers_the_whole_layer():
    # (1 + d) U: its bond keeps the identity within eps = (1 + d)^2 - 1,
    # below TOL_UNITARY, but the chain's even layer of L/2 such bonds
    # deviates by (1 + d)^L - 1, above it at L = 10; the oracle raises there
    # and passes the same gate at L = 4, where the layer is within the bound
    U = (1 + 2e-11) * gate_matrix(random_kak(5))
    R = _superoperator(U)
    e = _site_coords(I2)
    pair = np.kron(e, e)
    eps = np.abs(pair @ R - pair).max()
    assert eps < TOL_UNITARY
    for L, unitary in ((10, False), (4, True)):
        identity = functools.reduce(np.kron, [e] * L)
        layer = np.abs(_conjugated(identity, R, L) - identity).max()
        assert (layer < TOL_UNITARY) == unitary, (L, layer)
        spec = ChainSpec(gate=U, L=L)
        if unitary:
            oracle_otoc(spec, SX, SZ, 1, 1)
            continue
        for call in _calls_with(spec, SX):
            with pytest.raises(ValueError, match="not unitary"):
                call()


# ---------------------------------------------------------------------------
# The gate's superoperator R and its bond deviation eps are derived once per
# gate, cached on the bytes and dtype of its matrix, and shared read-only;
# every call still tests eps against its own L.

def test_equal_gates_share_one_read_only_superoperator():
    gate = REF_GATES["kak"]
    R = _checked_gate(ChainSpec(gate=gate, L=8))
    # the same matrix as a raw copy, on another chain
    assert _checked_gate(ChainSpec(gate=gate_matrix(gate).copy(), L=10)) is R
    assert not R.flags.writeable
    assert np.array_equal(R, _superoperator(gate_matrix(gate)))


def test_a_gate_changed_in_place_is_derived_again():
    U = gate_matrix(random_kak(5)).copy()
    saved = U.copy()
    spec = ChainSpec(gate=U, L=8)
    R = _checked_gate(spec)
    U[:] = gate_matrix(random_kak(6))
    changed = _checked_gate(spec)
    assert not changed.flags.writeable
    assert np.array_equal(changed, _superoperator(U))
    # the first gate's R is left as it was, and served again once the gate is
    assert np.array_equal(R, _superoperator(saved))
    U[:] = saved
    assert _checked_gate(spec) is R


def test_the_gate_derivation_cache_is_bounded():
    bound = _derived_gate.cache_info().maxsize
    assert bound is not None  # an unbounded cache grows with every gate
    _derived_gate.cache_clear()
    specs = [ChainSpec(gate=random_kak(seed), L=6) for seed in range(bound + 1)]
    first = _checked_gate(specs[0])
    for spec in specs[1:]:
        _checked_gate(spec)
    assert _derived_gate.cache_info().currsize == bound
    # the least recently used gate left first, and is derived again
    again = _checked_gate(specs[0])
    assert again is not first and np.array_equal(again, first)
