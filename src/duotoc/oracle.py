"""Independent brute-force simulator: exact Heisenberg evolution on a small
periodic brickwork chain.

This module deliberately shares nothing with the transfer-matrix machinery
beyond the gate itself: operators on the chain are their full expansion in a
product basis, conjugated layer by layer, and correlators/OTOCs are exact
traces.  It is the ground truth that every folded-diagram result is
validated against.

Real coordinates
----------------
Each site carries an orthonormal Hermitian basis h_0 .. h_(q^2-1) of the
q x q matrices, tr(h_a h_b) = delta_ab, built here for any q: the diagonal
units E_ii first, then for each i < j the symmetric (E_ij + E_ji)/sqrt2 and
the antisymmetric i(E_ji - E_ij)/sqrt2.  An operator A on the chain is
sum_a C[a_0 .. a_(L-1)] h_(a_0) (x) ... (x) h_(a_(L-1)) with
C[a] = tr(h_(a_0) (x) ... A), site 0 the slowest index of C.  A Hermitian A
has real C; any other A = A_1 + i A_2 is carried as the real C of A_1 and
of A_2.  The chain holds C in k real planes of q^(2L) floats: k = 1 when
sigma_alpha is Hermitian (its conjugate transpose equal to it entry by
entry) and k = 2 otherwise, read from the operator; conjugation by a unitary
maps each plane on its own.  The identity's coordinates are 1 where every
site's index is a diagonal unit and 0 elsewhere.

Layer application
-----------------
Conjugation by one bond, U^dag (h_a (x) h_b) U = sum_c R_(ab),c h_c, is the
real q^4 x q^4 superoperator R_(ab),c = tr(h_c U^dag (h_a (x) h_b) U) of the
gate.  The even layer conjugates every bond (0,1), (2,3), ... at once, so it
is L/2 BLAS products of size q^(2L-4) x q^4 by q^4 x q^4 per plane: each
contracts the two leading sites of C with R and appends them behind the
others, and after L/2 products every site is back in order.  Each product
writes into the other of two buffers (``np.matmul``'s ``out``), so a layer
allocates nothing of coordinate size.  A layer costs L/2 q^(2L+4)
multiply-adds per plane, a quarter of the real arithmetic of conjugating a
complex q^L x q^L matrix from both sides with the same bond pairs, in half
its bytes for one plane.  U(t) is never formed, and the odd layer is only
ever reached by translation (below).

Lattice conventions
-------------------
Sites 0..L-1, periodic, site 0 the slowest index of the q^L basis.  The even
layer couples (0,1), (2,3), ...; the odd layer couples (1,2), (3,4), ...,
(L-1,0), the left site of each bond being the gate's first (slower) leg.
Time counts layers (half-steps), with the even layer applied first:
U(t) = L_t ... L_2 L_1, L_1 even.

Let S move every site one step to the right, site L-1 wrapping to site 0.
The odd layer is the even layer moved by one site, L_odd = S L_even S^dag =
S^dag L_even S, and S^2 commutes with both layers.  Hence U(t+1) =
S U(t) S^dag L_1, that is

    sigma_x(t+1) = L_1^dag S sigma_{x-1}(t) S^dag L_1,

and the same with S^dag in place of S and sigma_{x+1}(t).  The evolution is
built from this one step: translate the operator by one site, then conjugate
it by the even layer.  On the coordinates a translation is an exact roll of
the site digits of C.  Step k (k = 0, 1, ...) translates to the right for
even k and to the left for odd k, so an operator that starts at site s0 sits
at s0 + (t mod 2) after t steps.

The oracle runs two canonical chains.  A request for sigma_alpha at site a
and time t uses chain c = (a - t) mod 2, which starts with sigma_alpha at
site c; at time t the operator sits at s = c + (t mod 2), a site of the
parity of a.  Translation by an even number of sites is an exact symmetry of
the chain, so the value is that of the request moved by s - a: the OTOC puts
sigma_beta at s + x, the correlator (sigma_alpha at x, sigma_beta at 0) puts
it at s - x.

Operator placement follows the light-cone lattice of the brickwork diagrams:
for the OTOC with x >= 0 the alpha operator anchors at site (t+1) mod 2 (for
x < 0 at t mod 2) so that the causal edge site x = +-t is realized for every
t; beta sits x sites to its right.  Every OTOC with x >= 0 therefore runs
chain 1, and every OTOC with x < 0 chain 0.  The correlator needs no anchor
shift: sigma_alpha(x, t) with sigma_beta at site 0 realizes the x = +t edge
for all t (the leftward edge of this lattice is x = -(t-1)).

Traces
------
The basis is orthonormal, so tr(A B) is the bilinear dot of the two
coordinate tensors, with the complex coordinates c_beta_a = tr(h_a
sigma_beta) of sigma_beta at its site y and the identity's elsewhere: the
correlator sums the entries of C whose indices are diagonal units on every
site but y, then dots with c_beta.  For the OTOC write A = sum_a h_a (x) A_a
with h_a on site y.  Then tr(BABA) = sum_ab (L_B^T L_B)_ab G_ab with
(L_B)_ca = tr(h_c sigma_beta h_a), left multiplication by sigma_beta in the
site basis, and G_ab = tr(A_a A_b), read from the (k q^2) x (k q^2) Gram
matrix of C's planes along site y.  For one plane with at least q^6
coordinates behind site y that matrix is q^(2y) batched products of C's
q^2 x q^2 blocks, summed; otherwise it is one BLAS product X X^T, where X
is C with site y rolled to the front, written into the chain's free buffer
(C itself for y = 0).  Both traces are exact for any sigma and q.

Per-chain memo
--------------
Each ``ChainSpec`` owns two real buffers of k planes, made at its first call
for the planes that call needs and made again only if a later call needs
more; nothing else of coordinate size is allocated on its behalf.  One
buffer holds the chain state, the other is scratch: a step translates the
state into the scratch buffer and conjugates it, the layer's products
alternating between the two, and the buffer that holds the result becomes
the state.  A restart writes the coordinates of 1 (x) sigma (x) 1 straight
into the state buffer, and ``oracle_otoc`` may roll C into the free one
(see Traces).

The even layer is checked for unitarity once per chain and gate: the
identity's coordinates are conjugated through it in the two buffers, the
identity's are subtracted in place, and the largest absolute value, taken
into the free buffer, must be below TOL_UNITARY.  The odd layer is its exact
translate, so it needs no check of its own.  The spec remembers the
superoperators of the gates (by their bytes) whose layer passed, so a gate
changed in place is checked again and a failing gate raises on every call.
The check overwrites both buffers, so it drops the remembered chain state.

The chain state is remembered by its key (gate bytes, sigma_alpha, c) and
its time t, and serves every x at that t.  A request at the same t is a
hit, a later t on the same chain extends the state, and anything else
restarts the chain from t = 0.  Every call on a spec holds the spec's lock
from the check through the evolution to the trace, so calls that share a
spec run one after another and never see a buffer in use.  Every (c, t)
state comes from the same sequence of steps from t = 0, so no value
depends on the order of the requests.  ``evolve_heisenberg`` runs in the
same buffers and returns the dense q^L x q^L matrix, a fresh array that the
caller owns.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .gates import gate_matrix
from .opalg import TOL_UNITARY

__all__ = [
    "ChainSpec",
    "site_operator",
    "evolve_heisenberg",
    "oracle_correlator",
    "oracle_otoc",
    "haar_sample",
]

_IMAG_TOL = 1e-10


class _ChainMemo:
    """What a chain remembers between oracle calls (see the module docstring)."""

    def __init__(self):
        self.lock = threading.Lock()  # held by every call, check to trace
        self.passed = {}  # gate bytes -> superoperator, for unitary even layers
        self.evolved = None  # (key, t) of the chain state in buffers[0]
        self.buffers = None  # [state, scratch], each planes x q^(2L)

    def take_buffers(self, L: int, q: int, planes: int) -> list:
        """[state, scratch] as views of their first ``planes`` planes; the
        buffers are made at the first call and made again, dropping the
        chain state, when a call needs more planes than they hold."""
        if self.buffers is None or len(self.buffers[0]) < planes:
            self.buffers = self.evolved = None  # free the old pair first
            self.buffers = [np.empty((planes, q ** (2 * L))) for _ in range(2)]
        return [buffer[:planes] for buffer in self.buffers]

    def keep_state(self, state: np.ndarray):
        """Make the buffer that ``state`` views the state buffer."""
        if not np.may_share_memory(state, self.buffers[0]):
            self.buffers.reverse()


@dataclass(frozen=True)
class ChainSpec:
    """A small periodic brickwork chain; L must be even, at most 12 qubits."""

    gate: object
    L: int = 8
    q: int = 2
    _memo: _ChainMemo = field(default_factory=_ChainMemo, init=False,
                              compare=False, repr=False)

    def __post_init__(self):
        if self.L % 2 or self.L < 4:
            raise ValueError("L must be an even integer >= 4")
        if self.L * np.log2(self.q) > 12:
            raise ValueError("chain exceeds the 12-qubit-equivalent budget")


def site_operator(sigma: np.ndarray, x: int, L: int, q: int = 2) -> np.ndarray:
    """Dense embedding 1 (x) sigma (x) 1 of a one-site operator at site x."""
    out = np.zeros((q**L, q**L), dtype=complex)
    # r[i, a, k] is the row of the basis state (i, a, k), a the digit of site x
    r = np.arange(q**L).reshape(q ** (x % L), q, -1)
    out[r[:, :, None], r[:, None]] = np.asarray(sigma)[:, :, None]
    return out


@lru_cache(maxsize=None)
def _site_basis(q: int) -> np.ndarray:
    """The orthonormal Hermitian basis h[a] of one site, q^2 x q x q: the
    diagonal units E_ii, then for each i < j the symmetric
    (E_ij + E_ji)/sqrt2 and the antisymmetric i(E_ji - E_ij)/sqrt2.
    Read-only, made once per q."""
    h = np.zeros((q * q, q, q), dtype=complex)
    h[np.arange(q), np.arange(q), np.arange(q)] = 1.0
    a = q
    for i in range(q):
        for j in range(i + 1, q):
            h[a, i, j] = h[a, j, i] = 1 / np.sqrt(2)
            h[a + 1, i, j], h[a + 1, j, i] = -1j / np.sqrt(2), 1j / np.sqrt(2)
            a += 2
    h.flags.writeable = False
    return h


def _site_coords(sigma: np.ndarray, q: int) -> np.ndarray:
    """The complex coordinates tr(h_a sigma) of a one-site operator."""
    return np.einsum("aji,ij->a", _site_basis(q), np.asarray(sigma, dtype=complex))


def _planes(sigma: np.ndarray, q: int) -> np.ndarray:
    """sigma's coordinates as k real planes, k x q^2: one for a Hermitian
    sigma, else those of its Hermitian and anti-Hermitian parts / i."""
    sigma = np.asarray(sigma, dtype=complex)
    coords = _site_coords(sigma, q)
    if np.array_equal(sigma, sigma.conj().T):
        return coords.real[None]
    return np.stack([coords.real, coords.imag])


def _superoperator(U: np.ndarray, q: int) -> np.ndarray:
    """R[(a, b), c] = tr(h_c U^dag (h_a (x) h_b) U), the real q^4 x q^4 map
    of one bond's conjugation on the two sites' coordinates."""
    h = _site_basis(q)
    pair = np.einsum("aij,bkl->abikjl", h, h).reshape(q**4, q * q, q * q)
    conjugated = U.conj().T @ pair @ U
    return np.einsum("cji,aij->ac", pair, conjugated).real


def _diagonal_units(coords: np.ndarray, L: int, q: int, free_site=None) -> np.ndarray:
    """The view of the coordinates whose index is a diagonal unit on every
    site but ``free_site``: planes, then one axis per site, q long (q^2 at
    the free site)."""
    grid = coords.reshape((len(coords),) + (q * q,) * L)
    return grid[(slice(None),) + tuple(slice(None) if s == free_site else slice(q)
                                       for s in range(L))]


def _write_site_operator(out: np.ndarray, planes: np.ndarray, x: int, L: int, q: int):
    """out <- the coordinates of 1 (x) sigma (x) 1 with sigma at site x,
    given sigma's planes (k x q^2): 1 at the identity's entries of every
    other site."""
    out.fill(0)
    view = _diagonal_units(out, L, q, x)
    view[...] = planes.reshape((len(planes),) + tuple(q * q if s == x else 1
                                                      for s in range(L)))


def _conjugate_layer(coords: np.ndarray, scratch: np.ndarray, R: np.ndarray, L: int):
    """Lambda^dag A Lambda for the even layer whose bonds carry the gate of
    the superoperator R, given A's planes in ``coords`` and a buffer of the
    same shape in ``scratch`` (see the module docstring).  Returns (result,
    free): the buffer that holds the result and the other one, both of
    which may have been overwritten."""
    planes, d = len(coords), len(R)
    for _ in range(L // 2):
        # contract the two leading sites with R and append them behind the others
        np.matmul(coords.reshape(planes, d, -1).transpose(0, 2, 1), R,
                  out=scratch.reshape(planes, -1, d))
        coords, scratch = scratch, coords
    return coords, scratch


def _checked_gate(spec: ChainSpec):
    """(key, R): the circuit gate's bytes and superoperator, once its even
    layer has passed the unitarity check max |Lambda^dag Lambda - 1| <
    TOL_UNITARY on the coordinates; the odd layer is the even one translated
    by a site, an exact permutation.  The check runs in the spec's buffers
    once per gate bytes and drops the remembered chain state; a failure is
    never remembered, so it raises on every call.  The caller holds the
    spec's lock."""
    U = gate_matrix(spec.gate)
    key = U.tobytes()
    memo, L, q = spec._memo, spec.L, spec.q
    if key not in memo.passed:
        R = _superoperator(U, q)
        product, scratch = memo.take_buffers(L, q, 1)
        memo.evolved = None
        _write_site_operator(product, _planes(np.eye(q), q), 0, L, q)
        product, scratch = _conjugate_layer(product, scratch, R, L)
        _diagonal_units(product, L, q)[...] -= 1
        if not np.abs(product, out=scratch).max() < TOL_UNITARY:
            raise ValueError(f"layer is not unitary within {TOL_UNITARY}")
        memo.passed[key] = R
    return key, memo.passed[key]


def _translate(coords: np.ndarray, out: np.ndarray, shift: int, L: int, q: int) -> np.ndarray:
    """out = S A S^dag for shift = 1, S^dag A S for shift = -1, on A's
    planes in ``coords``: every site moves one step right (left), site L-1
    (site 0) wrapping round, a roll of the coordinates' site digits.
    ``out`` is C-ordered and returned; ``coords`` is only read."""
    d = q * q
    split = (d ** (L - 1), d) if shift == 1 else (d, d ** (L - 1))
    np.copyto(out.reshape((len(coords),) + split[::-1]),
              coords.reshape((len(coords),) + split).transpose(0, 2, 1))
    return out


def _chain_evolved(memo: _ChainMemo, gate: tuple, sigma: np.ndarray, start: int,
                   t: int, L: int, q: int):
    """The chain that starts with sigma at site ``start``, after t steps (see
    the module docstring), for ``gate`` = (key, R) of _checked_gate:
    (state, free), the buffer that holds sigma(start + t % 2, t)'s planes and
    the other one.  ``memo`` serves its state at the same t, extends it to a
    later t, or the chain restarts from t = 0, and then holds the new state.
    The caller holds the memo's lock."""
    sigma = np.asarray(sigma, dtype=complex)
    planes = _planes(sigma, q)
    key = (gate[0], sigma.shape, sigma.tobytes(), start)
    state, scratch = memo.take_buffers(L, q, len(planes))
    latest = memo.evolved
    resume = latest is not None and latest[0] == key and latest[1] <= t
    if resume and latest[1] == t:
        return state, scratch
    memo.evolved = None  # the buffers change below
    done = latest[1] if resume else 0
    if not resume:
        _write_site_operator(state, planes, start, L, q)
    for k in range(done, t):
        _translate(state, scratch, 1 if k % 2 == 0 else -1, L, q)
        state, scratch = _conjugate_layer(scratch, state, gate[1], L)
    memo.keep_state(state)
    memo.evolved = (key, t)
    return state, scratch


def _complex(planes: np.ndarray) -> np.ndarray:
    """sum_p i^p planes[p] over the leading axis."""
    return planes[0] + 1j * planes[1] if len(planes) == 2 else planes[0]


def _dense(coords: np.ndarray, L: int, q: int) -> np.ndarray:
    """The q^L x q^L matrix of the operator whose planes are ``coords``:
    each site's coordinates taken to its q x q matrix entries in turn, then
    the row digits put before the column digits."""
    mat = _complex(coords)
    h = _site_basis(q).reshape(q * q, q * q)
    for _ in range(L):
        mat = mat.reshape(q * q, -1).T @ h
    order = list(range(0, 2 * L, 2)) + list(range(1, 2 * L, 2))
    return mat.reshape((q,) * (2 * L)).transpose(order).reshape(q**L, q**L)


def evolve_heisenberg(spec: ChainSpec, sigma: np.ndarray, site: int, t: int) -> np.ndarray:
    """sigma(site, t) = U(t)^dag sigma(site) U(t), a fresh dense matrix the
    caller owns: the chain that starts at site - t % 2, run in the spec's
    buffers and expanded from its coordinates."""
    memo = spec._memo
    with memo.lock:
        state, _ = _chain_evolved(memo, _checked_gate(spec), sigma,
                                  (site - t % 2) % spec.L, t, spec.L, spec.q)
        return _dense(state, spec.L, spec.q)


def _chain_operator(spec: ChainSpec, sigma: np.ndarray, site: int, t: int):
    """(A, free, s): the planes of sigma(site, t) moved by an even number of
    sites, as the state of the spec's chain c = (site - t) mod 2 at time t,
    the spec's other buffer, and the site s = c + t % 2 where the operator
    sits.  The caller holds the spec's lock."""
    chain = (site - t) % 2
    A, free = _chain_evolved(spec._memo, _checked_gate(spec), sigma, chain, t,
                             spec.L, spec.q)
    return A, free, chain + t % 2


def _site_gram(A: np.ndarray, free: np.ndarray, y: int, L: int, q: int) -> np.ndarray:
    """gram[p, r, a, b]: the sum over every other site's index of plane p's
    coordinates with index a at site y times plane r's with index b.  One
    plane with at least q^6 coordinates behind site y: q^(2y) batched
    products of its q^2 x q^2 blocks, summed.  Otherwise one product X X^T,
    where X is the planes with site y rolled to the front, written into
    ``free`` (A itself for y = 0)."""
    planes, d = len(A), q * q
    blocks = A.reshape(planes, d**y, d, -1)
    if planes == 1 and blocks.shape[-1] >= d**3:
        return np.matmul(blocks, blocks.transpose(0, 1, 3, 2)).sum(axis=1)[None]
    if y:
        rolled = free.reshape(planes, d, d**y, -1)
        np.copyto(rolled, blocks.transpose(0, 2, 1, 3))
        blocks = rolled
    X = blocks.reshape(planes * d, -1)
    return (X @ X.T).reshape(planes, d, planes, d).transpose(0, 2, 1, 3)


def _check_budget(spec: ChainSpec, t: int):
    if t < 0:
        raise ValueError("t must be non-negative")
    if 2 * t >= spec.L:
        raise ValueError(f"2t < L required to avoid wrap-around (t={t}, L={spec.L})")


def _real_if_small(val: complex):
    if abs(val.imag) > _IMAG_TOL:
        return val
    return val.real


def oracle_correlator(spec: ChainSpec, sigma_alpha: np.ndarray, x: int, sigma_beta: np.ndarray, t: int):
    """tr[sigma_alpha(x, t) sigma_beta(0, 0)] / q^L."""
    _check_budget(spec, t)
    L, q = spec.L, spec.q
    with spec._memo.lock:
        A, _, site = _chain_operator(spec, sigma_alpha, x, t)
        y = (site - x) % L
        # the partial trace over every site but y, then the dot with sigma_beta
        traced = _diagonal_units(A, L, q, y).sum(axis=tuple(1 + s for s in range(L) if s != y))
        val = complex(_complex(traced) @ _site_coords(sigma_beta, q) / q**L)
    return _real_if_small(val)


def oracle_otoc(spec: ChainSpec, sigma_alpha: np.ndarray, sigma_beta: np.ndarray, x: int, t: int):
    """tr[A B A B] / q^L with A the evolved alpha operator and B = sigma_beta
    placed x sites to its right (see the module docstring for anchoring)."""
    _check_budget(spec, t)
    L, q = spec.L, spec.q
    anchor = (t + 1) % 2 if x >= 0 else t % 2
    h = _site_basis(q)
    # (L_B)[c, a] = tr(h_c sigma_beta h_a), and tr(B h_a B h_b) = (L_B^T L_B)[a, b]
    left = np.einsum("cji,jk,aki->ca", h, np.asarray(sigma_beta, dtype=complex), h)
    pairing = left.T @ left
    with spec._memo.lock:
        A, free, site = _chain_operator(spec, sigma_alpha, anchor, t)
        gram = _site_gram(A, free, (site + x) % L, L, q)
    # G[a, b] = tr(A_a A_b), the planes' Gram blocks weighted by i^(p + p')
    phase = 1j ** np.arange(len(gram))
    G = np.einsum("p,r,prab->ab", phase, phase, gram)
    return _real_if_small(complex(np.sum(pairing * G) / q**L))


def haar_sample(q: int, seed) -> np.ndarray:
    """Haar-distributed q x q unitary: QR of a complex Gaussian with the
    R-diagonal phase fixed.  ``seed`` may be an integer or a Generator."""
    rng = np.random.default_rng(seed)
    Z = (rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))) / np.sqrt(2.0)
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))
