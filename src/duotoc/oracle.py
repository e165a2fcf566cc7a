"""Independent brute-force simulator: exact Heisenberg evolution on a small
periodic brickwork chain of qubits.

This module deliberately shares nothing with the transfer-matrix machinery
beyond the gate and the input rules: operators on the chain are their full
expansion in a product basis, conjugated layer by layer, and
correlators/OTOCs are exact traces.  It is the ground truth that every
folded-diagram result is validated against.  Every entry point takes a
4 x 4 gate and 2 x 2 Hermitian insertions (``gates._check_qubits`` and
``opalg._hermitian``, the transfer side's own checks).

Real coordinates
----------------
Each site carries the orthonormal Hermitian basis h_0 .. h_3 of the 2 x 2
matrices, tr(h_a h_b) = delta_ab, built here: the diagonal units E_00 and
E_11, then X/sqrt2 and Y/sqrt2.  An operator A on the chain is
sum_a C[a_0 .. a_(L-1)] h_(a_0) (x) ... (x) h_(a_(L-1)) with
C[a] = tr(h_(a_0) (x) ... A), site 0 the slowest index of C.  A Hermitian A
has real C, 4^L floats, and conjugation by a unitary keeps A Hermitian, so
the chain holds sigma_alpha(t) as one real vector.  The identity's
coordinates are 1 where every site's index is a diagonal unit and 0
elsewhere.

Layer application
-----------------
Conjugation by one bond, U^dag (h_a (x) h_b) U = sum_c R_(ab),c h_c, is the
real 16 x 16 superoperator R_(ab),c = tr(h_c U^dag (h_a (x) h_b) U) of the
gate.  The even layer conjugates every bond (0,1), (2,3), ... at once, so it
is L/2 BLAS products of size 4^(L-2) x 16 by 16 x 16: each contracts the two
leading sites of C with R and appends them behind the others, and after L/2
products every site is back in order.  Each product writes into the other
of two buffers (``np.matmul``'s ``out``), so a layer allocates nothing of
coordinate size.  A layer costs L/2 2^(2L+4) multiply-adds, a quarter of the
real arithmetic of conjugating a complex 2^L x 2^L matrix from both sides
with the same bond pairs, in half its bytes.  U(t) is never formed, and the
odd layer is only ever reached by translation (below).

Lattice conventions
-------------------
Sites 0..L-1, periodic, site 0 the slowest index of the 2^L basis.  The even
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

A value is that of the infinite chain only while neither operator wraps
round the ring: 2t < L keeps sigma_alpha(t)'s support from meeting itself,
and |x| + t < L keeps sigma_beta's site out of it from the other side.  The
OTOC and the correlator raise outside both rules.

Traces
------
The basis is orthonormal, so tr(A B) is the dot of the two real coordinate
vectors, with the coordinates c_beta_a = tr(h_a sigma_beta) of sigma_beta at
its site y and the identity's elsewhere: the correlator sums the entries of
C whose indices are diagonal units on every site but y, then dots with
c_beta.  For the OTOC write A = sum_a h_a (x) A_a with h_a on site y.  Then
tr(BABA) = sum_ab (L_B^T L_B)_ab G_ab with (L_B)_ca = tr(h_c sigma_beta
h_a), left multiplication by sigma_beta in the site basis, and
G_ab = tr(A_a A_b), the real 4 x 4 Gram matrix of C along site y; for a
Hermitian sigma_beta, L_B^T L_B is real too.  With at least 4^3
coordinates behind site y that matrix is 4^y batched products of C's 4 x 4
blocks, summed; otherwise it is one BLAS product X X^T, where X is C with
site y rolled to the front, written into the chain's free buffer (C itself
for y = 0).  Both traces are exact.

Per-chain memo
--------------
Each ``ChainSpec`` owns two real buffers of 4^L floats, made at its first
call; nothing else of coordinate size is allocated on its behalf.  One
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
same buffers and returns the dense 2^L x 2^L matrix, a fresh array that the
caller owns.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .gates import _check_qubits, gate_matrix
from .opalg import TOL_UNITARY, _hermitian

__all__ = [
    "ChainSpec",
    "site_operator",
    "evolve_heisenberg",
    "oracle_correlator",
    "oracle_otoc",
    "haar_sample",
]

# The orthonormal Hermitian basis h[a] of one site: E_00, E_11, X/sqrt2 and
# Y/sqrt2.  Read-only.
_R2 = 1 / np.sqrt(2)
_SITE_BASIS = np.array([[[1, 0], [0, 0]],
                        [[0, 0], [0, 1]],
                        [[0, _R2], [_R2, 0]],
                        [[0, -1j * _R2], [1j * _R2, 0]]])
_SITE_BASIS.flags.writeable = False


class _ChainMemo:
    """What a chain remembers between oracle calls (see the module docstring)."""

    def __init__(self):
        self.lock = threading.Lock()  # held by every call, check to trace
        self.passed = {}  # gate bytes -> superoperator, for unitary even layers
        self.evolved = None  # (key, t) of the chain state in buffers[0]
        self.buffers = None  # [state, scratch], each 4^L floats

    def take_buffers(self, L: int) -> list:
        """[state, scratch], made at the first call."""
        if self.buffers is None:
            self.buffers = [np.empty(4**L) for _ in range(2)]
        return self.buffers

    def keep_state(self, state: np.ndarray):
        """Make the buffer ``state`` the state buffer."""
        if state is not self.buffers[0]:
            self.buffers.reverse()


@dataclass(frozen=True)
class ChainSpec:
    """A small periodic brickwork chain of qubits; L must be even, at most 12."""

    gate: object
    L: int = 8
    _memo: _ChainMemo = field(default_factory=_ChainMemo, init=False,
                              compare=False, repr=False)

    def __post_init__(self):
        if self.L % 2 or self.L < 4:
            raise ValueError("L must be an even integer >= 4")
        if self.L > 12:
            raise ValueError("chain exceeds the 12-qubit budget")


def site_operator(sigma: np.ndarray, x: int, L: int) -> np.ndarray:
    """Dense embedding 1 (x) sigma (x) 1 of a one-site operator at site x."""
    _check_qubits(None, sigma)
    out = np.zeros((2**L, 2**L), dtype=complex)
    # r[i, a, k] is the row of the basis state (i, a, k), a the digit of site x
    r = np.arange(2**L).reshape(2 ** (x % L), 2, -1)
    out[r[:, :, None], r[:, None]] = np.asarray(sigma)[:, :, None]
    return out


def _site_coords(sigma: np.ndarray) -> np.ndarray:
    """The real coordinates tr(h_a sigma) of a Hermitian one-site operator."""
    return np.einsum("aji,ij->a", _SITE_BASIS, sigma).real


def _checked_operators(spec: ChainSpec, *ops) -> list:
    """``ops`` as complex arrays, once the circuit gate is 4 x 4 and every
    insertion is 2 x 2 and Hermitian; raises the transfer side's errors
    otherwise."""
    _check_qubits(spec.gate, *ops)
    return [_hermitian(op) for op in ops]


def _superoperator(U: np.ndarray) -> np.ndarray:
    """R[(a, b), c] = tr(h_c U^dag (h_a (x) h_b) U), the real 16 x 16 map of
    one bond's conjugation on the two sites' coordinates."""
    h = _SITE_BASIS
    pair = np.einsum("aij,bkl->abikjl", h, h).reshape(16, 4, 4)
    conjugated = U.conj().T @ pair @ U
    return np.einsum("cji,aij->ac", pair, conjugated).real


def _diagonal_units(coords: np.ndarray, L: int, free_site=None) -> np.ndarray:
    """The view of the coordinates whose index is a diagonal unit on every
    site but ``free_site``: one axis per site, 2 long (4 at the free site)."""
    return coords.reshape((4,) * L)[tuple(slice(None) if s == free_site else slice(2)
                                          for s in range(L))]


def _write_site_operator(out: np.ndarray, sigma_coords: np.ndarray, x: int, L: int):
    """out <- the coordinates of 1 (x) sigma (x) 1 with sigma at site x,
    given sigma's coordinates: 1 at the identity's entries of every other
    site."""
    out.fill(0)
    view = _diagonal_units(out, L, x)
    view[...] = sigma_coords.reshape(tuple(4 if s == x else 1 for s in range(L)))


def _conjugate_layer(coords: np.ndarray, scratch: np.ndarray, R: np.ndarray, L: int):
    """Lambda^dag A Lambda for the even layer whose bonds carry the gate of
    the superoperator R, given A's coordinates in ``coords`` and a buffer of
    the same size in ``scratch`` (see the module docstring).  Returns
    (result, free): the buffer that holds the result and the other one,
    both of which may have been overwritten."""
    d = len(R)
    for _ in range(L // 2):
        # contract the two leading sites with R and append them behind the others
        np.matmul(coords.reshape(d, -1).T, R, out=scratch.reshape(-1, d))
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
    memo, L = spec._memo, spec.L
    if key not in memo.passed:
        R = _superoperator(U)
        product, scratch = memo.take_buffers(L)
        memo.evolved = None
        _write_site_operator(product, _site_coords(np.eye(2)), 0, L)
        product, scratch = _conjugate_layer(product, scratch, R, L)
        _diagonal_units(product, L)[...] -= 1
        if not np.abs(product, out=scratch).max() < TOL_UNITARY:
            raise ValueError(f"layer is not unitary within {TOL_UNITARY}")
        memo.passed[key] = R
    return key, memo.passed[key]


def _translate(coords: np.ndarray, out: np.ndarray, shift: int, L: int) -> np.ndarray:
    """out = S A S^dag for shift = 1, S^dag A S for shift = -1, on A's
    coordinates in ``coords``: every site moves one step right (left), site
    L-1 (site 0) wrapping round, a roll of the coordinates' site digits.
    ``out`` is C-ordered and returned; ``coords`` is only read."""
    split = (4 ** (L - 1), 4) if shift == 1 else (4, 4 ** (L - 1))
    np.copyto(out.reshape(split[::-1]), coords.reshape(split).T)
    return out


def _chain_evolved(memo: _ChainMemo, gate: tuple, sigma: np.ndarray, start: int,
                   t: int, L: int):
    """The chain that starts with the Hermitian sigma at site ``start``,
    after t steps (see the module docstring), for ``gate`` = (key, R) of
    _checked_gate: (state, free), the buffer that holds the coordinates of
    sigma(start + t % 2, t) and the other one.  ``memo`` serves its state at
    the same t, extends it to a later t, or the chain restarts from t = 0,
    and then holds the new state.  The caller holds the memo's lock."""
    key = (gate[0], sigma.tobytes(), start)
    state, scratch = memo.take_buffers(L)
    latest = memo.evolved
    resume = latest is not None and latest[0] == key and latest[1] <= t
    if resume and latest[1] == t:
        return state, scratch
    memo.evolved = None  # the buffers change below
    done = latest[1] if resume else 0
    if not resume:
        _write_site_operator(state, _site_coords(sigma), start, L)
    for k in range(done, t):
        _translate(state, scratch, 1 if k % 2 == 0 else -1, L)
        state, scratch = _conjugate_layer(scratch, state, gate[1], L)
    memo.keep_state(state)
    memo.evolved = (key, t)
    return state, scratch


def _dense(coords: np.ndarray, L: int) -> np.ndarray:
    """The 2^L x 2^L matrix of the operator whose coordinates are
    ``coords``: each site's coordinates taken to its 2 x 2 matrix entries in
    turn, then the row digits put before the column digits."""
    mat = coords
    h = _SITE_BASIS.reshape(4, 4)
    for _ in range(L):
        mat = mat.reshape(4, -1).T @ h
    order = list(range(0, 2 * L, 2)) + list(range(1, 2 * L, 2))
    return mat.reshape((2,) * (2 * L)).transpose(order).reshape(2**L, 2**L)


def evolve_heisenberg(spec: ChainSpec, sigma: np.ndarray, site: int, t: int) -> np.ndarray:
    """sigma(site, t) = U(t)^dag sigma(site) U(t), a fresh dense matrix the
    caller owns: the chain that starts at site - t % 2, run in the spec's
    buffers and expanded from its coordinates."""
    (sigma,) = _checked_operators(spec, sigma)
    memo = spec._memo
    with memo.lock:
        state, _ = _chain_evolved(memo, _checked_gate(spec), sigma,
                                  (site - t % 2) % spec.L, t, spec.L)
        return _dense(state, spec.L)


def _chain_operator(spec: ChainSpec, sigma: np.ndarray, site: int, t: int):
    """(A, free, s): the coordinates of sigma(site, t) moved by an even
    number of sites, as the state of the spec's chain c = (site - t) mod 2 at
    time t, the spec's other buffer, and the site s = c + t % 2 where the
    operator sits.  The caller holds the spec's lock."""
    chain = (site - t) % 2
    A, free = _chain_evolved(spec._memo, _checked_gate(spec), sigma, chain, t, spec.L)
    return A, free, chain + t % 2


def _site_gram(A: np.ndarray, free: np.ndarray, y: int, L: int) -> np.ndarray:
    """gram[a, b]: the sum over every other site's index of A's coordinates
    with index a at site y times those with index b.  With at least 4^3
    coordinates behind site y: 4^y batched products of A's 4 x 4 blocks,
    summed.  Otherwise one product X X^T, where X is A with site y rolled to
    the front, written into ``free`` (A itself for y = 0)."""
    blocks = A.reshape(4**y, 4, -1)
    if blocks.shape[-1] >= 4**3:
        return np.matmul(blocks, blocks.transpose(0, 2, 1)).sum(axis=0)
    if y:
        rolled = free.reshape(4, 4**y, -1)
        np.copyto(rolled, blocks.transpose(1, 0, 2))
        blocks = rolled
    X = blocks.reshape(4, -1)
    return X @ X.T


def _check_budget(spec: ChainSpec, x: int, t: int):
    if t < 0:
        raise ValueError("t must be non-negative")
    if 2 * t >= spec.L:
        raise ValueError(f"2t < L required to avoid wrap-around (t={t}, L={spec.L})")
    if abs(x) + t >= spec.L:
        raise ValueError(f"|x| + t < L required to keep sigma_beta off the wrapped "
                         f"support of sigma_alpha(t) (x={x}, t={t}, L={spec.L})")


def oracle_correlator(spec: ChainSpec, sigma_alpha: np.ndarray, x: int,
                      sigma_beta: np.ndarray, t: int) -> float:
    """tr[sigma_alpha(x, t) sigma_beta(0, 0)] / 2^L."""
    sigma_alpha, sigma_beta = _checked_operators(spec, sigma_alpha, sigma_beta)
    _check_budget(spec, x, t)
    L = spec.L
    with spec._memo.lock:
        A, _, site = _chain_operator(spec, sigma_alpha, x, t)
        y = (site - x) % L
        # the partial trace over every site but y, then the dot with sigma_beta
        traced = _diagonal_units(A, L, y).sum(axis=tuple(s for s in range(L) if s != y))
    return float(traced @ _site_coords(sigma_beta) / 2**L)


def oracle_otoc(spec: ChainSpec, sigma_alpha: np.ndarray, sigma_beta: np.ndarray,
                x: int, t: int) -> float:
    """tr[A B A B] / 2^L with A the evolved alpha operator and B = sigma_beta
    placed x sites to its right (see the module docstring for anchoring)."""
    sigma_alpha, sigma_beta = _checked_operators(spec, sigma_alpha, sigma_beta)
    _check_budget(spec, x, t)
    L = spec.L
    anchor = (t + 1) % 2 if x >= 0 else t % 2
    h = _SITE_BASIS
    # (L_B)[c, a] = tr(h_c sigma_beta h_a), and tr(B h_a B h_b) = (L_B^T L_B)[a, b]
    left = np.einsum("cji,jk,aki->ca", h, sigma_beta, h)
    pairing = (left.T @ left).real
    with spec._memo.lock:
        A, free, site = _chain_operator(spec, sigma_alpha, anchor, t)
        G = _site_gram(A, free, (site + x) % L, L)
    return float(np.sum(pairing * G) / 2**L)


def haar_sample(q: int, seed) -> np.ndarray:
    """Haar-distributed q x q unitary: QR of a complex Gaussian with the
    R-diagonal phase fixed.  ``seed`` may be an integer or a Generator."""
    rng = np.random.default_rng(seed)
    Z = (rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))) / np.sqrt(2.0)
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))
