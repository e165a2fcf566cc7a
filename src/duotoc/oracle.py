"""Independent brute-force simulator: dense Heisenberg evolution on a small
periodic brickwork chain.

This module deliberately shares nothing with the transfer-matrix machinery
beyond the gate itself: operators are dense q^L x q^L matrices, conjugated
layer by layer, and correlators/OTOCs are plain traces.  It is the ground
truth that every folded-diagram result is validated against.

Layer application
-----------------
A brickwork layer is never formed as a dense matrix product.  The even
layer is applied to a q^L x N matrix two bonds at a time: the row index
splits into L/2 two-site (q^2) axes, and one BLAS product contracts the two
leading axes with U (x) U, a q^4 x q^4 matrix, and moves them behind the
others.  When L/2 is odd, one product with U alone takes the last axis.
After ceil(L/4) products every axis is back in order and the result comes
out transposed.  Each product writes into the other of two q^L x N buffers
(``np.matmul``'s ``out``), so a layer allocates nothing of matrix size.  One
layer costs O(L q^(2L+4)) flops instead of the O(q^(3L)) of a dense product,
in half the passes over memory that single bonds would take.  Conjugation
applies the layer to both sides in 2 ceil(L/4) products, an even number, so
its result lands in the buffer it started in; U(t) is never formed, and
the odd layer is only ever reached by translation (below).

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
it by the even layer.  Step k (k = 0, 1, ...) translates to the right for
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
The correlator reads its trace from the diagonal blocks of sigma_alpha(x, t)
alone.  The OTOC uses tr(ABAB) = tr(X X) with X = BA: sigma_beta acts on
site y's row axis in one product whose contiguous inner run is at least one
row (q^L entries) at every y, and tr(X X) = sum_ij X_ij X_ji comes from one
batched product of X's row slabs of b rows with its column slabs of b
columns, whose b x b results hold the sum on their diagonals.  b = q^3
divides q^L because L >= 4, and X is read twice with full cache lines.  X
is written into the chain's free buffer (below), so the trace allocates
nothing of matrix size.  Both traces are exact for any sigma and q.

Per-chain memo
--------------
Each ``ChainSpec`` owns two complex q^L x q^L buffers, made at its first
call; nothing else of matrix size is allocated on its behalf.  One buffer
holds the chain state, the other is scratch: a step translates the state
into the scratch buffer and conjugates it there, the layer's products
alternating between the two, and the buffers then swap roles.  A restart
writes 1 (x) sigma (x) 1 straight into the state buffer, and
``oracle_otoc`` writes X into the free one.

The even layer is checked for unitarity once per chain and gate: the
identity is conjugated in the two buffers, 1 is subtracted from the
diagonal in place, and max |Lambda^dag Lambda - 1|, its absolute values
taken into the free buffer's memory, must be below TOL_UNITARY.  The odd
layer is its exact translate, so it needs no check of its own.  The spec
remembers the bytes of the gates whose layer passed, so a gate changed in
place is checked again and a failing gate raises on every call.  The check
overwrites both buffers, so it drops the remembered chain state.

The chain state is remembered by its key (gate bytes, sigma_alpha, c) and
its time t, and serves every x at that t.  A request at the same t is a
hit, a later t on the same chain extends the state, and anything else
restarts the chain from t = 0.  Every call on a spec holds the spec's lock
from the check through the evolution to the trace, so calls that share a
spec run one after another and never see a buffer in use.  Every (c, t)
matrix comes from the same sequence of steps from t = 0, so no value
depends on the order of the requests.  ``evolve_heisenberg`` runs in the
same buffers and returns a copy that the caller owns.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

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
        self.passed = set()  # bytes of the gates whose even layer is unitary
        self.evolved = None  # (key, t) of the chain state in buffers[0]
        self.buffers = None  # [state, scratch], each q^L x q^L

    def take_buffers(self, L: int, q: int) -> list:
        """[state, scratch], made at the first call."""
        if self.buffers is None:
            self.buffers = [np.empty((q**L, q**L), dtype=complex) for _ in range(2)]
        return self.buffers


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


def site_operator(sigma: np.ndarray, x: int, L: int, q: int = 2,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Dense embedding 1 (x) sigma (x) 1 of a one-site operator at site x,
    written into ``out`` (a C-ordered q^L x q^L complex matrix) if given."""
    if out is None:
        out = np.empty((q**L, q**L), dtype=complex)
    out.fill(0)
    # r[i, a, k] is the row of the basis state (i, a, k), a the digit of site x
    r = np.arange(q**L).reshape(q ** (x % L), q, -1)
    out[r[:, :, None], r[:, None]] = np.asarray(sigma)[:, :, None]
    return out


def _apply_layer_t(mat: np.ndarray, other: np.ndarray, gate_t: np.ndarray, L: int):
    """(Lambda mat)^T, C-ordered, for the even layer whose bonds carry the
    gate G, given gate_t = G^T and a C-ordered matrix with q^L rows in
    ``mat``; ``other`` is a buffer of the same size (see the module
    docstring).  Returns (result, free): the buffer that holds the result and
    the other one, both of which may have been overwritten."""
    pair_t = np.kron(gate_t, gate_t)
    for g in [pair_t] * (L // 4) + [gate_t] * (L // 2 % 2):
        # contract the leading axis of g's size and append it behind the others
        np.matmul(mat.reshape(len(g), -1).T, g, out=other.reshape(-1, len(g)))
        mat, other = other, mat
    return mat, other


def _conjugate_layer(mat: np.ndarray, scratch: np.ndarray, gate: np.ndarray, L: int):
    """mat <- Lambda^dag mat Lambda for the even layer of ``gate``:
    Lambda^dag on the rows, then Lambda^T (the layer of the transposed gate)
    on the rows of the transpose.  The two halves take an even number of
    products, so the result lands back in ``mat``; ``scratch`` is
    overwritten."""
    half, free = _apply_layer_t(mat, scratch, gate.conj(), L)  # (U^dag)^T
    _apply_layer_t(half, free, gate, L)  # (U^T)^T


def _checked_gate(spec: ChainSpec) -> np.ndarray:
    """The circuit gate, once its even layer has passed the unitarity check
    max |Lambda^dag Lambda - 1| < TOL_UNITARY; the odd layer is the even one
    translated by a site, an exact permutation.  The check runs in the spec's
    buffers once per gate bytes and drops the remembered chain state; a
    failure is never remembered, so it raises on every call.  The caller
    holds the spec's lock."""
    U = gate_matrix(spec.gate)
    key = U.tobytes()
    memo = spec._memo
    if key not in memo.passed:
        product, scratch = memo.take_buffers(spec.L, spec.q)
        memo.evolved = None
        product.fill(0)
        np.fill_diagonal(product, 1)
        _conjugate_layer(product, scratch, U, spec.L)
        n = len(product)
        product.reshape(-1)[:: n + 1] -= 1
        deviation = scratch.view(np.float64).reshape(-1)[: n * n].reshape(n, n)
        if not np.abs(product, out=deviation).max() < TOL_UNITARY:
            raise ValueError(f"layer is not unitary within {TOL_UNITARY}")
        memo.passed.add(key)
    return U


def _translate(mat: np.ndarray, out: np.ndarray, shift: int, L: int, q: int) -> np.ndarray:
    """out = S mat S^dag for shift = 1, S^dag mat S for shift = -1: every
    site of both indices moves one step right (left), site L-1 (site 0)
    wrapping round.  ``out`` is C-ordered and returned; ``mat`` is only
    read."""
    split = (q ** (L - 1), q) if shift == 1 else (q, q ** (L - 1))
    moved = split[::-1]
    np.copyto(out.reshape(moved + moved), mat.reshape(split + split).transpose(1, 0, 3, 2))
    return out


def _chain_evolved(memo: _ChainMemo, U: np.ndarray, sigma: np.ndarray, start: int,
                   t: int, L: int, q: int):
    """The chain that starts with sigma at site ``start``, after t steps (see
    the module docstring): (state, free), the buffer that holds
    sigma(start + t % 2, t) and the other one.  ``memo`` serves its state at
    the same t, extends it to a later t, or the chain restarts from t = 0,
    and then holds the new state.  The caller holds the memo's lock."""
    sigma = np.asarray(sigma, dtype=complex)
    key = (U.tobytes(), sigma.shape, sigma.tobytes(), start)
    state, scratch = memo.take_buffers(L, q)
    latest = memo.evolved
    resume = latest is not None and latest[0] == key and latest[1] <= t
    if resume and latest[1] == t:
        return state, scratch
    memo.evolved = None  # the buffers change below
    done = latest[1] if resume else 0
    if not resume:
        site_operator(sigma, start, L, q, out=state)
    for k in range(done, t):
        _translate(state, scratch, 1 if k % 2 == 0 else -1, L, q)
        _conjugate_layer(scratch, state, U, L)
        state, scratch = scratch, state
    memo.buffers = [state, scratch]
    memo.evolved = (key, t)
    return state, scratch


def evolve_heisenberg(spec: ChainSpec, sigma: np.ndarray, site: int, t: int) -> np.ndarray:
    """sigma(site, t) = U(t)^dag sigma(site) U(t), a fresh matrix the caller
    owns: the chain that starts at site - t % 2, run in the spec's buffers
    and copied out."""
    memo = spec._memo
    with memo.lock:
        state, _ = _chain_evolved(memo, _checked_gate(spec), sigma,
                                  (site - t % 2) % spec.L, t, spec.L, spec.q)
        return state.copy()


def _chain_operator(spec: ChainSpec, sigma: np.ndarray, site: int, t: int):
    """(A, free, s): sigma(site, t) moved by an even number of sites, as the
    state of the spec's chain c = (site - t) mod 2 at time t, the spec's
    other buffer, and the site s = c + t % 2 where the operator sits.  The
    caller holds the spec's lock."""
    chain = (site - t) % 2
    A, free = _chain_evolved(spec._memo, _checked_gate(spec), sigma, chain, t,
                             spec.L, spec.q)
    return A, free, chain + t % 2


def _trace_times_site_operator(mat: np.ndarray, sigma: np.ndarray, y: int, L: int, q: int):
    """tr(mat @ site_operator(sigma, y, L, q)) from the diagonal blocks of mat:
    the partial trace over every site but y, each of its q x q entries a
    pairwise sum, contracted with sigma."""
    y %= L
    outer, inner = q**y, q ** (L - y - 1)
    blocks = mat.reshape(outer, q, inner, outer, q, inner)
    # diag[j, l, i, k] = mat[(i, j, k), (i, l, k)]
    diag = np.diagonal(np.diagonal(blocks, axis1=0, axis2=3), axis1=1, axis2=3)
    reduced = diag.reshape(q, q, outer * inner).sum(axis=-1)
    return np.sum(reduced * np.asarray(sigma, dtype=complex).T)


def _check_budget(spec: ChainSpec, t: int):
    if t < 0:
        raise ValueError("t must be non-negative")
    if 2 * t >= spec.L:
        raise ValueError(f"2t < L required to avoid wrap-around (t={t}, L={spec.L})")


def oracle_correlator(spec: ChainSpec, sigma_alpha: np.ndarray, x: int, sigma_beta: np.ndarray, t: int):
    """tr[sigma_alpha(x, t) sigma_beta(0, 0)] / q^L."""
    _check_budget(spec, t)
    L, q = spec.L, spec.q
    with spec._memo.lock:
        A, _, site = _chain_operator(spec, sigma_alpha, x, t)
        val = complex(_trace_times_site_operator(A, sigma_beta, site - x, L, q) / q**L)
    if abs(val.imag) > _IMAG_TOL:
        return val
    return val.real


def oracle_otoc(spec: ChainSpec, sigma_alpha: np.ndarray, sigma_beta: np.ndarray, x: int, t: int):
    """tr[A B A B] / q^L with A the evolved alpha operator and B = sigma_beta
    placed x sites to its right (see the module docstring for anchoring)."""
    _check_budget(spec, t)
    L, q = spec.L, spec.q
    anchor = (t + 1) % 2 if x >= 0 else t % 2
    n, b = q**L, q**3
    with spec._memo.lock:
        A, X, site = _chain_operator(spec, sigma_alpha, anchor, t)
        y = (site + x) % L
        # X = BA, in the free buffer, and tr(ABAB) = tr(X X)
        np.matmul(np.asarray(sigma_beta, dtype=complex), A.reshape(q**y, q, -1),
                  out=X.reshape(q**y, q, -1))
        # rows kb..kb+b-1 times columns kb..kb+b-1: the diagonals sum to tr(X X)
        slabs = np.matmul(X.reshape(n // b, b, n),
                          X.reshape(n, n // b, b).transpose(1, 0, 2))
        val = complex(np.trace(slabs, axis1=1, axis2=2).sum() / n)
    if abs(val.imag) > _IMAG_TOL:
        return val
    return val.real


def haar_sample(q: int, seed) -> np.ndarray:
    """Haar-distributed q x q unitary: QR of a complex Gaussian with the
    R-diagonal phase fixed.  ``seed`` may be an integer or a Generator."""
    rng = np.random.default_rng(seed)
    Z = (rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))) / np.sqrt(2.0)
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))
