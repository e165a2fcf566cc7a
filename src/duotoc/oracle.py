"""Independent brute-force simulator: dense Heisenberg evolution on a small
periodic brickwork chain.

This module deliberately shares nothing with the transfer-matrix machinery
beyond the gate itself: operators are dense q^L x q^L matrices, conjugated
layer by layer, and correlators/OTOCs are plain traces.  It is the ground
truth that every folded-diagram result is validated against.

Layer application
-----------------
A brickwork layer is never formed as a dense matrix product.  It is applied
to a q^L x N matrix one gate at a time: the row index splits into L/2
two-site (q^2) axes, and each axis is contracted with the gate in a single
BLAS product that also moves it behind the others, so after L/2 products
every axis is back in order and the result comes out transposed.  For the
odd layer the sites are first rolled by one, which makes the wrap bond
(L-1, 0) a pair like any other.  One layer costs O(L q^(2L+2)) instead of
the O(q^(3L)) of a dense product, conjugation applies the layer to both
sides, and U(t) is never formed.

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
divides q^L because L >= 4, X is read twice with full cache lines, and no
matrix-sized temporary is formed besides X.  Both traces are exact for any
sigma and q.

Per-chain memo
--------------
The even layer is checked for unitarity, with its product Lambda^dag Lambda
formed the same way, once per chain and gate; the odd layer is its exact
translate, so it needs no check of its own.  Each ``ChainSpec`` remembers
the bytes of the gates whose layer passed, under a lock, so threads that
share a spec check a gate once; a gate changed in place is checked again
and a failing gate raises on every call.  ``oracle_otoc`` and
``oracle_correlator`` also keep one chain state per spec: the key (gate
bytes, sigma_alpha, c), the time t and a read-only matrix, which serves every
x at that t.  A request at the same t is a hit, a later t on the same chain
extends the state, and anything else restarts the chain from t = 0.  The
memo's reference is dropped before the first step, and each step frees the
matrix it translated before it applies the layer, so a chain holds at most
one q^L x q^L matrix besides the working set of one step.  Every (c, t)
matrix comes from the same sequence of steps from t = 0, so no value
depends on the order of the requests; threads that share a spec may
duplicate work but always read a consistent entry.
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
        self.lock = threading.Lock()  # guards the check-then-record of passed
        self.passed = set()  # bytes of the gates whose even layer is unitary
        self.evolved = None  # (key, t, read-only matrix): the one chain state


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
    """Dense embedding of a one-site operator at site x."""
    x %= L
    return np.kron(
        np.kron(np.eye(q**x, dtype=complex), np.asarray(sigma, dtype=complex)),
        np.eye(q ** (L - x - 1), dtype=complex),
    )


def _apply_layer_t(mat: np.ndarray, gate: np.ndarray, parity: str, L: int, q: int) -> np.ndarray:
    """(Lambda mat)^T, C-ordered, for the layer of ``gate`` on the bonds of
    this parity and a matrix with q^L rows (see the module docstring)."""
    cols = mat.shape[1]
    if parity == "odd":
        # site 0 moves behind site L-1: the bonds are then (1,2), ..., (L-1,0)
        mat = mat.reshape(q, q ** (L - 1), cols).transpose(1, 0, 2)
    gate_t = gate.T
    for _ in range(L // 2):
        # contract the leading pair axis and append it behind the others
        mat = np.matmul(mat.reshape(q * q, -1).T, gate_t)
    if parity == "odd":
        mat = mat.reshape(cols, q ** (L - 1), q).transpose(0, 2, 1)
    return mat.reshape(cols, q**L)


def _conjugate_layer(mat: np.ndarray, gate: np.ndarray, parity: str, L: int, q: int) -> np.ndarray:
    """Lambda^dag mat Lambda: Lambda^dag on the rows, then Lambda^T (the layer
    of the transposed gate) on the rows of the transpose."""
    half = _apply_layer_t(mat, gate.conj().T, parity, L, q)
    return _apply_layer_t(half, gate.T, parity, L, q)


def _checked_gate(spec: ChainSpec) -> np.ndarray:
    """The circuit gate, once its even layer has passed the unitarity check
    max |Lambda^dag Lambda - 1| < TOL_UNITARY; the odd layer is the even one
    translated by a site, an exact permutation.  The check runs once per
    chain and gate bytes, even for threads that share the chain; a failure is
    never remembered, so it raises on every call."""
    U = gate_matrix(spec.gate)
    key = U.tobytes()
    memo = spec._memo
    with memo.lock:
        if key not in memo.passed:
            eye = np.eye(spec.q**spec.L, dtype=complex)
            product = _conjugate_layer(eye, U, "even", spec.L, spec.q)
            if not np.max(np.abs(product - eye)) < TOL_UNITARY:
                raise ValueError(f"layer is not unitary within {TOL_UNITARY}")
            memo.passed.add(key)
    return U


def _translate(mat: np.ndarray, shift: int, L: int, q: int) -> np.ndarray:
    """S mat S^dag for shift = 1, S^dag mat S for shift = -1: every site of
    both indices moves one step right (left), site L-1 (site 0) wrapping
    round.  A new C-ordered matrix; ``mat`` is only read."""
    split = (q ** (L - 1), q) if shift == 1 else (q, q ** (L - 1))
    return mat.reshape(split + split).transpose(1, 0, 3, 2).reshape(mat.shape)


def _chain_evolved(memo: _ChainMemo, U: np.ndarray, sigma: np.ndarray, start: int,
                   t: int, L: int, q: int) -> np.ndarray:
    """The chain that starts with sigma at site ``start``, after t steps (see
    the module docstring), as a read-only matrix: sigma(start + t % 2, t).
    ``memo`` serves its state at the same t, extends it to a later t, or the
    chain restarts from t = 0, and then holds the new state."""
    sigma = np.asarray(sigma, dtype=complex)
    key = (U.tobytes(), sigma.shape, sigma.tobytes(), start)
    latest = memo.evolved  # one read: another thread may replace it meanwhile
    resume = latest is not None and latest[0] == key and latest[1] <= t
    if resume and latest[1] == t:
        return latest[2]
    done, mat = latest[1:] if resume else (0, None)
    # drop the memo's reference and this frame's other one, so that the first
    # translation frees the remembered matrix (a restart builds nothing while
    # it lives)
    latest = memo.evolved = None
    if mat is None:
        mat = site_operator(sigma, start, L, q)
    for k in range(done, t):
        # two assignments: the translated matrix's input is freed before the
        # layer is applied
        mat = _translate(mat, 1 if k % 2 == 0 else -1, L, q)
        mat = _conjugate_layer(mat, U, "even", L, q)
    mat.flags.writeable = False
    memo.evolved = (key, t, mat)
    return mat


def evolve_heisenberg(spec: ChainSpec, sigma: np.ndarray, site: int, t: int) -> np.ndarray:
    """sigma(site, t) = U(t)^dag sigma(site) U(t), a fresh matrix the caller
    owns: the chain that starts at site - t % 2, run on a memo of its own."""
    U = _checked_gate(spec)
    mat = _chain_evolved(_ChainMemo(), U, sigma, site - t % 2, t, spec.L, spec.q)
    mat.flags.writeable = True  # its memo is gone: nothing else holds it
    return mat


def _chain_operator(spec: ChainSpec, sigma: np.ndarray, site: int, t: int):
    """(A, s): sigma(site, t) moved by an even number of sites, as the
    read-only state of the spec's chain c = (site - t) mod 2 at time t, and
    the site s = c + t % 2 where it sits."""
    chain = (site - t) % 2
    A = _chain_evolved(spec._memo, _checked_gate(spec), sigma, chain, t, spec.L, spec.q)
    return A, chain + t % 2


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
    A, site = _chain_operator(spec, sigma_alpha, x, t)
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
    A, site = _chain_operator(spec, sigma_alpha, anchor, t)
    n, y, b = q**L, (site + x) % L, q**3
    # X = BA, and tr(ABAB) = tr(X X)
    X = np.matmul(np.asarray(sigma_beta, dtype=complex),
                  A.reshape(q**y, q, -1)).reshape(n, n)
    # rows kb..kb+b-1 times columns kb..kb+b-1: the diagonals sum to tr(X X)
    slabs = np.matmul(X.reshape(n // b, b, n), X.reshape(n, n // b, b).transpose(1, 0, 2))
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
