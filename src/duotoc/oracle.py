"""Independent brute-force simulator: exact Heisenberg evolution on a small
periodic brickwork chain of qubits.

This module deliberately shares nothing with the transfer-matrix machinery
beyond the gate and the input rules: operators on the chain are their full
expansion in a product basis, conjugated layer by layer, and
correlators/OTOCs are exact traces.  It is the ground truth that every
folded-diagram result is validated against.  Every entry point takes a
4 x 4 gate and 2 x 2 Hermitian insertions, checked once per call by
``gates._checked_inputs``, the transfer side's own input rule.

Real coordinates
----------------
Each site carries the orthonormal Hermitian basis h_0 .. h_3 of the 2 x 2
matrices, tr(h_a h_b) = delta_ab, built here: the diagonal units E_00 and
E_11, then X/sqrt2 and Y/sqrt2.  An operator A on w sites is
sum_a C[a_0 .. a_(w-1)] h_(a_0) (x) ... (x) h_(a_(w-1)) with
C[a] = tr(h_(a_0) (x) ... A), site 0 the slowest index of C.  A Hermitian A
has real C, 4^w floats, and conjugation by a unitary keeps A Hermitian, so
an operator is one real vector.  The identity's coordinates are 1 where
every site's index is a diagonal unit and 0 elsewhere: e = (1, 1, 0, 0) on
one site.

Lattice conventions
-------------------
Sites 0..L-1, periodic, site 0 the slowest index of the 2^L basis.  The even
layer couples (0,1), (2,3), ...; the odd layer couples (1,2), (3,4), ...,
(L-1,0), the left site of each bond being the gate's first (slower) leg.
Time counts layers (half-steps), with the even layer applied first:
U(t) = L_t ... L_2 L_1, L_1 even, so sigma(t) = U(t)^dag sigma U(t) is
conjugated by L_t first and by L_1 last.

Operator placement follows the light-cone lattice of the brickwork diagrams:
for the OTOC with x >= 0 the alpha operator anchors at site (t+1) mod 2 (for
x < 0 at t mod 2) so that the causal edge site x = +-t is realized for every
t; beta sits x sites to its right.  The correlator needs no anchor shift:
sigma_alpha(x, t) with sigma_beta at site 0 realizes the x = +t edge for all
t (the leftward edge of this lattice is x = -(t-1)).

A value is that of the infinite chain only while neither operator wraps
round the ring: 2t < L keeps sigma_alpha(t)'s support from meeting itself,
and |x| + t < L keeps sigma_beta's site out of it from the other side.  Every
entry point raises outside both rules.

Light-cone window
-----------------
Each layer widens an operator's support by at most one site on each side,
so sigma_alpha(t) at site a acts on 2t sites (one at t = 0) and is the
identity elsewhere.  A call evolves only that window, from scratch.  With
c = (a - t) mod 2, the first step writes sigma (x) 1 (c = 1) or 1 (x) sigma
(c = 0); every later step puts an identity site, coordinates e, on both
sides.  After the k-th step the window covers the chain sites
[a - k + c, a + k + c), mod L, and its bonds (0,1), (2,3), ... are exactly
the bonds of L_(t-k+1) inside it; that layer's other bonds act on identity
sites, which they leave alone.  So each step is one layer conjugation of the
window, and at time t it covers [a - t + c, a + t + c).  The OTOC with
x >= 0 therefore runs c = 1, with x < 0 c = 0.  ``evolve_heisenberg`` pads
the window with identity sites to L and puts window site j on chain site
(lo + j) mod L, lo the window's first chain site.

Layer application
-----------------
Conjugation by one bond, U^dag (h_a (x) h_b) U = sum_c R_(ab),c h_c, is the
real 16 x 16 superoperator R_(ab),c = tr(h_c U^dag (h_a (x) h_b) U) of the
gate.  A window of w sites is conjugated by all its bonds at once in w/2
BLAS products of size 4^(w-2) x 16 by 16 x 16: each contracts the two
leading sites of C with R and appends them behind the others, and after w/2
products every site is back in order.  U(t) is never formed.

A call allocates one flat block of 2 * 4^(2t) floats and evolves the
window inside its two halves, the buffer pair.  The products of a layer
ping-pong between the two (``np.matmul`` with ``out=``).  Each step writes
its padded window into the buffer that the last product left free: zeros,
then C in the block where every padded site is a diagonal unit, which are
the entries of np.kron with e.  So a call's peak is two windows,
16 * 4^(2t) bytes (16 MiB at t = 5), and nothing else of that size.  The
pair is one allocation, not two, so that a warm call takes no page faults:
glibc's malloc keeps one freed block of that size at the top of its heap
and hands it to the next call with its pages still mapped, while two
half-size blocks, freed together, pass its trim threshold and are given
back to the system and faulted in afresh on every call.  The block belongs
to the call, so threads that share a ChainSpec share no state.

The gate passes when its bond keeps the identity within
eps = max |e_pair R - e_pair|, e_pair = e (x) e, and (1 + eps)^(L/2) - 1 <
TOL_UNITARY.  The L-site even layer conjugates the identity's coordinates
to the product of L/2 bonds' e_pair + delta, |delta| <= eps, and e_pair's
entries are 0 or 1, so that bound holds for every entry of the layer's
deviation from the identity: the rule is never looser than checking the
whole layer of the chain.  R and eps depend on the gate alone, so they are
derived once per gate and shared read-only: the derivation is cached on the
bytes and dtype of the gate's matrix, so equal gates, as a Gate or as a raw
matrix, share one R, and a gate changed in place is derived again.  The
test against L runs on every call, so a bad gate raises on every call.

Traces
------
The basis is orthonormal, so tr(A B) is the dot of the two real coordinate
vectors, and a trace over the chain divided by 2^L is the window's trace
divided by 2^w: the identity on the other L - w sites contributes its trace
2^(L-w).  sigma_beta at window site y has coordinates c_beta_a =
tr(h_a sigma_beta): the correlator sums the entries of C whose indices are
diagonal units on every site but y, then dots with c_beta.  For the OTOC
write A = sum_a h_a (x) A_a with h_a on site y.  Then
tr(BABA) = sum_ab (L_B^T L_B)_ab G_ab with (L_B)_ca = tr(h_c sigma_beta
h_a), left multiplication by sigma_beta in the site basis, and
G_ab = tr(A_a A_b), the real 4 x 4 Gram matrix of C along site y; for a
Hermitian sigma_beta, L_B^T L_B is real too.  G is one product of C with
site y in front, a 4 x 4^(w-1) matrix, and its transpose.  For an inner
site y the window is copied into the spare buffer with site y in front,
and that copy's transpose is written back over the window, so both
operands are contiguous and no third window is allocated; an edge site is
in front or at the back of C already.  Where sigma_beta's site lies
outside the window, it is an identity site of A, so the Gram matrix is
|C|^2 e e^T / 2 (the squares summed in the spare buffer) and the partial
trace is (the sum of C's diagonal-unit entries) e / 2.  Both traces are
exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gates import _checked_inputs, gate_matrix
from .opalg import TOL_UNITARY, _integer

# The orthonormal Hermitian basis h[a] of one site: E_00, E_11, X/sqrt2 and
# Y/sqrt2, and the identity's coordinates e in it.  Read-only.
_R2 = 1 / np.sqrt(2)
_SITE_BASIS = np.array([[[1, 0], [0, 0]],
                        [[0, 0], [0, 1]],
                        [[0, _R2], [_R2, 0]],
                        [[0, -1j * _R2], [1j * _R2, 0]]])
_IDENTITY = np.array([1.0, 1.0, 0.0, 0.0])
_SITE_BASIS.flags.writeable = False
_IDENTITY.flags.writeable = False

# Rows of one layer product (rows x 16 times 16 x 16) per BLAS call.  At
# m n k <= 2^18 OpenBLAS runs a product on the calling thread; a larger one
# (from a t = 4 window on) it splits across threads, whose wake-up costs more
# than the product and varies from call to call with the load on the cores.
_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class ChainSpec:
    """A small periodic brickwork chain of qubits; L must be even, at most 12."""

    gate: object
    L: int = 8

    def __post_init__(self):
        # an integer and nothing else (see opalg._integer): a float L would
        # pass the parity test and fail later, and True is an int
        try:
            L = _integer("L", self.L)
        except ValueError:
            L = None
        if L is None or L % 2 or L < 4:
            raise ValueError(f"L must be an even integer >= 4 (got {self.L!r})")
        if L > 12:
            raise ValueError("chain exceeds the 12-qubit budget")
        object.__setattr__(self, "L", L)


def site_operator(sigma: np.ndarray, x: int, L: int) -> np.ndarray:
    """Dense embedding 1 (x) sigma (x) 1 of a one-site Hermitian operator at
    site x."""
    x, L = _integer("x", x), _integer("L", L)
    (sigma,) = _checked_inputs(None, sigma)
    out = np.zeros((2**L, 2**L), dtype=complex)
    # r[i, a, k] is the row of the basis state (i, a, k), a the digit of site x
    r = np.arange(2**L).reshape(2 ** (x % L), 2, -1)
    out[r[:, :, None], r[:, None]] = sigma[:, :, None]
    return out


def _site_coords(sigma: np.ndarray) -> np.ndarray:
    """The real coordinates tr(h_a sigma) of a Hermitian one-site operator."""
    return np.einsum("aji,ij->a", _SITE_BASIS, sigma).real


def _superoperator(U: np.ndarray) -> np.ndarray:
    """R[(a, b), c] = tr(h_c U^dag (h_a (x) h_b) U), the real 16 x 16 map of
    one bond's conjugation on the two sites' coordinates."""
    h = _SITE_BASIS
    pair = np.einsum("aij,bkl->abikjl", h, h).reshape(16, 4, 4)
    conjugated = U.conj().T @ pair @ U
    return np.einsum("cji,aij->ac", pair, conjugated).real


def _checked_gate(spec: ChainSpec) -> np.ndarray:
    """R, the read-only superoperator of the circuit gate, once its bond's
    deviation eps from keeping the identity passes (1 + eps)^(L/2) - 1 <
    TOL_UNITARY, a bound on the deviation of the chain's whole layer (see
    the module docstring).  R and eps come from the cached derivation of
    the gate, which saves rebuilding them on every call; the test against
    L runs on every call, so a bad gate raises on every call."""
    u = gate_matrix(spec.gate)
    R, eps = _derived_gate(u.tobytes(), u.dtype.str)
    # (1 + eps)^(L/2) - 1 without rounding 1 + eps
    if not np.expm1(spec.L // 2 * np.log1p(eps)) < TOL_UNITARY:
        raise ValueError(f"layer is not unitary within {TOL_UNITARY}")
    return R


# two gates, as the transfer side keeps two bundles: a run reads one gate,
# and a caller that alternates two keeps both
@lru_cache(maxsize=2)
def _derived_gate(raw: bytes, dtype: str):
    """(R, eps) of the gate whose 4 x 4 matrix has these bytes and dtype:
    its superoperator, read-only, and its bond's deviation from keeping the
    identity, eps = max |e_pair R - e_pair|."""
    R = _superoperator(np.frombuffer(raw, dtype).reshape(4, 4))
    pair = np.kron(_IDENTITY, _IDENTITY)
    eps = np.abs(pair @ R - pair).max()
    R.flags.writeable = False
    return R, eps


def _diagonal_units(coords: np.ndarray, free_site=None) -> np.ndarray:
    """The view of the coordinates, one axis per site, whose index is a
    diagonal unit on every site but ``free_site``: each axis 2 long (4 at the
    free site)."""
    return coords[tuple(slice(None) if s == free_site else slice(2)
                        for s in range(coords.ndim))]


def _conjugate_layer(coords: np.ndarray, spare: np.ndarray, R: np.ndarray, w: int):
    """Lambda^dag A Lambda, for the layer whose bonds (0,1), (2,3), ... of
    the w sites of A carry the gate of the superoperator R (see the module
    docstring).  A's coordinates fill the first 4^w entries of the flat
    buffer ``coords``; the w/2 products ping-pong between it and the flat
    buffer ``spare``, as long, and allocate nothing.  Returns (holder, free):
    the buffer whose first 4^w entries hold the result, and the other."""
    n = len(R) ** (w // 2)
    for _ in range(w // 2):
        # contract the two leading sites with R and append them behind the others
        src, dst = coords[:n].reshape(len(R), -1).T, spare[:n].reshape(-1, len(R))
        for i in range(0, len(src), _BLOCK_ROWS):
            np.matmul(src[i:i + _BLOCK_ROWS], R, out=dst[i:i + _BLOCK_ROWS])
        coords, spare = spare, coords
    return coords, spare


def _light_cone(spec: ChainSpec, sigma: np.ndarray, site: int, t: int):
    """(C, lo, spare): the coordinates of sigma(site, t) on its window, one
    axis per window site, the window's first chain site (not reduced mod L)
    and a free flat buffer of C's size, for the Hermitian sigma (see the
    module docstring).  C views one half of the block that the call
    allocates, and spare is the other half: one block, so that the next
    call gets it back from malloc without faulting its pages in again, and
    the call's own, so that threads share no buffer."""
    R = _checked_gate(spec)
    size = 4 ** max(1, 2 * t)
    C, spare = np.empty(2 * size).reshape(2, size)
    C[:4] = _site_coords(sigma)
    if t == 0:
        return C, site, spare
    c = (site - t) % 2
    for w in range(2, 2 * t + 1, 2):
        # e (x) C (x) e written into the free buffer, the entries of np.kron:
        # zeros, then C where every padded site is a diagonal unit; the first
        # step pads one side only
        left, right = (4, 4) if w > 2 else (1, 4) if c else (4, 1)
        padded = spare[:4**w].reshape(left, -1, right)
        padded.fill(0.0)
        padded[:2, :, :2] = C[:padded.shape[1]][None, :, None]
        C, spare = _conjugate_layer(spare, C, R, w)
    return C.reshape((4,) * (2 * t)), site - t + c, spare


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


def _check_budget(spec: ChainSpec, x: int, t: int):
    if 2 * t >= spec.L:
        raise ValueError(f"2t < L required to avoid wrap-around (t={t}, L={spec.L})")
    if abs(x) + t >= spec.L:
        raise ValueError(f"|x| + t < L required to keep sigma_beta off the wrapped "
                         f"support of sigma_alpha(t) (x={x}, t={t}, L={spec.L})")


def evolve_heisenberg(spec: ChainSpec, sigma: np.ndarray, site: int, t: int) -> np.ndarray:
    """sigma(site, t) = U(t)^dag sigma(site) U(t) for 0 <= t, 2t < L, a fresh
    dense matrix the caller owns: the window padded with identity sites to
    the chain and expanded from its coordinates."""
    site, t = _integer("site", site), _integer("t", t, 0)
    (sigma,) = _checked_inputs(spec.gate, sigma)
    _check_budget(spec, 0, t)
    L = spec.L
    A, lo, _ = _light_cone(spec, sigma, site, t)
    for _ in range(L - A.ndim):
        A = np.multiply.outer(A, _IDENTITY)
    # window site j is chain site (lo + j) mod L
    return _dense(A.transpose([(s - lo) % L for s in range(L)]), L)


def oracle_correlator(spec: ChainSpec, sigma_alpha: np.ndarray, x: int,
                      sigma_beta: np.ndarray, t: int) -> float:
    """tr[sigma_alpha(x, t) sigma_beta(0, 0)] / 2^L."""
    x, t = _integer("x", x), _integer("t", t, 0)
    sigma_alpha, sigma_beta = _checked_inputs(spec.gate, sigma_alpha, sigma_beta)
    _check_budget(spec, x, t)
    A, lo, _ = _light_cone(spec, sigma_alpha, x, t)
    y = -lo
    if 0 <= y < A.ndim:
        # the partial trace over every window site but y
        traced = _diagonal_units(A, y).sum(axis=tuple(s for s in range(A.ndim) if s != y))
    else:
        traced = _diagonal_units(A).sum() * _IDENTITY / 2
    return float(traced @ _site_coords(sigma_beta) / 2**A.ndim)


def oracle_otoc(spec: ChainSpec, sigma_alpha: np.ndarray, sigma_beta: np.ndarray,
                x: int, t: int) -> float:
    """tr[A B A B] / 2^L with A the evolved alpha operator and B = sigma_beta
    placed x sites to its right (see the module docstring for anchoring)."""
    x, t = _integer("x", x), _integer("t", t, 0)
    sigma_alpha, sigma_beta = _checked_inputs(spec.gate, sigma_alpha, sigma_beta)
    _check_budget(spec, x, t)
    anchor = (t + 1) % 2 if x >= 0 else t % 2
    h = _SITE_BASIS
    # (L_B)[c, a] = tr(h_c sigma_beta h_a), and tr(B h_a B h_b) = (L_B^T L_B)[a, b]
    left = np.einsum("cji,jk,aki->ca", h, sigma_beta, h)
    pairing = (left.T @ left).real
    A, lo, spare = _light_cone(spec, sigma_alpha, anchor, t)
    y = anchor + x - lo
    if 0 < y < A.ndim - 1:
        # the Gram matrix along site y, every other site summed over by one
        # product: the window copied into the spare buffer with site y in
        # front, and that copy's transpose written over the window
        front = spare.reshape(4, 4**y, -1)
        np.copyto(front, A.reshape(4**y, 4, -1).transpose(1, 0, 2))
        back = A.reshape(-1, 4)
        np.copyto(back, front.reshape(4, -1).T)
        G = front.reshape(4, -1) @ back
    elif 0 <= y < A.ndim:
        # an edge site of the window is in front or at the back already
        M = A.reshape(4, -1) if y == 0 else A.reshape(-1, 4).T
        G = M @ M.T
    else:
        G = np.outer(_IDENTITY, _IDENTITY) * np.square(A.reshape(-1), out=spare).sum() / 2
    return float(np.sum(pairing * G) / 2**A.ndim)


def haar_sample(q: int, seed) -> np.ndarray:
    """Haar-distributed q x q unitary: QR of a complex Gaussian with the
    R-diagonal phase fixed.  ``seed`` may be an integer or a Generator."""
    rng = np.random.default_rng(seed)
    Z = (rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))) / np.sqrt(2.0)
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))
