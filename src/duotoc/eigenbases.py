"""Operator states on the 2n-slot column space, in the transfer's basis.

A column state lives on 2n slots, each of dimension 4, and is described
symbolically by

* ``prods``  -- slot -> one-site operator placed on that slot, and
* ``pairs``  -- (i, j, X) entries tying slots i and j through an insertion X.

Its vector is real, in the orthonormal Hermitian leg basis of
``build_transfer``, ``boundary_left`` and ``boundary_right``: a product slot
carries the transfer's slot coefficients of X and a pairing its pair block of
X.  There a bra and a ket with the same description are the same vector, so
every overlap is a plain dot product and an identity pairing against two
product slots yields a trace: (I1 I1 | a b) = tr(ab).

Families provided: the nested identity-pairing states e_{n,k} and their
orthonormal combinations (unit-eigenvalue eigenoperators of every dual-unitary
column transfer matrix), the sigma_z-decorated states z_{n,k} of the kicked
Ising chain, and the bitstring-labeled product/pairing bases of the kicked XY
chain together with their integer overlap matrix (a plain int64 array over
all bitstrings in binary order) and biorthogonal dual basis.

The five basis builders take a depth that is an integer
(``opalg._integer``) with n >= 1.  Those that form dense 4^(2n) vectors
(``e_basis``, ``kim_z_basis``, ``xy_dual_basis``) also keep n within the
transfer's application budget ``N_MAX_APPLY``; the overlap matrix and the
projector form no such vector.  A ``SlotState`` and a bitstring label
describe a column of depth n >= 1 too.  A ``SlotState`` checks its
operators, and each XY boundary overlap its insertion, with the package's
input rule (``gates._checked_inputs``) when it is made or called.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .gates import _checked_inputs
from .opalg import PAULI, _integer
from .transfer import _check_depth, _pair_block, _slot_coeffs

_EYE, _SX, _SY, _SZ = PAULI

# slot-operator map for the XY bitstring states; the same symbols label the
# pairing insertions of the left states through sigma(b, a)
_XY_SLOT_OP = {(0, 0): _EYE, (0, 1): _SY, (1, 0): _SZ, (1, 1): _SX}

_LETTERS = "abcdefghijklmnopqrst"


@dataclass
class SlotState:
    """Symbolic product/pairing state on 2n slots of dimension 4, n >= 1;
    every slot operator and pairing insertion passes the input rule when
    the state is made, and the state keeps the checked complex arrays."""

    n: int
    prods: dict = field(default_factory=dict)
    pairs: tuple = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need n >= 1")
        covered = sorted(self.prods) + sorted(s for p in self.pairs for s in p[:2])
        if sorted(covered) != list(range(1, 2 * self.n + 1)):
            raise ValueError("slots must cover 1..2n exactly once")
        ops = _checked_inputs(None, *self.prods.values(), *(p[2] for p in self.pairs))
        self.prods = dict(zip(self.prods, ops))
        self.pairs = tuple((i, j, x) for (i, j, _), x in zip(self.pairs, ops[len(self.prods):]))

    def vector(self) -> np.ndarray:
        """The real 4^(2n) vector, slot 1 slowest."""
        subs, operands = [], []
        for i, j, x in self.pairs:
            operands.append(_pair_block(x))
            subs.append(_LETTERS[i - 1] + _LETTERS[j - 1])
        for i in sorted(self.prods):
            operands.append(_slot_coeffs(self.prods[i]))
            subs.append(_LETTERS[i - 1])
        out = _LETTERS[: 2 * self.n]
        return np.einsum(",".join(subs) + "->" + out, *operands).reshape(-1)


# ---------------------------------------------------------------------------
# nested-pairing family e_{n,k}

def e_state(n: int, k: int) -> SlotState:
    """Raw e_{n,k}: k nested identity pairings tying slots n-k+1 .. n+k from
    the outside in, identity products elsewhere.  e_{n,0} is the all-identity
    product state."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    eye = np.eye(2)
    pairs = tuple((n - j, n + 1 + j, eye) for j in range(k))
    prods = {s: eye for s in range(1, n - k + 1)}
    prods.update({s: eye for s in range(n + k + 1, 2 * n + 1)})
    return SlotState(n=n, prods=prods, pairs=pairs)


def e_basis(n: int):
    """Return (raw, orthonormal), one state per row for k = 0..n.

    The orthonormal combinations are
        e~_{n,0}    = 2^{-n} e_{n,0}
        e~_{n,k>0}  = 2^{-n} (2 e_{n,k} - e_{n,k-1}) / sqrt(3)
    """
    n = _integer("n", n)
    _check_depth(n)
    raw = np.stack([e_state(n, k).vector() for k in range(n + 1)])
    tilde = np.vstack([raw[:1], (2 * raw[1:] - raw[:-1]) / np.sqrt(3.0)])
    return raw, 2.0 ** (-n) * tilde


# ---------------------------------------------------------------------------
# kicked-Ising z_{n,k} extension

def kim_z_state(n: int, k: int) -> SlotState:
    """Raw z_{n,k}: sigma_z products on slots n-k+1 and n+k around a nested
    identity-pairing core, identity products outside."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    eye = np.eye(2)
    pairs = tuple((n - j, n + 1 + j, eye) for j in range(k - 1))
    prods = {n - k + 1: _SZ, n + k: _SZ}
    prods.update({s: eye for s in range(1, n - k + 1)})
    prods.update({s: eye for s in range(n + k + 1, 2 * n + 1)})
    return SlotState(n=n, prods=prods, pairs=pairs)


def kim_z_basis(n: int):
    """Return (raw z_{n,k} for k = 1..n, orthonormal e~_{n,n+k} extensions),
    one state per row.

    e~_{n,n+k} = 2^{-n} (sqrt(3/2) z_{n,k} - sqrt(2/3) e_{n,k} + sqrt(1/6) e_{n,k-1})
    completes the e~_{n,0..n} set to an orthonormal family of 2n+1 states.
    """
    raw_e, _ = e_basis(n)  # checks n first
    zs = np.stack([kim_z_state(n, k).vector() for k in range(1, n + 1)])
    tilde = 2.0 ** (-n) * (
        np.sqrt(1.5) * zs
        - np.sqrt(2.0 / 3.0) * raw_e[1:]
        + np.sqrt(1.0 / 6.0) * raw_e[:-1]
    )
    return zs, tilde


# ---------------------------------------------------------------------------
# kicked-XY bitstring bases

def _bits(label) -> tuple:
    """The label as a tuple of bits; an empty label, a depth-0 column,
    raises."""
    bits = tuple(int(b) for b in label)
    if any(b not in (0, 1) for b in bits):
        raise ValueError("labels are bitstrings")
    if not bits:
        raise ValueError("need n >= 1")
    return bits


def xy_right_state(r) -> SlotState:
    """Product state |{r}): slots i and 2n+1-i carry sigma(r_{i-1}, r_i) with
    the implicit r_0 = 0, under sigma(0,0)=1, sigma(0,1)=sy, sigma(1,0)=sz,
    sigma(1,1)=sx."""
    r = _bits(r)
    n = len(r)
    rr = (0,) + r
    prods = {}
    for i in range(1, n + 1):
        op = _XY_SLOT_OP[(rr[i - 1], rr[i])]
        prods[i] = op
        prods[2 * n + 1 - i] = op
    return SlotState(n=n, prods=prods)


def xy_left_state(l) -> SlotState:
    """Pairing state ({l}|: pairing i ties slots (n+1-i, n+i) through the
    insertion sigma(l_i, l_{i-1}) with the implicit l_0 = 0 (innermost pairing
    i=1, outermost i=n)."""
    l = _bits(l)
    n = len(l)
    ll = (0,) + l
    pairs = tuple(
        (n + 1 - i, n + i, _XY_SLOT_OP[(ll[i], ll[i - 1])]) for i in range(1, n + 1)
    )
    return SlotState(n=n, pairs=pairs)


def xy_overlap(l, r) -> int:
    """Closed-form overlap ({l}|{r}) = prod_i 2 (-1)^(r_{i-1} l_{n-i} + r_i l_{n-i+1}),
    always 2^n times a sign."""
    l, r = _bits(l), _bits(r)
    if len(l) != len(r):
        raise ValueError("bitstring lengths differ")
    n = len(l)
    ll, rr = (0,) + l, (0,) + r
    expo = sum(rr[i - 1] * ll[n - i] + rr[i] * ll[n - i + 1] for i in range(1, n + 1))
    return (2 ** n) * (-1) ** (expo % 2)


def _labels(n: int) -> tuple:
    """Every bitstring of length n, in binary order: the rows and columns of
    the overlap matrix.  Every XY builder that takes a depth reads it here
    first, so this is where n must be an integer >= 1."""
    n = _integer("n", n)
    if n < 1:
        raise ValueError("need n >= 1")
    return tuple(itertools.product((0, 1), repeat=n))


def xy_overlap_matrix(n: int) -> np.ndarray:
    """Integer matrix G[l, r] = ({l}|{r}), int64, over ``_labels(n)``;
    G G^T = 2^(3n) times the identity."""
    labels = _labels(n)
    return np.array([[xy_overlap(l, r) for r in labels] for l in labels], dtype=np.int64)


def xy_dual_basis(n: int):
    """Biorthogonal dual sets built from the overlap matrix:

        (L({l})| = 2^{-n} ({l}|
        |R({l})) = 2^{-2n} sum_r ({l}|{r}) |{r})

    so that (L({l})|R({l'})) = delta exactly.  Returns (lefts, rights), one
    state per row in the order of the overlap matrix's labels.
    """
    n = _integer("n", n)
    _check_depth(n)
    lefts = np.stack([xy_left_state(l).vector() for l in _labels(n)])
    rights = np.stack([xy_right_state(r).vector() for r in _labels(n)])
    return 2.0 ** (-n) * lefts, 2.0 ** (-2 * n) * xy_overlap_matrix(n) @ rights


def xy_left_boundary_overlap(sigma_alpha, r) -> float:
    """(L_n(sigma_alpha)|{r}) = 2^{n/2-1} tr(sigma_alpha X sigma_alpha X) with
    X = sigma(r_{n-1}, r_n)."""
    (a,) = _checked_inputs(None, sigma_alpha)
    r = _bits(r)
    n = len(r)
    rr = (0,) + r
    x = _XY_SLOT_OP[(rr[n - 1], rr[n])]
    return 2.0 ** (n / 2.0 - 1.0) * float(np.trace(a @ x @ a @ x).real)


def xy_right_boundary_overlap(sigma_beta, l, parity: str) -> float:
    """({l}|R(sigma_beta)) against the even (product) or odd (gate-dressed)
    right boundary; the dressed overlap collapses to a J-independent value."""
    (b,) = _checked_inputs(None, sigma_beta)
    l = _bits(l)
    n = len(l)
    ll = (0,) + l
    if parity == "even":
        x = _XY_SLOT_OP[(ll[n], ll[n - 1])]
        return 2.0 ** (n / 2.0 - 1.0) * float(np.trace(b @ x @ b @ x).real)
    if parity == "odd":
        if ll[n] == 0:
            return 2.0 ** (n / 2.0)
        bx = float(np.trace(b @ _SX).real) / 2.0
        return 2.0 ** (n / 2.0) * (2.0 * bx * bx - 1.0)
    raise ValueError("parity must be 'even' or 'odd'")


def xy_longtime_projector(sigma_alpha, sigma_beta, n: int, parity: str) -> float:
    """Long-time OTOC limit for the kicked XY chain by projecting onto the
    bitstring eigenbasis: sum_l (L(sigma_alpha)|R({l})) (L({l})|R(sigma_beta)).
    Uses only closed-form overlaps, so no dense vectors are materialized."""
    left_bnd = np.array([xy_left_boundary_overlap(sigma_alpha, r) for r in _labels(n)])
    right_bnd = np.array(
        [xy_right_boundary_overlap(sigma_beta, l, parity) for l in _labels(n)]
    )
    # (L(a)|R({l})) = 2^{-2n} sum_r G[l,r] (L(a)|{r});  (L({l})| = 2^{-n} ({l}|
    left_dual = 2.0 ** (-2 * n) * xy_overlap_matrix(n) @ left_bnd
    return float(2.0 ** (-n) * np.dot(left_dual, right_bnd))


def product_state(ops) -> SlotState:
    """Bare product state with explicit one-site operators on all 2n slots."""
    ops = tuple(ops)
    if len(ops) % 2:
        raise ValueError("need an even number of slot operators")
    n = len(ops) // 2
    return SlotState(n=n, prods={i + 1: ops[i] for i in range(2 * n)})
