"""Column transfer matrix for folded brickwork OTOC diagrams.

One column of the OTOC diagram stacks n copies of the circuit gate along a
light-cone diagonal.  Each copy appears four times (two forward, two backward),
and the four copies fold into two sheets of W = U (x) U*.  Per sheet the chain
of gates runs from a bottom cap to a shared top cap:

* bundle tensor axes: (out_slot, chain_up, chain_dn, in_slot), each of
  dimension q**2, with out_slot = folded left-out leg, in_slot = folded
  right-in leg, and the chain legs tying consecutive bundles (lower right-out
  into upper left-in);
* bottom caps are intra-sheet vec(1) (or vec(sigma_beta) for the dressed
  odd-parity right boundary); the top cap ties the two sheets with a crossed
  delta;
* transfer slots 1..n are sheet one of bundles 1..n, slots 2n..n+1 are sheet
  two of the same bundles; bundle n is the innermost (sigma_alpha-adjacent).

The normalized transfer matrix is the raw contraction divided by q (each
bundle passes the folded identity through losslessly, so only the top cap
contributes a scalar); it then satisfies T|R_n) = |R_n) and (L_n|T = (L_n| for
every unitary gate, with the fixed points defined in the eigenbases module
conventions.  All overlaps are bilinear (no conjugation), so the left identity
reads T.T @ L = L.

Two bases carry the column.  The dense ``build_transfer`` materializes it in
the computational folded basis (slot index u*q + ubar) of the eigenbases
module, where ``fixed_right`` and ``fixed_left`` live too; it is the
independent reference.  Everything that applies the column -- the boundary
vectors, ``otoc_finite`` and ``otoc_longtime`` -- works in the orthonormal
Hermitian leg basis {sigma_mu / sqrt(2)} on every slot (see
_PauliColumnKernel), where all numbers are real.  ``BoundaryVector.vec``
holds that basis: a right boundary as the coefficients Q^T v of its complex
vector v, a left boundary as Q^dagger l, slot by slot, with Q the unitary
whose columns are vec(sigma_mu)/sqrt(2).  Their plain dot product equals the
bilinear overlap of the complex vectors.  The Hermitian basis exists for
q = 2 only, so the applying side rejects other q, and it rejects
non-Hermitian insertions, whose coefficients would not be real.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .eigenbases import SlotState, all_identity_state
from .gates import gate_matrix
from .opalg import pauli_basis, swap_gate

TOL_FIXED = 1e-10
TOL_REAL = 1e-10
TOL_RADIUS = 1e-8
N_MAX_DENSE = 3
N_MAX_APPLY = 5
ITERATION_CAP = 10_000
CESARO_WINDOW = 64


def parity_tag(x: int, t: int) -> str:
    return "even" if (t - x) % 2 == 0 else "odd"


def _bundle_tensor(u: np.ndarray, q: int) -> np.ndarray:
    u4 = np.asarray(u, dtype=complex).reshape(q, q, q, q)
    w = np.einsum("abcd,efgh->aebfcgdh", u4, u4.conj())
    d = q * q
    return w.reshape(d, d, d, d)


def _inter_cap(q: int) -> np.ndarray:
    eye = np.eye(q)
    return np.einsum("ad,bc->abcd", eye, eye).reshape(q * q, q * q)


def _sheet_mpo(w, n, cap, reverse):
    """Per-sheet chain of n bundles with the bottom cap absorbed; returns
    s[chain_top, out_slots, in_slots] with slots flattened row-major in column
    order (bundle n slowest when reverse, fastest otherwise reversed...)."""
    d = w.shape[0]
    s = np.einsum("okyi,y->koi", w, cap)
    for _ in range(n - 1):
        if reverse:
            s = np.einsum("okyi,yAB->koAiB", w, s).reshape(d, s.shape[1] * d, s.shape[2] * d)
        else:
            s = np.einsum("okyi,yAB->kAoBi", w, s).reshape(d, s.shape[1] * d, s.shape[2] * d)
    return s


@dataclass
class TransferMatrix:
    n: int
    q: int
    mat: np.ndarray
    gate: np.ndarray
    spectral_radius: float = None

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass
class BoundaryVector:
    n: int
    parity: str  # "even" / "odd" for right boundaries, None for left
    side: str
    vec: np.ndarray  # real, in the Hermitian leg basis (see the module docstring)
    op: np.ndarray = None


def _require_qubits(q: int):
    if q != 2:
        raise ValueError(f"only q = 2 is supported (got q = {q}): the column "
                         "kernel works in the Pauli basis")


def _check_depth(n: int):
    if n < 1:
        raise ValueError("need n >= 1")
    if n > N_MAX_APPLY:
        raise ValueError(
            f"depth n={n} exceeds the application budget (n <= {N_MAX_APPLY}); "
            "use the brute-force oracle or a closed form"
        )


# Q: columns are vec(sigma_mu)/sqrt(2), the unitary change from the
# orthonormal Hermitian leg basis to the computational folded basis
_QMAT = np.stack([m.reshape(4) / np.sqrt(2.0) for m in pauli_basis(2).ops], axis=1)


def _hermitian(op) -> np.ndarray:
    op = np.asarray(op, dtype=complex)
    residue = float(np.abs(op - op.conj().T).max())
    if residue > TOL_REAL:
        raise ValueError(f"operator has anti-Hermitian residue {residue:.3e}; "
                         "operators Hermitian?")
    return op


def _slot_coeffs(op) -> np.ndarray:
    """Right-slot coefficients Q^T vec(X) = tr(sigma_mu^T X)/sqrt(2), real for
    Hermitian X; the identity maps to sqrt(2) e_0."""
    return np.ascontiguousarray((_QMAT.T @ _hermitian(op).reshape(4)).real)


_IDENTITY_COEFFS = _slot_coeffs(np.eye(2))


def _pair_block(op) -> np.ndarray:
    """Left pairing block tying two slots through X, in the dual basis:
    B[mu, nu] = tr(sigma_mu^T X sigma_nu^T X)/2, real for Hermitian X; the
    identity pairing is the 4x4 identity."""
    x = _hermitian(op)
    # complex-basis block A[(u,ubar),(v,vbar)] = X[vbar,u] X[ubar,v]
    block = np.einsum("da,bc->abcd", x, x).reshape(4, 4)
    return np.ascontiguousarray((_QMAT.conj().T @ block @ _QMAT.conj()).real)


def _product(vectors) -> np.ndarray:
    return reduce(np.multiply.outer, vectors).reshape(-1)


class _PauliColumnKernel:
    """Column application in the orthonormal Hermitian leg basis.

    Expanding every leg in {sigma_mu/sqrt(2)} is an exact similarity transform
    of the column: all bundle coefficients become real (the folded action of a
    unitary on a Hermitian basis has real matrix elements), the vec(1) caps
    become sqrt(2) e_0, and the crossed top cap becomes the identity bond.  One
    application then runs as 2n real middle-axes contractions, visiting slots
    2n down to 1, with the chain axis always adjacent to the slot being
    consumed: sheet two climbs from its bottom cap, the top cap passes the
    chain straight through, and sheet one descends to its bottom cap, leaving
    the output slots already in canonical order.

    ``cap`` replaces the bottom caps' coefficients (default: the identity's);
    vec(sigma_beta) caps give the gate-dressed odd boundary.  Every step
    writes into one of two preallocated buffers of d^(2n+1) floats, so a
    kernel serves one thread; each otoc_finite/otoc_longtime call builds its
    own.
    """

    def __init__(self, gate, n: int, cap=None):
        _check_depth(n)
        self.n = n
        self.d = d = 4
        w = _bundle_tensor(gate_matrix(gate), 2)
        wp = np.einsum("oudi,oa,ub,dc,ie->abce", w, _QMAT, _QMAT,
                       _QMAT.conj(), _QMAT.conj())
        if np.abs(wp.imag).max() > 1e-12:
            raise AssertionError("bundle is not real in the Hermitian leg basis")
        wp = np.ascontiguousarray(wp.real)
        cap = _IDENTITY_COEFFS if cap is None else np.asarray(cap, dtype=float)
        # slot 2n: bottom cap of sheet two folds into the chain_dn leg
        self._m_first = np.ascontiguousarray(
            np.einsum("oudi,d->iuo", wp, cap).reshape(d, d * d))
        # remaining sheet-two slots pair (in_slot, chain_dn) -> (chain_up, out);
        # stored transposed for the batched matmul in apply
        self._m2t = np.ascontiguousarray(
            wp.transpose(3, 2, 1, 0).reshape(d * d, d * d).T)
        # sheet-one slots pair (in_slot, chain_up) -> (chain_dn, out)
        self._m1t = np.ascontiguousarray(
            wp.transpose(3, 1, 2, 0).reshape(d * d, d * d).T)
        # sheet one's bottom cap, carrying the 1/q normalization (an exact
        # power-of-two scaling)
        self._cap_last = cap / 2.0
        self._buffers = (np.empty(d ** (2 * n + 1)), np.empty(d ** (2 * n + 1)))
        self._last = 1  # buffer holding the previous result

    @property
    def dim(self) -> int:
        return self.d ** (2 * self.n)

    def apply(self, u: np.ndarray) -> np.ndarray:
        """T u for a real Hermitian-basis vector u.  The result is a view into
        the kernel's buffers, valid until the next call."""
        d, n = self.d, self.n
        bufs, cur = self._buffers, 1 - self._last
        p = np.matmul(u.reshape(-1, d), self._m_first,
                      out=bufs[cur].reshape(-1, d * d))
        for s in range(2 * n - 1, 0, -1):
            mat = self._m2t if s > n else self._m1t
            cur = 1 - cur
            shape = (d ** (s - 1), d * d, -1)
            p = np.matmul(mat, p.reshape(shape), out=bufs[cur].reshape(shape))
        cur = 1 - cur
        out = np.matmul(self._cap_last, p.reshape(d, -1), out=bufs[cur][:self.dim])
        self._last = cur
        return out


def fixed_right(n: int, q: int = 2) -> np.ndarray:
    """|R_n) = q^{-n/2} |o ... o): identity products on all 2n slots, in the
    computational folded basis of build_transfer."""
    state = all_identity_state(n, q)
    return float(q) ** (-n / 2.0) * state.vector()


def fixed_left(n: int, q: int = 2) -> np.ndarray:
    """(L_n| = q^{-n/2} nested identity pairings tying slots j and 2n+1-j, in
    the computational folded basis of build_transfer."""
    eye = np.eye(q)
    pairs = tuple((j, 2 * n + 1 - j, eye) for j in range(1, n + 1))
    state = SlotState(n=n, side="left", pairs=pairs, q=q)
    return float(q) ** (-n / 2.0) * state.vector()


def boundary_left(sigma_alpha, n: int, q: int = 2) -> BoundaryVector:
    """(L_n(sigma_alpha)|: nested pairings tying slots j and 2n+1-j, identity
    insertions except the innermost pairing, which carries sigma_alpha."""
    _require_qubits(q)
    vec = _pair_block(sigma_alpha).reshape(-1)
    identity_pair = np.eye(4)
    for _ in range(n - 1):
        # wrap the next pairing around the slots built so far
        vec = (identity_pair[:, None, :] * vec[None, :, None]).reshape(-1)
    vec *= 2.0 ** (-n / 2.0)
    return BoundaryVector(n=n, parity=None, side="left", vec=vec,
                          op=np.asarray(sigma_alpha, dtype=complex))


def boundary_right(sigma_beta, n: int, parity: str, gate=None, q: int = 2) -> BoundaryVector:
    """|R_n(sigma_beta)) for the requested parity of t - x.

    even: product form, sigma_beta on the outermost slots 1 and 2n;
    odd: gate-dressed form, one normalized column with sigma_beta bottom caps
    applied to the all-identity product and scaled by q^{-n/2}.  The dressed
    form needs the circuit gate; for sigma_beta = identity both reduce to |R_n).
    """
    _require_qubits(q)
    beta = _slot_coeffs(sigma_beta)
    ident = _IDENTITY_COEFFS
    scale = 2.0 ** (-n / 2.0)
    if parity == "even":
        vec = scale * _product([beta] + [ident] * (2 * n - 2) + [beta])
    elif parity == "odd":
        if gate is None:
            raise ValueError("the odd-parity (dressed) right boundary needs the gate")
        kern = _PauliColumnKernel(gate, n, cap=beta)
        vec = scale * kern.apply(_product([ident] * (2 * n)))
    else:
        raise ValueError("parity must be 'even' or 'odd'")
    return BoundaryVector(n=n, parity=parity, side="right", vec=vec,
                          op=np.asarray(sigma_beta, dtype=complex))


def _power_radius_estimate(apply_fn, dim, iters=200, seed=7):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    growth = 0.0
    for _ in range(iters):
        w = apply_fn(v)
        nrm = np.linalg.norm(w)
        if nrm < 1e-300:
            return 0.0
        growth = nrm
        v = w / nrm
    return growth


def build_transfer(gate, n: int, q: int = 2) -> TransferMatrix:
    """Dense depth-n transfer matrix with fixed-point checks at construction.

    Materialization is restricted to q**(4n) <= 4096 (n <= 3 at q = 2); the
    matrix-free column kernel behind otoc_finite/otoc_longtime serves deeper
    columns.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    d = q * q
    dim = d ** (2 * n)
    if n > N_MAX_DENSE:
        raise ValueError(
            f"dense transfer at n={n} (dim {dim}) exceeds the materialization "
            f"budget (n <= {N_MAX_DENSE}); use otoc_finite or otoc_longtime instead"
        )
    u = gate_matrix(gate)
    w = _bundle_tensor(u, q)
    pcap = _inter_cap(q)
    cap = np.eye(q).astype(complex).reshape(d)
    s1 = _sheet_mpo(w, n, cap, reverse=False)
    s2 = _sheet_mpo(w, n, cap, reverse=True)
    raw = np.einsum("kl,kab,lcd->acbd", pcap, s1, s2)
    half = d ** n
    mat = raw.reshape(half * half, half * half) / q

    rvec = fixed_right(n, q)
    lvec = fixed_left(n, q)
    if np.linalg.norm(mat @ rvec - rvec) > TOL_FIXED:
        raise AssertionError("transfer construction lost the right fixed point")
    if np.linalg.norm(mat.T @ lvec - lvec) > TOL_FIXED:
        raise AssertionError("transfer construction lost the left fixed point")

    if dim <= 256:
        radius = float(np.max(np.abs(np.linalg.eigvals(mat))))
        if radius > 1.0 + TOL_RADIUS:
            raise AssertionError(f"transfer spectral radius {radius} exceeds 1")
    else:
        radius = float(_power_radius_estimate(lambda v: mat @ v, dim))
        if radius > 1.0 + 1e-6:
            raise AssertionError(f"transfer spectral radius estimate {radius} exceeds 1")
    return TransferMatrix(n=n, q=q, mat=mat, gate=u, spectral_radius=radius)


@dataclass
class OtocResult:
    x: object
    t: object
    parity: str
    value: float
    method: str
    n: int = None
    meta: dict = field(default_factory=dict)


def _depths(x: int, t: int):
    """(depth n, applications, parity) of the column evaluation of C(x, t)."""
    if (t - x) % 2 == 0:
        return (t - x + 2) // 2, (t + x) // 2, "even"
    return (t - x + 1) // 2, (t + x + 1) // 2 - 1, "odd"


def _separation(n: int, parity: str) -> int:
    """t - x of the cells that _depths serves at depth n with this parity."""
    return 2 * n - 2 if parity == "even" else 2 * n - 1


def otoc_finite(gate, sigma_alpha, sigma_beta, x: int, t: int, q: int = 2) -> OtocResult:
    """C(x, t) by n_+ applications of the depth-n_- transfer matrix.

    Outside the light cone the value is 1 without computation; x < 0 is served
    by mirroring the gate (conjugation by the swap), which reflects the
    brickwork about the origin.
    """
    _require_qubits(q)
    if t < 0:
        raise ValueError("need t >= 0")
    if abs(x) > t:
        return OtocResult(x, t, parity_tag(x, t), 1.0, "finite_transfer")
    if x < 0:
        swap = swap_gate(2)
        mirrored = otoc_finite(swap @ gate_matrix(gate) @ swap,
                               sigma_alpha, sigma_beta, -x, t)
        return OtocResult(x, t, mirrored.parity, mirrored.value,
                          mirrored.method, n=mirrored.n, meta=mirrored.meta)
    n, applications, parity = _depths(x, t)
    _check_depth(n)
    left = boundary_left(sigma_alpha, n).vec
    v = boundary_right(sigma_beta, n, parity, gate=gate).vec
    kern = _PauliColumnKernel(gate, n)
    for _ in range(applications):
        v = kern.apply(v)
    return OtocResult(x, t, parity, float(np.dot(left, v)), "finite_transfer", n=n)


def otoc_longtime(gate, sigma_alpha, sigma_beta, n: int, parity: str,
                  q: int = 2) -> OtocResult:
    """lim_{m -> inf} (L(sigma_alpha)| T^m |R(sigma_beta)) by iterated
    application of the column kernel.

    The iterate starts as the right boundary's ``BoundaryVector.vec`` and stays
    in the real Hermitian leg basis (Q^T per slot); the left boundary's vec
    (Q^dagger per slot) reads each overlap as a plain dot product.
    Convergence is declared when successive overlaps differ by < 1e-10.  If the
    iteration cap is hit (unit-modulus eigenvalues keep the overlap
    oscillating), the result is the Cesaro mean over a trailing window of 64
    iterates, flagged with the oscillation amplitude.
    """
    _require_qubits(q)
    _check_depth(n)
    left = boundary_left(sigma_alpha, n).vec
    state = boundary_right(sigma_beta, n, parity, gate=gate).vec
    kern = _PauliColumnKernel(gate, n)
    window = []
    s_prev = float(np.dot(left, state))
    for m in range(1, ITERATION_CAP + 1):
        state = kern.apply(state)
        s = float(np.dot(left, state))
        window.append(s)
        if len(window) > CESARO_WINDOW:
            window.pop(0)
        if abs(s - s_prev) < 1e-10:
            return OtocResult(None, None, parity, s, "longtime_iterate", n=n,
                              meta={"iterations": m, "converged": True})
        s_prev = s
    tail = np.asarray(window)
    mean = float(tail.mean())
    amplitude = float(np.max(np.abs(tail - mean)))
    return OtocResult(None, None, parity, mean, "longtime_iterate", n=n,
                      meta={"iterations": ITERATION_CAP, "converged": False,
                            "amplitude": amplitude})
