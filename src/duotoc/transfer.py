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

Finite-time values share work along a diagonal of the light-cone lattice:
cells with the same t - x differ only in the number of applications, so
``otoc_finite`` remembers the overlaps of its latest trajectory per depth
and parity (floats only, no vectors) and serves the nearer cells of that
diagonal from them.  Long-time limits iterate the transposed kernel on the
left boundary, (T^T)^m L, which both parities of a depth share: one such
trajectory reads the overlaps of both right boundaries, each parity stops on
a window of settled Aitken extrapolates (else of settled overlaps), see
``_stopped_limit``, and ``otoc_longtime`` remembers the latest trajectory
per depth, with the left vector while a parity is unsettled.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
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
STOP_WINDOW = 6
TOL_STOP = 1e-10
BLOCK_FLOATS = 2 ** 16

# the column kernel's helper threads and its count of running applies, which
# are shared by every kernel in the process (see _PauliColumnKernel)
_CORES = os.cpu_count() or 1
_HELPERS = ThreadPoolExecutor(_CORES - 1, "duotoc-column") if _CORES > 1 else None
_RUNNING_LOCK = threading.Lock()
_running = 0  # applies in progress, on any thread


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
    s[chain_top, out_slots, in_slots], each slot group flattened row-major
    over d-dimensional bundle legs in column slot order.  Without ``reverse``
    bundle 1 is the slowest leg and bundle n the fastest (sheet one, slots
    1..n); with it bundle n is the slowest and bundle 1 the fastest (sheet
    two, slots n+1..2n)."""
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


def _prefix_slots(n: int, d: int) -> int:
    """Number K of leading slots whose values split the column kernel's
    d^(2n+1) middle array into blocks of at most BLOCK_FLOATS floats."""
    k = 0
    while k < 2 * n - 2 and d ** (2 * n + 1 - k) > BLOCK_FLOATS:
        k += 1
    return k


class _PauliColumnKernel:
    """Column application in the orthonormal Hermitian leg basis.

    Expanding every leg in {sigma_mu/sqrt(2)} is an exact similarity transform
    of the column: all bundle coefficients become real (the folded action of a
    unitary on a Hermitian basis has real matrix elements), the vec(1) caps
    become sqrt(2) e_0, and the crossed top cap becomes the identity bond.  One
    application contracts slots 2n down to 1, with the chain axis always
    adjacent to the slot being consumed: sheet two climbs from its bottom cap,
    the top cap passes the chain straight through, and sheet one descends to
    its bottom cap, leaving the output slots already in canonical order.  The
    slot steps run in three stages:

    * head: slots 2n and 2n-1 with sheet two's bottom cap, one dense
      d^2 x d^3 matrix;
    * middle: slots 2n-2 down to K+1, one d^2 x d^2 step each;
    * tail: slots K..1 with sheet one's bottom cap, which carries the exact
      1/q (a power of two), one dense d^K x d^(K+1) matrix.

    The head and the middle run separately for each of the d^K values of
    the prefix slots 1..K.  Such a block holds d^(2n+1-K) floats of the
    intermediate [in_1..in_s, chain, out_(s+1)..out_2n]; the head writes it
    into one of two block-sized scratch buffers, the middle steps ping-pong
    between them, so the working set stays in L2, and the last step writes
    the block into the d^(2n+1) middle array.  The tail is then one GEMM
    from the middle array into the d^(2n) output.

    K follows from the sizes alone: the smallest K <= 2n - 2 whose block is
    at most BLOCK_FLOATS floats, i.e. K = 0 at n <= 3, 1 at n = 4 and 3 at
    n = 5.

    The blocks are independent, so an apply runs on up to min(cores, d^K)
    workers: the calling thread and helpers from the module's pool of
    cores - 1 threads.  The pieces are the d^K blocks, then the tail GEMM
    split by columns of the middle array into one range per worker (each
    range reads its own columns of the middle array, where a split by rows
    would read all of it in every piece); the workers claim them in that
    order from one counter, and a tail piece starts once every block is
    written.  A helper claims a piece only while fewer applies are running,
    on any thread, than there are cores, so two applies that already fill
    two cores (the CLI's row pool at n = 5) run on their own threads as
    before.  The caller cancels the helper tasks that have not started and
    waits for those that have, so an apply never waits for a busy pool.  A
    piece runs the same matmul on the same data whichever worker claims it,
    so the output is bit-identical to a one-worker apply; at n <= 3 (one
    block) the caller runs the apply alone.  The workers compete with a
    multi-threaded BLAS for the same cores: pin BLAS to one thread (as the
    benchmark does) to gain from them.

    The buffers are the middle array, the output and one pair of scratch
    blocks per worker, one allocation of about 41 MB at n = 5 on one
    core, plus 1 MB per helper.

    ``apply``'s ``cap`` replaces the bottom caps' coefficients for one
    application (default: the identity's), which rebuilds the head and tail
    matrices; vec(sigma_beta) caps give the gate-dressed odd boundary.

    With ``transpose`` the kernel applies T^T, which carries a left vector:
    the same network with each bundle's out and in slot legs swapped,
    wp[o,u,d,i] -> wp[i,u,d,o].  The caps and the 1/q sit on chain legs, so
    they stay where they are, and (T^T l) . r = l . (T r).

    The buffers make a kernel serve one calling thread at a time (the
    helpers work inside that thread's apply); each otoc_finite call that
    runs a trajectory builds its own forward kernel and dresses its odd
    boundary with it, each otoc_longtime call that iterates builds its own
    transposed kernel.
    """

    def __init__(self, gate, n: int, transpose: bool = False):
        _check_depth(n)
        self.n = n
        self.d = d = 4
        w = _bundle_tensor(gate_matrix(gate), 2)
        wp = np.einsum("oudi,oa,ub,dc,ie->abce", w, _QMAT, _QMAT,
                       _QMAT.conj(), _QMAT.conj())
        if np.abs(wp.imag).max() > 1e-12:
            raise AssertionError("bundle is not real in the Hermitian leg basis")
        wp = wp.real.transpose(3, 1, 2, 0) if transpose else wp.real
        self._wp = wp = np.ascontiguousarray(wp)
        # sheet-two slots pair (in_slot, chain_dn) -> (chain_up, out);
        # stored transposed for the batched matmul of one step
        self._m2t = np.ascontiguousarray(
            wp.transpose(3, 2, 1, 0).reshape(d * d, d * d).T)
        # sheet-one slots pair (in_slot, chain_up) -> (chain_dn, out)
        self._m1t = np.ascontiguousarray(
            wp.transpose(3, 1, 2, 0).reshape(d * d, d * d).T)
        self.k = k = _prefix_slots(n, d)
        self._head, self._tail = self._cap_matrices(_IDENTITY_COEFFS)
        # middle array, output and every worker's scratch pair in one
        # allocation, so the small blocks share the large one's huge pages
        # (numpy asks for them from 4 MB on) instead of faulting in 4 kB
        # pages per kernel
        workers = min(_CORES, d ** k)
        m, o, b = d ** (2 * n + 1), d ** (2 * n), d ** (2 * n + 1 - k)
        buf = np.empty(m + o + 2 * b * workers)
        self._middle, self._out = buf[:m], buf[m:m + o]
        self._scratch = buf[m + o:].reshape(workers, 2, b)
        # per worker and block: the head's destination and the (matrix,
        # source, destination) of each middle step; the head writes the
        # worker's scratch[0], the steps alternate between its two blocks, and
        # the last writes the block
        self._blocks = []
        slots = range(2 * n - 2, k, -1)
        for scratch in self._scratch:
            blocks = []
            for block in self._middle.reshape(d ** k, -1):
                head_dst = src = scratch[0] if slots else block
                steps = []
                for j, s in enumerate(slots):
                    dst = block if s == k + 1 else scratch[1 - j % 2]
                    shape = (d ** (s - 1 - k), d * d, -1)
                    steps.append((self._step_matrix(s), src.reshape(shape),
                                  dst.reshape(shape)))
                    src = dst
                blocks.append((head_dst.reshape(-1, d ** 3), steps))
            self._blocks.append(blocks)
        # the tail GEMM, one piece per worker: (source, destination) column
        # ranges of the middle array and the output
        mid, out = self._middle.reshape(d ** (k + 1), -1), self._out.reshape(d ** k, -1)
        edges = [out.shape[1] * j // workers for j in range(workers + 1)]
        self._tail_cols = [(mid[:, a:z], out[:, a:z]) for a, z in zip(edges, edges[1:])]

    @property
    def dim(self) -> int:
        return self.d ** (2 * self.n)

    def _step_matrix(self, s: int) -> np.ndarray:
        return self._m2t if s > self.n else self._m1t

    def _cap_matrices(self, cap):
        """(head, tail) matrices for bottom-cap coefficients ``cap``."""
        d, n, k = self.d, self.n, self.k
        cap = np.asarray(cap, dtype=float)
        # slot 2n: bottom cap of sheet two folds into the chain_dn leg
        first = np.einsum("oudi,d->iuo", self._wp, cap)
        step = self._step_matrix(2 * n - 1).reshape(d, d, d, d)
        head = np.einsum("zoic,jcp->ijzop", step, first).reshape(d * d, d ** 3)
        # slots k..1 on the identity over (in_1..in_k, chain), then sheet one's
        # bottom cap with the 1/q normalization
        tail = np.eye(d ** (k + 1))
        for s in range(k, 0, -1):
            tail = np.matmul(self._step_matrix(s), tail.reshape(d ** (s - 1), d * d, -1))
        tail = (cap / 2.0) @ tail.reshape(d, -1)
        return head, tail.reshape(d ** k, d ** (k + 1))

    def apply(self, u: np.ndarray, cap=None) -> np.ndarray:
        """T u for a real Hermitian-basis vector u, with bottom-cap
        coefficients ``cap`` if given.  The result is a view into the
        kernel's buffers, valid until the next call; u may be that view."""
        global _running
        d, k = self.d, self.k
        head, tail = (self._head, self._tail) if cap is None else self._cap_matrices(cap)
        rows = u.reshape(d ** k, -1, d * d)
        blocks, pieces = d ** k, d ** k + len(self._tail_cols)
        lock, blocks_done = threading.Lock(), threading.Event()
        claimed = finished = 0

        def work(worker: int, helper: bool):
            """Claim and run pieces until none is left: the blocks first, then
            the tail's column ranges once every block has been written."""
            nonlocal claimed, finished
            try:
                while not helper or _running < _CORES:
                    with lock:
                        piece, claimed = claimed, claimed + 1
                    if piece >= pieces:
                        return
                    if piece < blocks:
                        head_dst, steps = self._blocks[worker][piece]
                        np.matmul(rows[piece], head, out=head_dst)
                        for mat, src, dst in steps:
                            np.matmul(mat, src, out=dst)
                        with lock:
                            finished += 1
                            if finished == blocks:
                                blocks_done.set()
                    else:
                        blocks_done.wait()
                        src, dst = self._tail_cols[piece - blocks]
                        np.matmul(tail, src, out=dst)
            except BaseException:
                # (a KeyboardInterrupt in the caller, say) stop the claims and
                # release any worker waiting for a block this one held; the
                # caller re-raises a helper's exception from its future
                with lock:
                    claimed = pieces
                blocks_done.set()
                raise

        with _RUNNING_LOCK:
            _running += 1
        try:
            helpers = [_HELPERS.submit(work, worker, True)
                       for worker in range(1, len(self._blocks))]
            try:
                work(0, False)
            finally:
                # a helper that has started finishes the piece it holds
                for future in helpers:
                    if not future.cancel():
                        future.result()
        finally:
            with _RUNNING_LOCK:
                _running -= 1
        return self._out


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


def boundary_right(sigma_beta, n: int, parity: str, gate=None, q: int = 2,
                   kernel=None) -> BoundaryVector:
    """|R_n(sigma_beta)) for the requested parity of t - x.

    even: product form, sigma_beta on the outermost slots 1 and 2n;
    odd: gate-dressed form, one normalized column with sigma_beta bottom caps
    applied to the all-identity product and scaled by q^{-n/2}.  The dressed
    form needs the circuit gate, or ``kernel``, a depth-n column kernel of it
    to make that one application with; for sigma_beta = identity both forms
    reduce to |R_n).
    """
    _require_qubits(q)
    beta = _slot_coeffs(sigma_beta)
    ident = _IDENTITY_COEFFS
    scale = 2.0 ** (-n / 2.0)
    if parity == "even":
        vec = scale * _product([beta] + [ident] * (2 * n - 2) + [beta])
    elif parity == "odd":
        if kernel is None:
            if gate is None:
                raise ValueError("the odd-parity (dressed) right boundary needs the gate")
            kernel = _PauliColumnKernel(gate, n)
        vec = scale * kernel.apply(_product([ident] * (2 * n)), cap=beta)
    else:
        raise ValueError("parity must be 'even' or 'odd'")
    return BoundaryVector(n=n, parity=parity, side="right", vec=vec,
                          op=np.asarray(sigma_beta, dtype=complex))


def _power_radius_estimate(gate, n: int, iters=200, seed=7):
    """Power-iteration estimate of the spectral radius of the depth-n column.

    The seed's complex start vector, given in the computational folded basis,
    is carried into the Hermitian leg basis by Q^T per slot; that map is
    unitary and the column kernel is the transfer matrix in that basis, so
    the norms are those of the same iteration on ``build_transfer``'s dense
    matrix.  The kernel is real, so it applies to the real and imaginary
    parts separately.
    """
    kern = _PauliColumnKernel(gate, n)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(kern.dim) + 1j * rng.standard_normal(kern.dim)
    v /= np.linalg.norm(v)
    for _ in range(2 * n):
        # Q^T on the leading slot, which then moves behind the others
        v = (_QMAT.T @ v.reshape(4, -1)).T.reshape(-1)
    growth = 0.0
    for _ in range(iters):
        # apply returns a view of the kernel's buffer: keep the real part
        w = kern.apply(v.real).copy()
        w = w + 1j * kern.apply(v.imag)
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
    raw = np.einsum("kl,kab,lcd->acbd", pcap, s1, s2, optimize=True)
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
        radius = float(_power_radius_estimate(gate, n))
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


def _memo_key(gate, sigma_alpha, sigma_beta) -> tuple:
    """The bytes of the gate and both insertions, which raises on a
    non-Hermitian insertion."""
    return tuple(op.tobytes() for op in (gate_matrix(gate), _hermitian(sigma_alpha),
                                        _hermitian(sigma_beta)))


# The latest trajectory of each (depth, parity) slot: (key, overlaps), with
# key the bytes of the gate, sigma_alpha and sigma_beta, and overlaps the
# floats (L|T^m|R) for m = 0..applications.  An entry is replaced whole, so a
# thread reads either the old tuple or the new one; threads that race on one
# slot keep their own results and at worst recompute a trajectory later.
_TRAJECTORIES = {}


def otoc_finite(gate, sigma_alpha, sigma_beta, x: int, t: int, q: int = 2) -> OtocResult:
    """C(x, t) by n_+ applications of the depth-n_- transfer matrix.

    Outside the light cone the value is 1 without computation; x < 0 is served
    by mirroring the gate (conjugation by the swap), which reflects the
    brickwork about the origin.

    Every cell with the same t - x is (L|T^m|R) at the same depth and parity,
    for some number m of applications.  A call records the overlap after
    every application and remembers that trajectory for its (depth, parity)
    slot, keyed on the bytes of the gate and both insertions, so at most
    2 N_MAX_APPLY trajectories of floats are kept.  A later call for the same
    key whose m falls within the remembered trajectory returns its overlap
    without building a boundary or a kernel; it is the float a fresh call
    computes, from the same applications on the same vector.  All argument
    checks run first, so a call raises whether or not it would be served
    from memory.  Scanning a diagonal from its farthest cell serves the rest
    of it from memory.

    ``meta["applications"]`` counts the kernel applications the call made:
    n_+ plus one for the gate-dressed odd boundary, 0 when the remembered
    trajectory served it or the cell lies outside the light cone.
    """
    _require_qubits(q)
    if t < 0:
        raise ValueError("need t >= 0")
    if abs(x) > t:
        return OtocResult(x, t, parity_tag(x, t), 1.0, "finite_transfer",
                          meta={"applications": 0})
    if x < 0:
        swap = swap_gate(2)
        mirrored = otoc_finite(swap @ gate_matrix(gate) @ swap,
                               sigma_alpha, sigma_beta, -x, t)
        return OtocResult(x, t, mirrored.parity, mirrored.value,
                          mirrored.method, n=mirrored.n, meta=mirrored.meta)
    n, applications, parity = _depths(x, t)
    _check_depth(n)
    key = _memo_key(gate, sigma_alpha, sigma_beta)
    slot = (n, parity)
    remembered = _TRAJECTORIES.get(slot)
    if remembered is not None and remembered[0] == key and applications < len(remembered[1]):
        overlaps, made = remembered[1], 0
    else:
        left = boundary_left(sigma_alpha, n).vec
        kern = _PauliColumnKernel(gate, n)
        v = boundary_right(sigma_beta, n, parity, kernel=kern).vec
        overlaps = [float(np.dot(left, v))]
        for _ in range(applications):
            v = kern.apply(v)
            overlaps.append(float(np.dot(left, v)))
        overlaps = tuple(overlaps)
        _TRAJECTORIES[slot] = (key, overlaps)
        made = applications + (parity == "odd")
    return OtocResult(x, t, parity, overlaps[applications], "finite_transfer", n=n,
                      meta={"applications": made})


def _aitken(s0: float, s1: float, s2: float):
    """(lam, e) of three successive overlaps: the ratio lam = d2/d1 of the
    increments d1 = s1 - s0, d2 = s2 - s1 and the extrapolate
    e = s2 + d2 lam/(1 - lam).  lam is None where d1 = 0; e is None there
    and where |lam| >= 1."""
    d1, d2 = s1 - s0, s2 - s1
    if d1 == 0.0:
        return None, None
    lam = d2 / d1
    if abs(lam) >= 1.0:
        return lam, None
    return lam, s2 + d2 * lam / (1.0 - lam)


def _stopped_limit(overlaps):
    """Long-time stop rule over the overlaps s_0 .. s_m (any sequence whose
    last entries are the latest): (limit, lam, span) if the iteration may
    stop at m, else None.

    Stop when the Aitken extrapolates of the last STOP_WINDOW + 1 overlap
    triples are all defined and span less than TOL_STOP, and return the last
    one; otherwise stop when the last STOP_WINDOW + 1 overlaps span less than
    TOL_STOP, and return s_m.  lam is the last increment ratio (or None),
    span the spread of the settled window.  A window rather than one
    increment keeps a single small step, where two decaying modes cross,
    from ending the iteration.
    """
    tail = list(overlaps)[-(STOP_WINDOW + 3):]
    triples = [_aitken(*tail[k:k + 3]) for k in range(len(tail) - 2)]
    lam = triples[-1][0] if triples else None
    for window in ([e for _, e in triples], tail[-(STOP_WINDOW + 1):]):
        if len(window) > STOP_WINDOW and None not in window:
            span = max(window) - min(window)
            if span < TOL_STOP:
                return window[-1], lam, span
    return None


# The latest left trajectory of each depth n: (key, m, states, left), with key
# as in _TRAJECTORIES, m the number of transposed applications made, states a
# dict mapping each parity to its settled OtocResult or, while it is
# unsettled, the tuple of its trailing overlaps (at most CESARO_WINDOW), and
# left an owned copy of (T^T)^m L while some parity is unsettled, else None.
# Nothing stored is changed afterwards and an entry is replaced whole, so a
# thread reads either the old tuple or the new one; threads that race on one
# depth keep their own results and at worst repeat applications later.
_LEFT_TRAJECTORIES = {}


def _settled(overlaps, m: int, n: int, parity: str):
    """The OtocResult of a parity whose overlaps s_0 .. s_m end in
    ``overlaps``, or None while it may not stop at m (see otoc_longtime)."""
    stop = _stopped_limit(overlaps)
    if stop is not None:
        value, lam, span = stop
        return OtocResult(None, None, parity, value, "longtime_iterate", n=n,
                          meta={"iterations": m, "converged": True,
                                "lambda": lam, "error_estimate": span})
    if m < ITERATION_CAP:
        return None
    tail = np.asarray(overlaps)
    mean = float(tail.mean())
    amplitude = float(np.max(np.abs(tail - mean)))
    return OtocResult(None, None, parity, mean, "longtime_iterate", n=n,
                      meta={"iterations": ITERATION_CAP, "converged": False,
                            "amplitude": amplitude})


def otoc_longtime(gate, sigma_alpha, sigma_beta, n: int, parity: str,
                  q: int = 2) -> OtocResult:
    """lim_{m -> inf} (L(sigma_alpha)| T^m |R(sigma_beta)) by iterated
    application of the transposed column kernel to the left boundary.

    The iterate l_m = (T^T)^m L starts as the left boundary's
    ``BoundaryVector.vec`` and stays in the real Hermitian leg basis
    (Q^dagger per slot); the overlap s_m = l_m . R is a plain dot product
    with the right boundary's vec (Q^T per slot).  Both parities of a depth
    share T and L, so one trajectory reads the overlaps of every parity not
    yet settled, and each parity stops on its own overlaps by the rule of
    ``_stopped_limit``: a window of STOP_WINDOW + 1 Aitken extrapolates that
    agree to TOL_STOP (the value is the last extrapolate), else a window of
    overlaps that agree to TOL_STOP (the value is the last overlap).

    The latest trajectory of each depth is remembered, keyed on the bytes of
    the gate and both insertions: the settled results, the other parity's
    trailing overlaps, and a copy of l_m while that parity is unsettled (8 MB
    at n = 5).  A later call for a settled parity returns its result without
    an application; one for the unsettled parity resumes from l_m.  A call
    applies the kernel only until its own parity stops, and its result is
    the float a call on an empty memory computes, from the same applications
    on the same vectors.  All argument checks run before the lookup.

    ``meta`` holds ``iterations`` (the m at which the parity stopped),
    ``converged`` (True), ``lambda``, the last ratio of successive increments
    (None where an increment is zero), ``error_estimate``, the spread of the
    settled window, and ``applications``, the kernel applications this call
    made: the transposed ones past the remembered m plus one for each
    gate-dressed odd boundary it built, 0 when it was served from memory.
    The error estimate is not a bound, and it can be far too small where the
    decay is slow.  For ``random_dual_unitary(7)``, sigma = sigma_x, at
    n = 3 (lambda = 0.9942) the error against the exact limits is 16 times
    the estimate for even parity and 34 times for odd (about 1.6e-9 and
    3.3e-9).  If the iteration cap is hit (unit-modulus eigenvalues keep the
    overlap oscillating), the result is the Cesaro mean over a trailing
    window of 64 overlaps, flagged with ``converged`` False and the
    oscillation amplitude.
    """
    _require_qubits(q)
    _check_depth(n)
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    key = _memo_key(gate, sigma_alpha, sigma_beta)
    remembered = _LEFT_TRAJECTORIES.get(n)
    if remembered is not None and remembered[0] == key:
        _, m, states, left = remembered
    else:
        m, states, left = 0, {"even": (), "odd": ()}, boundary_left(sigma_alpha, n).vec
    applications = 0
    if not isinstance(states[parity], OtocResult):
        states = dict(states)
        # every unsettled parity's right boundary; the odd one's forward kernel
        # is freed before the transposed kernel is allocated
        rights = {p: boundary_right(sigma_beta, n, p, gate=gate).vec
                  for p, state in states.items() if not isinstance(state, OtocResult)}
        applications = sum(p == "odd" for p in rights)
        windows = {p: deque(states[p] if m else [float(np.dot(left, rights[p]))],
                            maxlen=CESARO_WINDOW) for p in rights}
        kern = _PauliColumnKernel(gate, n, transpose=True)
        while parity in windows:
            left = kern.apply(left)
            m += 1
            applications += 1
            for p in list(windows):
                windows[p].append(float(np.dot(left, rights[p])))
                result = _settled(windows[p], m, n, p)
                if result is not None:
                    states[p] = result
                    del windows[p]
        states.update((p, tuple(window)) for p, window in windows.items())
        _LEFT_TRAJECTORIES[n] = (key, m, states, left.copy() if windows else None)
    result = states[parity]
    return OtocResult(None, None, parity, result.value, result.method, n=n,
                      meta={**result.meta, "applications": applications})
