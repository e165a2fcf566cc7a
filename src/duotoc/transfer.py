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
  odd-parity right boundary, see ``_right_factors``); the top cap ties the two
  sheets with a crossed delta;
* transfer slots 1..n are sheet one of bundles 1..n, slots 2n..n+1 are sheet
  two of the same bundles; bundle n is the innermost (sigma_alpha-adjacent).

The normalized transfer matrix is the raw contraction divided by q (each
bundle passes the folded identity through losslessly, so only the top cap
contributes a scalar); it then satisfies T|R_n) = |R_n) and (L_n|T = (L_n| for
every unitary gate, with the fixed points the boundaries of the identity
(``fixed_right``, ``fixed_left``).  All overlaps are bilinear (no
conjugation), so the left identity reads T.T @ L = L.

One basis carries the column: the orthonormal Hermitian leg basis
{sigma_mu / sqrt(2)} on every slot (see _PauliColumnKernel), where all
numbers are real.  The boundary vectors, ``otoc_finite``, ``otoc_longtime``
and the dense ``build_transfer`` all work in it.  Let Q be the unitary whose
columns are vec(sigma_mu)/sqrt(2), in the complex computational folded basis
(slot index u*q + ubar).  ``boundary_right`` returns a right boundary as
the coefficients Q^T v of its complex vector v and ``boundary_left`` a left
boundary as Q^dagger l, slot by slot; their plain dot product equals the
bilinear overlap of the complex vectors.  ``build_transfer`` returns the
complex-basis matrix T in the same basis, Q^T T conj(Q) slot by slot, so it
carries the right coefficients and its transpose the left ones.  Every
entry point checks its gate and insertions once, with the package's input
rule (``gates._checked_inputs``): a gate that is not 4 x 4, an insertion
that is not 2 x 2 or one that is not Hermitian, whose coefficients would
not be real, raises.  The private builders behind the entry points
(``_slot_coeffs``, ``_pair_block``, ``_right_factors``, ``_memo_key``) take
the checked arrays and check nothing.

Every OTOC cell at depth n, finite-time or long-time, is an overlap
(L|T^m|R) with the same column T and the same left boundary L; only m and
the parity of the right boundary differ.  So one trajectory per depth
serves them all: the column kernel, which applies T^T, iterates the left
boundary in place, l_m = (T^T)^m L, and each step reads the overlaps
l_m . R of both parities from the right boundaries' factors across the top
cap, R = sum_t P_t (x) S_t (see ``_right_factors``), never from a dense
right vector.  The module remembers the latest trajectory of each depth:
the overlaps of both parities for m = 0..M, the snapshots (two overlaps
and a 125-float sketch each) of the last 32 steps, l_M itself, and each
parity's long-time stop.  Every step the trajectory records settles both
parities at once: a parity stops at the first m at which a window of
Aitken extrapolates (else of overlaps) has settled or a matrix-pencil fit
of the trailing snapshots is accepted (see ``_settle``).  ``otoc_finite``
reads a cell with m <= M and ``otoc_longtime`` a parity that has stopped
from the remembered trajectory; either extends it when it does not reach
far enough.  A trajectory is remembered under its key: the bytes of the
gate and both insertions, and the stop settings under which its stops were
made (``ITERATION_CAP``, the Aitken window's and the sketched stop's
constants; see ``_memo_key``), so a call under other settings starts afresh
rather than read a stop that they would not have made.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .gates import _checked_inputs, gate_matrix
from .opalg import PAULI, TOL_EIG, _integer, swap_gate

TOL_FIXED = 1e-10
TOL_RADIUS = 1e-8
N_MAX_DENSE = 3
N_MAX_APPLY = 5
ITERATION_CAP = 10_000
CESARO_WINDOW = 64
STOP_WINDOW = 6
TOL_STOP = 1e-10
BLOCK_FLOATS = 2 ** 16
# the sketched stop (see _accepted_fit): Gaussian rows per right-boundary term,
# the two fit windows, the held-out snapshots, the relative SVD truncation,
# the held-out residual and the decay every non-unit Ritz value must show
# across a window
SKETCH_ROWS = 25
SKETCH_WINDOWS = (20, 30)
SKETCH_HOLD = 2
TOL_RANK = 1e-13
TOL_HELD_OUT = 3e-11
SKETCH_GAP = 0.1

# the column kernel's helper threads, shared by every kernel in the process
# (see _PauliColumnKernel)
_CORES = os.cpu_count() or 1
_HELPERS = ThreadPoolExecutor(_CORES - 1, "duotoc-column") if _CORES > 1 else None


def _bundle_tensor(u: np.ndarray) -> np.ndarray:
    """W = U (x) U* of a 4 x 4 gate as w[out_slot, chain_up, chain_dn, in_slot]
    over folded legs (u, ubar) -> u*2 + ubar."""
    u4 = u.reshape(2, 2, 2, 2)
    return np.einsum("abcd,efgh->aebfcgdh", u4, u4.conj()).reshape(4, 4, 4, 4)


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
_QMAT = np.stack([m.reshape(4) / np.sqrt(2.0) for m in PAULI], axis=1)


def _slot_coeffs(op: np.ndarray) -> np.ndarray:
    """Product-slot coefficients Q^T vec(X) = tr(sigma_mu^T X)/sqrt(2) of a
    checked Hermitian X, where they are real; the identity maps to
    sqrt(2) e_0.  A bra slot, Q^dagger vec(X^T), has the same coefficients."""
    return np.ascontiguousarray((_QMAT.T @ op.reshape(4)).real)


_IDENTITY_COEFFS = _slot_coeffs(np.eye(2))


def _pair_block(x: np.ndarray) -> np.ndarray:
    """Pairing block tying two slots through a checked Hermitian X, on
    either side: B[mu, nu] = tr(sigma_mu^T X sigma_nu^T X)/2, which is real;
    the identity pairing is the 4x4 identity.  It is the bra block below
    under Q^dagger per slot and equally the ket block X[u,vbar] X[v,ubar]
    under Q^T per slot."""
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


def _hermitian_bundle(gate) -> np.ndarray:
    """The bundle w[out_slot, chain_up, chain_dn, in_slot] of the gate in the
    orthonormal Hermitian leg basis, where it is real.

    The bundle is derived once per gate and shared read-only: the derivation
    is cached on the bytes and dtype of ``gate_matrix(gate)``, so equal gates,
    as a Gate or as a raw matrix, share one array, and a gate changed in
    place gets a fresh derivation.  The cache keeps two bundles, the least
    recently used leaving first."""
    u = gate_matrix(gate)
    return _derived_bundle(u.tobytes(), u.dtype.str)


# two bundles (256 floats each): a scan reads one gate, and otoc_finite's
# x < 0 cells the mirrored gate
@lru_cache(maxsize=2)
def _derived_bundle(raw: bytes, dtype: str) -> np.ndarray:
    """The read-only bundle of the gate whose matrix has these bytes and
    dtype (see _hermitian_bundle)."""
    w = _bundle_tensor(np.frombuffer(raw, dtype))
    wp = np.einsum("oudi,oa,ub,dc,ie->abce", w, _QMAT, _QMAT,
                   _QMAT.conj(), _QMAT.conj())
    if np.abs(wp.imag).max() > 1e-12:
        raise AssertionError("bundle is not real in the Hermitian leg basis")
    wp = wp.real
    wp.flags.writeable = False
    return wp


class _PauliColumnKernel:
    """Application of the transposed column T^T in the orthonormal Hermitian
    leg basis, which carries a left vector: (T^T l) . r = l . (T r).

    Expanding every leg in {sigma_mu/sqrt(2)} is an exact similarity transform
    of the column: all bundle coefficients become real (the folded action of a
    unitary on a Hermitian basis has real matrix elements), the vec(1) caps
    become sqrt(2) e_0, and the crossed top cap becomes the identity bond.
    T^T is the same network with each bundle's out and in slot legs swapped,
    wp[o,u,d,i] -> wp[i,u,d,o]; the caps and the 1/q sit on chain legs, so
    they stay where they are.  One application contracts slots 2n down to 1,
    with the chain axis always adjacent to the slot being consumed: sheet
    two climbs from its bottom cap, the top cap passes the chain straight
    through, and sheet one descends to its bottom cap, leaving the output
    slots already in canonical order.  The slot steps run in three stages:

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
    from the middle array back into the input vector: ``apply`` works in
    place, since every block has read its rows of u before the tail starts.

    K follows from the sizes alone: the smallest K <= 2n - 2 whose block is
    at most BLOCK_FLOATS floats, i.e. K = 0 at n <= 3, 1 at n = 4 and 3 at
    n = 5.

    The blocks are independent, so an apply runs on up to min(cores, d^K)
    workers: the calling thread and helpers from the module's pool of
    cores - 1 threads.  The pieces are the d^K blocks, then the tail GEMM
    split by columns of the middle array into one range per worker (each
    range reads its own columns of the middle array, where a split by rows
    would read all of it in every piece); the workers claim them in that
    order from one counter until none is left, and a tail piece starts once
    every block is written.  The caller cancels the helper tasks that have
    not started and waits for those that have, so an apply never waits for
    a busy pool.  A piece runs the same matmul on the same data whichever
    worker claims it, so the output is bit-identical to a one-worker apply.
    A kernel with one worker (n <= 3, or one core) runs its blocks and its
    one tail piece directly, without the claim counter.  The workers
    compete with a multi-threaded BLAS for the same cores: pin BLAS to one
    thread (as the benchmark does) to gain from them.

    The buffers are the middle array and one pair of scratch blocks per
    worker, one allocation of about 35 MB at n = 5 on one core, plus 1 MB
    per helper.  They make a kernel serve one calling thread at a time (the
    helpers work inside that thread's apply); each extension of a depth's
    trajectory builds its own kernel (see _trajectory_until).  The kernels
    of one gate read the same bundle, derived once per gate and read-only
    (see _hermitian_bundle), and copy what they need of it.
    """

    def __init__(self, gate, n: int):
        _check_depth(n)
        self.n = n
        self.d = d = 4
        wp = np.ascontiguousarray(_hermitian_bundle(gate).transpose(3, 1, 2, 0))
        # sheet-two slots pair (in_slot, chain_dn) -> (chain_up, out);
        # stored transposed for the batched matmul of one step
        self._m2t = np.ascontiguousarray(
            wp.transpose(3, 2, 1, 0).reshape(d * d, d * d).T)
        # sheet-one slots pair (in_slot, chain_up) -> (chain_dn, out)
        self._m1t = np.ascontiguousarray(
            wp.transpose(3, 1, 2, 0).reshape(d * d, d * d).T)
        self.k = k = _prefix_slots(n, d)
        cap = _IDENTITY_COEFFS
        # head: slot 2n's bottom cap of sheet two folds into the chain_dn leg
        first = np.einsum("oudi,d->iuo", wp, cap)
        step = self._step_matrix(2 * n - 1).reshape(d, d, d, d)
        self._head = np.einsum("zoic,jcp->ijzop", step, first).reshape(d * d, d ** 3)
        # tail: slots k..1 on the identity over (in_1..in_k, chain), then
        # sheet one's bottom cap with the 1/q normalization
        tail = np.eye(d ** (k + 1))
        for s in range(k, 0, -1):
            tail = np.matmul(self._step_matrix(s), tail.reshape(d ** (s - 1), d * d, -1))
        self._tail = ((cap / 2.0) @ tail.reshape(d, -1)).reshape(d ** k, d ** (k + 1))
        # middle array and every worker's scratch pair in one allocation, so
        # the small blocks share the large one's huge pages (numpy asks for
        # them from 4 MB on) instead of faulting in 4 kB pages per kernel
        workers = min(_CORES, d ** k)
        m, b = d ** (2 * n + 1), d ** (2 * n + 1 - k)
        buf = np.empty(m + 2 * b * workers)
        self._middle = buf[:m]
        self._scratch = buf[m:].reshape(workers, 2, b)
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
        # the tail GEMM, one piece per worker: a column range of the middle
        # array and the same columns of the output
        mid = self._middle.reshape(d ** (k + 1), -1)
        edges = [mid.shape[1] * j // workers for j in range(workers + 1)]
        self._tail_cols = [(mid[:, a:z], slice(a, z)) for a, z in zip(edges, edges[1:])]

    @property
    def dim(self) -> int:
        return self.d ** (2 * self.n)

    def _step_matrix(self, s: int) -> np.ndarray:
        return self._m2t if s > self.n else self._m1t

    def _run_block(self, worker: int, piece: int, rows: np.ndarray):
        """Head and middle steps of one prefix block, in the worker's scratch."""
        head_dst, steps = self._blocks[worker][piece]
        np.matmul(rows[piece], self._head, out=head_dst)
        for mat, src, dst in steps:
            np.matmul(mat, src, out=dst)

    def _run_tail(self, piece: int, out: np.ndarray):
        src, cols = self._tail_cols[piece]
        np.matmul(self._tail, src, out=out[:, cols])

    def apply(self, u: np.ndarray) -> None:
        """Overwrite u, a real Hermitian-basis vector, with T^T u.

        u must be a writable C-contiguous float64 vector of length ``dim``;
        anything else raises ValueError, since reshaping it (a strided view
        such as ``v.real``, say) could make a copy and lose the result."""
        if not (isinstance(u, np.ndarray) and u.dtype == np.float64
                and u.shape == (self.dim,) and u.flags.c_contiguous
                and u.flags.writeable):
            raise ValueError(
                f"apply overwrites its argument: need a writable C-contiguous "
                f"float64 vector of length {self.dim}")
        d, k = self.d, self.k
        rows, out = u.reshape(d ** k, -1, d * d), u.reshape(d ** k, -1)
        blocks = d ** k
        if len(self._blocks) == 1:
            for piece in range(blocks):
                self._run_block(0, piece, rows)
            self._run_tail(0, out)
            return
        pieces = blocks + len(self._tail_cols)
        lock, blocks_done = threading.Lock(), threading.Event()
        claimed = finished = 0

        def work(worker: int):
            """Claim and run pieces until none is left: the blocks first, then
            the tail's column ranges once every block has been written."""
            nonlocal claimed, finished
            try:
                while True:
                    with lock:
                        piece, claimed = claimed, claimed + 1
                    if piece >= pieces:
                        return
                    if piece < blocks:
                        self._run_block(worker, piece, rows)
                        with lock:
                            finished += 1
                            if finished == blocks:
                                blocks_done.set()
                    else:
                        blocks_done.wait()
                        self._run_tail(piece - blocks, out)
            except BaseException:
                # (a KeyboardInterrupt in the caller, say) stop the claims and
                # release any worker waiting for a block this one held; the
                # caller re-raises a helper's exception from its future
                with lock:
                    claimed = pieces
                blocks_done.set()
                raise

        helpers = [_HELPERS.submit(work, worker) for worker in range(1, len(self._blocks))]
        try:
            work(0)
        finally:
            # a helper that has started finishes the piece it holds
            for future in helpers:
                if not future.cancel():
                    future.result()


def fixed_right(n: int) -> np.ndarray:
    """|R_n) = 2^{-n/2} |1 ... 1): the even right boundary of the identity."""
    return boundary_right(np.eye(2), n, "even")


def fixed_left(n: int) -> np.ndarray:
    """(L_n| = 2^{-n/2} nested identity pairings tying slots j and 2n+1-j:
    the left boundary of the identity."""
    return boundary_left(np.eye(2), n)


def boundary_left(sigma_alpha, n: int) -> np.ndarray:
    """(L_n(sigma_alpha)|: nested pairings tying slots j and 2n+1-j, identity
    insertions except the innermost pairing, which carries sigma_alpha; a
    real vector in the Hermitian leg basis (see the module docstring)."""
    n = _integer("n", n)
    _check_depth(n)
    (sigma_alpha,) = _checked_inputs(None, sigma_alpha)
    vec = _pair_block(sigma_alpha).reshape(-1)
    identity_pair = np.eye(4)
    for _ in range(n - 1):
        # wrap the next pairing around the slots built so far
        vec = (identity_pair[:, None, :] * vec[None, :, None]).reshape(-1)
    vec *= 2.0 ** (-n / 2.0)
    return vec


def _right_factors(sigma_beta: np.ndarray, n: int, parity: str, gate=None):
    """(P, S), rows P[t] over slots 1..n and S[t] over slots n+1..2n with
    |R_n(sigma_beta)) = sum_t P[t] (x) S[t] for the requested parity of
    t - x (see ``boundary_right``), in the Hermitian leg basis, for a
    checked gate and sigma_beta.

    even: one term, sigma_beta on slot 1 (in P, with the scale q^{-n/2}) and
    on slot 2n (in S).
    odd: the dressed column on the all-identity product splits across its
    top cap, the identity bond t = 0..3 between the sheets.  Each sheet is a
    chain of n bundles with the identity's coefficients on the in-slots and
    sigma_beta's on the bottom cap: S[t] is sheet two's, with chain_up t at
    slot n + 1, and P[t] is the same chain read from slot n down to slot 1
    (the slot reversal exchanges the sheets) times sheet one's 1/q and
    q^{-n/2}.  That is O(4^n) work and needs no column kernel.
    """
    beta = _slot_coeffs(sigma_beta)
    ident = _IDENTITY_COEFFS
    scale = 2.0 ** (-n / 2.0)
    if parity == "even":
        p = scale * _product([beta] + [ident] * (n - 1))
        return p[None], _product([ident] * (n - 1) + [beta])[None]
    if parity != "odd":
        raise ValueError("parity must be 'even' or 'odd'")
    if gate is None:
        raise ValueError("the odd-parity (dressed) right boundary needs the gate")
    # the bundle with the identity on its in-slot: c[out, chain_up, chain_dn]
    c = _hermitian_bundle(gate) @ ident
    sheet = (c @ beta).T  # [chain_up, out] of the bundle on the bottom cap
    for _ in range(n - 1):
        # the next bundle up takes the chain in at chain_dn; its out slot leads
        sheet = np.einsum("oud,dr->uor", c, sheet).reshape(4, -1)
    p = sheet.reshape((4,) * (n + 1)).transpose(0, *range(n, 0, -1)).reshape(4, -1)
    return (scale / 2.0) * p, sheet


def boundary_right(sigma_beta, n: int, parity: str, gate=None) -> np.ndarray:
    """|R_n(sigma_beta)) for the requested parity of t - x, a real vector in
    the Hermitian leg basis (see the module docstring).

    even: product form, sigma_beta on the outermost slots 1 and 2n;
    odd: gate-dressed form, one normalized column with sigma_beta bottom caps
    applied to the all-identity product and scaled by q^{-n/2}.  The dressed
    form needs the circuit gate; for sigma_beta = identity both forms reduce
    to |R_n).  The vector is sum_t P[t] (x) S[t] of ``_right_factors``, which
    the trajectories read without forming it.
    """
    n = _integer("n", n)
    _check_depth(n)
    (sigma_beta,) = _checked_inputs(gate, sigma_beta)
    p, s = _right_factors(sigma_beta, n, parity, gate)
    return (p.T @ s).reshape(-1)


def _power_radius_estimate(kern):
    """Power-iteration estimate, over 200 applications, of the spectral
    radius of the column, on the kernel ``kern``, which applies T^T.

    The complex start vector of seed 7 is drawn in the complex computational
    folded basis and carried into the Hermitian leg basis by Q^dagger per
    slot, as a left vector.  That map is unitary, so the norms are those of
    the same iteration on the transpose of the complex-basis transfer
    matrix.  The kernel is real, so it applies to the real and imaginary
    parts separately.
    """
    rng = np.random.default_rng(7)
    v = rng.standard_normal(kern.dim) + 1j * rng.standard_normal(kern.dim)
    v /= np.linalg.norm(v)
    for _ in range(2 * kern.n):
        # Q^dagger on the leading slot, which then moves behind the others
        v = (_QMAT.conj().T @ v.reshape(4, -1)).T.reshape(-1)
    growth = 0.0
    for _ in range(200):
        # apply overwrites its argument: give it owned copies of both parts
        re, im = v.real.copy(), v.imag.copy()
        kern.apply(re)
        kern.apply(im)
        w = re + 1j * im
        nrm = np.linalg.norm(w)
        if nrm < 1e-300:
            return 0.0
        growth = nrm
        v = w / nrm
    return growth


def build_transfer(gate, n: int) -> np.ndarray:
    """Dense depth-n transfer matrix ``mat``, real and in the Hermitian leg
    basis, with fixed-point and spectral-radius checks at construction.

    Row j of ``mat`` is the column kernel, which applies T^T, applied in
    place to that row set to the j-th unit vector: T^T e_j is row j of T.
    The column commutes with the slot reversal R, j <-> 2n + 1 - j, which
    exchanges the two sheets: T^T e_j = R T^T e_(R j).  So only the
    (16^n + 4^n)/2 unit vectors with j <= R j are applied (2,080 of 4,096 at
    n = 3), and row j > R j is row R j permuted by R.  The checks:
    ``mat`` fixes ``fixed_right(n)``, ``mat.T`` fixes ``fixed_left(n)``,
    ``mat.T`` times a random vector is the kernel's apply of it (which
    covers the rows filled through R), and the spectral radius is at most 1,
    from the eigenvalues at n <= 2 and from a power iteration on the kernel
    at n = 3.  Materialization is restricted
    to 16^n <= 4096 (n <= 3); the matrix-free kernel behind
    otoc_finite/otoc_longtime serves deeper columns.
    """
    n = _integer("n", n)
    _checked_inputs(gate)
    if n < 1:
        raise ValueError("need n >= 1")
    dim = 16 ** n
    if n > N_MAX_DENSE:
        raise ValueError(
            f"dense transfer at n={n} (dim {dim}) exceeds the materialization "
            f"budget (n <= {N_MAX_DENSE}); use otoc_finite or otoc_longtime instead"
        )
    kern = _PauliColumnKernel(gate, n)
    # the slot reversal R as a permutation of the basis
    rev = np.arange(dim).reshape((4,) * (2 * n)).transpose(range(2 * n - 1, -1, -1)).reshape(-1)
    mat = np.zeros((dim, dim))
    for j, row in enumerate(mat):
        if rev[j] < j:
            row[:] = mat[rev[j], rev]
            continue
        row[j] = 1.0
        kern.apply(row)  # the unit vector, overwritten by its row of T

    rvec = fixed_right(n)
    lvec = fixed_left(n)
    if np.linalg.norm(mat @ rvec - rvec) > TOL_FIXED:
        raise AssertionError("transfer construction lost the right fixed point")
    if np.linalg.norm(mat.T @ lvec - lvec) > TOL_FIXED:
        raise AssertionError("transfer construction lost the left fixed point")
    probe = np.random.default_rng(7).standard_normal(dim)
    want, tol = mat.T @ probe, TOL_FIXED * np.linalg.norm(probe)
    kern.apply(probe)
    if np.linalg.norm(want - probe) > tol:
        raise AssertionError("transfer construction does not match the column kernel")

    if dim <= 256:
        radius = float(np.max(np.abs(np.linalg.eigvals(mat))))
        if radius > 1.0 + TOL_RADIUS:
            raise AssertionError(f"transfer spectral radius {radius} exceeds 1")
    else:
        radius = float(_power_radius_estimate(kern))
        if radius > 1.0 + 1e-6:
            raise AssertionError(f"transfer spectral radius estimate {radius} exceeds 1")
    return mat


@dataclass
class OtocResult:
    """A transfer-route OTOC: its value, the depth n it was read at (None
    outside the light cone) and ``meta``, how it was computed."""

    value: float
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


def _memo_key(gate, sigma_alpha: np.ndarray, sigma_beta: np.ndarray) -> tuple:
    """The bytes of the gate and both checked insertions, then every stop
    setting that _settle, _fit_due and a step's record read: a stored stop
    is served only under the settings that made it."""
    return (*(op.tobytes() for op in (gate_matrix(gate), sigma_alpha, sigma_beta)),
            ITERATION_CAP, CESARO_WINDOW, STOP_WINDOW, TOL_STOP, N_MAX_APPLY, TOL_EIG,
            SKETCH_ROWS, SKETCH_WINDOWS, SKETCH_HOLD, TOL_RANK, TOL_HELD_OUT, SKETCH_GAP)


PARITIES = ("even", "odd")


class _Trajectory(NamedTuple):
    """Depth n's trajectory for ``key`` (see _memo_key) after m applications
    of T^T, settled at every step.

    ``overlaps`` maps each parity to the floats (L|T^k|R_parity), k = 0..m;
    ``snapshots`` holds the snapshots of the trailing steps that a fit reads,
    at most max(SKETCH_WINDOWS) + SKETCH_HOLD: a step's two overlaps, then
    the Gaussian sketch of its product with the right factors (see
    _trajectory_until); ``left`` is l_m = (T^T)^m L; ``stops`` maps each
    parity to its OtocResult at the first m at which it stopped, or None
    (see _settle); ``lambda2`` is the |lambda_2| of the latest fit that
    measured one, or None.
    """

    key: tuple
    overlaps: dict
    snapshots: deque
    left: np.ndarray
    stops: dict
    lambda2: float

    @property
    def m(self) -> int:
        return len(self.overlaps["even"]) - 1


# The latest _Trajectory of each depth n, whose left vector the entry owns.
# No entry changes once stored, but for l_m: _trajectory_until pops an entry
# before it applies the kernel to its l_m in place, and stores a new one.
_TRAJECTORY_MEMO = {}


@lru_cache(maxsize=None)
def _sketch_rows(n: int, rows: int) -> np.ndarray:
    """The fixed-seed Gaussian rows, min(rows, 4^n) x 4^n, that compress
    each column of a step's product with the right factors; the caller
    passes SKETCH_ROWS."""
    rows = min(rows, 4 ** n)
    omega = np.random.default_rng(0).standard_normal((rows, 4 ** n)) / np.sqrt(rows)
    omega.flags.writeable = False
    return omega


def _trajectory_until(gate, sigma_alpha, sigma_beta, n: int, done):
    """(depth n's trajectory for the checked gate and insertions at which
    ``done(trajectory)`` holds, applications of the column kernel (T^T)
    made): the remembered entry if it is for their key (see _memo_key) and
    done, else that entry or a trajectory started at the left boundary,
    extended until done and remembered.

    The call pops the depth's entry before the first application, which
    overwrites its l_m, so a failed extension leaves no entry whose m and
    l_m disagree, and no other thread resumes the same vector.  It resumes
    only an entry it popped, into copies of its lists, so an entry another
    thread read stays as it was; l_m goes back into the memory uncopied.
    Each step forms one GEMM of l_m, as a 4^n x 4^n matrix over slots
    (1..n, n+1..2n), with the S factors of both right boundaries: G, 4^n x 5
    (one column per factor term).  Its contraction with the P factors gives
    both parities' overlaps (see _right_factors), and the fixed Gaussian
    rows of ``_sketch_rows`` times G the step's sketch, 125 floats at
    n >= 3.  The two make the step's snapshot, and _settle settles both
    parities at the step.
    """
    key = _memo_key(gate, sigma_alpha, sigma_beta)
    entry = _TRAJECTORY_MEMO.get(n)
    if entry is not None and entry.key == key and done(entry):
        return entry, 0
    entry = _TRAJECTORY_MEMO.pop(n, None)
    factors = [_right_factors(sigma_beta, n, p, gate) for p in PARITIES]
    p_all = np.concatenate([p for p, _ in factors])
    s_all_t = np.concatenate([s for _, s in factors]).T
    even_terms, half = len(factors[0][0]), 4 ** n
    omega = _sketch_rows(n, SKETCH_ROWS)
    window = max(SKETCH_WINDOWS) + SKETCH_HOLD

    def record(trajectory):
        """The trajectory with the step at its l_m recorded and settled."""
        g = trajectory.left.reshape(half, half) @ s_all_t
        terms = np.einsum("at,ta->t", g, p_all)
        pair = (float(terms[:even_terms].sum()), float(terms[even_terms:].sum()))
        for p, s in zip(PARITIES, pair):
            trajectory.overlaps[p].append(s)
        trajectory.snapshots.append(np.concatenate((pair, (omega @ g).reshape(-1))))
        return _settle(trajectory, n)

    if entry is not None and entry.key == key:
        growing = entry._replace(overlaps={p: list(entry.overlaps[p]) for p in PARITIES},
                                 snapshots=deque(entry.snapshots, window))
    else:
        growing = record(_Trajectory(key, {p: [] for p in PARITIES}, deque(maxlen=window),
                                     boundary_left(sigma_alpha, n),
                                     dict.fromkeys(PARITIES), None))
    start = growing.m
    kern = _PauliColumnKernel(gate, n)
    while not done(growing):
        kern.apply(growing.left)
        growing = record(growing)
    _TRAJECTORY_MEMO[n] = growing
    return growing, growing.m - start


def otoc_finite(gate, sigma_alpha, sigma_beta, x: int, t: int) -> OtocResult:
    """C(x, t) by n_+ applications of the depth-n_- transfer matrix.

    Outside the light cone the value is 1 without computation; x < 0 is served
    by mirroring the gate (conjugation by the swap), which reflects the
    brickwork about the origin.

    The cell is (L|T^m|R) at depth n = n_- with m = n_+, read from the
    depth's trajectory as l_m . R (see the module docstring).  A cell whose
    m lies within the remembered trajectory of the same key (the bytes of
    the gate and insertions, and the stop settings; see _memo_key) is read
    without building a boundary or a kernel;
    otherwise the call extends the trajectory to m.  Either way the value is
    the float a call on an empty memory computes, from the same applications
    on the same vectors.  All argument checks run first, so a call raises
    whether or not it would be served from memory or lies outside the light
    cone.  Asking for each depth's cell with the largest m first serves the
    rest of a scan from memory.

    ``meta["applications"]`` counts the kernel applications the call made:
    the applications past the remembered m, 0 when the
    remembered trajectory served it or the cell lies outside the light cone.
    """
    x, t = _integer("x", x), _integer("t", t)
    sigma_alpha, sigma_beta = _checked_inputs(gate, sigma_alpha, sigma_beta)
    if t < 0:
        raise ValueError("need t >= 0")
    if abs(x) > t:
        return OtocResult(1.0, meta={"applications": 0})
    if x < 0:
        swap = swap_gate()
        gate, x = swap @ gate_matrix(gate) @ swap, -x
    n, m, parity = _depths(x, t)
    _check_depth(n)
    trajectory, made = _trajectory_until(gate, sigma_alpha, sigma_beta, n,
                                         lambda tr: tr.m >= m)
    return OtocResult(trajectory.overlaps[parity][m], n=n, meta={"applications": made})


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


def _window_fit(snapshots: np.ndarray):
    """Matrix-pencil (DMD) fit of the snapshots z_0 .. z_(w-1) (rows: a
    step's two overlaps, then its sketch) that lead ``snapshots``, checked
    on the SKETCH_HOLD that follow them: (held-out residual, Ritz values by
    descending modulus, the two overlap rows of the unit mode or None,
    |lambda_2|), or None for an all-zero window or a held-out residual of
    TOL_HELD_OUT or more.

    The fit works in the coordinates of the leading left singular vectors U
    of [z_0 .. z_(w-2)], truncated at TOL_RANK of the largest singular
    value: A = U^T [z_1 .. z_(w-1)] V S^-1 carries U^T z_k to U^T z_(k+1).
    Its eigenvalues are the Ritz values.  The residual is the largest
    relative miss of U A^k U^T z_(w-1) against the held-out z_(w-1+k).  The
    unit mode is the one Ritz value within TOL_EIG of 1 (None unless there
    is exactly one); its overlap rows are the first two entries of its
    eigenvector's component of z_(w-1).  |lambda_2| is the largest modulus
    of the other Ritz values (0 if there is none).
    """
    fit, held = snapshots[:-SKETCH_HOLD], snapshots[-SKETCH_HOLD:]
    u, sv, vt = np.linalg.svd(fit[:-1].T, full_matrices=False)
    rank = int(np.count_nonzero(sv > TOL_RANK * sv[0]))
    if rank == 0:
        return None
    u, sv, vt = u[:, :rank], sv[:rank], vt[:rank]
    pencil = (u.T @ fit[1:].T @ vt.T) / sv
    coords = u.T @ fit[-1]
    residual, c = 0.0, coords
    for z in held:
        c = pencil @ c
        scale = np.linalg.norm(z)
        residual = max(residual, np.linalg.norm(u @ c - z) / scale if scale else np.inf)
    if not residual < TOL_HELD_OUT:
        return None
    ritz, vecs = np.linalg.eig(pencil)
    order = np.argsort(-np.abs(ritz), kind="stable")
    ritz, vecs = ritz[order], vecs[:, order]
    unit = np.abs(ritz - 1.0) < TOL_EIG
    others = np.abs(ritz[~unit])
    lambda2 = float(others.max()) if others.size else 0.0
    if np.count_nonzero(unit) != 1:
        return residual, ritz, None, lambda2
    j = int(np.argmax(unit))
    amplitude = np.linalg.solve(vecs, coords)[j]
    rows = ((u[:2] @ vecs[:, j]) * amplitude).real
    return residual, ritz, rows, lambda2


def _fit_due(n: int, m: int) -> bool:
    """Whether the sketched stop is tried at step m of depth n: from the
    first m with SKETCH_HOLD steps past the longest window, once every
    16^(N_MAX_APPLY - n) steps.  An apply costs about 16 times less per
    depth step down, so the applies between two fits cost about one apply
    at the deepest depth (some 30 fits' worth), whatever n."""
    return (m >= max(SKETCH_WINDOWS) + SKETCH_HOLD
            and m % 16 ** (N_MAX_APPLY - n) == 0)


def _accepted_fit(snapshots: np.ndarray):
    """The sketched stop on the trailing snapshots of step m, both parities
    at once (the snapshot z_k of step k is its two overlaps followed by its
    sketch).  Each window w of SKETCH_WINDOWS fits
    z_(m-1-w) .. z_(m-2) and holds out z_(m-1), z_m (see _window_fit); the
    longest is fitted first, and a window that fails ends the fit.

    None if the longest window fails its held-out check, sees no single
    Ritz value within TOL_EIG of 1, or sees a non-unit Ritz value of
    modulus 1 or more (a window that places the unit mode just outside
    TOL_EIG of 1 reads that mode as |lambda_2|, which is no measurement of
    it); else a dict whose ``lambda2`` is that window's |lambda_2|.  Its
    ``values`` and window ``spreads`` of both parities (in PARITIES order),
    ``ritz`` and ``residual`` are None unless the fit is accepted: in every
    window the held-out residual is below TOL_HELD_OUT, exactly one Ritz
    value lies within TOL_EIG of 1, and every other Ritz value decays below
    SKETCH_GAP across the window (|lambda_2|^w <= SKETCH_GAP, so that the
    window tells the unit mode from the slowest other one), and the
    windows' unit-mode overlaps agree to TOL_STOP in both parities.  The
    values are the longest window's, the spreads the windows'
    disagreements; ``ritz`` and ``lambda2`` are the longest window's,
    ``residual`` the largest of all.  An accepted fit's |lambda_2|^w is at
    most SKETCH_GAP, so below 1."""
    windows = []
    for w in sorted(SKETCH_WINDOWS, reverse=True):
        fit = _window_fit(snapshots[-(w + SKETCH_HOLD):])
        if fit is None:
            break
        windows.append(fit)
        if fit[2] is None or fit[3] ** w > SKETCH_GAP:
            break
    else:
        rows = [fit[2] for fit in windows]
        spread = np.max(rows, axis=0) - np.min(rows, axis=0)
        if spread.max() < TOL_STOP:
            _, ritz, _, lambda2 = windows[0]
            return {"values": tuple(float(v) for v in rows[0]),
                    "spreads": tuple(float(v) for v in spread),
                    "ritz": tuple(complex(z) for z in ritz),
                    "residual": float(max(fit[0] for fit in windows)),
                    "lambda2": lambda2}
    if not windows or windows[0][2] is None or windows[0][3] >= 1.0:
        return None
    return {"values": None, "spreads": None, "ritz": None, "residual": None,
            "lambda2": windows[0][3]}


def _settle(trajectory: _Trajectory, n: int) -> _Trajectory:
    """The trajectory with each open parity that may stop at its latest step
    m stopped there (see otoc_longtime): the Aitken window of each open
    parity first, then the sketched fit, once for both parities, if it is
    due (see _fit_due) and a parity is still open, then at ITERATION_CAP the
    Cesaro mean.  A fit that measures |lambda_2| becomes the running
    ``lambda2`` that a later Aitken stop reports."""
    if None not in trajectory.stops.values():
        return trajectory
    m, overlaps, lambda2 = trajectory.m, trajectory.overlaps, trajectory.lambda2
    stops = dict(trajectory.stops)

    def stop(parity, value, meta):
        stops[parity] = OtocResult(value, n=n, meta=meta)

    for parity in PARITIES:
        settled = stops[parity] is None and _stopped_limit(
            overlaps[parity][-(STOP_WINDOW + 3):])
        if settled:
            value, lam, span = settled
            stop(parity, value, {"iterations": m, "converged": True, "route": "aitken",
                                 "lambda": lam, "error_estimate": span,
                                 "ritz": None, "residual": None, "lambda2": lambda2})
    if None in stops.values() and _fit_due(n, m):
        fit = _accepted_fit(np.array(trajectory.snapshots))
        if fit is not None:
            lambda2 = fit["lambda2"]
        for k, parity in enumerate(PARITIES):
            if fit is not None and fit["values"] is not None and stops[parity] is None:
                stop(parity, fit["values"][k],
                     {"iterations": m, "converged": True, "route": "sketch",
                      "lambda": _aitken(*overlaps[parity][-3:])[0],
                      "error_estimate": fit["spreads"][k], "ritz": fit["ritz"],
                      "residual": fit["residual"], "lambda2": lambda2})
    if m >= ITERATION_CAP:
        for parity in PARITIES:
            if stops[parity] is None:
                tail = np.asarray(overlaps[parity][-CESARO_WINDOW:])
                mean = float(tail.mean())
                stop(parity, mean, {"iterations": ITERATION_CAP, "converged": False,
                                    "route": "cesaro",
                                    "amplitude": float(np.max(np.abs(tail - mean)))})
    if (stops, lambda2) == (trajectory.stops, trajectory.lambda2):
        return trajectory
    return trajectory._replace(stops=stops, lambda2=lambda2)


def otoc_longtime(gate, sigma_alpha, sigma_beta, n: int, parity: str) -> OtocResult:
    """lim_{m -> inf} (L(sigma_alpha)| T^m |R(sigma_beta)) by iterated
    application of the column kernel (T^T) to the left boundary.

    The iterate l_m = (T^T)^m L starts as the vector of ``boundary_left``
    and stays in the real Hermitian leg basis (Q^dagger per slot); the
    overlap s_m = l_m . R pairs it with the vector of ``boundary_right``
    (Q^T per slot), read from that vector's factors.  The limit is the
    amplitude of T's unit eigenvalue in s_m.  The parity stops at the first
    m at which either of two rules settles (the Aitken rule where both do):

    * Aitken (``route`` "aitken"): a window of STOP_WINDOW + 1 Aitken
      extrapolates of the parity's overlaps that agree to TOL_STOP (the
      value is the last extrapolate), else a window of overlaps that agree
      to TOL_STOP (the value is the last overlap); see ``_stopped_limit``.
    * sketch (``route`` "sketch"): a matrix-pencil (DMD) fit of the
      trajectory's trailing steps, each step's two overlaps plus a fixed
      Gaussian sketch of its product with the right factors.  Two
      windows must each predict the held-out snapshots, see exactly one
      Ritz value at 1, and see every other one decay; their unit-mode
      amplitudes, read through the overlap rows, must agree to TOL_STOP.
      One fit settles both parities; it runs only at the steps of
      ``_fit_due`` (every step at n = 5, rarely at n <= 3).  See
      ``_accepted_fit``.

    For the kicked Ising gate (0.4, 0.6) of fig4 the sketch settles both
    parities at n = 4 and 5 before either Aitken window; on slowly mixing
    rows (the kicked XY gates; the dual-unitary rows of fig3 and of the
    long-time acceptance check at n >= 3) every fit is rejected and the
    Aitken window stops as before.

    The overlaps and snapshots come from the depth's trajectory, which
    every OTOC cell at depth n shares (see the module docstring), and
    _settle settles both parities at every step the trajectory records,
    finite-time or long-time.  A parity that stopped within the remembered
    trajectory of the same gate, insertions and stop settings (see
    _memo_key) is its remembered stop,
    with no application, no rule and no fit; otherwise the call extends the
    trajectory until the parity stops.  Either way the result is the float
    a call on an empty memory computes, from the same applications on the
    same vectors.  All argument checks run before the lookup.

    ``meta`` holds ``iterations`` (the m at which the parity stopped),
    ``converged`` (True), ``route``, ``lambda``, the last ratio of
    successive increments (None where an increment is zero),
    ``error_estimate`` (the spread of the settled Aitken window, or the two
    fit windows' disagreement), ``ritz`` (the Ritz values of the longer
    window, by descending modulus), ``residual`` (the largest held-out
    residual), both None on the Aitken route, ``lambda2`` (the largest
    non-unit |Ritz value| of the longer window; on the Aitken route that of
    the latest fit before the stop whose longer window passed its held-out
    check with one unit Ritz value and a |lambda_2| below 1, None if no fit
    did), and
    ``applications``, the kernel applications this call made: the
    ones past the remembered m, 0 when it was served from memory.
    The error estimate is not a bound, and it can be far too small where the
    decay is slow.  For ``random_dual_unitary(7)``, sigma = sigma_x, at
    n = 3, whose sector's |lambda_2| is 0.9951, the Aitken stop's error
    against the exact limits is 16 times the estimate for even parity and
    34 times for odd (about 1.6e-9 and 3.3e-9).  If the iteration cap is hit
    (unit-modulus eigenvalues keep the overlap oscillating), the result is
    the Cesaro mean over a trailing window of 64 overlaps, flagged with
    ``converged`` False, ``route`` "cesaro" and the oscillation amplitude.
    """
    n = _integer("n", n)
    sigma_alpha, sigma_beta = _checked_inputs(gate, sigma_alpha, sigma_beta)
    _check_depth(n)
    if parity not in PARITIES:
        raise ValueError("parity must be 'even' or 'odd'")
    trajectory, made = _trajectory_until(gate, sigma_alpha, sigma_beta, n,
                                         lambda tr: tr.stops[parity] is not None)
    result = trajectory.stops[parity]
    return OtocResult(result.value, n=n, meta={**result.meta, "applications": made})
