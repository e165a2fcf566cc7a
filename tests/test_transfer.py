"""Column transfer matrix: fixed points, parity dispatch, the Hermitian-basis
kernel (which applies the transposed column) and the dense matrix built from
it against the dense complex-basis reference, the slot-reversal symmetry,
mirrors, the finite-time and long-time trajectory memos, the long-time stop
rule."""

import sys
import threading
import tracemalloc
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from functools import partial, reduce

import numpy as np
import pytest
from conftest import Q_LEG

from duotoc import transfer
from duotoc.channels import channel_minus, channel_plus, lightcone_correlator, m_n
from duotoc.cli import operator_from_coeffs
from duotoc.closed_forms import kim_longtime, mc_longtime
from duotoc.gates import (
    Gate,
    build_kim,
    build_xy,
    gate_matrix,
    is_dual_unitary,
    random_dual_unitary,
    random_kak,
)
from duotoc.opalg import PAULI, swap_gate
from duotoc.oracle import ChainSpec, oracle_otoc
from duotoc.transfer import (
    _IDENTITY_COEFFS,
    CESARO_WINDOW,
    ITERATION_CAP,
    N_MAX_APPLY,
    STOP_WINDOW,
    _TRAJECTORY_MEMO,
    _depths,
    _hermitian_bundle,
    _PauliColumnKernel,
    _power_radius_estimate,
    _product,
    _right_factors,
    _slot_coeffs,
    _stopped_limit,
    boundary_left,
    boundary_right,
    build_transfer,
    fixed_left,
    fixed_right,
    otoc_finite,
    otoc_longtime,
)

TOL_FIXED = 1e-10
TOL_AGREE = 1e-12

I2, SX, SY, SZ = PAULI
ALPHA = SX / np.sqrt(6) + SY / np.sqrt(2) + SZ / np.sqrt(3)
BETA = SX / np.sqrt(6) - SY / np.sqrt(2) + SZ / np.sqrt(3)
# insertions with an identity component: all four Pauli coefficients nonzero
ALPHA_I = 0.3 * I2 + ALPHA
BETA_I = -0.5 * I2 + BETA
SWAP = swap_gate()

GATES = [
    ("du0", random_dual_unitary(0)),
    ("kim", build_kim(h1=0.4, h2=0.6)),
    ("xy", build_xy(j=np.pi / 10)),
    ("kak", random_kak(1)),
]


# ---------------------------------------------------------------------------
# Dense reference: the column contracted sheet by sheet with einsum in the
# complex computational folded basis (slot index u*2 + ubar).  The library
# builds its dense matrix from the Hermitian-basis kernel and shares none of
# this.

def _sheet_mpo(w, n, cap, reverse):
    """Per-sheet chain of n bundles with the bottom cap absorbed; returns
    s[chain_top, out_slots, in_slots], each slot group flattened row-major
    over 4-dimensional bundle legs in column slot order.  Without
    ``reverse`` bundle 1 is the slowest leg and bundle n the fastest (sheet
    one, slots 1..n); with it bundle n is the slowest and bundle 1 the
    fastest (sheet two, slots n+1..2n)."""
    d = w.shape[0]
    s = np.einsum("okyi,y->koi", w, cap)
    for _ in range(n - 1):
        if reverse:
            s = np.einsum("okyi,yAB->koAiB", w, s).reshape(d, s.shape[1] * d, s.shape[2] * d)
        else:
            s = np.einsum("okyi,yAB->kAoBi", w, s).reshape(d, s.shape[1] * d, s.shape[2] * d)
    return s


def _complex_sheets(gate, n, cap):
    """(top cap, sheet one, sheet two) of the depth-n column with bottom caps
    vec(cap): bundles W = U (x) U* on axes (out_slot, chain_up, chain_dn,
    in_slot), the top cap a crossed delta tying the two sheets."""
    u4 = gate_matrix(gate).reshape(2, 2, 2, 2)
    w = np.einsum("abcd,efgh->aebfcgdh", u4, u4.conj()).reshape(4, 4, 4, 4)
    eye = np.eye(2)
    top = np.einsum("ad,bc->abcd", eye, eye).reshape(4, 4)
    cap = np.asarray(cap, dtype=complex).reshape(4)
    return top, _sheet_mpo(w, n, cap, reverse=False), _sheet_mpo(w, n, cap, reverse=True)


def _complex_transfer(gate, n):
    """The normalized depth-n transfer matrix in the complex folded basis:
    the raw contraction divided by q."""
    top, s1, s2 = _complex_sheets(gate, n, np.eye(2))
    mat = np.einsum("kl,kab,lcd->acbd", top, s1, s2, optimize=True).reshape(16 ** n, -1)
    mat /= 2
    return mat


def _legs(n):
    """Q on all 2n slots: columns vec(sigma_mu)/sqrt(2), slot 1 slowest."""
    return reduce(np.kron, [Q_LEG] * (2 * n))


@pytest.mark.parametrize("name,gate", GATES)
@pytest.mark.parametrize("n", [1, 2])
def test_fixed_points(name, gate, n):
    tm = build_transfer(gate, n)
    r = fixed_right(n)
    l = fixed_left(n)
    assert np.abs(tm @ r - r).max() < TOL_FIXED
    assert np.abs(tm.T @ l - l).max() < TOL_FIXED
    # bilinear pairing of the fixed points is unity
    assert np.dot(l, r) == pytest.approx(1.0, abs=TOL_FIXED)
    # the complex-basis fixed points, mapped slot by slot (Q^T for the
    # right one, Q^dagger for the left one)
    legs = _legs(n)
    assert np.abs(legs.T @ _complex_right(gate, I2, n, "even") - r).max() < TOL_AGREE
    assert np.abs(legs.conj().T @ _complex_left(I2, n) - l).max() < TOL_AGREE


@pytest.mark.parametrize("n", [1, 2])
def test_dense_matrix_matches_complex_reference(n):
    """build_transfer's matrix, mapped back leg by leg (conj(Q) on the rows,
    Q^T on the columns), is the complex-basis reference."""
    legs = _legs(n)
    for name, gate in GATES:
        mat = build_transfer(gate, n)
        assert np.abs(legs.conj() @ mat @ legs.T - _complex_transfer(gate, n)).max() < 1e-13, name


def test_bundle_is_shared_read_only_by_equal_gates():
    """A Gate, its matrix, a copy and a nested list of it are one gate: one
    derivation, one array, which nobody can write."""
    gate = random_kak(1)
    transfer._derived_bundle.cache_clear()
    bundle = _hermitian_bundle(gate)
    u = gate_matrix(gate)
    for same in (gate, Gate(u.copy()), u, u.copy(), u.tolist()):
        assert _hermitian_bundle(same) is bundle
    assert transfer._derived_bundle.cache_info().misses == 1
    assert not bundle.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        bundle[0, 0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        bundle.transpose(3, 1, 2, 0)[...] = 0.0


def test_bundle_of_a_gate_changed_in_place_is_derived_again():
    base, other = gate_matrix(random_kak(1)), gate_matrix(random_kak(2))
    u = base.copy()
    first = _hermitian_bundle(u)
    u[...] = other
    second = _hermitian_bundle(u)
    assert second is not first
    assert not np.array_equal(second, first)
    assert np.array_equal(first, _hermitian_bundle(base))
    transfer._derived_bundle.cache_clear()
    assert np.array_equal(second, _hermitian_bundle(other.copy()))
    legs = _legs(1)
    mat = build_transfer(u, 1)
    assert np.abs(legs.conj() @ mat @ legs.T - _complex_transfer(other, 1)).max() < 1e-13


def test_bundle_cache_is_bounded():
    size = transfer._derived_bundle.cache_info().maxsize
    assert size is not None
    transfer._derived_bundle.cache_clear()
    for seed in range(size + 3):
        _hermitian_bundle(random_kak(seed))
    info = transfer._derived_bundle.cache_info()
    assert info.currsize == size
    assert info.misses == size + 3


def test_fig5_scan_derives_the_bundle_once(tmp_path):
    """duotoc otoc --preset fig5 --method all extends five trajectories,
    each building a kernel and an odd right boundary from the one gate's
    bundle, which is derived once."""
    from duotoc.cli import main
    transfer._derived_bundle.cache_clear()
    _TRAJECTORY_MEMO.clear()
    assert main(["otoc", "--preset", "fig5", "--method", "all",
                 "--out", str(tmp_path / "fig5.csv")]) == 0
    info = transfer._derived_bundle.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    assert info.hits == 9


def test_build_transfer_checks_at_construction(monkeypatch):
    """A kernel off by 1 % loses the fixed points, which build_transfer checks
    at every depth; deeper columns are refused."""
    gate = random_kak(1)
    with pytest.raises(ValueError, match="budget"):
        build_transfer(gate, 4)
    apply = _PauliColumnKernel.apply

    def inflated(self, u):
        apply(self, u)
        u *= 1.01

    monkeypatch.setattr(_PauliColumnKernel, "apply", inflated)
    for n in (1, 2, 3):
        with pytest.raises(AssertionError, match="fixed point"):
            build_transfer(gate, n)


def test_build_transfer_checks_the_reversal_fill(monkeypatch):
    """A kernel that keeps both fixed points but no longer commutes with the
    slot reversal R: the columns filled through R miss its change, and the
    comparison with one more apply raises."""
    apply = _PauliColumnKernel.apply

    def skewed(self, u):
        extra = 1e-3 * u[4]  # column 4 = R column 1 at n = 1 is never applied
        apply(self, u)
        u[1] += extra

    monkeypatch.setattr(_PauliColumnKernel, "apply", skewed)
    with pytest.raises(AssertionError, match="column kernel"):
        build_transfer(random_kak(1), 1)


@pytest.mark.parametrize("name,gate", GATES)
def test_spectral_radius_bounded(name, gate):
    assert np.abs(np.linalg.eigvals(build_transfer(gate, 2))).max() < 1 + 1e-8


def _column_radius_estimate(gate, n, iters=200, seed=7):
    """Reference: the same power iteration on the transposed complex-basis
    column, never formed as a matrix.  With the iterate read as the
    4^n x 4^n matrix V[a, c] (sheet one's slots, then sheet two's), one
    application of _complex_transfer's transpose is
    sum_kl top_kl s1_k^T V s2_l / 2."""
    top, s1, s2 = _complex_sheets(gate, n, np.eye(2))
    terms = list(zip(*np.nonzero(top)))
    rng = np.random.default_rng(seed)
    dim = 16**n
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    growth = 0.0
    for _ in range(iters):
        V = v.reshape(4**n, 4**n)
        w = sum(top[k, l] * (s1[k].T @ V @ s2[l]) for k, l in terms).reshape(-1) / 2
        growth = np.linalg.norm(w)
        v = w / growth
    return growth


@pytest.mark.parametrize("name,gate", [
    ("kak", random_kak(1)),
    ("du0", random_dual_unitary(0)),
    ("kim00", build_kim(h1=0.0, h2=0.0)),
])
def test_radius_estimate_on_kernel_matches_dense(name, gate):
    """build_transfer's n = 3 radius check runs on the column kernel; the
    Q^dagger change of the start vector is unitary, so it sees the norms of
    the same iteration on the transposed complex-basis reference."""
    radius = _power_radius_estimate(_PauliColumnKernel(gate, 3))
    assert radius == pytest.approx(_column_radius_estimate(gate, 3), abs=TOL_AGREE)


def _applied(kern, u):
    """T u on a copy of u, which the kernel overwrites."""
    v = np.array(u, dtype=float)
    kern.apply(v)
    return v


def _kernel_matrix(kern):
    """The kernel's columns T e_j, applied in place to the unit vectors."""
    basis = np.eye(kern.dim)
    for e in basis:
        kern.apply(e)
    return basis.T


@pytest.mark.parametrize("n", [1, 2])
def test_transposed_apply_matches_dense_transpose(n):
    """The kernel carries left vectors, whose Hermitian-basis coefficients
    are Q^dagger l per slot: mapped back (l = Q u), it is the transpose of
    the dense complex-basis transfer matrix."""
    legs = _legs(n)
    for name, gate in GATES:
        k = _kernel_matrix(_PauliColumnKernel(gate, n))
        mat = _complex_transfer(gate, n)
        assert np.abs(legs @ k @ legs.conj().T - mat.T).max() < TOL_AGREE, name


def _stepwise_apply(wp, n, u, cap):
    """Reference application of the depth-n column built from the bundle wp
    (out_slot, chain_up, chain_dn, in_slot): one full pass per slot, 2n down
    to 1, each a batched 16 x 16 product, then sheet one's cap with the
    1/q.  _hermitian_bundle(gate) gives the column T, _left_bundle(gate)
    its transpose."""
    d = 4
    cap = np.asarray(cap, dtype=float)
    first = np.einsum("oudi,d->iuo", wp, cap).reshape(d, d * d)
    sheet_two = wp.transpose(3, 2, 1, 0).reshape(d * d, d * d).T
    sheet_one = wp.transpose(3, 1, 2, 0).reshape(d * d, d * d).T
    p = u.reshape(-1, d) @ first
    for s in range(2 * n - 1, 0, -1):
        mat = sheet_two if s > n else sheet_one
        p = np.matmul(mat, p.reshape(d ** (s - 1), d * d, -1))
    return cap / 2 @ p.reshape(d, -1)


def _left_bundle(gate):
    """The Hermitian-basis bundle with its out and in slot legs swapped,
    whose column is T^T."""
    return _hermitian_bundle(gate).transpose(3, 1, 2, 0)


BLOCKED = [
    ("kim", build_kim(h1=0.4, h2=0.6)),
    ("kak", random_kak(1)),
    ("du0", random_dual_unitary(0)),
]


def _assert_close(got, want):
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("name,gate", BLOCKED)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_kernel_matches_stepwise_reference(name, gate, n):
    """The blocked kernel (prefix blocks from n = 4 on) against the
    slot-by-slot reference."""
    kern = _PauliColumnKernel(gate, n)
    u = np.random.default_rng(n).standard_normal(kern.dim)
    want = _stepwise_apply(_left_bundle(gate), n, u, _IDENTITY_COEFFS)
    _assert_close(_applied(kern, u), want)


@pytest.mark.parametrize("name,gate", BLOCKED)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_transposed_kernel_pairs_with_the_forward_one(name, gate, n):
    """(T^T l) . r = l . (T r), with T r the stepwise reference column of
    the gate's bundle."""
    kern = _PauliColumnKernel(gate, n)
    l, r = np.random.default_rng(20 + n).standard_normal((2, kern.dim))
    want = np.dot(l, _stepwise_apply(_hermitian_bundle(gate), n, r, _IDENTITY_COEFFS))
    got = np.dot(_applied(kern, l), r)
    assert abs(got - want) <= 1e-13 * abs(want)


def _reverse_slots(u, n):
    """The slot reversal R, j <-> 2n + 1 - j, which exchanges the sheets."""
    return u.reshape((4,) * (2 * n)).transpose(range(2 * n - 1, -1, -1)).reshape(-1)


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_kernel_commutes_with_slot_reversal(n, transpose):
    """T R = R T in both directions: an invariant of the column that any
    rewrite of the kernel must keep, and that the odd right boundary's
    factors rely on.  T^T is the kernel, T the stepwise reference column of
    the gate's bundle."""
    rng = np.random.default_rng(30 + n)
    for name, gate in [("kim", build_kim(h1=0.4, h2=0.6)), ("kak", random_kak(1)),
                       ("du3", random_dual_unitary(3)), ("xy", build_xy(j=0.6))]:
        if transpose:
            apply = partial(_applied, _PauliColumnKernel(gate, n))
        else:
            apply = partial(_stepwise_apply, _hermitian_bundle(gate), n,
                            cap=_IDENTITY_COEFFS)
        u = rng.standard_normal(16 ** n)
        want = _reverse_slots(apply(u), n)
        _assert_close(apply(_reverse_slots(u, n)), want)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_kernel_chains_on_its_own_output_and_ignores_stale_buffers(n):
    """Three applies in place on one vector, after the kernel's middle array
    and scratch blocks were filled with NaN."""
    gate = random_kak(1)
    kern = _PauliColumnKernel(gate, n)
    # one scratch pair per worker: the caller and each helper
    assert len(kern._scratch) == min(transfer._CORES, 4 ** kern.k)
    for buf in (kern._middle, *kern._scratch):
        buf.fill(np.nan)
    u = np.random.default_rng(10 + n).standard_normal(kern.dim)
    want = u
    v = u.copy()
    for _ in range(3):
        want = _stepwise_apply(_left_bundle(gate), n, want, _IDENTITY_COEFFS)
        kern.apply(v)  # the tail writes over the vector the head read
        _assert_close(v, want)


@pytest.fixture
def helpers(monkeypatch):
    """The kernel's helper pool; on a one-core machine a one-thread pool
    stands in for it, so that kernels built in the test have two workers."""
    if transfer._HELPERS is not None:
        yield transfer._HELPERS
        return
    with ThreadPoolExecutor(1) as pool:
        monkeypatch.setattr(transfer, "_CORES", 2)
        monkeypatch.setattr(transfer, "_HELPERS", pool)
        yield pool


class _InlinePool:
    """A helper pool that runs each task to its end inside ``submit``, so
    the first helper claims every piece it may before the caller claims
    any."""

    def submit(self, fn, *args):
        future = Future()
        future.set_running_or_notify_cancel()
        future.set_result(fn(*args))
        return future


def _one_worker_kernel(monkeypatch, gate, n):
    """The kernel as built on a one-core machine: one scratch pair, one tail
    piece, no helpers."""
    with monkeypatch.context() as m:
        m.setattr(transfer, "_CORES", 1)
        kern = _PauliColumnKernel(gate, n)
    assert len(kern._scratch) == 1
    return kern


def _chain(kern, u, times=3):
    out, v = [], u.copy()
    for _ in range(times):
        kern.apply(v)
        out.append(v.copy())
    return out


@pytest.mark.parametrize("n", [4, 5])
def test_shared_apply_is_bit_identical_to_one_worker(n, helpers, monkeypatch):
    """Caller and helpers in whatever interleaving the pool gives, and a
    helper that takes every piece, produce the one-worker apply bit for bit,
    chained in place on one vector."""
    gate = random_kak(1)
    u = np.random.default_rng(40 + n).standard_normal(4 ** (2 * n))
    want = _chain(_one_worker_kernel(monkeypatch, gate, n), u)
    kern = _PauliColumnKernel(gate, n)
    assert len(kern._scratch) >= 2
    # the real pool: any split
    assert all(np.array_equal(got, w) for got, w in zip(_chain(kern, u), want))
    with monkeypatch.context() as m:
        m.setattr(transfer, "_HELPERS", _InlinePool())
        kern._scratch.fill(np.nan)
        got = _chain(kern, u)
        # the first helper ran every block in its own scratch pair
        assert np.isnan(kern._scratch[0]).all()
        assert not np.isnan(kern._scratch[1]).any()
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def _in_threads(*jobs, timeout=120):
    """Run each job in its own daemon thread, started together, and return
    their results; a job that has not finished within the timeout fails the
    test instead of hanging it."""
    results, barrier = {}, threading.Barrier(len(jobs))

    def run(i, job):
        barrier.wait(timeout)
        results[i] = job()

    threads = [threading.Thread(target=run, args=(i, job), daemon=True)
               for i, job in enumerate(jobs)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
    assert not any(thread.is_alive() for thread in threads), "an apply did not finish"
    return [results[i] for i in range(len(jobs))]


def test_apply_does_not_wait_for_a_busy_pool(helpers, monkeypatch):
    """Every helper thread is blocked on an event: an n = 5 apply cancels its
    queued helper tasks, runs every piece on its caller and returns the
    one-worker apply's bits."""
    gate = build_kim(h1=0.4, h2=0.6)
    u = np.random.default_rng(51).standard_normal(4 ** 10)
    want = _chain(_one_worker_kernel(monkeypatch, gate, 5), u, 2)
    kern = _PauliColumnKernel(gate, 5)
    started, release = threading.Semaphore(0), threading.Event()

    def block():
        started.release()
        release.wait(120)  # frees the pool if the test fails

    blockers = [helpers.submit(block) for _ in range(transfer._CORES - 1)]
    try:
        for _ in blockers:
            assert started.acquire(timeout=60)
        [got] = _in_threads(lambda: _chain(kern, u, 2))
    finally:
        release.set()
    for future in blockers:
        future.result(timeout=60)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("n,threads", [(5, 2), (4, 6)])
def test_concurrent_applies_match_serial_applies(n, threads, helpers, monkeypatch):
    """Threads chain applies of their own kernels at the same time and get
    the bits of serial one-worker chains: two at n = 5, and more threads
    than cores at n = 4 with a 1 us switch interval."""
    gates = [random_kak(seed) for seed in range(threads)]
    starts = np.random.default_rng(52).standard_normal((threads, 4 ** (2 * n)))
    want = [_chain(_one_worker_kernel(monkeypatch, g, n), u)
            for g, u in zip(gates, starts)]
    kernels = [_PauliColumnKernel(g, n) for g in gates]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _in_threads(*(lambda k=k, u=u: _chain(k, u)
                            for k, u in zip(kernels, starts)))
    finally:
        sys.setswitchinterval(interval)
    for chains, wants in zip(got, want):
        assert all(np.array_equal(g, w) for g, w in zip(chains, wants))


@pytest.mark.parametrize("failing", [1, 0], ids=["helper", "caller"])
def test_apply_reraises_a_failed_block_and_recovers(failing, helpers, monkeypatch):
    """A block that raises in a helper, or in the caller, stops the claims
    and releases the workers waiting for the blocks: the n = 5 apply
    re-raises the error instead of waiting for a block that never ends, and
    the kernel's next apply is the one-worker apply bit for bit.  The
    caller's first block waits until the first helper has started one, so
    that both workers hold pieces."""
    gate = random_kak(1)
    u = np.random.default_rng(53).standard_normal(4 ** 10)
    want = _applied(_one_worker_kernel(monkeypatch, gate, 5), u)
    kern = _PauliColumnKernel(gate, 5)
    run_block, started, seen = _PauliColumnKernel._run_block, threading.Event(), set()

    def failing_block(self, worker, piece, rows):
        first = worker not in seen
        seen.add(worker)
        if worker == 1:
            started.set()
        elif first:
            assert started.wait(60), "no helper started a block"
        if first and worker == failing:
            raise RuntimeError("block failed")
        run_block(self, worker, piece, rows)

    def attempt():
        try:
            _applied(kern, u)
        except RuntimeError as exc:
            return exc
        return None

    with monkeypatch.context() as m:
        m.setattr(_PauliColumnKernel, "_run_block", failing_block)
        [error] = _in_threads(attempt)
    assert str(error) == "block failed"
    assert np.array_equal(_applied(kern, u), want)


def _complex_pair(x):
    """The folded bra pairing of two slots through x:
    A[(u,ubar),(v,vbar)] = x[vbar,u] x[ubar,v]."""
    return np.einsum("da,bc->abcd", x, x).reshape(4, 4)


def _complex_left(sigma_alpha, n):
    """Nested bra pairings tying slots j and 2n+1-j, sigma_alpha on the
    innermost one, identity on the others."""
    vec = _complex_pair(sigma_alpha).reshape(-1)
    for _ in range(n - 1):
        vec = (_complex_pair(I2)[:, None, :] * vec[None, :, None]).reshape(-1)
    return 2.0 ** (-n / 2) * vec


def _complex_right(gate, sigma_beta, n, parity):
    if parity == "even":
        slots = [sigma_beta] + [I2] * (2 * n - 2) + [sigma_beta]
        return 2.0 ** (-n / 2) * reduce(np.kron, [x.reshape(4) for x in slots])
    # odd: the reference column with vec(sigma_beta) bottom caps, applied to
    # the all-identity product
    top, s1, s2 = _complex_sheets(gate, n, sigma_beta)
    half = 4 ** n
    v0 = reduce(np.kron, [I2.reshape(4)] * (2 * n)).reshape(half, half)
    raw = np.einsum("kl,kab,lcd,bd->ac", top, s1, s2, v0, optimize=True)
    return 2.0 ** (-n / 2 - 1) * raw.reshape(-1)


def _dense_otoc(gate, sigma_alpha, sigma_beta, x, t):
    """C(x, t) from the complex-basis reference column and boundaries.  The
    column is applied without forming _complex_transfer: with the iterate
    read as the 4^n x 4^n matrix V[b, d] (sheet one's slots, then sheet
    two's), one application is sum_kl top_kl s1_k V s2_l^T / 2, the forward
    form of _column_radius_estimate's."""
    if x < 0:
        gate, x = SWAP @ gate_matrix(gate) @ SWAP, -x
    n, applications, parity = _depths(x, t)
    top, s1, s2 = _complex_sheets(gate, n, np.eye(2))
    terms = list(zip(*np.nonzero(top)))
    v = _complex_right(gate, sigma_beta, n, parity)
    for _ in range(applications):
        V = v.reshape(4**n, 4**n)
        v = sum(top[k, l] * (s1[k] @ V @ s2[l].T) for k, l in terms).reshape(-1) / 2
    return complex(np.dot(_complex_left(sigma_alpha, n), v))


@pytest.mark.parametrize("name,gate", GATES)
def test_finite_matches_dense_boundaries(name, gate):
    """Real-basis boundaries and kernel against the dense complex route at
    n <= 2, both parities, x < 0 through the mirrored gate, and insertions
    with an identity component."""
    cells = [(0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (0, 3), (2, 3), (1, 4),
             (3, 4), (-1, 1), (-1, 2), (-1, 3), (-1, 4)]
    for x, t in cells:
        want = _dense_otoc(gate, ALPHA_I, BETA_I, x, t)
        assert abs(want.imag) < TOL_AGREE
        got = otoc_finite(gate, ALPHA_I, BETA_I, x, t)
        assert got.value == pytest.approx(want.real, abs=TOL_AGREE), (x, t)
        assert got.n <= 2


def test_finite_matches_dense_boundaries_depth3():
    gate = random_kak(1)
    for x, t in [(0, 4), (1, 5), (0, 5)]:  # n = 3: even, even, odd
        want = _dense_otoc(gate, ALPHA_I, BETA_I, x, t)
        got = otoc_finite(gate, ALPHA_I, BETA_I, x, t)
        assert got.n == 3
        assert got.value == pytest.approx(want.real, abs=TOL_AGREE), (x, t)


# criterion 1's families that GATES lacks
CRITERION_1_REST = [
    ("du1", random_dual_unitary(1)),
    ("du2", random_dual_unitary(2)),
    ("kim-int", build_kim(h1=0.3, h2=-0.3)),
    ("kak0", random_kak(0)),
]


@pytest.mark.parametrize("name,gate", GATES + CRITERION_1_REST)
def test_finite_matches_dense_boundaries_depth4(name, gate):
    """The matrix-free reference reaches n = 4, where a dense 16^n matrix
    would hold 2^32 entries: both parities and x < 0, for every family of
    criterion 1."""
    for x, t in [(0, 6), (1, 7), (0, 7), (2, 8), (-1, 7)]:
        want = _dense_otoc(gate, ALPHA_I, BETA_I, x, t)
        assert abs(want.imag) < TOL_AGREE
        got = otoc_finite(gate, ALPHA_I, BETA_I, x, t)
        assert got.n == 4
        assert got.value == pytest.approx(want.real, abs=1e-13), (x, t)


@pytest.mark.parametrize("x,t", [(3, 2), (5, 1), (-4, 3), (1, 0)])
def test_outside_lightcone_trivial(x, t):
    gate = random_dual_unitary(0)
    assert otoc_finite(gate, ALPHA, BETA, x, t).value == 1.0


def test_t0_trace_algebra():
    gate = build_kim(h1=0.4, h2=0.6)
    want = float(np.trace(ALPHA @ BETA @ ALPHA @ BETA).real / 2)
    assert otoc_finite(gate, ALPHA, BETA, 0, 0).value == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("x,t", [(-1, 1), (-1, 2), (-2, 2), (-1, 3), (-3, 3)])
def test_mirror_negative_x_matches_oracle(x, t):
    gate = build_kim(h1=0.4, h2=0.6)
    spec = ChainSpec(gate=gate, L=8)
    tv = otoc_finite(gate, ALPHA, BETA, x, t).value
    ov = float(oracle_otoc(spec, ALPHA, BETA, x, t))
    assert tv == pytest.approx(ov, abs=1e-10)


@pytest.mark.parametrize("name,gate", GATES)
@pytest.mark.parametrize("x,t", [(0, 1), (1, 1), (0, 2), (1, 2), (2, 2)])
def test_finite_otoc_matches_oracle_small(name, gate, x, t):
    spec = ChainSpec(gate=gate, L=8)
    tv = otoc_finite(gate, ALPHA, BETA, x, t).value
    assert tv == pytest.approx(float(oracle_otoc(spec, ALPHA, BETA, x, t)), abs=1e-10)


def test_depth_budget_guard():
    gate = random_dual_unitary(0)
    with pytest.raises(ValueError):
        otoc_finite(gate, SX, SX, 0, 2 * N_MAX_APPLY + 2)
    with pytest.raises(ValueError):
        otoc_longtime(gate, SX, SX, N_MAX_APPLY + 1, "even")


@pytest.mark.parametrize("name,gate,n,parity", [
    ("kim", build_kim(h1=0.4, h2=0.6), 1, "even"),
    ("kim", build_kim(h1=0.4, h2=0.6), 2, "odd"),
    ("xy", build_xy(j=np.pi / 10), 1, "odd"),
    ("du", random_dual_unitary(0), 2, "even"),
])
def test_pauli_engine_matches_direct(name, gate, n, parity):
    """The Hermitian-basis iteration is an exact change of basis of plain
    power iteration on the dense complex matrix: identical values and
    identical convergence histories under the same stop rule."""
    mat = _complex_transfer(gate, n)
    left = _complex_left(ALPHA, n)
    v = _complex_right(gate, BETA, n, parity)
    overlaps = [float(np.dot(left, v).real)]
    for m in range(1, ITERATION_CAP + 1):
        v = mat @ v
        overlaps.append(float(np.dot(left, v).real))
        stop = _stopped_limit(overlaps)
        if stop is not None:
            break
    res = otoc_longtime(gate, ALPHA, BETA, n, parity)
    assert res.meta["converged"] is True
    assert res.value == pytest.approx(stop[0], abs=TOL_AGREE)
    assert res.meta["iterations"] == m


@pytest.mark.parametrize("bad", ["alpha", "beta"])
def test_non_hermitian_rejected_before_any_apply(monkeypatch, bad):
    def no_apply(self, u):
        raise AssertionError("kernel applied before the operator check")

    monkeypatch.setattr(_PauliColumnKernel, "apply", no_apply)
    gate = build_kim(h1=0.4, h2=0.6)
    ops = {"alpha": ALPHA, "beta": BETA, bad: SX + 1j * SZ}
    with pytest.raises(ValueError, match="Hermitian"):
        otoc_finite(gate, ops["alpha"], ops["beta"], 1, 4)  # odd parity
    with pytest.raises(ValueError, match="Hermitian"):
        otoc_longtime(gate, ops["alpha"], ops["beta"], 2, "odd")


@pytest.mark.parametrize("bad", ["alpha", "beta"])
@pytest.mark.parametrize("x,t", [(5, 1), (0, 1), (-3, 2)])
def test_non_hermitian_rejected_in_and_outside_the_cone(bad, x, t):
    """Outside the light cone (x = 5 and -3) as inside it (x = 0)."""
    ops = {"alpha": SX, "beta": SX, bad: SX + 1j * SZ}
    with pytest.raises(ValueError, match="Hermitian"):
        otoc_finite(random_kak(1), ops["alpha"], ops["beta"], x, t)


def test_only_qubits_supported():
    gate = random_dual_unitary(0)
    with pytest.raises(ValueError, match="only q = 2"):
        otoc_finite(np.eye(9), SX, SX, 0, 2)
    with pytest.raises(ValueError, match="only q = 2"):
        otoc_longtime(gate, SX, np.eye(3), 1, "even")
    # every entry point checks the shapes before it reshapes anything; the
    # channels and the dual-unitarity test share the one check in gates
    for call in (lambda: build_transfer(np.eye(9), 1),
                 lambda: boundary_left(np.eye(3), 1),
                 lambda: boundary_right(np.eye(3), 1, "even"),
                 lambda: boundary_right(SX, 1, "odd", gate=np.eye(9)),
                 lambda: otoc_finite(np.eye(9), SX, SX, 3, 1),  # outside the cone
                 lambda: channel_plus(np.eye(9)),
                 lambda: channel_minus(np.eye(9)),
                 lambda: lightcone_correlator(np.eye(9), SX, SX, 1),
                 lambda: m_n(np.eye(9), SX, 1),
                 lambda: is_dual_unitary(np.eye(9))):
        with pytest.raises(ValueError, match="only q = 2"):
            call()


def test_boundary_overlap_t0_identity():
    # (L(a)| paired with the even product state |R(b)) is tr(abab)/q
    lv = boundary_left(ALPHA, 1)
    rv = boundary_right(BETA, 1, "even")
    want = np.trace(ALPHA @ BETA @ ALPHA @ BETA).real / 2
    assert np.dot(lv, rv).real == pytest.approx(want, abs=1e-12)


def test_boundary_right_odd_needs_gate():
    gate = build_kim(h1=0.4, h2=0.6)
    v = boundary_right(BETA, 1, "odd", gate=gate)
    assert v.shape == (16,)
    assert np.linalg.norm(v) > 0


@pytest.mark.parametrize("n", [0, -1, N_MAX_APPLY + 1])
@pytest.mark.parametrize("build", [
    lambda n: boundary_left(ALPHA, n),
    lambda n: boundary_right(BETA, n, "even"),
    lambda n: boundary_right(BETA, n, "odd", gate=build_kim(h1=0.4, h2=0.6)),
    fixed_left,
    fixed_right,
], ids=["left", "right-even", "right-odd", "fixed_left", "fixed_right"])
def test_boundary_builders_reject_depths_outside_the_budget(build, n):
    """A depth below 1 is no column, and one above N_MAX_APPLY would
    allocate 16^n floats: every boundary builder raises the depth check's
    error, rather than returning the depth-1 vector or numpy's reshape
    error."""
    with pytest.raises(ValueError, match=r"need n >= 1|exceeds the application budget"):
        build(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_odd_boundary_matches_the_dressed_stepwise_column(n):
    """The odd boundary, built from its factors across the top cap without a
    kernel, is the slot-by-slot reference column with sigma_beta caps on the
    all-identity product, scaled by 2^(-n/2); the even one's factors are the
    product of its slot coefficients."""
    identity = _product([_IDENTITY_COEFFS] * (2 * n))
    beta = _slot_coeffs(BETA_I)
    for gate in (build_kim(h1=0.4, h2=0.6), random_kak(2), random_dual_unitary(3)):
        want = 2.0 ** (-n / 2.0) * _stepwise_apply(_hermitian_bundle(gate), n, identity, beta)
        got = boundary_right(BETA_I, n, "odd", gate=gate)
        assert np.abs(got - want).max() <= 1e-14 * max(1.0, np.abs(want).max())
    p, s = _right_factors(BETA_I, n, "even")
    assert p.shape == s.shape == (1, 4 ** n)
    ident = [_IDENTITY_COEFFS] * (n - 1)
    assert np.array_equal(p[0], 2.0 ** (-n / 2.0) * _product([beta] + ident))
    assert np.array_equal(s[0], _product(ident + [beta]))


def test_apply_rejects_a_vector_it_cannot_overwrite():
    """apply writes T u over u, so a vector that reshape could copy, or
    that cannot be written, raises instead of losing the result."""
    kern = _PauliColumnKernel(random_kak(1), 2)
    v = np.random.default_rng(3).standard_normal(kern.dim) * (1 + 1j)
    frozen = v.real.copy()
    frozen.flags.writeable = False
    for bad in (v.real,                                  # strided view
                frozen,                                  # read-only
                v.real.copy()[:-1],                      # wrong length
                v.real.copy().reshape(16, 16),           # not a vector
                v.real.astype(np.float32),               # wrong dtype
                list(v.real)):                           # not an array
        with pytest.raises(ValueError, match="overwrites its argument"):
            kern.apply(bad)


def _fresh(gate, sigma_alpha, sigma_beta, x, t):
    _TRAJECTORY_MEMO.clear()
    return otoc_finite(gate, sigma_alpha, sigma_beta, x, t).value


@pytest.mark.parametrize("k", range(6))  # t - x: n = 1..3, both parities
def test_memo_hit_is_bit_identical_to_a_fresh_call(applies, k):
    gate = random_kak(1)
    cells = [(x, x + k) for x in range(5)]
    far = otoc_finite(gate, ALPHA_I, BETA_I, *cells[-1]).value
    assert applies
    del applies[:]
    hits = [otoc_finite(gate, ALPHA_I, BETA_I, x, t).value for x, t in cells]
    assert applies == []
    assert hits[-1] == far
    assert hits == [_fresh(gate, ALPHA_I, BETA_I, x, t) for x, t in cells]


def test_finite_meta_counts_the_applications_made(applies):
    """meta["applications"]: the applications past the depth's remembered
    trajectory, and 0 for a cell served from memory or outside the light
    cone; a mirrored cell reports its mirror image's."""
    gate = random_kak(1)
    cells = {(1, 6): 3,    # n = 3, odd: 3 applications
             (0, 5): 0,    # the same diagonal, served from memory
             (2, 6): 1,    # n = 3, even: the trajectory extended from 3 to 4
             (1, 5): 0,    # n = 3, even, within the trajectory
             (5, 3): 0,    # outside the light cone
             (-1, 4): 2}   # the mirrored gate's (1, 4): n = 2, odd
    for (x, t), made in cells.items():
        del applies[:]
        res = otoc_finite(gate, ALPHA, BETA, x, t)
        assert res.meta["applications"] == len(applies) == made, (x, t)


def test_memo_does_not_bypass_argument_checks(monkeypatch, applies):
    gate = random_kak(1)
    # anti-Hermitian residue 2e-11, within TOL_REAL until that is tightened
    beta = BETA + 1e-11j * I2
    otoc_finite(gate, ALPHA, beta, 1, 6)  # n = 3, odd: remembers 3 applications
    del applies[:]
    otoc_finite(gate, ALPHA, beta, 0, 5)
    assert applies == []  # the remembered trajectory serves (0, 5)
    with pytest.raises(ValueError, match="only q = 2"):
        otoc_finite(gate, np.eye(3), beta, 0, 5)
    with pytest.raises(ValueError, match="Hermitian"):
        otoc_finite(gate, SX + 1j * SZ, beta, 0, 5)
    with monkeypatch.context() as m:
        m.setattr("duotoc.opalg.TOL_REAL", 1e-12)
        with pytest.raises(ValueError, match="Hermitian"):
            otoc_finite(gate, ALPHA, beta, 0, 5)
    with monkeypatch.context() as m:
        m.setattr("duotoc.transfer.N_MAX_APPLY", 2)
        with pytest.raises(ValueError, match="budget"):
            otoc_finite(gate, ALPHA, beta, 0, 5)
    assert applies == []


@pytest.mark.parametrize("k", [1, 2, 4])
def test_failed_resumed_extension_leaves_no_stale_entry(monkeypatch, k):
    """A resumed extension applies the kernel in place to the remembered
    l_m.  An apply that writes half the vector and raises on the k-th call
    (of 4) leaves no entry for the depth whose l_m is not (T^T)^m L, and
    the next calls return a fresh call's floats."""
    gate = random_kak(1)
    _TRAJECTORY_MEMO.clear()
    otoc_finite(gate, ALPHA_I, BETA_I, 2, 4)  # n = 2, even: remembers m = 3
    assert _TRAJECTORY_MEMO[2].m == 3
    apply, calls = _PauliColumnKernel.apply, []

    def failing(self, u):
        calls.append(self.n)
        if len(calls) == k:
            u[:u.size // 2] = np.nan
            raise RuntimeError("apply failed")
        apply(self, u)

    with monkeypatch.context() as m:
        m.setattr(_PauliColumnKernel, "apply", failing)
        with pytest.raises(RuntimeError, match="apply failed"):
            otoc_finite(gate, ALPHA_I, BETA_I, 6, 8)  # m = 7: resumes from 3
    entry = _TRAJECTORY_MEMO.get(2)
    if entry is not None:
        m, left = entry.m, entry.left
        want = boundary_left(ALPHA_I, 2)
        kern = _PauliColumnKernel(gate, 2)
        for _ in range(m):
            kern.apply(want)
        assert np.array_equal(left, want)
    for cell in [(6, 8), (1, 3), (5, 8)]:
        assert otoc_finite(gate, ALPHA_I, BETA_I, *cell).value == \
            _fresh(gate, ALPHA_I, BETA_I, *cell), cell


def test_depth5_cells_stay_within_the_memory_guard():
    """n = 5 cells (1, 9), then (0, 9) from memory, on an empty memory: the
    kernel's buffers (35.7 MB with two workers), l_m (8.4 MB)
    and the boundary factors fit in 48 MB of tracemalloc peak, plus the
    1 MB scratch pair of each worker past two; one more 8 MB vector beside
    l_m, or a second kernel, does not."""
    gate = build_kim(h1=0.4, h2=0.6)
    budget = 48e6 + 8 * 2 * 4 ** 8 * max(0, min(transfer._CORES, 4 ** 3) - 2)
    _TRAJECTORY_MEMO.clear()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        otoc_finite(gate, ALPHA, BETA, 1, 9)
        otoc_finite(gate, ALPHA, BETA, 0, 9)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert _TRAJECTORY_MEMO[5].m == 5
    assert peak <= budget, f"{peak / 1e6:.1f} MB"


def test_memo_misses_on_changed_operators_and_gates(applies):
    base = gate_matrix(random_kak(1))
    other = gate_matrix(random_kak(2))
    # (gate, sigma_beta, cell) after (2, 6) on base remembered n = 3, even
    calls = {"changed sigma_beta": (base, BETA, (1, 5)),
             "mirrored gate": (base, BETA_I, (-1, 5))}
    for name, (gate, beta, (x, t)) in calls.items():
        _TRAJECTORY_MEMO.clear()
        otoc_finite(base, ALPHA_I, BETA_I, 2, 6)
        del applies[:]
        got = otoc_finite(gate, ALPHA_I, beta, x, t).value
        assert applies, name
        assert got == _fresh(gate, ALPHA_I, beta, x, t), name
        assert got != _fresh(base, ALPHA_I, BETA_I, 1, 5), name
    # a gate array changed in place after its trajectory was remembered
    gate = base.copy()
    _TRAJECTORY_MEMO.clear()
    otoc_finite(gate, ALPHA_I, BETA_I, 2, 6)
    gate[...] = other
    del applies[:]
    got = otoc_finite(gate, ALPHA_I, BETA_I, 1, 5).value
    assert applies
    assert got == _fresh(other, ALPHA_I, BETA_I, 1, 5)
    assert got != _fresh(base, ALPHA_I, BETA_I, 1, 5)


def test_memo_holds_at_most_one_trajectory_per_slot():
    """One trajectory per depth, whatever the parities, gates and
    insertions asked for; finite and long-time calls share it."""
    _TRAJECTORY_MEMO.clear()
    gate = random_kak(1)
    for t in range(2 * N_MAX_APPLY):  # (0, t) covers every depth and parity
        otoc_finite(gate, ALPHA, BETA, 0, t)
    for beta in (BETA_I, SZ):
        for t in range(1, 6):
            otoc_finite(gate, ALPHA, beta, 1, t)
            otoc_finite(SWAP @ gate_matrix(gate) @ SWAP, ALPHA, beta, 1, t)
    otoc_longtime(gate, ALPHA, BETA, 1, "odd")
    assert set(_TRAJECTORY_MEMO) == set(range(1, N_MAX_APPLY + 1))


def test_memo_serves_both_signs_of_x_of_a_swap_symmetric_gate(applies):
    """build_kim(h, h) is its own mirror, bit for bit, so its x < 0 cells
    read the trajectories of the x > 0 cells: a scan that alternates the
    signs of x makes no more applications than the cells x >= 0 alone, and
    x and -x read the same float."""
    gate = build_kim(0.3, 0.3)
    assert (SWAP @ gate_matrix(gate) @ SWAP).tobytes() == gate_matrix(gate).tobytes()
    half = [(x, t) for t in range(7) for x in range(t + 1)]
    for x, t in half:
        otoc_finite(gate, ALPHA, BETA, x, t)
    made = len(applies)
    _TRAJECTORY_MEMO.clear()
    del applies[:]
    got = {(x, t): otoc_finite(gate, ALPHA, BETA, x, t).value
           for t in range(7) for x in range(-t, t + 1)}
    assert len(applies) == made
    assert all(got[-x, t] == got[x, t] for x, t in half)


def test_memo_serves_threads_on_different_slots():
    """Eight threads, more than the cores, each sweep one diagonal far cell
    first; two operators and both parities share every depth, so entries
    are replaced and extended while other threads read them."""
    gate = random_kak(1)
    betas = (BETA, BETA_I)
    jobs = [(b, k) for b in range(len(betas)) for k in range(4)]  # n <= 2
    cells = {(b, k): [(x, x + k) for x in range(6, -1, -1)] for b, k in jobs}
    want = {job: [_fresh(gate, ALPHA, betas[job[0]], x, t) for x, t in cells[job]]
            for job in jobs}
    _TRAJECTORY_MEMO.clear()

    def sweep(job):
        return [otoc_finite(gate, ALPHA, betas[job[0]], x, t).value
                for _ in range(5) for x, t in cells[job]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(jobs)) as ex:
            futures = {job: ex.submit(sweep, job) for job in jobs}
            got = {job: f.result(timeout=120) for job, f in futures.items()}
    finally:
        sys.setswitchinterval(interval)
    for job in jobs:
        assert got[job] == want[job] * 5, job


PARITIES = ("even", "odd")


def _fresh_longtime(gate, sigma_alpha, sigma_beta, n, parity):
    _TRAJECTORY_MEMO.clear()
    return otoc_longtime(gate, sigma_alpha, sigma_beta, n, parity)


def _without_applications(res):
    return res.value, {k: v for k, v in res.meta.items() if k != "applications"}


# (gate, n) with the iterations (even, odd) each parity stops at; the last
# row stops both parities at once on the sketched fit (n = 4 fits at
# m = 32, 48 and 64), the others on their Aitken windows
SETTLE_ORDERS = {
    "odd first": (build_kim(h1=0.4, h2=0.6), 1, (35, 8)),
    "even first": (build_kim(h1=0.4, h2=0.6), 2, (38, 39)),
    "together": (random_kak(1), 1, (20, 20)),
    "sketch": (build_kim(h1=0.4, h2=0.6), 4, (64, 64)),
}
ROUTES = {"sketch": "sketch"}  # the route of every other order is "aitken"


@pytest.fixture
def fits(monkeypatch):
    """The sketched fits that run from here on, as (n, m, outcome) triples:
    the depth and step that _settle was settling when it called
    _accepted_fit, and the fit's outcome."""
    ran, settling = [], []
    settle, accepted_fit = transfer._settle, transfer._accepted_fit

    def settled(trajectory, n):
        settling[:] = [(n, trajectory.m)]
        return settle(trajectory, n)

    def fitted(snapshots):
        outcome = accepted_fit(snapshots)
        ran.append((*settling[0], outcome))
        return outcome

    monkeypatch.setattr(transfer, "_settle", settled)
    monkeypatch.setattr(transfer, "_accepted_fit", fitted)
    return ran


def _at(fits):
    """The (n, m) of each fit that the ``fits`` fixture recorded."""
    return [(n, m) for n, m, _ in fits]


@pytest.mark.parametrize("first", PARITIES)
@pytest.mark.parametrize("order", SETTLE_ORDERS)
def test_longtime_memo_hit_and_resume_are_bit_identical(applies, fits, order, first):
    """Whichever parity is asked first and whichever settles first, on
    either route, the second call returns what a call on an empty memory
    returns, bit for bit (value and meta), and makes only the applications
    past the first call's stop; a call served from memory runs no fit and
    makes no application."""
    gate, n, iterations = SETTLE_ORDERS[order]
    its = dict(zip(PARITIES, iterations))
    fresh = {p: _fresh_longtime(gate, ALPHA_I, BETA_I, n, p) for p in PARITIES}
    for p in PARITIES:
        assert fresh[p].meta["iterations"] == its[p]
        assert fresh[p].meta["applications"] == its[p]
        assert fresh[p].meta["route"] == ROUTES.get(order, "aitken")
    second = "odd" if first == "even" else "even"
    _TRAJECTORY_MEMO.clear()
    del applies[:]
    got = {p: otoc_longtime(gate, ALPHA_I, BETA_I, n, p) for p in (first, second)}
    for p in PARITIES:
        assert _without_applications(got[p]) == _without_applications(fresh[p]), p
    assert got[first].meta["applications"] == its[first]
    assert got[second].meta["applications"] == max(0, its[second] - its[first])
    assert len(applies) == sum(res.meta["applications"] for res in got.values())
    assert applies.count(n) == len(applies)
    # a third call of either parity is a hit
    del applies[:], fits[:]
    for p in PARITIES:
        again = otoc_longtime(gate, ALPHA_I, BETA_I, n, p)
        assert _without_applications(again) == _without_applications(fresh[p])
        assert again.meta["applications"] == 0
    assert applies == []
    assert fits == []


def test_longtime_memo_hit_runs_no_stop_rule(applies, monkeypatch):
    """Both parities' stops are settled as the trajectory grows and
    remembered with it, so a call served from memory returns the stored
    stop in a fresh meta: it replays neither the Aitken rule nor a fit."""
    gate, n, _ = SETTLE_ORDERS["sketch"]
    fresh = {p: otoc_longtime(gate, ALPHA_I, BETA_I, n, p) for p in PARITIES}
    rules = []
    for name in ("_stopped_limit", "_accepted_fit"):
        rule = getattr(transfer, name)
        monkeypatch.setattr(transfer, name,
                            lambda arg, name=name, rule=rule: rules.append(name) or rule(arg))
    del applies[:]
    for p in PARITIES:
        again = otoc_longtime(gate, ALPHA_I, BETA_I, n, p)
        assert _without_applications(again) == _without_applications(fresh[p]), p
        assert again.meta["applications"] == 0
        assert again.meta is not fresh[p].meta
    assert rules == [] and applies == []


def test_longtime_memo_keeps_results_at_the_iteration_cap(monkeypatch, applies):
    """Where neither parity settles before the cap, the first call leaves
    both Cesaro means, and the other parity is served from memory."""
    monkeypatch.setattr("duotoc.transfer.ITERATION_CAP", 12)
    gate = random_dual_unitary(0)
    fresh = {p: _fresh_longtime(gate, ALPHA, BETA, 2, p) for p in PARITIES}
    assert all(res.meta["converged"] is False for res in fresh.values())
    _TRAJECTORY_MEMO.clear()
    otoc_longtime(gate, ALPHA, BETA, 2, "even")
    del applies[:]
    odd = otoc_longtime(gate, ALPHA, BETA, 2, "odd")
    assert applies == []
    assert _without_applications(odd) == _without_applications(fresh["odd"])


# the trailing snapshots that a fit reads, and that a trajectory keeps
WINDOW = max(transfer.SKETCH_WINDOWS) + transfer.SKETCH_HOLD

# SETTLE_ORDERS case and the m up to which a finite scan of its depth runs
SCANS = {"one parity within the scan": ("odd first", 20),   # odd 8, even 35
         "both within the scan": ("even first", 45),        # even 38, odd 39
         "sketch stop within the scan": ("sketch", 70),     # both 64
         "sketch stop past the scan": ("sketch", 40)}


@pytest.mark.parametrize("scan", SCANS)
def test_longtime_after_a_finite_scan_resumes_from_the_stored_m(applies, fits, scan):
    """A finite scan of depth n up to m = M, far cell first, then both
    long-time parities on the same gate and insertions: each returns a fresh
    call's value and meta, bit for bit.  The scan settles both parities at
    every step it records, so it runs the fits due up to M while a parity
    is open; a parity that stops at some m <= M is its stored stop, at its
    first settled m rather than at M, with no application; one that stops
    later extends the trajectory from M.  Over the scan and the long-time
    calls each fit due up to the later stop runs once, and a third call
    runs none."""
    order, top = SCANS[scan]
    gate, n, iterations = SETTLE_ORDERS[order]
    its = dict(zip(PARITIES, iterations))
    fresh = {p: _fresh_longtime(gate, ALPHA_I, BETA_I, n, p) for p in PARITIES}
    _TRAJECTORY_MEMO.clear()
    del fits[:]
    # the even cells of depth n, t - x = 2n - 2, take m = x + n - 1
    for x in range(top - n + 1, -1, -1):
        otoc_finite(gate, ALPHA_I, BETA_I, x, x + 2 * n - 2)
    stop = max(iterations)
    due = [(n, m) for m in range(stop + 1) if transfer._fit_due(n, m)]
    assert _TRAJECTORY_MEMO[n].m == top
    assert len(_TRAJECTORY_MEMO[n].snapshots) == min(top + 1, WINDOW)
    assert _at(fits) == [(n, m) for n, m in due if m <= top]
    del applies[:]
    reached = top
    for p in PARITIES:
        got = otoc_longtime(gate, ALPHA_I, BETA_I, n, p)
        assert _without_applications(got) == _without_applications(fresh[p]), p
        assert got.meta["iterations"] == its[p]
        assert got.meta["applications"] == max(0, its[p] - reached), p
        reached = max(reached, its[p])
    assert len(applies) == max(0, stop - top)
    assert _at(fits) == due
    del fits[:]
    for p in PARITIES:
        again = otoc_longtime(gate, ALPHA_I, BETA_I, n, p)
        assert _without_applications(again) == _without_applications(fresh[p]), p
    assert fits == []


def test_finite_cells_after_longtime_make_no_applications(applies):
    """After otoc_longtime left its depth's trajectory at m = M, every
    finite cell of that depth with m <= M, both parities, is read from it
    with no application, bit for bit the value of a call on an empty
    memory."""
    gate, n, (even, _) = SETTLE_ORDERS["odd first"]
    otoc_longtime(gate, ALPHA_I, BETA_I, n, "even")
    assert _TRAJECTORY_MEMO[n].m == even
    # t - x = 2n - 2 (even) and 2n - 1 (odd) both take m = x + n - 1
    cells = [(x, x + k) for x in range(even - n + 2) for k in (2 * n - 2, 2 * n - 1)]
    del applies[:]
    got = {cell: otoc_finite(gate, ALPHA_I, BETA_I, *cell) for cell in cells}
    assert applies == []
    assert all(res.meta["applications"] == 0 for res in got.values())
    for cell, res in got.items():
        assert res.value == _fresh(gate, ALPHA_I, BETA_I, *cell), cell


def test_longtime_memo_key_covers_gate_operators_and_depth(applies):
    """After an even call on the base key, an odd call that differs in the
    gate, either insertion or the depth runs its own trajectory: its
    applications are those of a call on an empty memory."""
    base = gate_matrix(build_kim(h1=0.4, h2=0.6))
    other = gate_matrix(random_kak(2))
    calls = {"gate": (other, ALPHA_I, BETA_I, 2),
             "sigma_alpha": (base, ALPHA, BETA_I, 2),
             "sigma_beta": (base, ALPHA_I, BETA, 2),
             "depth": (base, ALPHA_I, BETA_I, 1)}
    for name, (gate, alpha, beta, n) in calls.items():
        _TRAJECTORY_MEMO.clear()
        otoc_longtime(base, ALPHA_I, BETA_I, 2, "even")
        got = otoc_longtime(gate, alpha, beta, n, "odd")
        assert got.meta["applications"] == got.meta["iterations"], name
        want = _fresh_longtime(gate, alpha, beta, n, "odd")
        assert _without_applications(got) == _without_applications(want), name
    # the base key itself resumes (odd settles after even here)
    _TRAJECTORY_MEMO.clear()
    otoc_longtime(base, ALPHA_I, BETA_I, 2, "even")
    assert otoc_longtime(base, ALPHA_I, BETA_I, 2, "odd").meta["applications"] == 1
    # a gate array changed in place after its trajectory was remembered
    gate = base.copy()
    _TRAJECTORY_MEMO.clear()
    otoc_longtime(gate, ALPHA_I, BETA_I, 2, "even")
    gate[...] = other
    got = otoc_longtime(gate, ALPHA_I, BETA_I, 2, "odd")
    assert got.meta["applications"] == got.meta["iterations"]
    want = _fresh_longtime(other, ALPHA_I, BETA_I, 2, "odd")
    assert _without_applications(got) == _without_applications(want)


def test_stored_stop_is_served_only_under_the_settings_that_made_it(monkeypatch, applies):
    """A stop made under ITERATION_CAP = 30 is not served once the cap is
    back: the stop settings are part of the memo key, so the second call
    runs its own trajectory, and nothing clears the memo between the
    calls."""
    gate = random_dual_unitary(7)
    monkeypatch.setattr(transfer, "ITERATION_CAP", 30)
    capped = otoc_longtime(gate, SX, SX, 3, "even")
    assert (capped.meta["iterations"], capped.meta["converged"]) == (30, False)
    monkeypatch.setattr(transfer, "ITERATION_CAP", ITERATION_CAP)
    got = otoc_longtime(gate, SX, SX, 3, "even")
    assert (got.meta["iterations"], got.meta["converged"]) == (1789, True)
    assert got.meta["applications"] == 1789
    assert got.value == pytest.approx(mc_longtime(SX, SX, 4), abs=1e-8)


def test_longtime_memo_does_not_bypass_argument_checks(monkeypatch, applies):
    gate = random_kak(1)
    # anti-Hermitian residue 2e-11, within TOL_REAL until that is tightened
    beta = BETA + 1e-11j * I2
    otoc_longtime(gate, ALPHA, beta, 2, "even")
    otoc_longtime(gate, ALPHA, beta, 2, "odd")
    del applies[:]
    assert otoc_longtime(gate, ALPHA, beta, 2, "odd").meta["applications"] == 0
    with pytest.raises(ValueError, match="only q = 2"):
        otoc_longtime(np.eye(9), ALPHA, beta, 2, "odd")
    with pytest.raises(ValueError, match="Hermitian"):
        otoc_longtime(gate, SX + 1j * SZ, beta, 2, "odd")
    with pytest.raises(ValueError, match="parity"):
        otoc_longtime(gate, ALPHA, beta, 2, "Odd")
    with monkeypatch.context() as m:
        m.setattr("duotoc.opalg.TOL_REAL", 1e-12)
        with pytest.raises(ValueError, match="Hermitian"):
            otoc_longtime(gate, ALPHA, beta, 2, "odd")
    with monkeypatch.context() as m:
        m.setattr("duotoc.transfer.N_MAX_APPLY", 1)
        with pytest.raises(ValueError, match="budget"):
            otoc_longtime(gate, ALPHA, beta, 2, "odd")
    assert applies == []


def test_longtime_memo_serves_threads_on_shared_depths():
    """Eight threads, more than the cores, each ask one (operator, depth,
    parity) five times; two operators and both parities share each depth,
    so entries are replaced and resumed while other threads read them."""
    gate = build_kim(h1=0.4, h2=0.6)
    betas = (BETA, BETA_I)
    jobs = [(b, n, p) for b in range(len(betas)) for n in (1, 2) for p in PARITIES]
    want = {job: _without_applications(_fresh_longtime(gate, ALPHA, betas[job[0]],
                                                       *job[1:]))
            for job in jobs}
    _TRAJECTORY_MEMO.clear()

    def ask(job):
        return [_without_applications(otoc_longtime(gate, ALPHA, betas[job[0]], *job[1:]))
                for _ in range(5)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(jobs)) as ex:
            futures = {job: ex.submit(ask, job) for job in jobs}
            got = {job: f.result(timeout=120) for job, f in futures.items()}
    finally:
        sys.setswitchinterval(interval)
    for job in jobs:
        assert got[job] == [want[job]] * 5, job


def test_longtime_iteration_metadata():
    res = otoc_longtime(build_kim(h1=0.4, h2=0.6), ALPHA, BETA, 1, "odd")
    assert res.meta["converged"] is True
    assert res.meta["iterations"] >= STOP_WINDOW
    assert 0.0 <= res.meta["error_estimate"] < 1e-10
    lam = res.meta["lambda"]
    assert lam is None or isinstance(lam, float)
    assert res.meta["route"] == "aitken"


@pytest.mark.parametrize("parity", PARITIES)
def test_longtime_sketch_route_metadata(parity):
    """Kicked Ising (0.4, 0.6) at n = 4 with the fig4 operators stops on
    the sketched fit at m = 64, within 1e-10 of the closed form; the Ritz
    values hold exactly one value at 1, and |lambda_2| matches the dense
    n = 3 sector's 0.8430."""
    a, b = (SX + SZ) / np.sqrt(2), SY
    res = _fresh_longtime(build_kim(h1=0.4, h2=0.6), a, b, 4, parity)
    meta = res.meta
    assert (meta["route"], meta["iterations"], meta["converged"]) == ("sketch", 64, True)
    exact = kim_longtime(0.4, 0.6, a, b, 6 if parity == "even" else 7)
    assert abs(res.value - exact) < 1e-10
    assert 0.0 <= meta["error_estimate"] < transfer.TOL_STOP
    assert 0.0 <= meta["residual"] < transfer.TOL_HELD_OUT
    ritz = np.array(meta["ritz"])
    assert np.all(np.diff(np.abs(ritz)) <= 0)
    assert np.count_nonzero(np.abs(ritz - 1.0) < transfer.TOL_EIG) == 1
    assert abs(ritz[0] - 1.0) < transfer.TOL_EIG
    assert meta["lambda2"] == abs(ritz[1])
    assert abs(meta["lambda2"] - 0.8430) < 1e-3


def _first_stop(sequence):
    """(m, value) where _stopped_limit first stops on s_0, s_1, ..., fed
    through the same bounded window as otoc_longtime; None if it never does."""
    overlaps = deque(maxlen=CESARO_WINDOW)
    for m, s in enumerate(sequence):
        overlaps.append(float(s))
        stop = _stopped_limit(overlaps)
        if stop is not None:
            return m, stop[0]
    return None


def _single_increment_stop(sequence):
    """(m, s_m) at the first |s_m - s_(m-1)| < 1e-10, the rule this one
    replaced."""
    for m in range(1, len(sequence)):
        if abs(sequence[m] - sequence[m - 1]) < 1e-10:
            return m, sequence[m]
    raise AssertionError("the single-increment rule never stopped")


LIMIT = -0.25
M = np.arange(2000)


def test_stop_rule_crossing_modes():
    """Two opposite-sign geometric modes whose increment is zero at m = 10:
    one small step must not end the iteration."""
    l1, l2, crossing = 0.9, 0.5, 10
    b = (1 - l1) * l1 ** (crossing - 1) / ((1 - l2) * l2 ** (crossing - 1))
    seq = LIMIT + l1 ** M - b * l2 ** M
    m_old, old = _single_increment_stop(seq)
    assert m_old == crossing and abs(old - LIMIT) > 0.1
    m, value = _first_stop(seq)
    assert m > crossing
    assert abs(value - LIMIT) < 1e-10


def test_stop_rule_complex_pair():
    """r^m cos(theta m + phi), phi set so the increment vanishes at m = 20:
    the rule runs on past that step to the limit."""
    r, theta, crossing = 0.9, 1.0, 20
    c, p = crossing * theta, (crossing - 1) * theta
    phi = np.arctan((r * np.cos(c) - np.cos(p)) / (r * np.sin(c) - np.sin(p)))
    seq = LIMIT + r ** M * np.cos(theta * M + phi)
    m_old, old = _single_increment_stop(seq)
    assert m_old == crossing and abs(old - LIMIT) > 1e-2
    m, value = _first_stop(seq)
    assert m > crossing
    assert abs(value - LIMIT) < 1e-10


@pytest.mark.parametrize("lam", [0.98, -0.9, 0.5])
def test_stop_rule_geometric_tail(lam):
    """A single decaying mode: the extrapolate is the limit, so the rule
    stops long before the overlaps settle, within 1e-10 of the limit."""
    seq = LIMIT + 0.7 * lam ** M
    m, value = _first_stop(seq)
    assert abs(value - LIMIT) < 1e-10
    assert m < 20


def test_stop_rule_constant_stops_at_the_first_full_window():
    """Zero increments define no extrapolate; the settled overlaps stop the
    rule at m = STOP_WINDOW with the exact value."""
    assert _first_stop(np.full(20, LIMIT)) == (STOP_WINDOW, LIMIT)


def test_stop_rule_unit_modulus_oscillation_never_stops():
    """A unit-modulus mode neither decays nor extrapolates: the rule never
    stops within the cap, so otoc_longtime falls through to its Cesaro
    mean."""
    seq = LIMIT + 0.3 * np.cos(1.0 * np.arange(ITERATION_CAP + 1))
    assert _first_stop(seq) is None


def test_longtime_single_increment_false_stop_regression():
    """Kicked Ising (0.4, 0.6) at n = 4, even, with the operators that
    ``bench/run.py --seed 801`` draws: one small increment where two modes
    crossed used to stop the iteration 1.2e-8 off the closed form."""
    rng = np.random.default_rng(801)
    a = operator_from_coeffs(rng.standard_normal(3))
    b = operator_from_coeffs(rng.standard_normal(3))
    res = otoc_longtime(build_kim(h1=0.4, h2=0.6), a, b, 4, "even")
    assert res.meta["converged"] is True
    assert abs(res.value - kim_longtime(0.4, 0.6, a, b, 6)) <= 5e-10


# even rows whose every due sketched fit is rejected, with the iterations at
# which their Aitken window stops, the |lambda_2| of the dense sector that
# the row's lambda2 is within 1e-3 of (None: not checked) and, for the
# kicked XY row, the m at which a fit at every step from m = 32 would stop
# it with neither the decay nor the held-out check (None: not refitted,
# 1,750 fits at n = 3)
REJECTED_ROWS = {
    "xy pi/5, n = 4": (build_xy(j=np.pi / 5), ALPHA, BETA, 4, 233, None, 175),
    "du seed 7, n = 3": (random_dual_unitary(7), SX, SX, 3, 1789, 0.9951, None),
}
# the due fit of each row whose longer window places the unit mode just
# outside TOL_EIG of 1: 0.99999992 for the kicked XY row, 1.00000012 for
# the dual-unitary one
OFF_UNIT_FITS = {"xy pi/5, n = 4": 48, "du seed 7, n = 3": 256}


@pytest.mark.parametrize("row", REJECTED_ROWS)
def test_longtime_rejected_fits_keep_the_aitken_stop(applies, fits, monkeypatch, row):
    """Slowly mixing rows (|lambda_2| = 0.95 for the kicked XY gate, 0.995
    for the dual-unitary one): every due fit is rejected, and the row
    returns the float, bit for bit, that the Aitken rule alone gives on the
    same overlaps, at the same m, with route "aitken".  Its lambda2 is the
    |lambda_2| of the latest due fit whose longer window passed the
    held-out check and saw one unit Ritz value; a fit whose longer window
    sees the unit mode just outside TOL_EIG of 1 measures none.

    The kicked XY row is then rerun on an empty memory with a fit at every
    step from m = 32 and the decay check off.  The fits run up to the even
    stop inclusive, where the odd parity is still open; the held-out check
    alone still rejects every fit before that stop, so the row keeps its
    float.  Without the held-out check as well, a fit stops it early."""
    gate, alpha, beta, n, iterations, lambda2, unchecked_stop = REJECTED_ROWS[row]
    res = otoc_longtime(gate, alpha, beta, n, "even")
    trajectory = _TRAJECTORY_MEMO[n]
    assert (res.meta["route"], res.meta["iterations"]) == ("aitken", iterations)
    assert res.meta["ritz"] is res.meta["residual"] is None
    assert _first_stop(trajectory.overlaps["even"]) == (iterations, res.value)
    due = [(n, m) for m in range(iterations) if transfer._fit_due(n, m)]
    assert due and _at(fits) == due
    outcomes = {m: outcome for _, m, outcome in fits}
    assert outcomes[OFF_UNIT_FITS[row]] is None
    assert all(fit is None or fit["values"] is None for fit in outcomes.values())
    measured = [fit["lambda2"] for fit in outcomes.values() if fit is not None]
    assert res.meta["lambda2"] == measured[-1] == trajectory.lambda2
    if lambda2 is not None:
        assert abs(res.meta["lambda2"] - lambda2) < 1e-3
    if unchecked_stop is None:
        return
    monkeypatch.setattr(transfer, "_fit_due", lambda n, m: m >= 32)
    monkeypatch.setattr(transfer, "SKETCH_GAP", 1.0)

    def stop(result):
        """The float and its stop; lambda2 follows the fit schedule."""
        value, meta = _without_applications(result)
        return value, {k: v for k, v in meta.items() if k != "lambda2"}

    del fits[:]
    assert stop(_fresh_longtime(gate, alpha, beta, n, "even")) == stop(res)
    assert _TRAJECTORY_MEMO[n].stops["odd"] is None
    assert _at(fits) == [(n, m) for m in range(32, iterations + 1)]
    assert all(fit is None or fit["values"] is None for _, m, fit in fits if m < iterations)
    monkeypatch.setattr(transfer, "TOL_HELD_OUT", np.inf)
    unchecked = _fresh_longtime(gate, alpha, beta, n, "even")
    assert (unchecked.meta["route"], unchecked.meta["iterations"]) == ("sketch", unchecked_stop)


def test_longtime_lambda2_never_reads_one_or_more(applies, fits, monkeypatch):
    """The due fit of random_dual_unitary(7), sigma = X, n = 3 even at
    m = 256 passes its held-out check with its unit mode at 1.0000001,
    just outside TOL_EIG of 1, so that no Ritz value counts as the unit
    one; the fits from m = 512 on read 0.99507.  Such a fit measures no
    |lambda_2|, nor does a Ritz value at 1 or above, so the running
    lambda2 that an Aitken stop at m would report is None or below 1
    before the settling of every step, m = 257 to 511 among them, and no
    fit outcome holds such a lambda2."""
    gate, alpha, beta, n, _, _, _ = REJECTED_ROWS["du seed 7, n = 3"]
    running = {}
    settle = transfer._settle

    def settled(trajectory, n):
        running[trajectory.m] = trajectory.lambda2
        return settle(trajectory, n)

    monkeypatch.setattr(transfer, "_settle", settled)
    res = otoc_longtime(gate, alpha, beta, n, "even")
    assert sorted(running) == list(range(res.meta["iterations"] + 1))
    assert transfer._fit_due(n, 256) and not transfer._fit_due(n, 257)
    assert all(fit is None or fit["lambda2"] < 1.0 for *_, fit in fits)
    for m in (257, 384, 511):
        assert running[m] is None, m
    assert all(lam is None or lam < 1.0 for lam in running.values())


def test_longtime_trajectory_keeps_only_the_snapshots_a_fit_reads(applies):
    """After the 1,789 steps of the dual-unitary row, the remembered entry
    holds the last max(SKETCH_WINDOWS) + SKETCH_HOLD = 32 snapshots, each a
    step's two overlaps followed by its sketch, and every overlap."""
    gate, alpha, beta, n, iterations, _, _ = REJECTED_ROWS["du seed 7, n = 3"]
    otoc_longtime(gate, alpha, beta, n, "even")
    entry = _TRAJECTORY_MEMO[n]
    assert entry.m == iterations and WINDOW == 32
    assert len(entry.snapshots) == WINDOW
    assert all(len(entry.overlaps[p]) == iterations + 1 for p in PARITIES)
    for k, snapshot in enumerate(entry.snapshots, start=iterations + 1 - WINDOW):
        assert tuple(snapshot[:2]) == tuple(entry.overlaps[p][k] for p in PARITIES)
