"""Column transfer matrix: fixed points, parity dispatch, the Hermitian-basis
kernel and its transpose against the dense complex-basis reference, the
slot-reversal symmetry, mirrors, the finite-time and long-time trajectory
memos, the long-time stop rule."""

import sys
import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from functools import reduce

import numpy as np
import pytest

from duotoc import transfer
from duotoc.cli import operator_from_coeffs
from duotoc.closed_forms import kim_longtime
from duotoc.eigenbases import SlotState, all_identity_state
from duotoc.gates import build_kim, build_xy, gate_matrix, random_dual_unitary, random_kak
from duotoc.opalg import pauli_basis, swap_gate
from duotoc.oracle import ChainSpec, oracle_otoc
from duotoc.transfer import (
    _IDENTITY_COEFFS,
    CESARO_WINDOW,
    ITERATION_CAP,
    N_MAX_APPLY,
    STOP_WINDOW,
    _LEFT_TRAJECTORIES,
    _TRAJECTORIES,
    _bundle_tensor,
    _depths,
    _inter_cap,
    _PauliColumnKernel,
    _sheet_mpo,
    _stopped_limit,
    boundary_left,
    boundary_right,
    build_transfer,
    fixed_left,
    fixed_right,
    otoc_finite,
    otoc_longtime,
    parity_tag,
)

TOL_FIXED = 1e-10
TOL_AGREE = 1e-12

I2, SX, SY, SZ = pauli_basis(2).ops
ALPHA = SX / np.sqrt(6) + SY / np.sqrt(2) + SZ / np.sqrt(3)
BETA = SX / np.sqrt(6) - SY / np.sqrt(2) + SZ / np.sqrt(3)
# insertions with an identity component: all four Pauli coefficients nonzero
ALPHA_I = 0.3 * I2 + ALPHA
BETA_I = -0.5 * I2 + BETA
SWAP = swap_gate(2)

GATES = [
    ("du0", random_dual_unitary(0)),
    ("kim", build_kim(h1=0.4, h2=0.6)),
    ("xy", build_xy(j=np.pi / 10)),
    ("kak", random_kak(1)),
]


@pytest.mark.parametrize("name,gate", GATES)
@pytest.mark.parametrize("n", [1, 2])
def test_fixed_points(name, gate, n):
    tm = build_transfer(gate, n)
    r = fixed_right(n)
    l = fixed_left(n)
    assert np.abs(tm.mat @ r - r).max() < TOL_FIXED
    assert np.abs(tm.mat.T @ l - l).max() < TOL_FIXED
    # bilinear pairing of the fixed points is unity
    assert np.dot(l, r) == pytest.approx(1.0, abs=TOL_FIXED)


@pytest.mark.parametrize("name,gate", GATES)
def test_spectral_radius_bounded(name, gate):
    tm = build_transfer(gate, 2)
    assert np.abs(np.linalg.eigvals(tm.mat)).max() < 1 + 1e-8


def _dense_radius_estimate(mat, iters=200, seed=7):
    """Reference: the same power iteration on the dense complex matrix."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(mat.shape[0]) + 1j * rng.standard_normal(mat.shape[0])
    v /= np.linalg.norm(v)
    growth = 0.0
    for _ in range(iters):
        w = mat @ v
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
    Q^T change of the start vector is unitary, so it sees the norms of the
    dense iteration."""
    tm = build_transfer(gate, 3)
    assert tm.spectral_radius == pytest.approx(_dense_radius_estimate(tm.mat), abs=TOL_AGREE)


def _legs(n):
    """Q on all 2n slots: columns vec(sigma_mu)/sqrt(2), slot 1 slowest."""
    q1 = np.stack([op.reshape(4) / np.sqrt(2) for op in (I2, SX, SY, SZ)], axis=1)
    return reduce(np.kron, [q1] * (2 * n))


@pytest.mark.parametrize("n", [1, 2])
def test_operator_apply_matches_dense(n):
    """The Hermitian-basis kernel, mapped back through the per-leg basis
    change (v = conj(Q) u), is the dense complex-basis transfer matrix."""
    legs = _legs(n)
    for name, gate in GATES:
        kern = _PauliColumnKernel(gate, n)
        basis = np.eye(kern.dim)
        k = np.stack([kern.apply(e).copy() for e in basis], axis=1)
        mat = build_transfer(gate, n).mat
        assert np.abs(legs.conj() @ k @ legs.T - mat).max() < TOL_AGREE, name


@pytest.mark.parametrize("n", [1, 2])
def test_transposed_apply_matches_dense_transpose(n):
    """The transposed kernel carries left vectors, whose Hermitian-basis
    coefficients are Q^dagger l per slot: mapped back (l = Q u), it is the
    transpose of the dense complex-basis transfer matrix."""
    legs = _legs(n)
    for name, gate in GATES:
        kern = _PauliColumnKernel(gate, n, transpose=True)
        basis = np.eye(kern.dim)
        k = np.stack([kern.apply(e).copy() for e in basis], axis=1)
        mat = build_transfer(gate, n).mat
        assert np.abs(legs @ k @ legs.conj().T - mat.T).max() < TOL_AGREE, name


def _stepwise_apply(kern, u, cap):
    """Reference column application: one full pass per slot, 2n down to 1,
    each a batched 16 x 16 product, then sheet one's cap with the 1/q."""
    d, n, wp = 4, kern.n, kern._wp
    cap = np.asarray(cap, dtype=float)
    first = np.einsum("oudi,d->iuo", wp, cap).reshape(d, d * d)
    sheet_two = wp.transpose(3, 2, 1, 0).reshape(d * d, d * d).T
    sheet_one = wp.transpose(3, 1, 2, 0).reshape(d * d, d * d).T
    p = u.reshape(-1, d) @ first
    for s in range(2 * n - 1, 0, -1):
        mat = sheet_two if s > n else sheet_one
        p = np.matmul(mat, p.reshape(d ** (s - 1), d * d, -1))
    return cap / 2 @ p.reshape(d, -1)


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
    slot-by-slot reference, with identity caps and sigma_beta caps."""
    kern = _PauliColumnKernel(gate, n)
    rng = np.random.default_rng(n)
    u = rng.standard_normal(kern.dim)
    beta = rng.standard_normal(4)  # coefficients of a random Hermitian sigma_beta
    _assert_close(kern.apply(u), _stepwise_apply(kern, u, _IDENTITY_COEFFS))
    _assert_close(kern.apply(u, cap=beta), _stepwise_apply(kern, u, beta))


@pytest.mark.parametrize("name,gate", BLOCKED)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_transposed_kernel_pairs_with_the_forward_one(name, gate, n):
    """(T^T l) . r = l . (T r), with identity caps and sigma_beta caps."""
    fwd = _PauliColumnKernel(gate, n)
    bwd = _PauliColumnKernel(gate, n, transpose=True)
    rng = np.random.default_rng(20 + n)
    l, r = rng.standard_normal((2, fwd.dim))
    for cap in (None, rng.standard_normal(4)):
        want = np.dot(l, fwd.apply(r, cap=cap))
        got = np.dot(bwd.apply(l, cap=cap), r)
        assert abs(got - want) <= 1e-13 * abs(want)


def _reverse_slots(u, n):
    """The slot reversal R, j <-> 2n + 1 - j, which exchanges the sheets."""
    return u.reshape((4,) * (2 * n)).transpose(range(2 * n - 1, -1, -1)).reshape(-1)


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_kernel_commutes_with_slot_reversal(n, transpose):
    """T R = R T in both directions: an invariant of the column that any
    rewrite of the kernel must keep."""
    rng = np.random.default_rng(30 + n)
    for name, gate in [("kim", build_kim(h1=0.4, h2=0.6)), ("kak", random_kak(1)),
                       ("du3", random_dual_unitary(3)), ("xy", build_xy(j=0.6))]:
        kern = _PauliColumnKernel(gate, n, transpose=transpose)
        u = rng.standard_normal(kern.dim)
        want = _reverse_slots(kern.apply(u), n)
        _assert_close(kern.apply(_reverse_slots(u, n)), want)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_kernel_chains_on_its_own_output_and_ignores_stale_buffers(n):
    gate = random_kak(1)
    for transpose in (False, True):
        kern = _PauliColumnKernel(gate, n, transpose=transpose)
        # one scratch pair per worker: the caller and each helper
        assert len(kern._scratch) == min(transfer._CORES, 4 ** kern.k)
        for buf in (kern._middle, kern._out, *kern._scratch):
            buf.fill(np.nan)
        u = np.random.default_rng(10 + n).standard_normal(kern.dim)
        want = u
        v = u.copy()
        for _ in range(3):
            want = _stepwise_apply(kern, want, _IDENTITY_COEFFS)
            v = kern.apply(v)  # reads the buffer it is about to overwrite
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


def _one_worker_kernel(monkeypatch, gate, n, transpose=False):
    """The kernel as built on a one-core machine: one scratch pair, one tail
    piece, no helpers."""
    with monkeypatch.context() as m:
        m.setattr(transfer, "_CORES", 1)
        kern = _PauliColumnKernel(gate, n, transpose=transpose)
    assert len(kern._scratch) == 1
    return kern


def _chain(kern, u, cap, times=3):
    out, v = [], u
    for _ in range(times):
        v = kern.apply(v, cap=cap)
        out.append(v.copy())
    return out


@pytest.mark.parametrize("n", [4, 5])
def test_shared_apply_is_bit_identical_to_one_worker(n, helpers, monkeypatch):
    """Caller and helpers in whatever interleaving the pool gives, and a
    helper that takes every piece, produce the one-worker apply bit for bit:
    forward and transposed, identity and sigma_beta caps, chained on the
    kernel's own output."""
    gate = random_kak(1)
    rng = np.random.default_rng(40 + n)
    u = rng.standard_normal(4 ** (2 * n))
    caps = (None, rng.standard_normal(4))
    for transpose in (False, True):
        alone = _one_worker_kernel(monkeypatch, gate, n, transpose)
        want = [_chain(alone, u, cap) for cap in caps]
        del alone
        kern = _PauliColumnKernel(gate, n, transpose=transpose)
        assert len(kern._scratch) >= 2
        for cap, chain in zip(caps, want):  # the real pool: any split
            assert all(np.array_equal(got, w) for got, w in
                       zip(_chain(kern, u, cap), chain)), (transpose, cap)
        with monkeypatch.context() as m:
            m.setattr(transfer, "_HELPERS", _InlinePool())
            for cap, chain in zip(caps, want):
                kern._scratch.fill(np.nan)
                got = _chain(kern, u, cap)
                # the first helper ran every block in its own scratch pair
                assert np.isnan(kern._scratch[0]).all()
                assert not np.isnan(kern._scratch[1]).any()
                assert all(np.array_equal(g, w) for g, w in zip(got, chain)), (transpose, cap)


def test_helpers_take_no_piece_while_the_cores_are_busy(helpers, monkeypatch):
    """With as many applies running as there are cores, counting this one, a
    helper returns without a piece: its scratch pair keeps its NaNs and the
    caller's output is the one-worker apply's."""
    gate = random_kak(1)
    u = np.random.default_rng(50).standard_normal(4 ** 10)
    want = _one_worker_kernel(monkeypatch, gate, 5).apply(u).copy()
    kern = _PauliColumnKernel(gate, 5)
    kern._scratch.fill(np.nan)
    monkeypatch.setattr(transfer, "_HELPERS", _InlinePool())
    monkeypatch.setattr(transfer, "_running", transfer._CORES - 1)
    got = kern.apply(u)
    assert transfer._running == transfer._CORES - 1
    assert np.isnan(kern._scratch[1:]).all()
    assert np.array_equal(got, want)


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
    want = _chain(_one_worker_kernel(monkeypatch, gate, 5, True), u, None, 2)
    kern = _PauliColumnKernel(gate, 5, transpose=True)
    started, release = threading.Semaphore(0), threading.Event()

    def block():
        started.release()
        release.wait(120)  # frees the pool if the test fails

    blockers = [helpers.submit(block) for _ in range(transfer._CORES - 1)]
    try:
        for _ in blockers:
            assert started.acquire(timeout=60)
        [got] = _in_threads(lambda: _chain(kern, u, None, 2))
    finally:
        release.set()
    for future in blockers:
        future.result(timeout=60)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("n,threads", [(5, 2), (4, 6)])
def test_concurrent_applies_match_serial_applies(n, threads, helpers, monkeypatch):
    """Threads chain applies of their own kernels at the same time and get
    the bits of serial one-worker chains: two at n = 5 (the finite_scan
    pattern), and more threads than cores at n = 4 with a 1 us switch
    interval; afterwards no apply counts as running."""
    gates = [random_kak(seed) for seed in range(threads)]
    starts = np.random.default_rng(52).standard_normal((threads, 4 ** (2 * n)))
    want = [_chain(_one_worker_kernel(monkeypatch, g, n), u, None)
            for g, u in zip(gates, starts)]
    kernels = [_PauliColumnKernel(g, n) for g in gates]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _in_threads(*(lambda k=k, u=u: _chain(k, u, None)
                            for k, u in zip(kernels, starts)))
    finally:
        sys.setswitchinterval(interval)
    for chains, wants in zip(got, want):
        assert all(np.array_equal(g, w) for g, w in zip(chains, wants))
    assert transfer._running == 0


def _complex_left(sigma_alpha, n):
    pairs = tuple((j, 2 * n + 1 - j, I2) for j in range(1, n)) + ((n, n + 1, sigma_alpha),)
    return 2.0 ** (-n / 2) * SlotState(n=n, side="left", pairs=pairs).vector()


def _complex_right(gate, sigma_beta, n, parity):
    if parity == "even":
        prods = {s: I2 for s in range(2, 2 * n)}
        prods[1] = prods[2 * n] = sigma_beta
        return 2.0 ** (-n / 2) * SlotState(n=n, side="right", prods=prods).vector()
    # odd: build_transfer's sheet construction with vec(sigma_beta) bottom
    # caps, applied to the all-identity product
    w = _bundle_tensor(gate_matrix(gate), 2)
    cap = np.asarray(sigma_beta, dtype=complex).reshape(4)
    s1 = _sheet_mpo(w, n, cap, reverse=False)
    s2 = _sheet_mpo(w, n, cap, reverse=True)
    half = 4 ** n
    v0 = all_identity_state(n).vector().reshape(half, half)
    raw = np.einsum("kl,kab,lcd,bd->ac", _inter_cap(2), s1, s2, v0, optimize=True)
    return 2.0 ** (-n / 2 - 1) * raw.reshape(-1)


def _dense_otoc(gate, sigma_alpha, sigma_beta, x, t, mats):
    """C(x, t) from build_transfer(...).mat and complex-basis boundaries;
    mats caches the dense matrices by (mirrored, n)."""
    mirrored = x < 0
    if mirrored:
        gate, x = SWAP @ gate_matrix(gate) @ SWAP, -x
    n, applications, parity = _depths(x, t)
    if (mirrored, n) not in mats:
        mats[mirrored, n] = build_transfer(gate, n).mat
    v = _complex_right(gate, sigma_beta, n, parity)
    for _ in range(applications):
        v = mats[mirrored, n] @ v
    return complex(np.dot(_complex_left(sigma_alpha, n), v))


@pytest.mark.parametrize("name,gate", GATES)
def test_finite_matches_dense_boundaries(name, gate):
    """Real-basis boundaries and kernel against the dense complex route at
    n <= 2, both parities, x < 0 through the mirrored gate, and insertions
    with an identity component."""
    cells = [(0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (0, 3), (2, 3), (1, 4),
             (3, 4), (-1, 1), (-1, 2), (-1, 3), (-1, 4)]
    mats = {}
    for x, t in cells:
        want = _dense_otoc(gate, ALPHA_I, BETA_I, x, t, mats)
        assert abs(want.imag) < TOL_AGREE
        got = otoc_finite(gate, ALPHA_I, BETA_I, x, t)
        assert got.value == pytest.approx(want.real, abs=TOL_AGREE), (x, t)
        assert got.n <= 2


def test_finite_matches_dense_boundaries_depth3():
    gate = random_kak(1)
    mats = {}
    for x, t in [(0, 4), (1, 5), (0, 5)]:  # n = 3: even, even, odd
        want = _dense_otoc(gate, ALPHA_I, BETA_I, x, t, mats)
        got = otoc_finite(gate, ALPHA_I, BETA_I, x, t)
        assert got.n == 3
        assert got.value == pytest.approx(want.real, abs=TOL_AGREE), (x, t)


def test_parity_tag():
    assert parity_tag(3, 3) == "even"
    assert parity_tag(2, 3) == "odd"
    assert parity_tag(0, 4) == "even"
    assert parity_tag(-1, 2) == "odd"


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
    mat = build_transfer(gate, n).mat
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


def test_only_qubits_supported():
    gate = random_dual_unitary(0)
    with pytest.raises(ValueError, match="only q = 2"):
        otoc_finite(gate, SX, SX, 0, 2, q=3)
    with pytest.raises(ValueError, match="only q = 2"):
        otoc_longtime(gate, SX, SX, 1, "even", q=3)


def test_boundary_overlap_t0_identity():
    # (L(a)| paired with the even product state |R(b)) is tr(abab)/q
    lv = boundary_left(ALPHA, 1).vec
    rv = boundary_right(BETA, 1, "even").vec
    want = np.trace(ALPHA @ BETA @ ALPHA @ BETA).real / 2
    assert np.dot(lv, rv).real == pytest.approx(want, abs=1e-12)


def test_boundary_right_odd_needs_gate():
    gate = build_kim(h1=0.4, h2=0.6)
    v = boundary_right(BETA, 1, "odd", gate=gate).vec
    assert v.shape == (16,)
    assert np.linalg.norm(v) > 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_odd_boundary_on_the_call_kernel_is_bit_identical(n):
    # otoc_finite/otoc_longtime dress the odd boundary with their own kernel,
    # whose buffers already hold other data; the vector must not change
    gate = random_kak(2)
    fresh = boundary_right(BETA_I, n, "odd", gate=gate).vec
    kern = _PauliColumnKernel(gate, n)
    u = np.random.default_rng(n).standard_normal(kern.dim)
    plain = kern.apply(u).copy()
    kern.apply(u)
    shared = boundary_right(BETA_I, n, "odd", kernel=kern).vec
    assert np.array_equal(shared, fresh)
    # the sigma_beta caps served one application only
    assert np.array_equal(kern.apply(u), plain)


def _fresh(gate, sigma_alpha, sigma_beta, x, t):
    _TRAJECTORIES.clear()
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
    """meta["applications"]: n_+ kernel applications, plus one for a
    gate-dressed odd boundary, and 0 for a cell served from memory or
    outside the light cone; a mirrored cell reports its mirror image's."""
    gate = random_kak(1)
    cells = {(1, 6): 4,    # n = 3, odd: 3 applications and the dressing
             (0, 5): 0,    # the same diagonal, served from memory
             (2, 6): 4,    # n = 3, even
             (5, 3): 0,    # outside the light cone
             (-1, 4): 3}   # the mirrored gate's (1, 4): n = 2, odd
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
        otoc_finite(gate, ALPHA, beta, 0, 5, q=3)
    with pytest.raises(ValueError, match="Hermitian"):
        otoc_finite(gate, SX + 1j * SZ, beta, 0, 5)
    with monkeypatch.context() as m:
        m.setattr("duotoc.transfer.TOL_REAL", 1e-12)
        with pytest.raises(ValueError, match="Hermitian"):
            otoc_finite(gate, ALPHA, beta, 0, 5)
    with monkeypatch.context() as m:
        m.setattr("duotoc.transfer.N_MAX_APPLY", 2)
        with pytest.raises(ValueError, match="budget"):
            otoc_finite(gate, ALPHA, beta, 0, 5)
    assert applies == []


def test_memo_misses_on_changed_operators_and_gates(applies):
    base = gate_matrix(random_kak(1))
    other = gate_matrix(random_kak(2))
    # (gate, sigma_beta, cell) after (2, 6) on base remembered n = 3, even
    calls = {"changed sigma_beta": (base, BETA, (1, 5)),
             "mirrored gate": (base, BETA_I, (-1, 5))}
    for name, (gate, beta, (x, t)) in calls.items():
        _TRAJECTORIES.clear()
        otoc_finite(base, ALPHA_I, BETA_I, 2, 6)
        del applies[:]
        got = otoc_finite(gate, ALPHA_I, beta, x, t).value
        assert applies, name
        assert got == _fresh(gate, ALPHA_I, beta, x, t), name
        assert got != _fresh(base, ALPHA_I, BETA_I, 1, 5), name
    # a gate array changed in place after its trajectory was remembered
    gate = base.copy()
    _TRAJECTORIES.clear()
    otoc_finite(gate, ALPHA_I, BETA_I, 2, 6)
    gate[...] = other
    del applies[:]
    got = otoc_finite(gate, ALPHA_I, BETA_I, 1, 5).value
    assert applies
    assert got == _fresh(other, ALPHA_I, BETA_I, 1, 5)
    assert got != _fresh(base, ALPHA_I, BETA_I, 1, 5)


def test_memo_holds_at_most_one_trajectory_per_slot():
    _TRAJECTORIES.clear()
    gate = random_kak(1)
    for t in range(2 * N_MAX_APPLY):  # (0, t) covers every depth and parity
        otoc_finite(gate, ALPHA, BETA, 0, t)
    for beta in (BETA_I, SZ):
        for t in range(1, 6):
            otoc_finite(gate, ALPHA, beta, 1, t)
            otoc_finite(SWAP @ gate_matrix(gate) @ SWAP, ALPHA, beta, 1, t)
    assert len(_TRAJECTORIES) == 2 * N_MAX_APPLY
    assert set(_TRAJECTORIES) == {(n, parity) for n in range(1, N_MAX_APPLY + 1)
                                  for parity in ("even", "odd")}


def test_memo_serves_threads_on_different_slots():
    """Eight threads, more than the cores, each sweep one diagonal far cell
    first; two operators share every slot, so entries are replaced while
    other threads read them."""
    gate = random_kak(1)
    betas = (BETA, BETA_I)
    jobs = [(b, k) for b in range(len(betas)) for k in range(4)]  # n <= 2
    cells = {(b, k): [(x, x + k) for x in range(6, -1, -1)] for b, k in jobs}
    want = {job: [_fresh(gate, ALPHA, betas[job[0]], x, t) for x, t in cells[job]]
            for job in jobs}
    _TRAJECTORIES.clear()

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
    _LEFT_TRAJECTORIES.clear()
    return otoc_longtime(gate, sigma_alpha, sigma_beta, n, parity)


def _without_applications(res):
    return res.value, {k: v for k, v in res.meta.items() if k != "applications"}


# (gate, n) with the iterations (even, odd) each parity stops at
SETTLE_ORDERS = {
    "odd first": (build_kim(h1=0.4, h2=0.6), 1, (35, 8)),
    "even first": (build_kim(h1=0.4, h2=0.6), 2, (38, 39)),
    "together": (random_kak(1), 1, (20, 20)),
}


@pytest.mark.parametrize("first", PARITIES)
@pytest.mark.parametrize("order", SETTLE_ORDERS)
def test_longtime_memo_hit_and_resume_are_bit_identical(applies, order, first):
    """Whichever parity is asked first and whichever settles first, the
    second call returns what a call on an empty memory returns, bit for bit,
    and makes only the applications past the first call's stop."""
    gate, n, iterations = SETTLE_ORDERS[order]
    its = dict(zip(PARITIES, iterations))
    fresh = {p: _fresh_longtime(gate, ALPHA_I, BETA_I, n, p) for p in PARITIES}
    for p in PARITIES:
        assert fresh[p].meta["iterations"] == its[p]
        # each fresh call also dresses the odd boundary, to read both parities
        assert fresh[p].meta["applications"] == its[p] + 1
    second = "odd" if first == "even" else "even"
    _LEFT_TRAJECTORIES.clear()
    del applies[:]
    got = {p: otoc_longtime(gate, ALPHA_I, BETA_I, n, p) for p in (first, second)}
    for p in PARITIES:
        assert _without_applications(got[p]) == _without_applications(fresh[p]), p
    assert got[first].meta["applications"] == its[first] + 1
    if its[second] <= its[first]:
        assert got[second].meta["applications"] == 0
    else:
        assert got[second].meta["applications"] == (its[second] - its[first]
                                                    + (second == "odd"))
    assert len(applies) == sum(res.meta["applications"] for res in got.values())
    assert applies.count(n) == len(applies)
    # a third call of either parity is a hit
    del applies[:]
    for p in PARITIES:
        again = otoc_longtime(gate, ALPHA_I, BETA_I, n, p)
        assert _without_applications(again) == _without_applications(fresh[p])
        assert again.meta["applications"] == 0
    assert applies == []


def test_longtime_memo_keeps_results_at_the_iteration_cap(monkeypatch, applies):
    """Where neither parity settles before the cap, the first call leaves
    both Cesaro means, and the other parity is served from memory."""
    monkeypatch.setattr("duotoc.transfer.ITERATION_CAP", 12)
    gate = random_dual_unitary(0)
    fresh = {p: _fresh_longtime(gate, ALPHA, BETA, 2, p) for p in PARITIES}
    assert all(res.meta["converged"] is False for res in fresh.values())
    _LEFT_TRAJECTORIES.clear()
    otoc_longtime(gate, ALPHA, BETA, 2, "even")
    del applies[:]
    odd = otoc_longtime(gate, ALPHA, BETA, 2, "odd")
    assert applies == []
    assert _without_applications(odd) == _without_applications(fresh["odd"])


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
        _LEFT_TRAJECTORIES.clear()
        otoc_longtime(base, ALPHA_I, BETA_I, 2, "even")
        got = otoc_longtime(gate, alpha, beta, n, "odd")
        assert got.meta["applications"] == got.meta["iterations"] + 1, name
        want = _fresh_longtime(gate, alpha, beta, n, "odd")
        assert _without_applications(got) == _without_applications(want), name
    # the base key itself resumes (odd settles after even here)
    _LEFT_TRAJECTORIES.clear()
    otoc_longtime(base, ALPHA_I, BETA_I, 2, "even")
    assert otoc_longtime(base, ALPHA_I, BETA_I, 2, "odd").meta["applications"] == 2
    # a gate array changed in place after its trajectory was remembered
    gate = base.copy()
    _LEFT_TRAJECTORIES.clear()
    otoc_longtime(gate, ALPHA_I, BETA_I, 2, "even")
    gate[...] = other
    got = otoc_longtime(gate, ALPHA_I, BETA_I, 2, "odd")
    assert got.meta["applications"] == got.meta["iterations"] + 1
    want = _fresh_longtime(other, ALPHA_I, BETA_I, 2, "odd")
    assert _without_applications(got) == _without_applications(want)


def test_longtime_memo_does_not_bypass_argument_checks(monkeypatch, applies):
    gate = random_kak(1)
    # anti-Hermitian residue 2e-11, within TOL_REAL until that is tightened
    beta = BETA + 1e-11j * I2
    otoc_longtime(gate, ALPHA, beta, 2, "even")
    otoc_longtime(gate, ALPHA, beta, 2, "odd")
    del applies[:]
    assert otoc_longtime(gate, ALPHA, beta, 2, "odd").meta["applications"] == 0
    with pytest.raises(ValueError, match="only q = 2"):
        otoc_longtime(gate, ALPHA, beta, 2, "odd", q=3)
    with pytest.raises(ValueError, match="Hermitian"):
        otoc_longtime(gate, SX + 1j * SZ, beta, 2, "odd")
    with pytest.raises(ValueError, match="parity"):
        otoc_longtime(gate, ALPHA, beta, 2, "Odd")
    with monkeypatch.context() as m:
        m.setattr("duotoc.transfer.TOL_REAL", 1e-12)
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
    _LEFT_TRAJECTORIES.clear()

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
    assert res.method == "longtime_iterate"


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
    assert abs(res.value - kim_longtime(0.4, 0.6, a, b, 2, 8)) <= 5e-10
