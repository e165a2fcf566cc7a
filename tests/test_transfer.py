"""Column transfer matrix: fixed points, parity dispatch, the Hermitian-basis
kernel against the dense complex-basis reference, mirrors."""

from functools import reduce

import numpy as np
import pytest

from duotoc.eigenbases import SlotState, all_identity_state
from duotoc.gates import build_kim, build_xy, gate_matrix, random_dual_unitary, random_kak
from duotoc.opalg import pauli_basis, swap_gate
from duotoc.oracle import ChainSpec, oracle_otoc
from duotoc.transfer import (
    ITERATION_CAP,
    N_MAX_APPLY,
    _bundle_tensor,
    _depths,
    _inter_cap,
    _PauliColumnKernel,
    _sheet_mpo,
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
    identical convergence histories."""
    mat = build_transfer(gate, n).mat
    left = _complex_left(ALPHA, n)
    v = _complex_right(gate, BETA, n, parity)
    s_prev = np.dot(left, v)
    for m in range(1, ITERATION_CAP + 1):
        v = mat @ v
        s = np.dot(left, v)
        if abs(s - s_prev) < 1e-10:
            break
        s_prev = s
    res = otoc_longtime(gate, ALPHA, BETA, n, parity)
    assert res.meta["converged"] is True
    assert res.value == pytest.approx(s.real, abs=TOL_AGREE)
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


def test_longtime_iteration_metadata():
    res = otoc_longtime(build_kim(h1=0.4, h2=0.6), ALPHA, BETA, 1, "odd")
    assert res.meta["converged"] is True
    assert res.meta["iterations"] >= 1
    assert res.method == "longtime_iterate"
