"""Two-site gate families: KAK-parametrized gates, dual-unitary sampling,
the self-dual kicked Ising gate, and the kicked XY gate.

All gates are two-qubit 4x4 unitaries in the index convention of
:mod:`duotoc.opalg`: element ``U[(a,b),(c,d)]`` maps input pair (c,d) to
output pair (a,b) with the left site slower.  ``_checked_inputs`` is the
input rule of every public entry point of the package, the brute-force
oracle's included: it decides q = 2 and that insertions are Hermitian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import opalg
from .opalg import PAULI, assert_unitary, dual, is_unitary


@dataclass(frozen=True)
class Gate:
    """A two-site unitary, checked at construction to be 4 x 4 and unitary."""

    u: np.ndarray

    def __post_init__(self):
        _checked_inputs(self.u)
        assert_unitary(self.u)


def gate_matrix(gate) -> np.ndarray:
    """Accept a Gate or a raw matrix and return the unitary as an ndarray."""
    if isinstance(gate, Gate):
        return gate.u
    return np.asarray(gate, dtype=complex)


def _checked_inputs(gate, *ops) -> list:
    """The insertions ``ops`` as complex arrays, once ``gate`` (if not None)
    is 4 x 4 and every insertion is 2 x 2 and Hermitian, no entry of
    op - op^dag above ``opalg.TOL_REAL``; raises ValueError otherwise.

    Every model here, the brute-force oracle's chain included, is a qubit
    chain with Hermitian insertions.  Each public entry point calls this
    once, where it checks its inputs, and works on what it returns; the
    private builders behind it trust their callers."""
    shapes = [np.shape(op) for op in ops]
    want = [(2, 2)] * len(ops)
    if gate is not None:
        shapes.append(gate_matrix(gate).shape)
        want.append((4, 4))
    if shapes != want:
        raise ValueError(f"only q = 2 is supported (got shapes {shapes}, need "
                         f"{want})")
    ops = [np.asarray(op, dtype=complex) for op in ops]
    # opalg.TOL_REAL read at each call, so that a changed tolerance applies
    residue = max((float(np.abs(op - op.conj().T).max()) for op in ops), default=0.0)
    if residue > opalg.TOL_REAL:
        raise ValueError(f"operator has anti-Hermitian residue {residue:.3e}; "
                         "operators Hermitian?")
    return ops


@dataclass(frozen=True)
class KakParams:
    """Parameters of the canonical two-qubit decomposition
    ``U = e^{i phase} (u_plus kron u_minus) V[jx,jy,jz] (v_minus kron v_plus)``
    with ``V = exp[-i (jx XX + jy YY + jz ZZ)]``; one-qubit factors are given
    by real 3-vectors n via ``exp[-i n.sigma]``.
    """

    phase: float
    jx: float
    jy: float
    jz: float
    u_plus: tuple
    u_minus: tuple
    v_plus: tuple
    v_minus: tuple


def one_qubit_gate(n) -> np.ndarray:
    """``exp[-i n.sigma]`` for a real 3-vector n (special unitary)."""
    n = np.asarray(n, dtype=float)
    theta = np.linalg.norm(n)
    if theta == 0:
        return np.eye(2, dtype=complex)
    nhat = n / theta
    ns = nhat[0] * PAULI[1] + nhat[1] * PAULI[2] + nhat[2] * PAULI[3]
    return np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * ns


def _heisenberg_v(jx: float, jy: float, jz: float) -> np.ndarray:
    """``exp[-i (jx XX + jy YY + jz ZZ)]`` via the three commuting factors."""
    out = np.eye(4, dtype=complex)
    for j, s in ((jx, PAULI[1]), (jy, PAULI[2]), (jz, PAULI[3])):
        ss = np.kron(s, s)
        out = out @ (np.cos(j) * np.eye(4) - 1j * np.sin(j) * ss)
    return out


def build_kak(p: KakParams) -> Gate:
    """Assemble a two-qubit gate from its canonical decomposition."""
    left = np.kron(one_qubit_gate(p.u_plus), one_qubit_gate(p.u_minus))
    right = np.kron(one_qubit_gate(p.v_minus), one_qubit_gate(p.v_plus))
    u = np.exp(1j * p.phase) * left @ _heisenberg_v(p.jx, p.jy, p.jz) @ right
    return Gate(u=u)


def _ball_point(rng, radius: float) -> tuple:
    """Uniform point in the ball of given radius."""
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    r = radius * rng.uniform() ** (1.0 / 3.0)
    return tuple(r * v)


def random_kak_params(seed, dual_unitary: bool = False) -> KakParams:
    """Seeded random KAK parameters: phase and couplings uniform on [0, 2pi),
    one-qubit vectors uniform in the ball of radius pi.  With
    ``dual_unitary=True`` the couplings jx = jy = pi/4 are fixed.
    """
    rng = np.random.default_rng(seed)
    if dual_unitary:
        jx = jy = np.pi / 4
    else:
        jx = rng.uniform(0, 2 * np.pi)
        jy = rng.uniform(0, 2 * np.pi)
    return KakParams(
        phase=rng.uniform(0, 2 * np.pi),
        jx=jx,
        jy=jy,
        jz=rng.uniform(0, 2 * np.pi),
        u_plus=_ball_point(rng, np.pi),
        u_minus=_ball_point(rng, np.pi),
        v_plus=_ball_point(rng, np.pi),
        v_minus=_ball_point(rng, np.pi),
    )


def random_kak(seed) -> Gate:
    """A generic (typically non-dual-unitary) random two-qubit gate."""
    return build_kak(random_kak_params(seed, dual_unitary=False))


def random_dual_unitary(seed) -> Gate:
    """A random dual-unitary gate: jx = jy = pi/4, everything else random."""
    return build_kak(random_kak_params(seed, dual_unitary=True))


def build_kim(h1: float, h2: float) -> Gate:
    """The self-dual kicked Ising gate; J = b = pi/4 is implied.

    Matrix elements, with spin labels a,b,c,d in {-1,+1} (+1 maps to index 0),
    row (a,b) = output, column (c,d) = input, left site first:

        U_{ab,cd} = -(i/2) exp[i(pi/4)(a-d)(c-b)]
                    exp[-i(h1/2)(a+c) - i(h2/2)(b+d)]

    Dual-unitary for every (h1, h2); integrable (non-ergodic) when h1 = -h2.
    """
    h1, h2 = float(h1), float(h2)
    u = np.zeros((4, 4), dtype=complex)
    spins = (1.0, -1.0)
    for ia, a in enumerate(spins):
        for ib, b in enumerate(spins):
            for ic, c in enumerate(spins):
                for id_, d in enumerate(spins):
                    u[ia * 2 + ib, ic * 2 + id_] = (
                        -0.5j
                        * np.exp(1j * (np.pi / 4) * (a - d) * (c - b))
                        * np.exp(-1j * (h1 / 2) * (a + c) - 1j * (h2 / 2) * (b + d))
                    )
    return Gate(u=u)


# The kicked XY gate is defined diagrammatically; its algebraic content is the
# set of conjugation identities below, which single out one composition of
# J[J] = exp[iJ ZZ] exp[i(pi/4) YY] with the kick K = exp[i(pi/4) X]:
# U = J[J] (1 kron K).
_ID, _SX, _SY, _SZ = (np.eye(2, dtype=complex), PAULI[1], PAULI[2], PAULI[3])
_XY_RIGHT_IDENTITIES = [
    (np.kron(_ID, _ID), np.kron(_ID, _ID)),
    (np.kron(_SX, _SX), np.kron(_SX, _SX)),
    (np.kron(_ID, _SY), np.kron(_SY, _SX)),
    (np.kron(_SX, _SZ), np.kron(_SZ, _ID)),
]
_XY_LEFT_IDENTITIES = [
    (np.kron(_ID, _ID), np.kron(_ID, _ID)),
    (np.kron(_SX, _SX), np.kron(_SX, _SX)),
    (np.kron(_SY, _SX), np.kron(_ID, _SY)),
    (np.kron(_SZ, _ID), np.kron(_SX, _SZ)),
]
# how far the composition may miss an identity before construction fails
_XY_IDENTITY_TOL = 1e-12


def build_xy(j: float) -> Gate:
    """The kicked XY gate at coupling J (the J_z of the figures),
    U = J[J] (1 kron K); dual-unitary iff |J| = pi/4.

    U must satisfy all eight conjugation identities above (to 1e-12); if it
    misses one, the conventions are broken and construction fails loudly.
    """
    j = float(j)
    kick = np.cos(np.pi / 4) * np.eye(2) + 1j * np.sin(np.pi / 4) * _SX
    jj = (np.cos(j) * np.eye(4) + 1j * np.sin(j) * np.kron(_SZ, _SZ)) @ (
        np.cos(np.pi / 4) * np.eye(4) + 1j * np.sin(np.pi / 4) * np.kron(_SY, _SY)
    )
    u = jj @ np.kron(_ID, kick)
    misses = [u @ a @ u.conj().T - b for a, b in _XY_RIGHT_IDENTITIES]
    misses += [u.conj().T @ a @ u - b for a, b in _XY_LEFT_IDENTITIES]
    if max(np.max(np.abs(miss)) for miss in misses) > _XY_IDENTITY_TOL:
        raise ValueError("the kicked-XY composition misses a defining identity")
    return Gate(u=u)


def is_dual_unitary(gate) -> bool:
    """True iff the space-time dual of the gate is unitary (within
    TOL_UNITARY)."""
    return is_unitary(dual(gate_matrix(gate)))
