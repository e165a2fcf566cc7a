"""Two-site gate families: KAK-parametrized gates, dual-unitary sampling,
the self-dual kicked Ising gate, and the kicked XY gate.

All gates are two-qubit 4x4 unitaries in the index convention of
:mod:`duotoc.opalg`: element ``U[(a,b),(c,d)]`` maps input pair (c,d) to
output pair (a,b) with the left site slower.  ``_check_qubits`` is the one
place that decides q = 2: the transfer entry points and every function of
this module, ``opalg`` and ``channels`` that takes a gate call it before
they reshape anything, and so do the brute-force oracle's entry points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .opalg import PAULI, TOL_UNITARY, assert_unitary, dual, is_unitary

__all__ = [
    "Gate",
    "KakParams",
    "gate_matrix",
    "one_qubit_gate",
    "build_kak",
    "random_kak_params",
    "random_kak",
    "random_dual_unitary",
    "build_kim",
    "build_xy",
    "is_dual_unitary",
]


@dataclass(frozen=True)
class Gate:
    """A two-site unitary with provenance metadata."""

    u: np.ndarray
    family: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_qubits(self.u)
        assert_unitary(self.u, name=f"{self.family or 'gate'}")


def gate_matrix(gate) -> np.ndarray:
    """Accept a Gate or a raw matrix and return the unitary as an ndarray."""
    if isinstance(gate, Gate):
        return gate.u
    return np.asarray(gate, dtype=complex)


def _check_qubits(gate, *ops):
    """Raise unless ``gate`` (if not None) is 4 x 4 and every insertion in
    ``ops`` is 2 x 2: every model here, the brute-force oracle's chain
    included, is a qubit chain."""
    shapes = [np.shape(op) for op in ops]
    want = [(2, 2)] * len(ops)
    if gate is not None:
        shapes.append(gate_matrix(gate).shape)
        want.append((4, 4))
    if shapes != want:
        raise ValueError(f"only q = 2 is supported (got shapes {shapes}, need "
                         f"{want})")


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
    return Gate(u=u, family="kak", meta={"params": p})


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
    g = build_kak(random_kak_params(seed, dual_unitary=False))
    return Gate(u=g.u, family="kak", meta={**g.meta, "seed": seed})


def random_dual_unitary(seed) -> Gate:
    """A random dual-unitary gate: jx = jy = pi/4, everything else random."""
    g = build_kak(random_kak_params(seed, dual_unitary=True))
    return Gate(u=g.u, family="dual", meta={**g.meta, "seed": seed})


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
    return Gate(u=u, family="kim", meta={"h1": h1, "h2": h2})


# The kicked XY gate is defined diagrammatically; its algebraic content is the
# set of conjugation identities below, which single out one composition of
# J[J] = exp[iJ ZZ] exp[i(pi/4) YY] with the kick K = exp[i(pi/4) X].
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


def _xy_identities_hold(u: np.ndarray, tol: float = 1e-12) -> bool:
    for a, b in _XY_RIGHT_IDENTITIES:
        if np.max(np.abs(u @ a @ u.conj().T - b)) > tol:
            return False
    for a, b in _XY_LEFT_IDENTITIES:
        if np.max(np.abs(u.conj().T @ a @ u - b)) > tol:
            return False
    return True


def build_xy(j: float) -> Gate:
    """The kicked XY gate at coupling J (the J_z of the figures), with the
    kick placement fixed constructively; dual-unitary iff |J| = pi/4.

    The candidate compositions of the two-qubit part with the one-qubit kick
    are tried in turn; the one satisfying all eight conjugation identities
    (to 1e-12) is selected and recorded in ``meta["placement"]``.  If none
    does, the conventions are broken and construction fails loudly.
    """
    j = float(j)
    kick = np.cos(np.pi / 4) * np.eye(2) + 1j * np.sin(np.pi / 4) * _SX
    jj = (np.cos(j) * np.eye(4) + 1j * np.sin(j) * np.kron(_SZ, _SZ)) @ (
        np.cos(np.pi / 4) * np.eye(4) + 1j * np.sin(np.pi / 4) * np.kron(_SY, _SY)
    )
    candidates = [
        ("J*(KxI)", jj @ np.kron(kick, _ID)),
        ("J*(IxK)", jj @ np.kron(_ID, kick)),
        ("(KxI)*J", np.kron(kick, _ID) @ jj),
        ("(IxK)*J", np.kron(_ID, kick) @ jj),
    ]
    for name, u in candidates:
        if _xy_identities_hold(u):
            return Gate(u=u, family="xy", meta={"j": j, "placement": name})
    raise ValueError("no kicked-XY composition satisfies the defining identities")


def is_dual_unitary(gate, tol: float = TOL_UNITARY) -> bool:
    """True iff the space-time dual of the gate is unitary."""
    return is_unitary(dual(gate_matrix(gate)), tol)
