"""Quantum channels obtained by partially tracing gate conjugations.

``M_plus(s) = tr_1[U (s kron 1) U^dag]/2`` propagates operators along the
right light-cone edge; ``M_minus(s) = tr_2[U^dag (1 kron s) U]/2`` along the
left edge.  A channel is a plain 4 x 4 complex array in the Pauli basis,
element ``(a, b) = tr[PAULI[a]^dag M(PAULI[b])]/2``, so spectra have four
values.  Both are unital, trace-preserving, completely positive, and
Hermitian conjugates of each other.  Every entry point that takes a gate
or an insertion checks them once with the package's input rule
(``gates._checked_inputs``): a 4 x 4 gate and 2 x 2 Hermitian insertions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import _checked_inputs, gate_matrix
from .opalg import PAULI, TOL_EIG, _integer, assert_unitary, op_to_vec

_AGREE_TOL = 1e-12  # cross-direction agreement for correlators


def _superop_plus(U: np.ndarray) -> np.ndarray:
    """S[(b,b'),(c,c')] with M_plus(s)[b,b'] = sum S[(b,b'),(c,c')] s[c,c']."""
    U4 = U.reshape(2, 2, 2, 2)
    S = np.einsum("abcd,aefd->becf", U4, U4.conj()) / 2
    return S.reshape(4, 4)


def _superop_minus(U: np.ndarray) -> np.ndarray:
    U4 = U.reshape(2, 2, 2, 2)
    S = np.einsum("cdab,cfeb->aedf", U4.conj(), U4) / 2
    return S.reshape(4, 4)


# row a = vec(PAULI[a]); P P^dag = 2 * identity (orthonormal basis)
_P = PAULI.reshape(4, 4)


def _channel(gate, superop) -> np.ndarray:
    _checked_inputs(gate)
    U = gate_matrix(gate)
    assert_unitary(U)
    # the vec-convention superoperator as the Pauli-basis matrix
    return _P.conj() @ superop(U) @ _P.T / 2


def channel_plus(gate) -> np.ndarray:
    """M_plus as its (4, 4) complex Pauli-basis matrix."""
    return _channel(gate, _superop_plus)


def channel_minus(gate) -> np.ndarray:
    """M_minus as its (4, 4) complex Pauli-basis matrix."""
    return _channel(gate, _superop_minus)


def channel_superop(channel: np.ndarray) -> np.ndarray:
    """The channel as a 4 x 4 matrix acting on row-major vec(s)."""
    # the inverse of _channel's P* S P^T / 2
    return _P.T @ channel @ _P.conj() / 2


def choi_matrix(channel: np.ndarray) -> np.ndarray:
    """Choi matrix sum_ij E_ij kron M(E_ij); positive semidefinite iff CP."""
    S4 = channel_superop(channel).reshape(2, 2, 2, 2)
    return S4.transpose(2, 0, 3, 1).reshape(4, 4)


@dataclass(frozen=True)
class SpectrumReport:
    """Channel spectrum plus the ergodicity classification it implies."""

    eigenvalues: np.ndarray  # 4 values, sorted by descending modulus
    ergodicity_class: str
    decay_rate: float

    def to_json_dict(self) -> dict:
        return {
            "eigenvalues": [[float(z.real), float(z.imag)] for z in self.eigenvalues],
            "ergodicity_class": self.ergodicity_class,
            "decay_rate": float(self.decay_rate),
        }


def channel_spectrum(channel: np.ndarray) -> SpectrumReport:
    """Classify the circuit by its channel spectrum.

    The classification uses all 6 nontrivial eigenvalues of the two
    edge channels; since the channels are mutual adjoints the second set is
    the complex conjugate of the first, so one channel determines the verdict:
    every nontrivial eigenvalue equal to 1 -> non_interacting; at least one
    -> non_ergodic; none equal to 1 but some on the unit circle ->
    ergodic_non_mixing; otherwise -> ergodic_mixing.  "Equal" and "on" mean
    within TOL_EIG.
    """
    # the traceless block: the identity row and column are exactly
    # (1, 0, 0, 0) by unitality and trace preservation
    nontrivial = np.linalg.eigvals(channel[1:, 1:])
    both = np.concatenate([nontrivial, nontrivial.conj()])
    n_unit = int(np.sum(np.abs(both - 1.0) < TOL_EIG))
    if n_unit == both.size:
        klass = "non_interacting"
    elif n_unit > 0:
        klass = "non_ergodic"
    elif np.any(np.abs(np.abs(both) - 1.0) < TOL_EIG):
        klass = "ergodic_non_mixing"
    else:
        klass = "ergodic_mixing"
    full = np.linalg.eigvals(channel)
    full = full[np.argsort(-np.abs(full))]
    return SpectrumReport(
        eigenvalues=full,
        ergodicity_class=klass,
        decay_rate=float(np.max(np.abs(nontrivial))),
    )


def lightcone_correlator(gate, sigma_alpha: np.ndarray, sigma_beta: np.ndarray,
                         t: int) -> float:
    """Infinite-temperature correlator on the right light-cone edge x = t,
    a float for Hermitian insertions.

    Evaluates ``tr[sigma_alpha M_plus^t(sigma_beta)]/2`` and cross-checks the
    equivalent ``tr[sigma_beta M_minus^t(sigma_alpha)]/2``; at t = 0 this is
    the plain overlap ``tr(sigma_alpha sigma_beta)/2``.
    """
    t = _integer("t", t, 0)
    sigma_alpha, sigma_beta = _checked_inputs(gate, sigma_alpha, sigma_beta)
    U = gate_matrix(gate)
    a = op_to_vec(sigma_alpha)
    b = op_to_vec(sigma_beta)
    if t == 0:
        return float((np.trace(sigma_alpha @ sigma_beta) / 2).real)
    via_plus = np.vdot(a, np.linalg.matrix_power(channel_plus(U), t) @ b)
    via_minus = np.vdot(b, np.linalg.matrix_power(channel_minus(U), t) @ a)
    if abs(via_plus - np.conj(via_minus)) > _AGREE_TOL:
        raise AssertionError("edge-channel directions disagree beyond tolerance")
    return float(via_plus.real)


def m_n(gate, sigma_beta: np.ndarray, n: int) -> float:
    """OTOC kernel ``M_n = tr[(M_plus^n s)^dag (M_plus^n s)]/2``; M_0 = 1."""
    n = _integer("n", n, 0)
    (sigma_beta,) = _checked_inputs(gate, sigma_beta)
    b = op_to_vec(sigma_beta)
    w = np.linalg.matrix_power(channel_plus(gate), n) @ b
    return float(np.real(np.vdot(w, w)))
