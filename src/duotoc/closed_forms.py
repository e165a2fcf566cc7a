"""Exact long-time and light-cone values for special brickwork circuits.

Each function evaluates a printed closed-form expression as-is, without
algebraic simplification, so that any disagreement with the transfer-matrix
or brute-force routes points at the formula (or at a typo in it) rather than
at the evaluator.  All operator arguments are single-site Hermitian matrices;
the expressions are written for the unit-normalized traceless case
tr sigma = 0, tr sigma^2 = 2, with components a_i = tr(sigma_i sigma)/2
(``op_to_vec``'s traceless entries).

Conventions shared with the transfer module: x - t even is called even
parity (supports of the two operators collide), odd parity otherwise; the
kicked-Ising closed forms take the same gate phases (h1, h2) as build_kim.
The alpha-side sign of kim_correlator follows the gate convention used
throughout this package; it is pinned by the exact channel eigenvectors and
by the brute-force oracle (see lightcone_correlator), and differs from a
sign that sometimes appears in print.

Every long-time form takes the one argument its value depends on, the
separation t_minus_x = t - x: negative outside the light cone, 0 on it.
Times, sites and separations are integers (``opalg._integer``), and a
correlator or OTOC raises at t < 0, as on the transfer route.  Each form
checks its operators once with the package's input rule
(``gates._checked_inputs``), inside the helper that first reads them
(``_components``, ``_delta_overlap``, ``_t0_otoc``), or at its top
(``mc_longtime``, whose odd branch then reads M_n through the public
``m_n``), so a non-Hermitian insertion raises on every branch, outside the
light cone included.
"""

from __future__ import annotations

import numpy as np

from .channels import m_n
from .eigenbases import e_basis
from .gates import _checked_inputs
from .opalg import _integer, op_to_vec


def _components(sigma_alpha, sigma_beta) -> list:
    """[(a_x, a_y, a_z), (b_x, b_y, b_z)] with a_i = tr(sigma_i sigma_alpha)/2
    and b_i = tr(sigma_i sigma_beta)/2, once both pass the input rule."""
    return [tuple(float(c.real) for c in op_to_vec(op)[1:])
            for op in _checked_inputs(None, sigma_alpha, sigma_beta)]


def _delta_overlap(sigma_alpha, sigma_beta) -> float:
    """tr(sigma_alpha sigma_beta)/2, the t = 0 value of any correlator, once
    both operators pass the input rule."""
    sigma_alpha, sigma_beta = _checked_inputs(None, sigma_alpha, sigma_beta)
    return float((np.trace(sigma_alpha @ sigma_beta) / 2).real)


def _t0_otoc(sigma_alpha, sigma_beta) -> float:
    """tr[(sigma_alpha sigma_beta)^2]/2, the t = 0 value of any OTOC, once
    both operators pass the input rule."""
    prod = np.matmul(*_checked_inputs(None, sigma_alpha, sigma_beta))
    return float((np.trace(prod @ prod) / 2).real)


def mc_longtime(sigma_alpha, sigma_beta, t_minus_x, gate=None):
    """Long-time OTOC of a maximally chaotic dual-unitary circuit at
    separation t_minus_x = t - x (1 outside the cone, t - x < 0).

    Even parity: -1/3 on the light cone (x = t), zero elsewhere.  Odd
    parity: [4 M_{(t-x+1)/2} - M_{(t-x-1)/2}]/3, with M_n the channel
    moment of sigma_beta; this branch needs the gate, passed as a keyword
    because the even branch is gate-free.  (For local dimension q these
    are -1/(q^2-1) and [q^2 M - M']/(q^2-1).)  The insertions, and the gate
    if it is given, pass the input rule on every branch.
    """
    tmx = _integer("t_minus_x", t_minus_x)
    _checked_inputs(gate, sigma_alpha, sigma_beta)
    if tmx < 0:
        return 1.0
    if tmx % 2 == 0:
        return -1.0 / 3.0 if tmx == 0 else 0.0
    if gate is None:
        raise ValueError("the odd-parity branch needs the gate for M_n")
    m_hi = m_n(gate, sigma_beta, (tmx + 1) // 2)
    m_lo = m_n(gate, sigma_beta, (tmx - 1) // 2)
    return (4 * m_hi - m_lo) / 3.0


def kim_longtime(h1, h2, sigma_alpha, sigma_beta, t_minus_x):
    """Long-time OTOC of the kicked Ising circuit at separation
    t_minus_x = t - x (1 outside the cone, t - x < 0).

    Even parity: 3 bz^2 az^2 - az^2 - bz^2 on the cone, zero inside.  Odd
    parity: (1 + az^2)(bx cos h1 - by sin h1)^2 - az^2 right behind the cone
    (t - x = 1), and for t - x >= 3
    (bx cos h1 - by sin h1)^2 cos(h1+h2)^(t-x-3) (cos^2(h1+h2) - az^2 sin^2(h1+h2)).
    """
    tmx = _integer("t_minus_x", t_minus_x)
    (ax, ay, az), (bx, by, bz) = _components(sigma_alpha, sigma_beta)
    if tmx < 0:
        return 1.0
    if tmx % 2 == 0:
        if tmx == 0:
            return 3.0 * bz**2 * az**2 - az**2 - bz**2
        return 0.0
    bfac = (bx * np.cos(h1) - by * np.sin(h1)) ** 2
    if tmx == 1:
        return (1.0 + az**2) * bfac - az**2
    c = np.cos(h1 + h2)
    s = np.sin(h1 + h2)
    return bfac * c ** (tmx - 3) * (c * c - az**2 * s * s)


def kim_correlator(h1, h2, sigma_alpha, sigma_beta, t):
    """Light-cone correlator of the kicked Ising circuit.

    t = 0 gives the plain overlap tr(sigma_alpha sigma_beta)/2; for t > 0 the
    value is cos(h1+h2)^(t-1) (ax cos h2 + ay sin h2)(bx cos h1 - by sin h1).
    """
    t = _integer("t", t)
    if t < 0:
        raise ValueError("t must be a non-negative integer")
    if t == 0:
        return _delta_overlap(sigma_alpha, sigma_beta)
    (ax, ay, _), (bx, by, _) = _components(sigma_alpha, sigma_beta)
    pref = (ax * np.cos(h2) + ay * np.sin(h2)) * (bx * np.cos(h1) - by * np.sin(h1))
    return float(np.cos(h1 + h2) ** (t - 1) * pref)


def _kim_integrable(sigma_alpha, sigma_beta, x, t, symmetrized: bool):
    """The self-dual kicked Ising OTOC at h1 = h2 = 0; the odd-parity branch
    carries (1 - ax^2) if ``symmetrized``, else the printed (1 - ax)^2."""
    x, t = _integer("x", x), _integer("t", t)
    if t < 0:
        raise ValueError("need t >= 0")
    if t == x == 0:
        return _t0_otoc(sigma_alpha, sigma_beta)
    (ax, ay, az), (bx, by, bz) = _components(sigma_alpha, sigma_beta)
    s = abs(x)
    if s > t:
        return 1.0
    if (t - s) % 2 == 0:
        if s == t:
            return 2.0 * ((ay * by + az * bz) ** 2 + ax**2 * bx**2) - 1.0
        return 1.0
    weight = 1.0 - ax**2 if symmetrized else (1.0 - ax) ** 2
    return ax**2 + weight * (2.0 * bx**2 - 1.0)


def kim_integrable_otoc(sigma_alpha, sigma_beta, x, t):
    """OTOC of the self-dual kicked Ising circuit at h1 = h2 = 0, as printed.

    The value saturates immediately (t >= 1) and depends only on the parity
    of x - t: on the cone 2[(ay by + az bz)^2 + ax^2 bx^2] - 1, even parity
    inside the cone 1, odd parity ax^2 + (1 - ax)^2 (2 bx^2 - 1).  The odd
    branch keeps the printed (1 - ax)^2; see the symmetrized variant for the
    form the brute-force oracle confirms.  At t = 0 the OTOC is the plain
    trace algebra tr[(sigma_alpha sigma_beta)^2]/2.
    """
    return _kim_integrable(sigma_alpha, sigma_beta, x, t, symmetrized=False)


def kim_integrable_otoc_symmetrized(sigma_alpha, sigma_beta, x, t):
    """Same as kim_integrable_otoc with (1 - ax^2) in the odd-parity branch.

    This is the variant the brute-force oracle and the transfer iteration
    agree with; kim_integrable_otoc keeps the printed factor unchanged.
    """
    return _kim_integrable(sigma_alpha, sigma_beta, x, t, symmetrized=True)


def xy_longtime(sigma_alpha, sigma_beta, t_minus_x):
    """Long-time OTOC of the kicked XY circuit: five branches by t - x.

    x = t is its own case; away from the cone the value is periodic in t - x
    with period 4 and independent of the coupling J.
    """
    t_minus_x = _integer("t_minus_x", t_minus_x)
    (ax, ay, az), (bx, by, bz) = _components(sigma_alpha, sigma_beta)
    if t_minus_x < 0:
        return 1.0
    if t_minus_x == 0:
        return ay**2 + (1.0 - ay**2) * (2.0 * bz**2 - 1.0)
    m = t_minus_x % 4
    if m == 0:
        return 2.0 * (bx**2 * ax**2 + by**2 * ay**2 + bz**2 * az**2) - 1.0
    if m == 1:
        return ay**2 + (1.0 - ay**2) * (2.0 * bx**2 - 1.0)
    if m == 2:
        return 2.0 * (bx**2 * ax**2 + by**2 * az**2 + bz**2 * ay**2) - 1.0
    return az**2 + (1.0 - az**2) * (2.0 * bx**2 - 1.0)


def xy_correlator(j, sigma_alpha, sigma_beta, t):
    """Light-cone correlator of the kicked XY circuit: delta overlap at t = 0,
    then ax bx sin(2J)^t.  At J = pi/4 this is constant and coincides with the
    self-dual kicked Ising correlator."""
    t = _integer("t", t)
    if t < 0:
        raise ValueError("t must be a non-negative integer")
    if t == 0:
        return _delta_overlap(sigma_alpha, sigma_beta)
    (ax, _, _), (bx, _, _) = _components(sigma_alpha, sigma_beta)
    return float(ax * bx * np.sin(2.0 * j) ** t)


def haar_projector() -> np.ndarray:
    """Average of u (x) u* (x) u (x) u* over Haar single-qubit unitaries, in
    the real Hermitian leg basis of ``build_transfer(gate, 1)``.

    In the slot-pair notation this is
    (1/3) [ |e_{1,0})(e_{1,0}| + |e_{1,1})(e_{1,1}|
            - (1/2)(|e_{1,0})(e_{1,1}| + |e_{1,1})(e_{1,0}|) ],
    built here from the raw (delta-pattern) basis states with plain outer
    products; it equals the orthonormal-pair projector
    sum_k |e~_{1,k})(e~_{1,k}| and replaces T_1 in the long-time limit of the
    maximally chaotic class.
    """
    (e0, e1), _ = e_basis(1)
    cross = np.outer(e0, e1) + np.outer(e1, e0)
    return (np.outer(e0, e0) + np.outer(e1, e1) - cross / 2) / 3.0
