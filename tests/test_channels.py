"""Edge channels: complete positivity, unitality, spectra, light-cone values."""

import numpy as np
import pytest

from duotoc.channels import (
    channel_minus,
    channel_plus,
    channel_spectrum,
    channel_superop,
    choi_matrix,
    lightcone_correlator,
    m_n,
)
from duotoc.gates import build_kim, build_xy, random_dual_unitary, random_kak
from duotoc.opalg import PAULI, op_to_vec, vec_to_op
from duotoc.oracle import ChainSpec, oracle_correlator

TOL = 1e-12
TOL_PSD = 1e-10

I2, SX, SY, SZ = PAULI


def channel_apply(channel, sigma, t=1):
    """The channel applied t times to a one-site operator, through the
    power of its operator-basis matrix."""
    return vec_to_op(np.linalg.matrix_power(channel, t) @ op_to_vec(sigma))

GATES = [
    ("du0", random_dual_unitary(0)),
    ("du1", random_dual_unitary(1)),
    ("kim", build_kim(h1=0.4, h2=0.6)),
    ("kim_int", build_kim(h1=0.0, h2=0.0)),
    ("xy", build_xy(j=np.pi / 10)),
    ("kak", random_kak(0)),
]


@pytest.mark.parametrize("name,gate", GATES)
@pytest.mark.parametrize("which", [channel_plus, channel_minus])
def test_channel_unital_and_trace_preserving(name, gate, which):
    ch = which(gate)
    assert np.abs(channel_apply(ch, np.eye(2)) - np.eye(2)).max() < TOL
    rng = np.random.default_rng(11)
    sigma = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    out = channel_apply(ch, sigma)
    assert abs(np.trace(out) - np.trace(sigma)) < TOL


@pytest.mark.parametrize("name,gate", GATES)
@pytest.mark.parametrize("which", [channel_plus, channel_minus])
def test_channel_completely_positive(name, gate, which):
    choi = choi_matrix(which(gate))
    assert np.abs(choi - choi.conj().T).max() < TOL
    assert np.linalg.eigvalsh(choi).min() > -TOL_PSD


@pytest.mark.parametrize("name,gate", GATES)
def test_channels_are_mutual_adjoints(name, gate):
    mp = channel_plus(gate)
    mm = channel_minus(gate)
    assert np.abs(mm - mp.conj().T).max() < TOL


@pytest.mark.parametrize("h1,h2", [(0.4, 0.6), (0.0, 0.0), (0.3, -0.3), (1.0, 0.25)])
def test_kim_channel_eigenvalues(h1, h2):
    eigs = np.linalg.eigvals(channel_plus(build_kim(h1=h1, h2=h2)))
    eigs = eigs[np.argsort(-np.abs(eigs))]
    expected = np.array([1.0, np.cos(h1 + h2), 0.0, 0.0])
    expected = expected[np.argsort(-np.abs(expected))]
    assert np.abs(np.abs(eigs) - np.abs(expected)).max() < TOL


@pytest.mark.parametrize("j", [np.pi / 10, np.pi / 6, np.pi / 5])
def test_xy_channel_eigenvalues(j):
    eigs = np.abs(np.linalg.eigvals(channel_plus(build_xy(j=j))))
    eigs.sort()
    assert np.abs(eigs - np.array([0.0, 0.0, abs(np.sin(2 * j)), 1.0])).max() < TOL


@pytest.mark.parametrize("gate,expected", [
    (build_kim(h1=0.4, h2=0.6), "ergodic_mixing"),
    (build_kim(h1=0.0, h2=0.0), "non_ergodic"),
    (build_kim(h1=0.3, h2=-0.3), "non_ergodic"),
    (build_xy(j=np.pi / 10), "ergodic_mixing"),
    (random_dual_unitary(0), "ergodic_mixing"),
])
def test_ergodicity_classification(gate, expected):
    assert channel_spectrum(channel_plus(gate)).ergodicity_class == expected


def test_spectrum_report_decay_rate():
    rep = channel_spectrum(channel_plus(build_kim(h1=0.4, h2=0.6)))
    assert rep.decay_rate == pytest.approx(np.cos(1.0), abs=TOL)
    d = rep.to_json_dict()
    assert set(d) == {"eigenvalues", "ergodicity_class", "decay_rate"}


@pytest.mark.parametrize("t", [1, 2, 3])
def test_channel_apply_matches_superop_power(t):
    gate = build_kim(h1=0.4, h2=0.6)
    ch = channel_plus(gate)
    rng = np.random.default_rng(5)
    sigma = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    via_apply = channel_apply(ch, sigma, t=t)
    s = np.linalg.matrix_power(channel_superop(ch), t)
    via_power = (s @ sigma.reshape(4)).reshape(2, 2)
    assert np.abs(via_apply - via_power).max() < TOL


@pytest.mark.parametrize("name,gate", GATES[:5])
@pytest.mark.parametrize("t", [0, 1, 2, 3])
def test_lightcone_correlator_matches_oracle(name, gate, t):
    alpha = (SX + SZ) / np.sqrt(2)
    beta = SY
    spec = ChainSpec(gate=gate, L=8)
    assert lightcone_correlator(gate, alpha, beta, t) == pytest.approx(
        float(oracle_correlator(spec, alpha, t, beta, t)), abs=TOL)


def test_channel_route_rejects_non_hermitian_insertions():
    """lightcone_correlator and m_n apply the Hermiticity rule of the
    transfer side and the oracle, at every t; a Hermitian insertion gives a
    float at every t, t = 0 included."""
    gate = random_kak(3)
    bad = SX + 1j * SZ
    for t in (0, 1, 2):
        for alpha, beta in ((bad, SX), (SX, bad)):
            with pytest.raises(ValueError, match="Hermitian"):
                lightcone_correlator(gate, alpha, beta, t)
        with pytest.raises(ValueError, match="Hermitian"):
            m_n(gate, bad, t)
        assert type(lightcone_correlator(gate, SX + SZ, SX - SY, t)) is float
        assert type(m_n(gate, SX, t)) is float


def test_m_n_base_case_and_positivity():
    gate = build_kim(h1=0.4, h2=0.6)
    beta = SY
    assert m_n(gate, beta, 0) == pytest.approx(1.0, abs=TOL)
    vals = [m_n(gate, beta, n) for n in range(5)]
    assert all(v >= -TOL for v in vals)


def test_m_n_against_direct_channel_power():
    gate = build_xy(j=np.pi / 10)
    beta = (SX - SY + SZ) / np.sqrt(3)
    ch = channel_plus(gate)
    for n in (1, 2, 3):
        s = channel_apply(ch, beta, t=n)
        direct = float(np.trace(s.conj().T @ s).real / 2)
        assert m_n(gate, beta, n) == pytest.approx(direct, abs=TOL)
