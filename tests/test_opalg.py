"""Operator algebra: Pauli basis, vectorization, duals."""

import numpy as np
import pytest

from duotoc.opalg import (
    PAULI,
    _checked_basis,
    dual,
    is_unitary,
    normalize_coeffs,
    op_to_vec,
    swap_gate,
    vec_to_op,
)
from duotoc.channels import lightcone_correlator, m_n
from duotoc.closed_forms import (
    kim_correlator,
    kim_integrable_otoc,
    kim_integrable_otoc_symmetrized,
    kim_longtime,
    mc_longtime,
    xy_correlator,
    xy_longtime,
)
from duotoc.eigenbases import (
    SlotState,
    e_basis,
    e_state,
    kim_z_basis,
    kim_z_state,
    xy_dual_basis,
    xy_longtime_projector,
    xy_overlap_matrix,
)
from duotoc.gates import build_kim, random_dual_unitary, random_kak, gate_matrix
from duotoc.oracle import (
    ChainSpec,
    evolve_heisenberg,
    oracle_correlator,
    oracle_otoc,
    site_operator,
)
from duotoc.transfer import (
    OtocResult,
    boundary_left,
    boundary_right,
    build_transfer,
    fixed_left,
    fixed_right,
    otoc_finite,
    otoc_longtime,
)

TOL = 1e-14


def test_pauli_basis_orthonormal():
    assert PAULI.shape == (4, 2, 2)
    gram = np.einsum("aij,bij->ab", PAULI.conj(), PAULI) / 2
    assert np.abs(gram - np.eye(4)).max() < TOL
    # the import-time check rejects a basis that is not orthonormal
    with pytest.raises(ValueError, match="orthonormal"):
        _checked_basis(PAULI * 1.001)
    with pytest.raises(ValueError, match="shape"):
        _checked_basis(PAULI[:3])


def test_pauli_basis_hermitian_identity_first():
    for op in PAULI:
        assert np.abs(op - op.conj().T).max() < TOL
    assert np.abs(PAULI[0] - np.eye(2)).max() < TOL
    # one shared constant: no caller can change it
    with pytest.raises(ValueError, match="read-only"):
        PAULI[0, 0, 0] = 2.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_vec_roundtrip(seed):
    rng = np.random.default_rng(seed)
    sigma = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    coeffs = op_to_vec(sigma)
    assert np.abs(vec_to_op(coeffs) - sigma).max() < TOL


def test_normalize_coeffs():
    c = normalize_coeffs([3.0, 0.0, 4.0])
    assert abs(np.linalg.norm(c) - 1.0) < TOL
    assert np.abs(c - [0.6, 0.0, 0.8]).max() < TOL
    with pytest.raises(ValueError):
        normalize_coeffs([0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        normalize_coeffs([1.0, 2.0])


@pytest.mark.parametrize("seed", [0, 1])
def test_dual_involution(seed):
    u = gate_matrix(random_kak(seed))
    assert np.abs(dual(dual(u)) - u).max() < TOL


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dual_of_dual_unitary_gate_is_unitary(seed):
    u = gate_matrix(random_dual_unitary(seed))
    assert is_unitary(dual(u))


def test_dual_of_generic_gate_is_not_unitary():
    # generic KAK couplings break unitarity in the space direction
    u = gate_matrix(random_kak(0))
    assert not is_unitary(dual(u))


def test_swap_gate():
    s = swap_gate()
    assert np.abs(s @ s - np.eye(4)).max() < TOL
    v = np.arange(4.0)
    a, b = v[:2], v[2:]
    # swap exchanges the tensor factors
    x = np.kron(a, b)
    assert np.abs(s @ x - np.kron(b, a)).max() < TOL


# Every entry point that takes a site, a time, a depth, an index, a chain
# length or a separation t - x, as a function of that one argument; 2 is a
# valid value for each.
_GATE = build_kim(0.4, 0.6)
_SPEC = ChainSpec(gate=_GATE, L=8)
_X, _Y = PAULI[1], PAULI[2]
INTEGER_ARGUMENTS = {
    "otoc_finite x": lambda v: otoc_finite(_GATE, _X, _Y, v, 3),
    "otoc_finite t": lambda v: otoc_finite(_GATE, _X, _Y, 1, v),
    "otoc_longtime n": lambda v: otoc_longtime(_GATE, _X, _Y, v, "even"),
    "boundary_left n": lambda v: boundary_left(_X, v),
    "boundary_right n": lambda v: boundary_right(_Y, v, "odd", _GATE),
    "fixed_left n": fixed_left,
    "fixed_right n": fixed_right,
    "build_transfer n": lambda v: build_transfer(_GATE, v),
    "site_operator x": lambda v: site_operator(_X, v, 4),
    "site_operator L": lambda v: site_operator(_X, 1, v),
    "evolve_heisenberg site": lambda v: evolve_heisenberg(_SPEC, _X, v, 2),
    "evolve_heisenberg t": lambda v: evolve_heisenberg(_SPEC, _X, 1, v),
    "oracle_correlator x": lambda v: oracle_correlator(_SPEC, _X, v, _Y, 2),
    "oracle_correlator t": lambda v: oracle_correlator(_SPEC, _X, 1, _Y, v),
    "oracle_otoc x": lambda v: oracle_otoc(_SPEC, _X, _Y, v, 2),
    "oracle_otoc t": lambda v: oracle_otoc(_SPEC, _X, _Y, 1, v),
    "lightcone_correlator t": lambda v: lightcone_correlator(_GATE, _X, _Y, v),
    "m_n n": lambda v: m_n(_GATE, _Y, v),
    "mc_longtime t_minus_x": lambda v: mc_longtime(_X, _Y, v, gate=_GATE),
    "kim_longtime t_minus_x": lambda v: kim_longtime(0.4, 0.6, _X, _Y, v),
    "xy_longtime t_minus_x": lambda v: xy_longtime(_X, _Y, v),
    "kim_correlator t": lambda v: kim_correlator(0.4, 0.6, _X, _Y, v),
    "xy_correlator t": lambda v: xy_correlator(0.3, _X, _Y, v),
    "kim_integrable_otoc x": lambda v: kim_integrable_otoc(_X, _Y, v, 3),
    "kim_integrable_otoc t": lambda v: kim_integrable_otoc(_X, _Y, 1, v),
    "kim_integrable_otoc_symmetrized x":
        lambda v: kim_integrable_otoc_symmetrized(_X, _Y, v, 3),
    "kim_integrable_otoc_symmetrized t":
        lambda v: kim_integrable_otoc_symmetrized(_X, _Y, 1, v),
    "e_basis n": e_basis,
    "kim_z_basis n": kim_z_basis,
    "xy_overlap_matrix n": xy_overlap_matrix,
    "xy_dual_basis n": xy_dual_basis,
    "xy_longtime_projector n": lambda v: xy_longtime_projector(_X, _Y, v, "even"),
    "e_state n": lambda v: e_state(v, 0).vector(),
    "e_state k": lambda v: e_state(2, v).vector(),
    "kim_z_state n": lambda v: kim_z_state(v, 1).vector(),
    "kim_z_state k": lambda v: kim_z_state(2, v).vector(),
    "SlotState n": lambda v: SlotState(n=v, prods={i: PAULI[0] for i in range(1, 5)}).vector(),
}

# The arguments of INTEGER_ARGUMENTS with a lower bound alone, each with its
# lowest valid value (SlotState's n is tested in test_eigenbases.py, since
# its slots depend on it).
LOWEST_VALUES = {
    "otoc_finite t": 0,
    "otoc_longtime n": 1,
    "boundary_left n": 1,
    "boundary_right n": 1,
    "fixed_left n": 1,
    "fixed_right n": 1,
    "build_transfer n": 1,
    "evolve_heisenberg t": 0,
    "oracle_correlator t": 0,
    "oracle_otoc t": 0,
    "lightcone_correlator t": 0,
    "m_n n": 0,
    "kim_correlator t": 0,
    "xy_correlator t": 0,
    "kim_integrable_otoc t": 0,
    "kim_integrable_otoc_symmetrized t": 0,
    "e_basis n": 1,
    "kim_z_basis n": 1,
    "xy_overlap_matrix n": 1,
    "xy_dual_basis n": 1,
    "xy_longtime_projector n": 1,
    "e_state n": 1,
    "kim_z_state n": 1,
}


@pytest.mark.parametrize("value", [1.0, 2.5, True, "2"])
@pytest.mark.parametrize("entry", sorted(INTEGER_ARGUMENTS))
def test_integer_arguments_refuse_floats_bools_and_strings(entry, value):
    # one rule, opalg._integer: a float, even a whole one, a bool and a
    # string each raise the same ValueError naming the argument
    name = entry.split()[1]
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        INTEGER_ARGUMENTS[entry](value)


@pytest.mark.parametrize("entry", sorted(LOWEST_VALUES))
def test_bounded_integer_arguments_refuse_values_below_range(entry):
    # the same rule checks the range: one message, naming the argument, its
    # bound and the value
    name, low = entry.split()[1], LOWEST_VALUES[entry]
    INTEGER_ARGUMENTS[entry](low)
    with pytest.raises(ValueError, match=rf"^need {name} >= {low} \(got {low - 1}\)$"):
        INTEGER_ARGUMENTS[entry](low - 1)


def test_integer_arguments_accept_numpy_integers():
    for entry, call in INTEGER_ARGUMENTS.items():
        want, got = call(2), call(np.int64(2))
        if isinstance(want, OtocResult):
            want, got = (want.value, want.n), (got.value, got.n)
        assert np.array_equal(got, want), entry
    spec = ChainSpec(gate=_GATE, L=np.int64(8))
    assert type(spec.L) is int and spec.L == 8
    assert oracle_otoc(spec, _X, _Y, 1, 2) == oracle_otoc(_SPEC, _X, _Y, 1, 2)
