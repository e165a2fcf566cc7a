"""Exact correlators and OTOCs for brickwork circuits of two-site gates.

The package computes infinite-temperature two-point functions and
out-of-time-order correlators (OTOCs) for Floquet brickwork circuits, using
three independent routes that are cross-checked against each other:

* a column transfer matrix acting on the folded light-cone slots (``transfer``),
* closed-form evaluations for the kicked Ising, kicked XY, and
  maximally chaotic dual-unitary families (``closed_forms``, ``eigenbases``),
* a brute-force Heisenberg-picture simulator on a small chain (``oracle``).
"""

from .opalg import (
    PAULI,
    op_to_vec,
    vec_to_op,
    normalize_coeffs,
    dual,
    swap_gate,
)
from .gates import (
    Gate,
    KakParams,
    gate_matrix,
    build_kak,
    build_kim,
    build_xy,
    random_kak,
    random_dual_unitary,
    is_dual_unitary,
)
from .channels import (
    SpectrumReport,
    channel_plus,
    channel_minus,
    channel_spectrum,
    choi_matrix,
    lightcone_correlator,
    m_n,
)
from .transfer import (
    OtocResult,
    build_transfer,
    boundary_left,
    boundary_right,
    fixed_left,
    fixed_right,
    otoc_finite,
    otoc_longtime,
)
from .eigenbases import (
    e_basis,
    kim_z_basis,
    xy_overlap_matrix,
    xy_dual_basis,
    xy_longtime_projector,
)
from .closed_forms import (
    mc_longtime,
    kim_longtime,
    kim_correlator,
    kim_integrable_otoc,
    kim_integrable_otoc_symmetrized,
    xy_longtime,
    xy_correlator,
    haar_projector,
)
from .oracle import (
    ChainSpec,
    oracle_correlator,
    oracle_otoc,
    evolve_heisenberg,
    haar_sample,
)

__version__ = "0.1.0"

__all__ = [
    "PAULI", "op_to_vec", "vec_to_op",
    "normalize_coeffs", "dual", "swap_gate",
    "Gate", "KakParams", "gate_matrix",
    "build_kak", "build_kim", "build_xy", "random_kak",
    "random_dual_unitary", "is_dual_unitary",
    "SpectrumReport", "channel_plus", "channel_minus",
    "channel_spectrum", "choi_matrix",
    "lightcone_correlator", "m_n",
    "OtocResult", "build_transfer",
    "boundary_left", "boundary_right", "fixed_left", "fixed_right",
    "otoc_finite", "otoc_longtime",
    "e_basis", "kim_z_basis", "xy_overlap_matrix", "xy_dual_basis",
    "xy_longtime_projector",
    "mc_longtime", "kim_longtime", "kim_correlator", "kim_integrable_otoc",
    "kim_integrable_otoc_symmetrized",
    "xy_longtime", "xy_correlator", "haar_projector",
    "ChainSpec", "oracle_correlator", "oracle_otoc", "evolve_heisenberg",
    "haar_sample",
]
