"""Shared fixtures and the change of basis for column vectors; collects one
summary line per acceptance criterion."""

import numpy as np
import pytest

from duotoc import oracle
from duotoc.opalg import pauli_basis
from duotoc.transfer import _TRAJECTORY_MEMO, _PauliColumnKernel

# Q: columns vec(sigma_mu)/sqrt(2), from the Hermitian leg basis of the
# transfer module to the complex computational folded basis of one slot
Q_LEG = np.stack([op.reshape(4) / np.sqrt(2) for op in pauli_basis(2).ops], axis=1)


def hermitian_coeffs(vec, side):
    """A complex folded-basis column vector (the eigenbases module's) in the
    Hermitian leg basis of ``build_transfer``, ``boundary_left`` and
    ``boundary_right``:
    Q^T on every slot of a right vector, Q^dagger on every slot of a left
    one.  Q is unitary, so norms and eigen-equations carry over."""
    leg = {"right": Q_LEG.T, "left": Q_LEG.conj().T}[side]
    v = np.asarray(vec, dtype=complex)
    for _ in range(round(np.log2(v.size) / 2)):  # 4^(2n) entries, 2n slots
        # map the leading slot, which then moves behind the others
        v = (leg @ v.reshape(4, -1)).T.reshape(-1)
    return v

_ACCEPTANCE_LINES = {}
_NOTES = []


@pytest.fixture
def record_criterion():
    """Callback (number, title, passed, detail='') -> None; the collected
    lines are printed in a dedicated section at the end of the run."""

    def _record(number, title, passed, detail=""):
        status = "PASS" if passed else "FAIL"
        line = f"[criterion {number:2d}] {status}  {title}"
        if detail:
            line += f"  -- {detail}"
        _ACCEPTANCE_LINES[number] = line

    return _record


@pytest.fixture
def record_note():
    """Free-form line for the acceptance summary (verdicts, measurements)."""

    def _note(text):
        _NOTES.append(text)

    return _note


@pytest.fixture
def applies(monkeypatch):
    """Clears the trajectory memo that otoc_finite and otoc_longtime share;
    the list collects the depth of every column-kernel application that
    follows."""
    _TRAJECTORY_MEMO.clear()
    depths = []
    apply = _PauliColumnKernel.apply

    def counted(self, u):
        depths.append(self.n)
        apply(self, u)

    monkeypatch.setattr(_PauliColumnKernel, "apply", counted)
    return depths


@pytest.fixture
def conjugations(monkeypatch):
    """The layer parity of every oracle layer conjugation that follows, in
    call order: the unitarity check makes one even per chain and gate, every
    evolution step one even."""
    parities = []
    conjugate = oracle._conjugate_layer

    def counted(mat, gate, parity, L, q):
        parities.append(parity)
        return conjugate(mat, gate, parity, L, q)

    monkeypatch.setattr(oracle, "_conjugate_layer", counted)
    return parities


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES and not _NOTES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(_ACCEPTANCE_LINES[number])
    for note in _NOTES:
        terminalreporter.write_line(note)
