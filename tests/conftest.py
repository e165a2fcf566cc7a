"""Shared fixtures and the leg basis change of the complex-basis reference
tests; collects one summary line per acceptance criterion."""

import numpy as np
import pytest

from duotoc import oracle
from duotoc.opalg import PAULI
from duotoc.transfer import _TRAJECTORY_MEMO, _PauliColumnKernel

# Q: columns vec(sigma_mu)/sqrt(2), from the Hermitian leg basis of the
# library to the complex computational folded basis of one slot
Q_LEG = np.stack([op.reshape(4) / np.sqrt(2) for op in PAULI], axis=1)

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
    """The depth of every column-kernel application that follows, in call
    order.  The trajectory memo that otoc_finite and otoc_longtime share is
    cleared before the test and again after it, so that the test counts the
    applications of calls on an empty memory and leaves no trajectory to
    the next test's counts."""
    _TRAJECTORY_MEMO.clear()
    depths = []
    apply = _PauliColumnKernel.apply

    def counted(self, u):
        depths.append(self.n)
        apply(self, u)

    monkeypatch.setattr(_PauliColumnKernel, "apply", counted)
    yield depths
    _TRAJECTORY_MEMO.clear()


@pytest.fixture
def conjugations(monkeypatch):
    """The window width of every oracle layer conjugation that follows, in
    call order: one conjugation per evolution step, of the light-cone window
    that the step reaches."""
    widths = []
    conjugate = oracle._conjugate_layer

    def counted(coords, spare, superoperator, w):
        widths.append(w)
        return conjugate(coords, spare, superoperator, w)

    monkeypatch.setattr(oracle, "_conjugate_layer", counted)
    return widths


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES and not _NOTES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(_ACCEPTANCE_LINES[number])
    for note in _NOTES:
        terminalreporter.write_line(note)
