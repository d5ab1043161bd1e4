"""The BurstPlan residency recorder refuses mutations it cannot log."""

import pytest

from repro.kernel.page import PageId
from repro.sim.plan import _RecordingResidency

P, Q = PageId(1, 0), PageId(1, 1)

UNRECORDED = {
    "update": lambda s: s.update({Q}),
    "difference_update": lambda s: s.difference_update({P}),
    "remove": lambda s: s.remove(P),
    "pop": lambda s: s.pop(),
    "clear": lambda s: s.clear(),
    "|=": lambda s: s.__ior__({Q}),
    "-=": lambda s: s.__isub__({P}),
    "&=": lambda s: s.__iand__({P}),
    "^=": lambda s: s.__ixor__({Q}),
}


@pytest.mark.parametrize("name", sorted(UNRECORDED))
def test_unrecorded_mutation_raises(name):
    recorder = _RecordingResidency()
    recorder.add(P)
    with pytest.raises(TypeError):
        UNRECORDED[name](recorder)
    assert set(recorder) == {P}
    assert recorder.drain_net_delta() == ((P,), ())


def test_in_place_operator_statement_raises():
    recorder = _RecordingResidency()
    with pytest.raises(TypeError):
        recorder |= {P}


def test_add_and_discard_are_recorded():
    recorder = _RecordingResidency()
    recorder.add(P)
    recorder.add(Q)
    recorder.discard(P)
    assert recorder.drain_net_delta() == ((Q,), ())
