"""The package's records: frozen and slotted, and built as `dataclasses` builds them.

Each public record is checked against a frozen `dataclasses.make_dataclass`
twin with the same fields and defaults, made here: `repr`, `==`, `hash`,
construction by position and by keyword, and the `TypeError` of a missing,
an extra or a repeated argument read the same. The records built with
`eq=False` compare by identity.
"""

import copy
import dataclasses
import inspect
import itertools
import operator
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import focusray
from focusray import (
    BlurConfig, Candidates, ComfortConfig, ComfortFinding, ComfortReport, ComfortRule, ConeFrame, DynamicsConfig,
    FocusCandidate, FocusSelection, FocusState, HeuristicWeights, MidCamera, PreparedScene, Profile, ProtocolReport,
    RayBundle, RayConfig, Roi, SceneObject, SimConfig, SsqResponse, SsqScore, StereoRig, Trajectory,
    TrajectorySample, Transition, Vec3,
)
from focusray.record import Record

PACKAGE_ROOT = str(Path(focusray.__file__).resolve().parent.parent)

V, FORWARD, UP = Vec3(1.0, 2.0, 3.0), Vec3(0.0, 0.0, -1.0), Vec3(0.0, 1.0, 0.0)
FINDING = ComfortFinding(ComfortRule.FrameDrop, 0.0, 10.0, 0.5, "slow")
SCORE = SsqScore(1.0, 2.0, 3.0, 4.0)
PROFILE = Profile("ada", 30, "f", "cs")

# two argument tuples per record with value equality, the second differing from the first
SAMPLES = {
    Vec3: [(1.0, 2.0, 3.0), (1.0, 2.0, -3.0)],
    StereoRig: [(Vec3(-0.032, 0.0, 0.0), Vec3(0.032, 0.0, 0.0), UP, FORWARD),
                (Vec3(-0.03, 0.0, 0.0), Vec3(0.032, 0.0, 0.0), UP, FORWARD)],
    MidCamera: [(V, FORWARD, UP), (Vec3(0.0, 0.0, 0.0), FORWARD, UP)],
    SceneObject: [(1, V, 0.5, 0.25, "lamp"), (1, V, 0.5, 0.25)],
    Roi: [(V, FORWARD, 0.5, 100.0), (V, FORWARD, 0.5, 50.0)],
    RayConfig: [(4, 64, 0.25), (4, 32, 0.25)],
    RayBundle: [(np.zeros((2, 3)), np.ones(2, int), np.full(2, 0.5)), (np.ones((2, 3)), np.ones(2, int), np.full(2, 0.5))],
    ConeFrame: [(RayConfig(4, 64, 0.25), np.eye(3)), (RayConfig(4, 32, 0.25), np.eye(3))],
    HeuristicWeights: [(0.5, 0.3, 0.2), (0.2, 0.3, 0.5)],
    FocusCandidate: [(7, 0.5, 0.25, 1.0, 0.6), (8, 0.5, 0.25, 1.0, 0.6)],
    TrajectorySample: [(0.0, V, FORWARD, UP, 90.0, True, 11.1), (16.0, V, FORWARD, UP, 90.0, True, 11.1)],
    ComfortFinding: [(ComfortRule.FrameDrop, 0.0, 10.0, 0.5, "slow"), (ComfortRule.FrameDrop, 0.0, 10.0, 0.5, "slower")],
    ComfortConfig: [(), (2.0,)],
    ComfortReport: [((FINDING,), {ComfortRule.FrameDrop: 1}, 10.0), ((), {}, 10.0)],
    SimConfig: [(), (2,)],
    DynamicsConfig: [(), (400.0,)],
    BlurConfig: [(), (0.25,)],
    Transition: [(1.0, 2.0, 0.0, 500.0), (1.0, 2.0, 16.0, 500.0)],
    FocusSelection: [(3, 2.5), (3, 2.0)],
    FocusState: [(), (3, 2.5, Transition(1.0, 2.5, 0.0, 500.0), 0.0)],
    Profile: [("ada", 30, "f", "cs"), ("ada", 31, "f", "cs")],
    SsqResponse: [((0,) * 16,), ((1,) * 16,)],
    SsqScore: [(1.0, 2.0, 3.0, 4.0), (1.0, 2.0, 3.0, -4.0)],
    ProtocolReport: [(PROFILE, SCORE, SCORE, SCORE, SCORE, SCORE), (PROFILE, SCORE, SCORE, SCORE, SCORE, SsqScore(0.0, 0.0, 0.0, 0.0))],
}
# the arguments of each record built with eq=False
IDENTITY = {
    Candidates: (np.array([1, 2]), np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2)),
    Trajectory: ([0.0, 16.0, 32.0], np.zeros((3, 3)), np.tile([0.0, 0.0, -1.0], (3, 1)),
                 np.tile([0.0, 1.0, 0.0], (3, 1)), [90.0] * 3, [True] * 3, [11.1] * 3),
    PreparedScene: ([SceneObject(1, V, 0.5, 0.25), SceneObject(2, FORWARD, 0.5, 0.75)],),
}
RECORDS = [*SAMPLES, *IDENTITY]


def build(cls):
    return cls(*SAMPLES[cls][0]) if cls in SAMPLES else cls(*IDENTITY[cls])


def outcome(fn, *args, **kwargs):
    """The repr of what `fn` returns, or the type and message of what it raises."""
    try:
        return repr(fn(*args, **kwargs))
    except Exception as e:
        return type(e), str(e)


def twin(cls):
    """A frozen dataclass with the fields and defaults of `cls`."""
    params = inspect.signature(cls).parameters.values()
    return dataclasses.make_dataclass(cls.__name__, [
        (p.name, object) if p.default is p.empty else (p.name, object, dataclasses.field(default=p.default))
        for p in params], frozen=True)


def test_every_record_is_public_and_covered():
    modules = [m for name, m in sys.modules.items() if name.startswith("focusray.")]
    classes = {c for m in modules for c in vars(m).values() if isinstance(c, type) and c.__module__ == m.__name__}
    records = {c for c in classes if issubclass(c, Record) and c is not Record}
    assert records == set(RECORDS) == {getattr(focusray, n) for n in focusray.__all__} & records
    assert not [c for c in classes if hasattr(c, "__dataclass_fields__")]


@pytest.mark.parametrize("cls", RECORDS, ids=operator.attrgetter("__name__"))
def test_frozen_and_slotted(cls):
    rec = build(cls)
    before = repr(rec)
    assert not hasattr(rec, "__dict__")
    for name in (cls.__match_args__[0], "extra"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(rec, name, 1)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(rec, name)
    assert repr(rec) == before
    for restored in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(restored) is cls and repr(restored) == before


@pytest.mark.parametrize("cls", SAMPLES, ids=operator.attrgetter("__name__"))
def test_record_matches_its_dataclass_twin(cls):
    names = cls.__match_args__
    assert names == tuple(cls.__annotations__)
    Twin = twin(cls)
    recs = [cls(*args) for args in SAMPLES[cls]]
    twins = [Twin(*args) for args in SAMPLES[cls]]
    for rec, tw, args in zip(recs, twins, SAMPLES[cls]):
        assert repr(rec) == repr(tw) == repr(cls(**dict(zip(names, args))))
        assert outcome(hash, rec) == outcome(hash, tw)
        values = [getattr(rec, n) for n in names]
        for call in ((), (*values, 0), values[:1]):
            assert outcome(cls, *call) == outcome(Twin, *call)
        assert outcome(cls, *values[:1], **{names[0]: values[0]}) == outcome(Twin, *values[:1], **{names[0]: values[0]})
        assert outcome(cls, bogus=0) == outcome(Twin, bogus=0)
    again = [cls(*args) for args in SAMPLES[cls]]
    for i, j in itertools.product(range(2), repeat=2):
        for op in (operator.eq, operator.ne):
            assert outcome(op, recs[i], again[j]) == outcome(op, twins[i], Twin(*SAMPLES[cls][j]))
    assert recs[0] != twins[0]


@pytest.mark.parametrize("cls", IDENTITY, ids=operator.attrgetter("__name__"))
def test_identity_records_compare_by_identity(cls):
    a, b = build(cls), build(cls)
    assert a == a and a != b and not a == b
    assert hash(a) == object.__hash__(a)


@pytest.mark.parametrize("cls", [Trajectory, PreparedScene], ids=operator.attrgetter("__name__"))
def test_restored_columns_stay_read_only(cls):
    """A deep copy and a pickle round trip restore the read-only columns read-only
    (the copy is not checked again), holding the same elements."""
    rec = build(cls)
    columns = [n for n in cls.__match_args__ if isinstance(getattr(rec, n), np.ndarray)]
    assert len(columns) >= 4
    for restored in (copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        for name in columns:
            assert getattr(restored, name) is not getattr(rec, name)
            with pytest.raises(ValueError, match="read-only"):
                getattr(restored, name)[0] = 0
        assert list(restored) == list(rec) and [repr(x) for x in restored] == [repr(x) for x in rec]


def test_restored_writeable_arrays_stay_writeable():
    rec = build(Candidates)
    for restored in (copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        restored.ids[0] = 7
        assert rec.ids[0] == 1


def test_records_of_numpy_scalars_copy_and_pickle():
    """A numpy scalar is read-only already: a record holding numpy scalars
    copies, deep-copies and pickles to an equal record."""
    recs = [Vec3(*np.array([1.0, 2.0, 3.0])), SceneObject(np.int64(7), V, np.float64(0.5), np.float64(0.25), "lamp")]
    for rec in recs:
        for restored in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
            assert restored == rec and repr(restored) == repr(rec)


def test_cli_import_leaves_dataclasses_out():
    code = "import sys; assert 'dataclasses' not in sys.modules; import focusray.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PATH": "/usr/bin:/bin", "PYTHONPATH": PACKAGE_ROOT})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")
