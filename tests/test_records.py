"""The document and DAG records, and the engine's StepOutcome, behave as
plain dataclasses with the same fields do: construction, the
missing-argument error, repr, asdict, astuple, hash, replace, copy,
deepcopy, pickle and frozenness. They are slotted, so they have no __dict__
and refuse an undeclared attribute."""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle
from dataclasses import MISSING, FrozenInstanceError

import pytest

from tsgflow.dag import DagEdge, DagNode, Violation
from tsgflow.document import Condition, NextDirective, ParseDiagnostic, QueryBlock, TsgStep
from tsgflow.engine import StepOutcome
from tsgflow.records import frozen_record

_CONDITION = Condition("Is the service up?", "Y")
_BLOCK = QueryBlock("q1", "kql", "Exceptions | take {n}", 12)
_DIRECTIVE = NextDirective("conditional", ("2",), 14, _CONDITION)

# every record with one value for each of its fields, in field order
SAMPLES = {
    Condition: ("Is the service up?", "N"),
    NextDirective: ("terminate", (), 9, _CONDITION, "transfer to upstream team"),
    QueryBlock: ("q2", "kql", "Requests\n| where x > {threshold}", 21),
    ParseDiagnostic: ("dangling-target", 7, "directive targets unknown step '9'"),
    TsgStep: ("3.1", "Check the deployment", 30, ["body"], [_BLOCK], [_DIRECTIVE],
              ["deployments"], "rolled back"),
    DagNode: ("step3.1", "step", "Check the deployment", "3.1"),
    DagEdge: ("edge_step1_end", "step1", "end", Condition("Up?", "N"), "no fault"),
    Violation: ("cycle", "edge_step2_step1", "cycle through edges: edge_step2_step1"),
    StepOutcome: ("success", "service is up", {"edge_step1_step2": "enable"}, ("avail", "errors"),
                  "", 1.5),
}
RECORDS = list(SAMPLES)
FROZEN = [cls for cls in RECORDS if cls.__dataclass_params__.frozen]


def _twin(cls):
    """A plain dataclass, without slots, with the record's name, fields,
    defaults and frozenness."""
    spec = []
    for f in dataclasses.fields(cls):
        spec.append((f.name, f.type, dataclasses.field(
            default=f.default, default_factory=f.default_factory)))
    return dataclasses.make_dataclass(
        cls.__name__, spec, frozen=cls.__dataclass_params__.frozen)


def _sample(cls):
    return cls(*SAMPLES[cls])


def _hash(record):
    """hash(record), or the class and message of the error it raises."""
    try:
        return hash(record)
    except TypeError as exc:
        return (TypeError, str(exc))


def _required(cls) -> tuple:
    """The sample values of the fields that have no default."""
    fields = dataclasses.fields(cls)
    return tuple(v for f, v in zip(fields, SAMPLES[cls])
                 if f.default is MISSING and f.default_factory is MISSING)


def test_every_record_is_sampled():
    assert {cls.__name__ for cls in RECORDS} == {
        "Condition", "NextDirective", "QueryBlock", "ParseDiagnostic", "TsgStep",
        "DagNode", "DagEdge", "Violation", "StepOutcome"}
    for cls in RECORDS:
        assert len(SAMPLES[cls]) == len(dataclasses.fields(cls)), cls.__name__


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_construction_matches_plain_dataclass(cls):
    twin = _twin(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    assert names == [f.name for f in dataclasses.fields(twin)]
    assert inspect.signature(cls) == inspect.signature(twin)
    values = SAMPLES[cls]
    record = cls(*values)
    assert cls(**dict(zip(names, values))) == record
    assert dataclasses.astuple(record) == dataclasses.astuple(twin(*values))
    required = _required(cls)
    assert dataclasses.astuple(cls(*required)) == dataclasses.astuple(twin(*required))
    with pytest.raises(TypeError) as ours:
        cls(*required[:-1])
    with pytest.raises(TypeError) as theirs:
        twin(*required[:-1])
    assert str(ours.value) == str(theirs.value)
    with pytest.raises(TypeError) as ours:
        cls(*values, "one too many")
    with pytest.raises(TypeError) as theirs:
        twin(*values, "one too many")
    assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_repr_asdict_astuple_hash_match_plain_dataclass(cls):
    record, plain = _sample(cls), _twin(cls)(*SAMPLES[cls])
    assert repr(record) == repr(plain)
    assert dataclasses.asdict(record) == dataclasses.asdict(plain)
    assert dataclasses.astuple(record) == dataclasses.astuple(plain)
    if cls in FROZEN:
        assert _hash(record) == _hash(plain)
        assert _hash(record) == _hash(_sample(cls))
    else:
        assert cls.__hash__ is None and type(plain).__hash__ is None


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_replace_copy_deepcopy_pickle_round_trip(cls):
    record = _sample(cls)
    first = dataclasses.fields(cls)[0].name
    for twin in (
        dataclasses.replace(record),
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
    ):
        assert type(twin) is cls
        assert twin == record
        assert repr(twin) == repr(record)
    changed = dataclasses.replace(record, **{first: "other"})
    assert getattr(changed, first) == "other"
    assert changed != record
    assert dataclasses.astuple(changed)[1:] == dataclasses.astuple(record)[1:]


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_frozen_records_refuse_assignment_and_deletion(cls):
    record = _sample(cls)
    for name in [f.name for f in dataclasses.fields(cls)] + ["undeclared"]:
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, "x")
        with pytest.raises(FrozenInstanceError):
            delattr(record, name)
    assert record == _sample(cls)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_records_have_no_instance_dict(cls):
    assert not hasattr(_sample(cls), "__dict__")


def test_step_refuses_an_undeclared_attribute():
    step = _sample(TsgStep)
    step.title = "Renamed"  # declared fields stay assignable
    assert step.title == "Renamed"
    with pytest.raises(AttributeError):
        step.undeclared = 1


def test_frozen_record_refuses_a_default_factory_and_a_post_init():
    class Listed:
        items: list = dataclasses.field(default_factory=list)

    class Checked:
        n: int

        def __post_init__(self):
            pass

    for cls in (Listed, Checked):
        with pytest.raises(TypeError) as info:
            frozen_record(cls)
        assert str(info.value) == f"{cls.__qualname__}: frozen_record takes plain fields only"


def test_step_outcome_hash_raises_on_its_decision_dict():
    """A frozen dataclass hashes its fields, so an outcome holding a dict
    of decisions is unhashable, as the plain frozen dataclass is; one
    without decisions hashes as the plain one does."""
    twin = _twin(StepOutcome)
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(_sample(StepOutcome))
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(twin(*SAMPLES[StepOutcome]))
    failure = ("failure", "", None, (), "scripted failure", 2)
    assert hash(StepOutcome(*failure)) == hash(twin(*failure))


def test_step_outcome_keywords_defaults_and_replace():
    """Construction by keyword and by position, the defaults, and the
    replace that the wall clock uses to set a measured duration."""
    by_keyword = StepOutcome(result="failure", error="boom", duration=0.5)
    assert by_keyword == StepOutcome("failure", "", None, (), "boom", 0.5)
    twin = _twin(StepOutcome)(result="failure", error="boom", duration=0.5)
    assert repr(by_keyword) == repr(twin)
    assert StepOutcome("success") == StepOutcome("success", "", None, (), "", 0)
    timed = dataclasses.replace(_sample(StepOutcome), duration=0.25)
    assert type(timed) is StepOutcome and timed.duration == 0.25
    assert dataclasses.astuple(timed)[:-1] == dataclasses.astuple(_sample(StepOutcome))[:-1]
    with pytest.raises(FrozenInstanceError):
        timed.duration = 1
