"""Frozen records against ``dataclasses.dataclass(frozen=True)``, the
behaviour they reproduce, on the same class bodies."""

import dataclasses
from functools import cached_property

import pytest

from sdcat import verdicts as v
from sdcat.core import EventuallyPeriodicPoint, PeriodicPoint
from sdcat.records import FrozenInstanceError, record, uncompared


def _bodies(make, uncompared_default):
    """The same class bodies under one record maker."""

    @make
    class Point:
        x: int
        y: int = 0

        @cached_property
        def norm(self):
            return abs(self.x) + abs(self.y)

    @make
    class Other:
        x: int
        y: int = 0

    @make
    class Rotated:
        word: tuple
        phase: int = 0

        def __post_init__(self):
            if not self.word:
                raise ValueError("empty word")
            object.__setattr__(self, "phase", self.phase % len(self.word))

    @make
    class Family:
        injective: bool
        pair: object = uncompared_default(None)

    @make
    class OwnHash:
        a: int
        b: int

        def __hash__(self):
            return hash(self.a)

    return Point, Other, Rotated, Family, OwnHash


OURS = _bodies(record, uncompared)
REF = _bodies(dataclasses.dataclass(frozen=True),
              lambda d: dataclasses.field(default=d, compare=False))


def _outcome(make):
    """What a call returns, as its repr, or the type and text of its error."""
    try:
        return repr(make())
    except (TypeError, ValueError) as e:
        return type(e).__name__, str(e)


CALLS = [((1,), {}), ((1, 2), {}), ((), {"x": 1}), ((), {"y": 2, "x": 1}),
         ((), {}), ((1, 2, 3), {}), ((1,), {"x": 1}), ((1,), {"z": 3})]


@pytest.mark.parametrize("args, kwargs", CALLS)
def test_construction_matches_the_reference(args, kwargs):
    ours, ref = OURS[0], REF[0]
    assert _outcome(lambda: ours(*args, **kwargs)) == _outcome(lambda: ref(*args, **kwargs))
    assert ours.__match_args__ == ref.__match_args__ == ("x", "y")
    assert ours.y == ref.y == 0


@pytest.mark.parametrize("args", [(("a", "b"), 3), (("a", "b", "c"),), ((),)])
def test_post_init_runs_after_init(args):
    ours, ref = OURS[2], REF[2]
    assert _outcome(lambda: ours(*args)) == _outcome(lambda: ref(*args))
    if args[0]:
        assert ours(*args).phase == ref(*args).phase < len(args[0])


def test_assigning_or_deleting_raises_the_same_errors():
    assert issubclass(FrozenInstanceError, AttributeError)
    for cls in (OURS[0], REF[0]):
        p = cls(1, 2)
        for act in (lambda: setattr(p, "x", 5), lambda: setattr(p, "new", 5),
                    lambda: delattr(p, "y")):
            with pytest.raises(AttributeError) as err:
                act()
            assert type(err.value).__name__ == "FrozenInstanceError"
        assert (p.x, p.y) == (1, 2)
    messages = []
    for cls in (OURS[0], REF[0]):
        p = cls(1)
        with pytest.raises(AttributeError) as a:
            p.x = 3
        with pytest.raises(AttributeError) as d:
            del p.x
        messages.append((str(a.value), str(d.value)))
    assert messages[0] == messages[1] == ("cannot assign to field 'x'", "cannot delete field 'x'")


@pytest.mark.parametrize("kinds", [OURS, REF], ids=["record", "dataclass"])
def test_equality_within_and_across_classes(kinds):
    point, other = kinds[0], kinds[1]
    assert point(1, 2) == point(1, 2) and point(1) == point(1, 0)
    assert point(1, 2) != point(1, 3)
    assert point(1, 2) != other(1, 2) and other(1, 2) != point(1, 2)
    assert point(1, 2) != (1, 2)
    assert point.__eq__(point(1, 2), other(1, 2)) is NotImplemented
    assert point.__eq__(point(1, 2), (1, 2)) is NotImplemented


@pytest.mark.parametrize("kinds", [OURS, REF], ids=["record", "dataclass"])
def test_hash_skips_uncompared_fields_and_keeps_a_class_hash(kinds):
    point, family, own = kinds[0], kinds[3], kinds[4]
    assert hash(point(1, 2)) == hash((1, 2))
    assert family(True, pair=("a", "b")) == family(True) != family(False, ("a", "b"))
    assert hash(family(True, ("a", "b"))) == hash(family(True)) == hash((True,))
    assert family(True).pair is None and family.pair is None
    assert hash(own(1, 2)) == hash(1) and own(1, 2) != own(1, 3)


def test_repr_matches_the_reference():
    for ours, ref in zip(OURS, REF):
        args = (("a", "b"), 5) if ours.__name__ == "Rotated" else (1, 2)
        assert repr(ours(*args)) == repr(ref(*args))
    assert repr(OURS[3](True, ("a",))) == f"{OURS[3].__qualname__}(injective=True, pair=('a',))"


@pytest.mark.parametrize("kinds", [OURS, REF], ids=["record", "dataclass"])
def test_cached_property_is_kept_out_of_equality(kinds):
    point = kinds[0]
    p = point(3, -4)
    assert p.norm == 7 and p.__dict__["norm"] == 7
    assert p == point(3, -4) and hash(p) == hash(point(3, -4))


def test_repr_of_real_records_is_pinned():
    # verdicts._render writes repr(witness) into the CLI's JSON reports
    p = PeriodicPoint(("0", "1"), 3)
    e = EventuallyPeriodicPoint(("0",), ("1", "2"), ("0", "1"), -1)
    assert repr(p) == "PeriodicPoint(word=('0', '1'), phase=1)"
    assert repr(e) == "EventuallyPeriodicPoint(left=('0',), mid=('1', '2'), right=('0', '1'), start=-1)"
    verdict = v.no(witness=p, note="n")
    assert repr(verdict) == ("Verdict(answer='NO', certificate=None, witness=PeriodicPoint("
                             "word=('0', '1'), phase=1), bound_used=None, note='n')")
    assert verdict.brief() == {"answer": "NO", "note": "n",
                               "witness": "PeriodicPoint(word=('0', '1'), phase=1)"}
