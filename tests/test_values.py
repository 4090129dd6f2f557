"""The contract of the package's value types: equality and hashing by
field, the field-wise repr, read-only fields without a __dict__,
__match_args__, and pickle / deepcopy round trips."""

import copy
import operator
import pickle

import pytest

from motzkinrow import (
    AuditReport,
    BlockSpan,
    Counterexample,
    DeltaReport,
    MotzkinWord,
    PaddedWord,
)
from motzkinrow.word import _Value

_CX = Counterexample("(00)", "merge k=2", -2, -3)

# (make an instance, a different instance of the same type, a value of
# another type holding the same fields, the repr, the fields)
CASES = [
    (lambda: MotzkinWord("(0)()"), MotzkinWord("()"), "(0)()",
     "MotzkinWord(text='(0)()')", ("text",)),
    (lambda: PaddedWord(MotzkinWord("()"), 2), PaddedWord(MotzkinWord("()"), 1),
     "00()", "PaddedWord(core=MotzkinWord(text='()'), left_padding=2)",
     ("core", "left_padding")),
    (lambda: BlockSpan(5, 3), BlockSpan(5, 2), (5, 3),
     "BlockSpan(open_pos=5, close_pos=3)", ("open_pos", "close_pos")),
    (lambda: DeltaReport(MotzkinWord("(0)()()"), MotzkinWord("(0)(())"), -2, -2,
                         (3, 2)),
     DeltaReport(MotzkinWord("(0)()()"), MotzkinWord("(0)(())"), -2, -3,
                 (3, 2)),
     (MotzkinWord("(0)()()"), MotzkinWord("(0)(())"), -2, -2, (3, 2)),
     "DeltaReport(before=MotzkinWord(text='(0)()()'), "
     "after=MotzkinWord(text='(0)(())'), predicted_delta=-2, "
     "verified_delta=-2, site=(3, 2))",
     ("before", "after", "predicted_delta", "verified_delta", "site")),
    (lambda: Counterexample("(00)", "merge k=2", -2, -3),
     Counterexample("(00)", "merge k=2", -2, None), ("(00)", "merge k=2", -2, -3),
     "Counterexample(word='(00)', site='merge k=2', predicted=-2, verified=-3)",
     ("word", "site", "predicted", "verified")),
    (lambda: AuditReport("conjecture_4_3", 4, "fail", (_CX,), 1),
     AuditReport("conjecture_4_3", 5, "fail", (_CX,), 1),
     ("conjecture_4_3", 4, "fail", (_CX,), 1),
     "AuditReport(check_name='conjecture_4_3', scope=4, outcome='fail', "
     "counterexamples=(Counterexample(word='(00)', site='merge k=2', "
     "predicted=-2, verified=-3),), counts=1)",
     ("check_name", "scope", "outcome", "counterexamples", "counts")),
]
IDS = [case[3].split("(")[0] for case in CASES]


@pytest.mark.parametrize("make, other, foreign, text, fields", CASES, ids=IDS)
def test_equality_and_hash_by_field(make, other, foreign, text, fields):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other and not a == other
    assert a != foreign and foreign != a


@pytest.mark.parametrize("make, other, foreign, text, fields", CASES, ids=IDS)
def test_repr_names_each_field(make, other, foreign, text, fields):
    assert repr(make()) == text


@pytest.mark.parametrize("make, other, foreign, text, fields", CASES, ids=IDS)
def test_fields_are_read_only_slots(make, other, foreign, text, fields):
    value = make()
    assert not hasattr(value, "__dict__")
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text


@pytest.mark.parametrize("make, other, foreign, text, fields", CASES, ids=IDS)
def test_match_args_are_the_fields(make, other, foreign, text, fields):
    value = make()
    cls = type(value)
    assert cls.__match_args__ == fields
    match value:
        case cls(first):
            assert first == getattr(value, fields[0])
        case _:
            pytest.fail("no positional pattern matched")


@pytest.mark.parametrize("make, other, foreign, text, fields", CASES, ids=IDS)
def test_pickle_and_deepcopy_round_trips(make, other, foreign, text, fields):
    value = make()
    copies = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(value), copy.deepcopy(value)]
    for twin in copies:
        assert type(twin) is type(value) and twin == value
        assert repr(twin) == text and hash(twin) == hash(value)
        with pytest.raises(AttributeError):
            setattr(twin, fields[0], None)


class _Pair(_Value):
    # a new value type writes only its __init__; equality, hashing and
    # pickling by field come from the shared base
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.__setstate__((left, right))


def test_a_new_value_type_compares_hashes_and_pickles_by_field():
    a, b = _Pair(1, "x"), _Pair(1, "x")
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != _Pair(1, "y") and a != _Pair(2, "x") and a != (1, "x")
    assert len({a, b, _Pair(2, "x")}) == 2
    twin = pickle.loads(pickle.dumps(a))
    assert twin == a and hash(twin) == hash(a)
    assert repr(twin) == "_Pair(left=1, right='x')"


_ORDER = (operator.lt, operator.le, operator.gt, operator.ge)


def test_words_order_by_their_sort_keys(row_through):
    words = row_through(5)
    for a in words:
        for b in words:
            assert [op(a, b) for op in _ORDER] == [
                op(a.sort_key, b.sort_key) for op in _ORDER], (a, b)


@pytest.mark.parametrize("other", ["(0)", 3])
def test_ordering_a_word_against_another_type_is_a_type_error(other):
    w = MotzkinWord("()")
    for op in _ORDER:
        with pytest.raises(TypeError):
            op(w, other)
        with pytest.raises(TypeError):
            op(other, w)
