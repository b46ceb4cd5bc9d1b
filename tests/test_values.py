"""Every public value type survives copy, deep copy, pickle and ``dataclasses.replace``
with the same fields and array values, and with every array still read-only."""

import copy
import dataclasses
import functools
import pickle

import numpy as np
import pytest

from conftest import DATA_DIR
from intonsem.frobenius import Spider
from intonsem.intonation import analyses, parse_annotated
from intonsem.lexicon import load_lexicon
from intonsem.pregroup import parse_type, reduce
from intonsem.tensor import TypedTensor
from intonsem.truth import load_universe


@functools.cache
def _values() -> dict:
    """One value of each public type; the analysis's span values are composed."""
    lex = load_lexicon(DATA_DIR / "example_lexicon.json")
    universe, relations = load_universe(DATA_DIR / "universe_likes.json")
    sentence = parse_annotated("{R John} likes {R Mary}")
    (analysis,) = analyses(sentence, lex)
    n, verb = parse_type("n"), parse_type("n.r s n.l")
    return {
        "TypedTensor": TypedTensor(parse_type("n.r s"), np.arange(6.0).reshape(3, 2)),
        "SentenceMeaning": analysis.meaning,
        "Relation": relations["likes"],
        "Analysis": analysis,
        "SpanTyping": analysis.typings[1],
        "PregroupType": verb,
        "ReductionDiagram": reduce([n, verb, n], parse_type("s"))[0],
        "Span": sentence.spans[0],
        "AnnotatedSentence": sentence,
        "LexiconEntry": lex["likes"],
        "Lexicon": lex,
        "Universe": universe,
        "Spider": Spider(1, 2, 3),
    }


def _pickled(protocol):
    return lambda v: pickle.loads(pickle.dumps(v, protocol=protocol))


REMAKES = {"copy": copy.copy, "deepcopy": copy.deepcopy, "replace": dataclasses.replace,
           **{f"pickle{p}": _pickled(p) for p in (2, 3, 4, 5)}}
HOLD_ARRAYS = ["TypedTensor", "SentenceMeaning", "Relation", "Analysis", "SpanTyping",
               "LexiconEntry", "Lexicon"]
NOT_DATACLASSES = ["PregroupType", "Lexicon"]
CASES = [(name, how) for name in [*HOLD_ARRAYS, "PregroupType", "ReductionDiagram", "Span",
                                  "AnnotatedSentence", "Universe", "Spider"]
         for how in REMAKES if not (how == "replace" and name in NOT_DATACLASSES)]


def _arrays(value):
    """Every array the value holds, cached attributes included."""
    if isinstance(value, np.ndarray):
        yield value
        return
    if isinstance(value, (tuple, dict)):
        for v in value.values() if isinstance(value, dict) else value:
            yield from _arrays(v)
    for v in getattr(value, "__dict__", {}).values():  # fields and cached attributes
        yield from _arrays(v)


def _assert_same(a, b):
    assert type(b) is type(a)
    if isinstance(a, np.ndarray):
        assert b.dtype == a.dtype and b.shape == a.shape and np.array_equal(b, a)
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _assert_same(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, dict):
        assert list(b) == list(a) and vars(b) == vars(a)
        for k in a:
            _assert_same(a[k], b[k])
    elif isinstance(a, tuple):
        assert len(b) == len(a)
        for x, y in zip(a, b):
            _assert_same(x, y)
    else:
        assert b == a


@pytest.mark.parametrize("name, how", CASES)
def test_a_remade_value_keeps_its_fields_and_read_only_arrays(name, how):
    value = _values()[name]
    twin = REMAKES[how](value)
    _assert_same(value, twin)
    arrays = [*_arrays(twin)]
    assert bool(arrays) == (name in HOLD_ARRAYS)
    assert not [a for a in arrays if a.flags.writeable]


@pytest.mark.parametrize("how", REMAKES)
def test_a_remade_relation_rejects_a_write(how):
    twin = REMAKES[how](_values()["Relation"])
    with pytest.raises(ValueError):
        twin.matrix[0, 0] = 7.0
    assert twin.matrix[0, 0] != 7.0
