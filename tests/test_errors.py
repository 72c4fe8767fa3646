"""Package errors keep their type, message and attributes across a pickle round trip.

Errors raised in a pool worker reach the parent that way.
"""

import multiprocessing
import pickle
from multiprocessing.reduction import ForkingPickler

import pytest

import lrcl.errors as errors_mod
from lrcl.errors import EngineError, ParseError, ShapeError

SUBCLASSES = sorted(
    (c for c in vars(errors_mod).values() if isinstance(c, type) and issubclass(c, EngineError)),
    key=lambda c: c.__name__,
)


def _instances(cls):
    if cls is ShapeError:
        return [ShapeError("shapes differ", (2, 3), (4, 5)), ShapeError("no shapes")]
    if cls is ParseError:
        return [ParseError("bad line", line=7), ParseError("no line")]
    return [cls("what went wrong")]


def _raise(exc):
    raise exc


def _same(a, b):
    return type(a) is type(b) and str(a) == str(b) and vars(a) == vars(b)


@pytest.mark.parametrize("cls", SUBCLASSES, ids=lambda c: c.__name__)
@pytest.mark.parametrize("dumps", [pickle.dumps, ForkingPickler.dumps], ids=["pickle", "forking"])
def test_round_trip(cls, dumps):
    for exc in _instances(cls):
        assert _same(pickle.loads(dumps(exc)), exc)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
def test_raised_in_a_forked_worker():
    sent = [exc for cls in SUBCLASSES for exc in _instances(cls)]
    with multiprocessing.get_context("fork").Pool(1) as pool:
        for exc in sent:
            with pytest.raises(EngineError) as caught:
                pool.apply(_raise, (exc,))
            assert _same(caught.value, exc)
