"""The load path against its reference in ``tests/_oracles.py``.

``parse`` and ``build_surface`` read each record in one tight loop.  On every
document they must do what ``parse_reference`` (the loops as they read
before) does: build an equal surface whose three id indexes hold the same
entries in the same order, or refuse with the same error class, the same
text and the same ``ParseError.path``.
"""

import importlib.util
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings

from stripfol.io import parse, serialize

from _gen import connected_surface, random_surface
from _oracles import parse_reference
from fixtures import all_fixtures
from test_dumps import EDGE_CASES, _surfaces
from test_io_cli import _documents, _mutants
from test_refusals import PARSE_REFUSALS, SURFACE_REFUSALS

_INDEXES = ("_strip_by_id", "_interval_loc", "_gluing_by_interval")


def _check_load(text: str) -> None:
    try:
        want = parse_reference(text)
    except Exception as e:  # a refusal: parse must raise the same one
        with pytest.raises(Exception) as got:
            parse(text)
        assert type(got.value) is type(e)
        assert str(got.value) == str(e)
        assert getattr(got.value, "path", None) == getattr(e, "path", None)
        return
    got = parse(text)
    assert got == want and repr(got) == repr(want)
    for name in _INDEXES:
        assert list(getattr(got, name).items()) == list(getattr(want, name).items()), name


def _corpus_module():
    """``perfbench/corpus.py``, which builds its documents without the library."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(all_fixtures()))
def test_parse_equals_reference_on_fixtures(name):
    _check_load(serialize(all_fixtures()[name]))


def test_parse_equals_reference_on_generated_surfaces():
    rng = random.Random(1501)
    for _ in range(40):
        _check_load(serialize(random_surface(rng, max_strips=10, connected=False)))
    for n in (1, 2, 30, 200):
        _check_load(serialize(connected_surface(rng, n)))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_parse_equals_reference_on_benchmark_documents(seed):
    corpus = _corpus_module()
    rng = random.Random(seed)
    for n in (1, 17, 400):
        doc = corpus.connected_doc(rng, n)
        _check_load(json.dumps(doc))
        # the same document with bare-string intervals, as the format allows
        for srec in doc["strips"]:
            srec["lower"] = [rec["id"] for rec in srec["lower"]]
        _check_load(json.dumps(doc))


@pytest.mark.parametrize("doc", EDGE_CASES)
def test_parse_equals_reference_on_edge_cases(doc):
    _check_load(json.dumps(doc))


@pytest.mark.parametrize("text", [r[1] for r in PARSE_REFUSALS + SURFACE_REFUSALS])
def test_parse_refuses_as_reference_on_the_refusal_table(text):
    _check_load(text)


@settings(max_examples=200, deadline=None)
@given(_surfaces())
def test_parse_equals_reference_on_random_surfaces(surface):
    _check_load(serialize(surface))


@settings(max_examples=300, deadline=None)
@given(_mutants())
def test_parse_refuses_as_reference_on_mutated_fixture_documents(mutant):
    _check_load(mutant[1])


@settings(max_examples=300, deadline=None)
@given(_documents)
def test_parse_refuses_as_reference_on_arbitrary_documents(doc):
    _check_load(json.dumps(doc))
