"""``io._dumps`` against its reference, ``json.dumps(obj, indent=2)``."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stripfol.io import _dumps

_strings = st.one_of(
    st.text(),
    st.text(st.characters(exclude_categories=())),  # lone surrogates too
    st.sampled_from(["", "\x00\x1f\x7f", "tab\tnew\nline", 'q"b\\s/', "é✓😀", "\ud800", "\udfff x"]),
)
_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, 1e300, -1e300, 1e16, 0.1, math.nan, math.inf, -math.inf]),
)
_ints = st.one_of(st.integers(), st.integers(min_value=2**63), st.sampled_from([10**100, -(10**300)]))
_scalars = st.one_of(st.none(), st.booleans(), _ints, _floats, _strings)
_keys = st.one_of(_strings, _ints, _floats, st.booleans(), st.none())
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        st.lists(_strings, max_size=6),  # the one-join path
        st.dictionaries(_keys, inner, max_size=6),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(_values)
def test_dumps_equals_indented_json_dumps(obj):
    assert _dumps(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize(
    "obj",
    [[], {}, (), [[]], {"a": {}}, [{}, [], ()], ["a", 1], ["a", "b", 2.5], [1, "a"], {"": [""]}],
)
def test_dumps_equals_indented_json_dumps_on_empty_and_mixed_containers(obj):
    assert _dumps(obj) == json.dumps(obj, indent=2)


def _raised(fn, obj):
    try:
        fn(obj)
    except Exception as e:  # the type is what is compared
        return type(e)
    return None


@pytest.mark.parametrize(
    "obj",
    [
        {1, 2},
        b"bytes",
        object(),
        1j,
        ["a", {"k": [frozenset()]}],
        {(1, 2): "tuple key"},
        {"ok": 1, b"bytes key": 2},
        [10**5000],  # past the digit limit of int -> str
        {10**5000: 1},
    ],
    ids=lambda o: type(o).__name__,
)
def test_dumps_raises_what_json_dumps_raises(obj):
    expected = _raised(lambda o: json.dumps(o, indent=2), obj)
    assert expected is not None
    assert _raised(_dumps, obj) is expected
