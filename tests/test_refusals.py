"""Every refusal message of ``parse`` and ``build_surface``, pinned.

The table holds the full text of each refusal, the ``ParseError`` path
where there is one, and, for documents with two faults, which rule fires
first, so that work on the speed of either function cannot change what a
user is told.
"""

import pytest

from stripfol.core import SurfaceError
from stripfol.io import ParseError, parse

_STRIP_A = '{"id":"A","lower":["a0"],"upper":["a1"]}'


def _A(template: str) -> str:
    """A document with the plain strip A (intervals a0, a1) put in at %s."""
    return template % _STRIP_A


# (case, document, str(ParseError), ParseError.path)
PARSE_REFUSALS = [
    ('strip-not-object', '{"strips":[5]}',
     "ParseError (strips[0]): strip record needs an 'id'", 'strips[0]'),
    ('strip-without-id', _A('{"strips":[%s,{"lower":[]}]}'),
     "ParseError (strips[1]): strip record needs an 'id'", 'strips[1]'),
    ('lower-not-list', '{"strips":[{"id":"A","lower":5}]}',
     "ParseError (strips[0]): 'lower' must be a list", 'strips[0]'),
    ('upper-not-list', _A('{"strips":[%s,{"id":"B","lower":[],"upper":{"x":1}}]}'),
     "ParseError (strips[1]): 'upper' must be a list", 'strips[1]'),
    ('interval-not-record', '{"strips":[{"id":"A","upper":["a",7]}]}',
     "ParseError (strips[0].upper[1]): interval record needs an 'id'", 'strips[0].upper[1]'),
    ('interval-without-id', _A('{"strips":[%s,{"id":"B","lower":["b",{"endpoints":[0,1]}]}]}'),
     "ParseError (strips[1].lower[1]): interval record needs an 'id'", 'strips[1].lower[1]'),
    ('endpoints-not-list', '{"strips":[{"id":"A","lower":[{"id":"a","endpoints":"0,1"}]}]}',
     'ParseError (strips[0].lower[0]): endpoints must be a [x0, x1] pair', 'strips[0].lower[0]'),
    ('endpoints-not-pair', '{"strips":[{"id":"A","upper":["u",{"id":"a","endpoints":[0,1,2]}]}]}',
     'ParseError (strips[0].upper[1]): endpoints must be a [x0, x1] pair', 'strips[0].upper[1]'),
    ('endpoint-string', '{"strips":[{"id":"A","lower":[{"id":"a","endpoints":[0,"x"]}]}]}',
     "ParseError (strips[0].lower[0].endpoints[1]): expected a number or -inf/+inf, got 'x'", 'strips[0].lower[0].endpoints[1]'),
    ('endpoint-bool', '{"strips":[{"id":"A","lower":[{"id":"a","endpoints":[true,1]}]}]}',
     'ParseError (strips[0].lower[0].endpoints[0]): expected a number or -inf/+inf, got True', 'strips[0].lower[0].endpoints[0]'),
    ('endpoint-null', _A('{"strips":[%s,{"id":"B","upper":[{"id":"a","endpoints":[null,1]}]}]}'),
     'ParseError (strips[1].upper[0].endpoints[0]): expected a number or -inf/+inf, got None', 'strips[1].upper[0].endpoints[0]'),
    ('endpoint-overflow', '{"strips":[{"id":"A","lower":[{"id":"a","endpoints":[0,%s]}]}]}' % ("1" + "0" * 400),
     'ParseError (strips[0].lower[0].endpoints[1]): number out of the float range', 'strips[0].lower[0].endpoints[1]'),
    ('gluing-not-object', _A('{"strips":[%s],"gluings":["g"]}'),
     "ParseError (gluings[0]): gluing record needs 'a' and 'b'", 'gluings[0]'),
    ('gluing-without-b', _A('{"strips":[%s],"gluings":[{"a":"a0","b":"a1"},{"id":"h","a":"a0"}]}'),
     "ParseError (gluings[1]): gluing record needs 'a' and 'b'", 'gluings[1]'),
    ('orientation-unknown', _A('{"strips":[%s],"gluings":[{"a":"a0","b":"a1","orientation":"sideways"}]}'),
     "ParseError (gluings[0]): orientation must be 'preserving' or 'reversing', got 'sideways'", 'gluings[0]'),
    ('orientation-number', _A('{"strips":[%s],"gluings":[{"a":"a0","b":"a1","orientation":1}]}'),
     "ParseError (gluings[0]): orientation must be 'preserving' or 'reversing', got 1", 'gluings[0]'),
    ('orientation-list', _A('{"strips":[%s],"gluings":[{"a":"a0","b":"a1","orientation":["preserving"]}]}'),
     "ParseError (gluings[0]): orientation must be 'preserving' or 'reversing', got ['preserving']", 'gluings[0]'),
    ('orientation-null', _A('{"strips":[%s],"gluings":[{"a":"a0","b":"a1","orientation":null}]}'),
     "ParseError (gluings[0]): orientation must be 'preserving' or 'reversing', got None", 'gluings[0]'),
    ('malformed-json', '{"strips": [,]}',
     'ParseError at line 1, column 13: Expecting value', ''),
    ('document-not-object', '[1, 2]',
     'ParseError: document must be a JSON object', ''),
    ('strips-not-list', '{"strips": 5}',
     "ParseError (strips): 'strips' must be a list", 'strips'),
    ('gluings-not-list', '{"strips": [], "gluings": {}}',
     "ParseError (gluings): 'gluings' must be a list", 'gluings'),
    ('strip-id-null', '{"strips":[{"id":null},{"id":"None"}]}',
     'ParseError (strips[0].id): ids must be JSON strings, got None', 'strips[0].id'),
    ('strip-id-true', _A('{"strips":[%s,{"id":true}]}'),
     'ParseError (strips[1].id): ids must be JSON strings, got True', 'strips[1].id'),
    ('strip-id-object', '{"strips":[{"id":{"k":[1]}}]}',
     "ParseError (strips[0].id): ids must be JSON strings, got {'k': [1]}", 'strips[0].id'),
    ('interval-id-number', '{"strips":[{"id":"A","upper":["u",{"id":7}]}]}',
     'ParseError (strips[0].upper[1].id): ids must be JSON strings, got 7', 'strips[0].upper[1].id'),
    ('interval-id-list', _A('{"strips":[%s,{"id":"B","lower":[{"id":["b"],"endpoints":[0,1]}]}]}'),
     "ParseError (strips[1].lower[0].id): ids must be JSON strings, got ['b']", 'strips[1].lower[0].id'),
    ('gluing-id-number', _A('{"strips":[%s],"gluings":[{"id":1,"a":"a0","b":"a1"}]}'),
     'ParseError (gluings[0].id): ids must be JSON strings, got 1', 'gluings[0].id'),
    ('gluing-a-null', _A('{"strips":[%s],"gluings":[{"a":"a0","b":"a1"},{"id":"h","a":null,"b":"a1"}]}'),
     'ParseError (gluings[1].a): ids must be JSON strings, got None', 'gluings[1].a'),
    ('gluing-b-float', _A('{"strips":[%s],"gluings":[{"id":"g","a":"a0","b":1.5}]}'),
     'ParseError (gluings[0].b): ids must be JSON strings, got 1.5', 'gluings[0].b'),
    ('orientation-before-id-type', _A('{"strips":[%s],"gluings":[{"id":2,"a":"a0","b":"a1","orientation":"x"}]}'),
     "ParseError (gluings[0]): orientation must be 'preserving' or 'reversing', got 'x'", 'gluings[0]'),
    ('strip-id-type-before-sides', '{"strips":[{"id":0,"lower":5}]}',
     'ParseError (strips[0].id): ids must be JSON strings, got 0', 'strips[0].id'),
]

# (case, document, rule, str(SurfaceError))
SURFACE_REFUSALS = [
    ('duplicate-strip', _A('{"strips":[%s,{"id":"A"}]}'),
     'DuplicateId', "DuplicateId: strip id 'A' appears twice"),
    ('duplicate-interval', _A('{"strips":[%s,{"id":"B","lower":["b0","a1"]}]}'),
     'DuplicateId', "DuplicateId: interval id 'a1' appears twice"),
    ('interval-reuses-strip-id', _A('{"strips":[%s,{"id":"B","upper":["A"]}]}'),
     'DuplicateId', "DuplicateId: interval id 'A' appears twice"),
    ('strip-reuses-interval-id', _A('{"strips":[%s,{"id":"a0"}]}'),
     'DuplicateId', "DuplicateId: strip id 'a0' appears twice"),
    ('duplicate-gluing', _A('{"strips":[%s,{"id":"B","lower":["b0"],"upper":["b1"]}],"gluings":[{"id":"g","a":"a1","b":"b0"},{"id":"g","a":"a0","b":"b1"}]}'),
     'DuplicateId', "DuplicateId: gluing id 'g' appears twice"),
    ('gluing-reuses-interval-id', _A('{"strips":[%s,{"id":"B","lower":["b0"]}],"gluings":[{"id":"b0","a":"a1","b":"b0"}]}'),
     'DuplicateId', "DuplicateId: gluing id 'b0' appears twice"),
    ('default-gluing-id-collides', '{"strips":[{"id":"g1","lower":["x"],"upper":["y"]},{"id":"B","lower":["b0"],"upper":["b1"]}],"gluings":[{"a":"y","b":"b0"},{"a":"b1","b":"x"}]}',
     'DuplicateId', "DuplicateId: gluing id 'g1' appears twice"),
    ('duplicate-after-bad-endpoints', _A('{"strips":[%s,{"id":"A","lower":[{"id":"z","endpoints":[1,0]}]}]}'),
     'DuplicateId', "DuplicateId: strip id 'A' appears twice"),
    ('bad-endpoints-before-duplicate', _A('{"strips":[%s,{"id":"B","lower":[{"id":"a0","endpoints":[1,0]}]}]}'),
     'BadEndpoints', "BadEndpoints: interval 'a0' endpoints must satisfy x0 < x1, got (1.0, 0.0)"),
    ('mixed-endpoints', '{"strips":[{"id":"A","lower":["p",{"id":"q","endpoints":[3,4]}]}]}',
     'BadEndpoints', 'BadEndpoints: (A, lower): either all or no intervals of a side may carry explicit endpoints'),
    ('overlap', '{"strips":[{"id":"A","upper":[{"id":"p","endpoints":[0,3]},{"id":"q","endpoints":[2,4]}]}]}',
     'BadEndpoints', "BadEndpoints: intervals 'p' and 'q' on (A, upper) overlap or are out of index order"),
    ('nan-endpoints', '{"strips":[{"id":"A","upper":[{"id":"p","endpoints":[NaN,3]}]}]}',
     'BadEndpoints', "BadEndpoints: interval 'p' endpoints must satisfy x0 < x1, got (nan, 3.0)"),
    ('self-gluing', _A('{"strips":[%s],"gluings":[{"id":"g","a":"a0","b":"a0"}]}'),
     'SelfGluing', "SelfGluing: gluing 'g' pairs interval 'a0' with itself"),
    ('unknown-ref', _A('{"strips":[%s],"gluings":[{"id":"g","a":"a0","b":"zz"}]}'),
     'UnknownIntervalRef', "UnknownIntervalRef: gluing 'g' references unknown interval 'zz'"),
    ('double-gluing', _A('{"strips":[%s,{"id":"B","lower":["b0"],"upper":["b1"]}],"gluings":[{"id":"g","a":"a1","b":"b0"},{"id":"h","a":"b1","b":"a1"}]}'),
     'DoubleGluing', "DoubleGluing: interval 'a1' appears in more than one gluing"),
    ('same-side', '{"strips":[{"id":"A","lower":["p","q"]}],"gluings":[{"id":"g","a":"p","b":"q"}]}',
     'SameSideGluing', "SameSideGluing: gluing 'g' pairs intervals 'p' and 'q' on the same side (A, lower)"),
    ('mixed-endpoints-first', '{"strips":[{"id":"A","lower":[{"id":"q","endpoints":[3,4]},"p"]}]}',
     'BadEndpoints', 'BadEndpoints: (A, lower): either all or no intervals of a side may carry explicit endpoints'),
    ('duplicate-gluing-before-unknown', _A('{"strips":[%s],"gluings":[{"id":"a0","a":"zz","b":"a1"}]}'),
     'DuplicateId', "DuplicateId: gluing id 'a0' appears twice"),
    ('control-character-strip-id', '{"strips":[{"id":"A\\u0001"}]}',
     'BadId', "BadId: id 'A\\x01' holds U+0001, which SVG or UTF-8 output cannot carry"),
    ('lone-surrogate-interval-id', '{"strips":[{"id":"A","lower":["a0","a\\ud800"]}]}',
     'BadId', "BadId: id 'a\\ud800' holds U+D800, which SVG or UTF-8 output cannot carry"),
    ('noncharacter-gluing-id', _A('{"strips":[%s,{"id":"B","lower":["b0"]}],"gluings":[{"id":"g\\uffff","a":"a1","b":"b0"}]}'),
     'BadId', "BadId: id 'g\\uffff' holds U+FFFF, which SVG or UTF-8 output cannot carry"),
    ('strip-ids-before-interval-ids', '{"strips":[{"id":"A","lower":["a\\u001f"]},{"id":"B\\u000b\\ufffe"}]}',
     'BadId', "BadId: id 'B\\x0b\\ufffe' holds U+000B, which SVG or UTF-8 output cannot carry"),
    ('same-side-before-bad-id', '{"strips":[{"id":"A\\u0001","lower":["p","q"]}],"gluings":[{"id":"g","a":"p","b":"q"}]}',
     'SameSideGluing', "SameSideGluing: gluing 'g' pairs intervals 'p' and 'q' on the same side (A\x01, lower)"),
]


@pytest.mark.parametrize("case, text, message, path", PARSE_REFUSALS, ids=[r[0] for r in PARSE_REFUSALS])
def test_parse_refusal_is_pinned(case, text, message, path):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert str(e.value) == message
    assert e.value.path == path


@pytest.mark.parametrize("case, text, rule, message", SURFACE_REFUSALS, ids=[r[0] for r in SURFACE_REFUSALS])
def test_build_surface_refusal_is_pinned(case, text, rule, message):
    with pytest.raises(SurfaceError) as e:
        parse(text)
    assert e.value.rule == rule
    assert str(e.value) == message


def test_bad_id_rule_spares_tab_newline_and_astral_characters():
    s = parse('{"strips":[{"id":"A\\t\\n\\r","upper":["\\ud83d\\ude00","\\u00e9\\ufffd"]}]}')
    assert s.strip_ids() == ("A\t\n\r",)
    assert [iv.id for iv in s.strips[0].upper] == ["\U0001f600", "\u00e9\ufffd"]
