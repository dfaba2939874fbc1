import gc
import inspect
import json
import random
import re
from importlib import resources
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from archdeps import case_study_fixture, ingest
from archdeps.model import (
    Architecture,
    InvalidIdentifierError,
    ModelError,
    SubcomponentCycleError,
    UnknownIdentifierError,
)

from .conftest import random_architecture, to_tables
from .test_cli import mutated_system_s

EMPTY_DOC = """
{
  "components": {},
  "levels": {},
  "chan_from_ch": {},
  "chan_from_var": {},
  "var_from": {},
  "var_to": {},
  "highload_channels": [],
  "highperf_components": []
}
"""


def bundled_document() -> str:
    return (resources.files("archdeps") / "data" / "system_s.json").read_text()


def test_bundled_fixture_parses_to_case_study(arch):
    assert ingest.parse(bundled_document()) == arch


def test_parse_empty_document():
    a = ingest.parse(EMPTY_DOC)
    assert a == Architecture.create()


def test_parse_undeclared_channel_reference():
    doc = """{"components": {"A": {"out": ["data2"]}},
               "chan_from_ch": {"data2": ["dataX"]}}"""
    with pytest.raises(UnknownIdentifierError):
        ingest.parse(doc)


def test_parse_syntax_error_reports_position():
    with pytest.raises(ingest.DocumentError, match=r"line 2, column"):
        ingest.parse('{\n  "components": }')


def test_parse_rejects_wrong_shapes():
    with pytest.raises(ingest.DocumentError):
        ingest.parse('{"components": []}')
    with pytest.raises(ingest.DocumentError):
        ingest.parse('{"levels": {"L0": "A"}}')
    with pytest.raises(ingest.DocumentError):
        ingest.parse('{"bogus": {}}')


def test_serialize_parse_round_trip(arch):
    assert ingest.parse(ingest.serialize(arch)) == arch


def test_serialize_deterministic(arch):
    assert ingest.serialize(arch) == ingest.serialize(arch)


def test_serialize_canonical_after_one_round():
    doc = '{"components": {"B": {"out": ["x2", "x1"]}, "A": {"in": ["x1"]}}}'
    once = ingest.serialize(ingest.parse(doc))
    assert ingest.serialize(ingest.parse(once)) == once


def test_serialize_empty():
    text = ingest.serialize(Architecture.create())
    assert ingest.parse(text) == Architecture.create()
    assert '"components": {}' in text


# Identifier characters the encoder escapes or passes through: quote,
# backslash, control characters, non-ASCII inside and outside the BMP.
names = st.text(st.sampled_from('ab"\\\x00\x01\x08\x1b\x7fé€λ\U0001f600'), min_size=1, max_size=4)


@st.composite
def architectures(draw):
    comps = draw(st.lists(names, max_size=5, unique=True))
    chans = draw(st.lists(names, max_size=5, unique=True))
    variables = draw(st.lists(names, max_size=3, unique=True))

    def some(pool):
        return draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []

    def table(keys, pool):
        return {k: some(pool) for k in some(keys)}

    return Architecture.create(
        components={
            c: {
                "in": some(chans),
                "out": some(chans),
                "var": some(variables),
                "subcomp": some(comps[i + 1:]),  # later names only: acyclic
            }
            for i, c in enumerate(comps)
        },
        levels={lvl: some(comps) for lvl in draw(st.lists(names, max_size=3, unique=True))},
        # keyed by every channel and variable, so each drawn name is declared
        chan_from_ch={x: some(chans) for x in chans},
        chan_from_var=table(chans, variables),
        var_from={v: some(chans) for v in variables},
        var_to=table(variables, chans),
        highload_channels=some(chans),
        highperf_components=some(comps),
    )


@given(architectures())
@example(Architecture.create())
@example(case_study_fixture())
@example(Architecture.create(  # "n" names a component, channel, variable and level: one quote table
    components={"n": {"in": ["n"], "var": ["n"]}, 'q"': {"out": ["n"], "subcomp": ["n"]}},
    levels={"n": ["n"]}, chan_from_var={"n": ["n"]}, var_to={"n": ["n"]},
))
def test_serialize_bytes_match_json_dumps(a):
    expected = json.dumps(to_tables(a), indent=2, sort_keys=True) + "\n"
    assert ingest.serialize(a) == expected
    assert ingest.parse(expected) == a


def test_serialize_ignores_dict_order(arch):
    # The same tables, every dict built in reverse key order: create puts the keys in name order.
    def reverse(mapping):
        return {k: mapping[k] for k in reversed(list(mapping))}

    tables = {name: reverse(t) if isinstance(t, dict) else t for name, t in to_tables(arch).items()}
    assert list(tables["components"]) != list(arch.components)
    rebuilt = Architecture.create(**tables)
    assert list(rebuilt.components) == list(arch.components)
    assert ingest.serialize(rebuilt) == ingest.serialize(arch)


def test_serialize_quotes_a_name_outside_the_universes():
    # A hand-built model may name what no table keys: it still serializes.
    a = Architecture({}, {}, {}, {}, {}, {}, frozenset({"stray"}), frozenset())
    assert '"highload_channels": [\n    "stray"\n  ]' in ingest.serialize(a)


def test_export_dot_level0(arch):
    dot = ingest.export_dot(arch, "level0")
    nodes = [line for line in dot.splitlines() if "->" not in line and '"sA' in line]
    assert len(nodes) == 9
    assert '"sA1" -> "sA2" [label="data2"];' in dot
    edges = [
        tuple(name.strip('" ') for name in line.split(" [")[0].split("->"))
        for line in dot.splitlines()
        if "->" in line
    ]
    assert set(edges) == {
        ("sA1", "sA2"), ("sA4", "sA2"), ("sA2", "sA3"), ("sA3", "sA4"),
        ("sA4", "sA5"), ("sA6", "sA7"), ("sA7", "sA8"), ("sA9", "sA8"),
        ("sA8", "sA9"),
    }
    assert edges == sorted(edges)


def test_export_dot_highload_edge_attrs(arch):
    dot = ingest.export_dot(arch, "level0")
    assert '"sA4" -> "sA5" [label="data8",penwidth=3,color=red];' in dot


def test_export_dot_highperf_node_attrs(arch):
    dot = ingest.export_dot(arch, "level3")
    assert '"sS4opt" [fillcolor=lightgreen,style=filled];' in dot
    assert '"sS1opt";' in dot


def test_export_dot_empty_level():
    a = Architecture.create(levels={"L0": []})
    dot = ingest.export_dot(a, "L0")
    assert dot == 'digraph "L0" {\n}\n'


def test_export_dot_unknown_level(arch):
    with pytest.raises(UnknownIdentifierError):
        ingest.export_dot(arch, "level9")


def test_export_dot_stable(arch):
    assert ingest.export_dot(arch, "level2") == ingest.export_dot(arch, "level2")


def test_export_dot_no_edge_for_shared_inputs():
    # two consumers of the same channel are not connected
    a = Architecture.create(
        components={"A": {"in": ["x1"]}, "B": {"in": ["x1"]}},
        levels={"L0": ["A", "B"]},
    )
    assert "->" not in ingest.export_dot(a, "L0")


def test_bundled_document_is_canonical(arch):
    assert bundled_document() == ingest.serialize(arch)


def test_export_dot_escapes_quotes_and_backslashes():
    a = Architecture.create(
        components={'a"b': {"out": ['x"1']}, "c\\": {"in": ['x"1']}},
        levels={'L"0': ['a"b', "c\\"]},
    )
    assert ingest.export_dot(a, 'L"0') == (
        'digraph "L\\"0" {\n'
        '  "a\\"b";\n'
        '  "c\\\\";\n'
        '  "a\\"b" -> "c\\\\" [label="x\\"1"];\n'
        "}\n"
    )


@pytest.mark.parametrize(
    "doc,message",
    [
        ("[" * 100_000, "nested too deeply"),
        ('{"highload_channels": [' + "1" * 5000 + "]}", "unreadable value"),
    ],
    ids=["deep_nesting", "huge_integer"],
)
def test_parse_unreadable_json_is_document_error(doc, message):
    with pytest.raises(ingest.DocumentError, match=message):
        ingest.parse(doc)


def _load_error_cases():
    """(id, document, exception type, full message): one per load rule."""
    DocErr = ingest.DocumentError
    yield "syntax", '{\n  "components": }', DocErr, "syntax error at line 2, column 17: Expecting value"
    yield "top_not_object", "[]", DocErr, "top level must be an object"
    yield ("duplicate_key", '{"components": {"A": {"in": ["x"], "out": [], "in": []}}}',
           DocErr, "duplicate key: 'in'")
    yield "top_unknown", {"zeta": 1, "alpha": {}}, DocErr, "unknown top-level members: alpha, zeta"
    yield "components_not_object", {"components": []}, DocErr, "components must be an object"
    yield "component_not_object", {"components": {"A": ["x"]}}, DocErr, "components[A] must be an object"
    yield ("component_unknown", {"components": {"A": {"out": [], "sub": [], "ins": []}}},
           DocErr, "components[A] has unknown members: ins, sub")
    for member in ("in", "out", "var", "subcomp"):
        yield (f"component_{member}_non_string", {"components": {"A": {member: ["x", 1]}}},
               DocErr, f"components[A].{member} must be an array of identifier strings")
    for table in ("levels", "chan_from_ch", "chan_from_var", "var_from", "var_to"):
        yield f"{table}_not_object", {table: ["x"]}, DocErr, f"{table} must be an object"
        yield (f"{table}_non_string", {table: {"k": [None]}},
               DocErr, f"{table}[k] must be an array of identifier strings")
    for array in ("highload_channels", "highperf_components"):
        yield (f"{array}_non_string", {array: ["x", ["y"]]},
               DocErr, f"{array} must be an array of identifier strings")
    declare = {
        "component": lambda n: {"components": {n: {}}},
        "channel": lambda n: {"components": {"A": {"out": [n]}}},
        "variable": lambda n: {"components": {"A": {"var": [n]}}},
        "level": lambda n: {"levels": {n: []}},
    }
    for kind, doc in declare.items():
        for bad_id, name in (("space", "a b"), ("comma", "a,b"), ("empty", ""), ("nbsp", "a\xa0")):
            yield (f"{kind}_name_{bad_id}", doc(name), InvalidIdentifierError,
                   f"invalid {kind} identifier: {name!r}")
    Unknown = UnknownIdentifierError
    yield ("undeclared_subcomp", {"components": {"A": {"subcomp": ["C", "B"]}}},
           Unknown, "undeclared component B, C referenced in subcomp of A")
    yield "undeclared_level", {"levels": {"L": ["A"]}}, Unknown, "undeclared component A referenced in level L"
    yield ("undeclared_chan_from_ch", {"chan_from_ch": {"x": ["y"]}},
           Unknown, "undeclared channel y referenced in chan_from_ch of x")
    yield ("undeclared_chan_from_var", {"chan_from_var": {"x": ["v"]}},
           Unknown, "undeclared variable v referenced in chan_from_var of x")
    yield ("undeclared_var_from", {"var_from": {"v": ["x"]}},
           Unknown, "undeclared channel x referenced in var_from of v")
    yield "undeclared_var_to", {"var_to": {"v": ["x"]}}, Unknown, "undeclared channel x referenced in var_to of v"
    yield ("undeclared_highload", {"highload_channels": ["x"]},
           Unknown, "undeclared channel x referenced in highload_channels")
    yield ("undeclared_highperf", {"highperf_components": ["A"]},
           Unknown, "undeclared component A referenced in highperf_components")
    yield ("subcomp_cycle", {"components": {"A": {"subcomp": ["B"]}, "B": {"subcomp": ["A"]}}},
           SubcomponentCycleError, "subcomponent cycle: A -> B -> A")
    yield "components_null", {"components": None}, DocErr, "components must be an object"
    yield "levels_null", {"levels": None}, DocErr, "levels must be an object"
    yield ("highload_channels_null", {"highload_channels": None},
           DocErr, "highload_channels must be an array of identifier strings")


@pytest.mark.parametrize(
    "doc,error,message",
    [pytest.param(doc, error, message, id=case) for case, doc, error, message in _load_error_cases()],
)
def test_parse_load_errors_exactly(doc, error, message):
    text = doc if isinstance(doc, str) else json.dumps(doc)
    with pytest.raises(ModelError) as info:
        ingest.parse(text)
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"components": {"A": {"in": [1]}, "B": 5}}, "components[A].in must be an array of identifier strings"),
        ({"components": {"B": 5, "A": {"in": [1]}}}, "components[B] must be an object"),
        (
            {"components": {"A": {"out": ["x"], "var": [None]}}, "var_to": {"v": "x"}},
            "components[A].var must be an array of identifier strings",
        ),
        ({"var_to": {"v": "x"}, "levels": {"L": [["A"]]}}, "levels[L] must be an array of identifier strings"),
        ({"highperf_components": [1], "chan_from_var": []}, "chan_from_var must be an object"),
    ],
    ids=["member_before_component", "component_before_member", "member_before_table",
         "table_order_not_document_order", "table_before_array"],
)
def test_parse_reports_the_first_breach(doc, message):
    with pytest.raises(ingest.DocumentError) as info:
        ingest.parse(json.dumps(doc))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "doc,error",
    [
        ('{"components": {"A": {"out": ["x"]}}, "levels": {"L": ["A"]}}', None),
        ('{"components": }', ingest.DocumentError),
        ('{"levels": {}, "levels": {}}', ingest.DocumentError),
        ('{"components": {"A": {"in": [1]}}}', ingest.DocumentError),
        ('{"components": {"a b": {}}}', InvalidIdentifierError),
        ('{"levels": {"L": ["A"]}}', UnknownIdentifierError),
        ('{"components": {"A": {"subcomp": ["A"]}}}', SubcomponentCycleError),
    ],
    ids=["loads", "syntax", "duplicate_key", "shape", "invalid", "unknown", "cycle"],
)
def test_parse_restores_the_collector_state(collector_enabled, doc, error):
    if error is None:
        ingest.parse(doc)
    else:
        with pytest.raises(error):
            ingest.parse(doc)
    assert gc.isenabled() is collector_enabled


def test_empty_members_and_entries_are_one_object():
    a = ingest.parse(bundled_document())
    empties = [
        s for rec in a.components.values()
        for s in (rec.inputs, rec.outputs, rec.vars, rec.subcomponents) if not s
    ]
    empties += [
        s for table in (a.levels, a.chan_from_ch, a.chan_from_var, a.var_from, a.var_to)
        for s in table.values() if not s
    ]
    assert len(empties) > 50
    assert len({id(s) for s in empties}) == 1


def _outcome(load, *args):
    try:
        return load(*args), None
    except ModelError as exc:
        return None, exc


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_system_s())
@example(b'{"components": []}')
@example(b'{"components": {"A": ["x"]}}')
@example(b'{"components": {"A": {"inputs": ["x"]}}}')
@example(b'{"levels": ["L0"]}')
@example(b'{"chan_from_ch": "x"}')
@example(b'{"chan_from_ch": {"x": {"y": []}}, "levels": {"L": [1]}}')
def test_parse_and_create_agree(data):
    # Only create's parameters at the top level; a null there is a breach in both.
    doc = json.loads(data)
    assume(doc.keys() <= inspect.signature(Architecture.create).parameters.keys())
    parsed, parse_error = _outcome(ingest.parse, data.decode())
    created, create_error = _outcome(lambda: Architecture.create(**doc))
    if parse_error is None:
        assert create_error is None and parsed == created
    else:
        assert type(parse_error) is type(create_error)
        assert str(parse_error) == str(create_error)


def _hooked_parse(text: str):
    # parse with the duplicate-key hook on every decode: what parse gives without the plain decode
    with mock.patch.object(ingest, "_key_count", return_value=-1):
        return ingest.parse(text)


def _load_outcome(load, text: str) -> tuple:
    model, error = _outcome(load, text)
    return model, type(error), str(error)


@pytest.mark.parametrize(
    "doc,message",
    [
        ('{"levels": {}, "components": {}, "levels": {}}', "duplicate key: 'levels'"),
        ('{"components": {"A": {}, "B": {}, "A": {}}}', "duplicate key: 'A'"),
        ('{"components": {"A": {"out": ["x"], "var": [], "out": []}}}', "duplicate key: 'out'"),
        ('{"chan_from_ch": {"x": [], "y": [], "x": ["y"]}}', "duplicate key: 'x'"),
        ('{"levels": {"L": {"a": 1, "a": 2}}}', "duplicate key: 'a'"),
        ('{"components": {"A": {"in": {"b": [{"c": 1, "c": 1}]}}}}', "duplicate key: 'c'"),
        ('{"levels": {"L": {"a": 1}}}', "levels[L] must be an array of identifier strings"),
        ('{"levels": {"L": [], "L": []}, "components": }', "duplicate key: 'L'"),
        ('{"levels": {"L": [], "L": []}, "highload_channels": [' + "1" * 5000 + "]}", "duplicate key: 'L'"),
        ('{"levels": ' + "[" * 100_000, "arrays or objects nested too deeply"),
    ],
    ids=["top_level", "components", "spec", "table", "where_names_belong", "deep_where_names_belong",
         "object_where_names_belong", "then_syntax_error", "then_huge_integer", "deep_nesting"],
)
def test_repeated_keys_and_unreadable_text_as_the_hooked_decode(doc, message):
    with pytest.raises(ingest.DocumentError) as info:
        ingest.parse(doc)
    assert str(info.value) == message
    assert _load_outcome(ingest.parse, doc) == _load_outcome(_hooked_parse, doc)


def test_colon_in_names_loads():
    doc = {"components": {"a:b": {"out": ["x:1"], "var": [":v"]}}, "levels": {"L:0": ["a:b"]},
           "var_to": {":v": ["x:1"]}, "highload_channels": ["x:1"]}
    a = ingest.parse(json.dumps(doc))
    assert a == Architecture.create(**doc) == _hooked_parse(json.dumps(doc))
    assert a.components["a:b"].outputs == ("x:1",) and a.levels == {"L:0": ("a:b",)}


@st.composite
def repeated_key_documents(draw) -> str:
    """A mutated system S document; in some, one object's first key written twice."""
    text = draw(mutated_system_s()).decode()
    starts = [m.end() for m in re.finditer(r'\{(?="(?:[^"\\]|\\.)*": )', text)]
    if starts and draw(st.booleans()):
        at = draw(st.sampled_from(starts))
        key = re.match(r'"(?:[^"\\]|\\.)*"', text[at:]).group()
        text = f"{text[:at]}{key}: {draw(st.sampled_from(['0', '[]', '{}', '[[]]']))}, {text[at:]}"
    return text


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(repeated_key_documents())
def test_parse_as_the_hooked_decode(text):
    assert _load_outcome(ingest.parse, text) == _load_outcome(_hooked_parse, text)


def test_documents_without_colons_in_names_load_without_the_hook(arch):
    generated = to_tables(random_architecture(random.Random(7)))
    documents = [bundled_document(), ingest.serialize(arch), json.dumps(generated), EMPTY_DOC]
    with mock.patch.object(ingest, "_unique_keys", wraps=ingest._unique_keys) as hook:
        for text in documents:
            assert ingest.parse(text) is not None
        assert hook.call_count == 0
        ingest.parse('{"components": {"a:b": {}}}')
        assert hook.call_count == 3  # one call per object: the spec, components, the top level
