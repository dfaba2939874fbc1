import gc
import json
import platform
import random
from collections import OrderedDict, defaultdict, deque
from importlib import resources
from itertools import chain
from types import MappingProxyType

import pytest
from hypothesis import given
from hypothesis import strategies as st

from archdeps import case_study_fixture, ingest, model
from archdeps.model import (
    Architecture,
    ComponentRecord,
    InvalidIdentifierError,
    SubcomponentCycleError,
    UnknownIdentifierError,
)

from .conftest import random_architecture, to_tables


def test_fixture_in_sa4(arch):
    assert arch.inputs_of("sA4") == {"data6", "data7", "data13"}


def test_fixture_level3(arch):
    assert arch.level_components("level3") == {
        "sS1opt", "sS3", "sS4opt", "sS7opt", "sS9",
        "sS10", "sS11opt", "sS12", "sS13",
    }


def test_fixture_var_to_sta6(arch):
    assert arch.var_to["stA6"] == ("data15", "data16")


def test_fixture_highload_and_highperf(arch):
    assert arch.highload_channels == {
        "data1", "data4", "data5", "data6", "data7", "data8", "data18", "data21",
    }
    assert arch.highperf_components == {
        "sA22", "sA23", "sA41", "sA42", "sA72", "sA93",
    }


def test_fixture_cardinalities(arch):
    assert len(arch.chan_from_ch) == 24
    assert len(arch.var_from) == 4
    assert len(arch.levels) == 4


def test_lookup_out_sa9(arch):
    assert arch.outputs_of("sA9") == {"data22", "data23", "data24"}


def test_lookup_subcomp_empty(arch):
    assert arch.subcomponents_of("sA5") == frozenset()


def test_lookup_var_empty_entry():
    a = Architecture.create(components={"X": {}})
    assert a.vars_of("X") == frozenset()


def test_lookups_deterministic(arch):
    assert arch.inputs_of("sA2") == arch.inputs_of("sA2")
    assert arch.level_components("level1") == arch.level_components("level1")


def test_unknown_component(arch):
    with pytest.raises(UnknownIdentifierError):
        arch.inputs_of("sAX")


def test_unknown_level(arch):
    with pytest.raises(UnknownIdentifierError):
        arch.level_components("level9")


def test_undeclared_reference_rejected():
    with pytest.raises(UnknownIdentifierError):
        Architecture.create(
            components={"A": {"out": ["x1"]}},
            levels={"L0": ["A", "B"]},
        )


@pytest.mark.parametrize(
    "components",
    [{"a,b": {}}, {"A": {"out": ["a,b"]}}, {"A": {"var": ["v,w"]}}],
    ids=["component", "channel", "variable"],
)
def test_comma_in_identifier_rejected(components):
    with pytest.raises(InvalidIdentifierError, match=","):
        Architecture.create(components=components)


@pytest.mark.parametrize(
    "tables,where,kind",
    [
        ({"components": {"A": {"in": "xy"}}}, "components[A].in", "str"),
        ({"components": {"A": {}}, "chan_from_ch": {"x": []}, "var_from": {"v": "x"}}, "var_from[v]", "str"),
        ({"components": {"A": {}}, "levels": {"L": "A"}}, "levels[L]", "str"),
        ({"chan_from_ch": {"x": []}, "highload_channels": "x"}, "highload_channels", "str"),
        ({"components": {"A": {"out": [], "var": None}}}, "components[A].var", "NoneType"),
        ({"components": {"A": {"subcomp": 0}}}, "components[A].subcomp", "int"),
        ({"components": {"A": {}}, "levels": {"L": False}}, "levels[L]", "bool"),
        ({"components": {"A": {"in": {"x": []}}}}, "components[A].in", "dict"),
        ({"chan_from_ch": {"x": {"y": []}}}, "chan_from_ch[x]", "dict"),
        ({"components": {"A": {}}, "highperf_components": {"A": 1}}, "highperf_components", "dict"),
        ({"components": {"A": {}}, "levels": {"L": ["A", 1]}}, "levels[L]", "list holding int"),
        ({"components": {"A": {"subcomp": [None]}}}, "components[A].subcomp", "list holding NoneType"),
        ({"chan_from_ch": {"x": [["y"]], "y": []}}, "chan_from_ch[x]", "list holding list"),
        ({"highload_channels": None}, "highload_channels", "NoneType"),
        ({"components": {"A": {"in": deque(["x"])}}}, "components[A].in", "deque"),
    ],
    ids=["member", "table_entry", "level", "array", "none", "zero", "false", "member_dict",
         "table_entry_dict", "array_dict", "level_non_string", "subcomp_non_string",
         "chan_from_ch_non_string", "array_none", "member_deque"],
)
def test_scalar_for_names_is_a_type_error(tables, where, kind):
    with pytest.raises(TypeError) as info:
        Architecture.create(**tables)
    assert str(info.value) == f"{where} must be a collection of names, not {kind}"


@pytest.mark.parametrize(
    "tables,where,kind",
    [
        ({"components": OrderedDict()}, "components", "OrderedDict"),
        ({"components": {"A": defaultdict(list)}}, "components[A]", "defaultdict"),
        ({"chan_from_ch": MappingProxyType({})}, "chan_from_ch", "mappingproxy"),
        ({"levels": None}, "levels", "NoneType"),
    ],
    ids=["components_ordered_dict", "spec_defaultdict", "table_mapping_proxy", "table_none"],
)
def test_only_a_dict_is_a_mapping_place(tables, where, kind):
    with pytest.raises(TypeError) as info:
        Architecture.create(**tables)
    assert str(info.value) == f"{where} must be a mapping, not {kind}"


def test_subcomponent_cycle_rejected():
    with pytest.raises(SubcomponentCycleError) as info:
        Architecture.create(
            components={
                "A": {"subcomp": ["B"]},
                "B": {"subcomp": ["C"]},
                "C": {"subcomp": ["A"]},
            }
        )
    assert str(info.value) == "subcomponent cycle: A -> B -> C -> A"


def test_long_subcomponent_cycle_is_not_a_recursion_error():
    n = 5000
    components = {f"c{i}": {"subcomp": [f"c{(i + 1) % n}"]} for i in range(n)}
    with pytest.raises(SubcomponentCycleError):
        Architecture.create(components=components)


def test_absent_table_entries_total():
    a = Architecture.create(
        components={"A": {"in": ["x1"], "out": ["x2"]}},
    )
    # channels declared through the interface get empty dependency entries
    assert a.chan_from_ch["x1"] == ()
    assert a.chan_from_var["x2"] == ()


def test_fixture_cached_instance():
    assert case_study_fixture() is case_study_fixture()


TABLES = (
    "components", "levels", "chan_from_ch", "chan_from_var",
    "var_from", "var_to", "highload_channels", "highperf_components",
)


def test_create_twice_gives_equal_models(arch):
    tables = to_tables(arch)
    a, b = Architecture.create(**tables), Architecture.create(**tables)
    assert a is not b
    assert a == b and b == a and not a != b
    assert repr(a) == repr(b)


@pytest.mark.parametrize("table", TABLES)
def test_changing_one_table_makes_models_unequal(arch, table):
    fields = {name: getattr(arch, name) for name in TABLES}
    value = fields[table]
    fields[table] = value | {"extra"} if isinstance(value, frozenset) else {**value, "extra": None}
    changed = Architecture(**fields)
    assert changed != arch and arch != changed
    assert not changed == arch


def test_model_is_never_equal_to_its_fields_as_a_tuple_or_dict(arch):
    fields = {name: getattr(arch, name) for name in TABLES}
    for other in (tuple(fields.values()), fields, list(fields.values())):
        assert arch != other and other != arch


def test_model_is_unhashable(arch):
    with pytest.raises(TypeError):
        hash(arch)


def test_component_record_equality_and_repr_go_by_its_fields():
    x, e = ("x",), ()
    record = ComponentRecord(x, e, e, e)
    assert record == ComponentRecord(x, e, e, e)
    for i in range(4):
        fields = [e] * 4
        fields[i] = ("y",)
        assert record != ComponentRecord(*fields)
    assert record != (x, e, e, e)
    assert repr(record) == (
        "ComponentRecord(inputs=('x',), outputs=(), vars=(), subcomponents=())"
    )
    with pytest.raises(TypeError):
        hash(record)


def test_building_the_cached_indexes_leaves_equality_unchanged(arch):
    tables = to_tables(arch)
    a, b = Architecture.create(**tables), Architecture.create(**tables)
    for level in a.levels:
        a.level_index(level)
    assert a.parents and a.levels_of and a.producers and a.targeted_by and a.finest_first
    assert a.highperf_marks is not None
    assert a == b and b == a
    assert repr(a) == repr(b)


MEMBER_FIELDS = {"in": "inputs", "out": "outputs", "var": "vars", "subcomp": "subcomponents"}
ENTRY_TABLES = ("chan_from_ch", "chan_from_var", "var_from", "var_to")
LOOKUPS = {"inputs": "inputs_of", "outputs": "outputs_of", "vars": "vars_of",
           "subcomponents": "subcomponents_of"}


@given(st.integers(min_value=0, max_value=10**9))
def test_members_and_entries_are_name_ordered_tuples_without_repeats(seed):
    rng = random.Random(seed)
    clean = to_tables(random_architecture(rng))

    def messy(names: list) -> list:
        # the names shuffled, some of them twice
        names = names + rng.sample(names, rng.randint(0, len(names)))
        rng.shuffle(names)
        return names

    def shuffled(mapping: dict) -> dict:
        # the keys in a random order
        return {k: mapping[k] for k in rng.sample(list(mapping), len(mapping))}

    tables = {
        "components": shuffled(
            {c: {m: messy(v) for m, v in spec.items()} for c, spec in clean["components"].items()}
        ),
        **{t: shuffled({k: messy(v) for k, v in clean[t].items()}) for t in ("levels", *ENTRY_TABLES)},
        "highload_channels": messy(clean["highload_channels"]),
        "highperf_components": messy(clean["highperf_components"]),
    }
    a = Architecture.create(**tables)

    def canonical(value, names) -> bool:
        return type(value) is tuple and value == tuple(sorted(set(names))) and all(
            x < y for x, y in zip(value, value[1:])
        )

    for c, spec in tables["components"].items():
        for member, field in MEMBER_FIELDS.items():
            assert canonical(getattr(a.components[c], field), spec[member])
            lookup = getattr(a, LOOKUPS[field])(c)
            assert type(lookup) is frozenset and lookup == set(spec[member])
    for t in ENTRY_TABLES:
        for k, value in getattr(a, t).items():
            assert canonical(value, tables[t].get(k, ()))
    for level, value in a.levels.items():
        assert canonical(value, tables["levels"][level])
        assert type(a.level_components(level)) is frozenset
    for t in ("components", "levels", *ENTRY_TABLES):
        keys = list(getattr(a, t))
        assert keys == sorted(keys)
    assert a == Architecture.create(**clean)
    assert ingest.parse(json.dumps(tables)) == a
    assert ingest.parse(ingest.serialize(a)) == a


@pytest.mark.skipif(platform.python_implementation() != "CPython",
                    reason="untracking tuples of strings is a CPython collector detail")
def test_members_and_entries_are_untracked_after_one_collection():
    text = (resources.files("archdeps") / "data" / "system_s.json").read_text(encoding="utf-8")
    a = ingest.parse(text)
    gc.collect()
    records = a.components.values()
    entries = [
        *chain.from_iterable((r.inputs, r.outputs, r.vars, r.subcomponents) for r in records),
        *chain.from_iterable(getattr(a, t).values() for t in ("levels", *ENTRY_TABLES)),
    ]
    assert len(entries) == (
        4 * len(records) + len(a.levels) + 2 * len(a.chan_from_ch) + 2 * len(a.var_from)
    )
    assert not any(map(gc.is_tracked, entries))


ORDER_NAMES = st.sampled_from(["a", "b", "c", "d"])  # few names, so entries and seams meet often
ORDER_ENTRY = st.one_of(
    st.lists(ORDER_NAMES, max_size=4),
    st.lists(ORDER_NAMES, max_size=4).map(tuple),
    st.frozensets(ORDER_NAMES, max_size=3),
    st.sets(ORDER_NAMES, max_size=3),
)
ORDER_COLUMN = st.lists(ORDER_ENTRY, max_size=6)


def _shape_of(columns: dict) -> tuple:
    # _check_shape's arguments holding the generated columns: one spec per row, one table per key
    rows = max(map(len, (columns[m] for m in model._MEMBERS)), default=0)
    components = {
        f"c{i}": {m: columns[m][i] for m in model._MEMBERS if i < len(columns[m])} for i in range(rows)
    }
    tables = {t: {f"k{i}": v for i, v in enumerate(columns[t])} for t in model._TABLES}
    return components, tables, dict.fromkeys(model._ARRAYS, ())


@given(st.fixed_dictionaries({key: ORDER_COLUMN for key in (*model._MEMBERS, *model._TABLES)}))
def test_order_flags_match_brute_force(columns):
    shape = _shape_of(columns)
    for key, (entries, names, in_order) in model._check_shape(*shape).items():
        # A set or frozenset entry takes the sorting path, whatever order it iterates in.
        expected = all(type(v) in (list, tuple) and list(v) == sorted(set(v)) for v in entries)
        assert in_order is expected, key
        assert names == [name for v in entries for name in v]


def test_one_unordered_column_sorts_only_itself():
    doc = to_tables(case_study_fixture())
    doc["levels"]["level1"].reverse()
    x = next(x for x, deps in doc["chan_from_ch"].items() if deps)
    doc["chan_from_ch"][x].append(doc["chan_from_ch"][x][0])  # a name repeated
    tables = {t: doc[t] for t in model._TABLES}
    columns = model._check_shape(doc["components"], tables, {})
    assert {key for key, (*_, in_order) in columns.items() if not in_order} == {"levels", "chan_from_ch"}
    assert Architecture.create(**doc) == case_study_fixture()


def _has_cycle(subcomp: dict) -> bool:
    # Peel off components whose subcomponents are all peeled; a cycle is what remains.
    left = dict(subcomp)
    while True:
        done = [c for c, subs in left.items() if not set(subs) & left.keys()]
        if not done:
            return bool(left)
        for c in done:
            del left[c]


CYCLE_NAMES = st.sampled_from(["a", "b", "c", "d", "e"])


@given(st.dictionaries(CYCLE_NAMES, st.lists(CYCLE_NAMES, max_size=3)))
def test_subcomponent_cycle_found_whatever_the_name_order(subcomp):
    names = set(subcomp).union(*subcomp.values())
    components = {c: {"subcomp": subcomp.get(c, [])} for c in sorted(names)}
    if _has_cycle(subcomp):
        with pytest.raises(SubcomponentCycleError):
            Architecture.create(components=components)
    else:
        a = Architecture.create(components=components)
        assert {c: set(rec.subcomponents) for c, rec in a.components.items()} == {
            c: set(spec["subcomp"]) for c, spec in components.items()
        }
