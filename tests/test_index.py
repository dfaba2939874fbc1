import gc
import time
from functools import cached_property
from operator import attrgetter, is_
from types import SimpleNamespace

import pytest

from archdeps import deps, ingest, model, optimize, slicing, validate
from archdeps.model import Architecture, LevelIndex, UnknownIdentifierError

from .conftest import hub, to_tables


def test_level_index_producers_and_consumers(arch):
    index = arch.level_index("level2")
    assert type(index.members) is frozenset and index.members == set(arch.levels["level2"])
    assert index.producers["data2"] == ("sS2",)
    assert index.consumers["data2"] == ("sS3", "sS4", "sS6")
    assert arch.level_index("level0").producers["data10"] == ("sA1",)
    assert "data10" not in arch.level_index("level0").consumers
    assert all(
        isinstance(cs, tuple)
        for table in (index.producers, index.consumers)
        for cs in table.values()
    )


index_fields = attrgetter("members", "producers", "consumers")


def test_level_index_is_built_once_on_first_use():
    a = ingest.parse(ingest.serialize(Architecture.create(levels={"L0": []})))
    assert "_level_indexes" not in vars(a)
    first = a.level_index("L0")
    assert first is a.level_index("L0")
    assert index_fields(first) == index_fields(LevelIndex(a.components, a.levels["L0"]))


def test_level_index_of_unknown_level_raises_after_every_level_is_cached(arch):
    a = Architecture.create(**to_tables(arch))
    for level in a.levels:
        a.level_index(level)
    with pytest.raises(UnknownIdentifierError):
        a.level_index("level9")
    assert "level9" not in a._level_indexes


def test_level_index_takes_no_part_in_equality(arch):
    fresh = Architecture.create(**to_tables(arch))
    for level in arch.levels:
        arch.level_index(level)
    assert arch == ingest.parse(ingest.serialize(arch))
    assert arch == fresh and fresh == arch
    assert ingest.serialize(fresh) == ingest.serialize(arch)


def count_link_builds(monkeypatch) -> list:
    """Record the name of every feeders or readers map built from now on."""
    built = []
    for name in ("feeders", "readers"):
        build = vars(LevelIndex)[name].func

        def counting(self, build=build, name=name):
            built.append(name)
            return build(self)

        link_map = cached_property(counting)
        link_map.__set_name__(LevelIndex, name)
        monkeypatch.setattr(LevelIndex, name, link_map)
    return built


def check_link_maps(a: Architecture, level) -> None:
    """The flat layout of the level's feeders and readers, entry by entry."""
    index = a.level_index(level)
    producers, consumers = index.producers, index.consumers
    shared = {x for x, ps in producers.items() if len(ps) > 1}
    assert set(index.joins) == {"," + x for x in shared}
    assert len(index.joins) == len(shared) and index.members.isdisjoint(index.joins)

    def node(x):
        return "," + x if x in shared else producers[x][0]

    assert set(index.feeders) == index.members | set(index.joins)
    assert set(index.readers) == index.members | {"," + x for x in shared & consumers.keys()}
    for c in index.members:
        rec = a.components[c]
        assert index.feeders[c] == tuple(node(x) for x in rec.inputs if x in producers)
        assert index.readers[c] == tuple(
            z
            for x in rec.outputs
            if x in consumers
            for z in (("," + x,) if x in shared else consumers[x])
        )
    for x in shared:
        assert index.feeders["," + x] is producers[x]
        if x in consumers:
            assert index.readers["," + x] is consumers[x]


def test_link_maps_list_sole_producers_and_join_nodes(arch):
    for level in arch.levels:
        check_link_maps(arch, level)
        assert arch.level_index(level).joins == ()
    # sA9 writes data17 beside sA7, so data17 has two producers on level0
    tables = to_tables(arch)
    tables["components"]["sA9"]["out"].append("data17")
    shared = Architecture.create(**tables)
    check_link_maps(shared, "level0")
    index = shared.level_index("level0")
    assert index.joins == (",data17",)
    assert ",data17" in index.feeders["sA8"] and ",data17" in index.readers["sA9"]


def test_direct_queries_build_no_link_map_and_the_walks_build_each_once(arch, monkeypatch):
    built = count_link_builds(monkeypatch)
    fresh = Architecture.create(**to_tables(arch))
    index = fresh.level_index("level0")
    assert deps.dsources(fresh, "level0", "sA8") == {"sA7", "sA9"}
    assert deps.dacc(fresh, "level0", "sA7") == {"sA8"}
    for c in index.members:
        deps.dsources(fresh, "level0", c)
        deps.dacc(fresh, "level0", c)
    assert built == []
    optimize.condense_level(fresh, "level0")
    assert built == ["feeders"]
    feeders = index.feeders
    deps.sources(fresh, "level0", "sA8")
    slicing.slice_report(fresh, "level0", ["data10"])
    assert index.feeders is feeders
    assert built == ["feeders"]
    deps.acc(fresh, "level0", "sA7")
    readers = index.readers
    deps.acc(fresh, "level0", "sA8")
    assert index.readers is readers
    assert built == ["feeders", "readers"]


def test_first_transitive_query_builds_the_link_map_once(arch, monkeypatch):
    built = count_link_builds(monkeypatch)
    fresh = Architecture.create(**to_tables(arch))
    index = fresh.level_index("level2")
    deps.sources(fresh, "level2", "sS4")
    assert built == ["feeders"]
    feeders = index.feeders
    slicing.slice_report(fresh, "level2", ["data2"])
    slicing.min_set_of_components(fresh, "level2", ["data2"])
    deps.sources(fresh, "level2", "sS3")
    assert index.feeders is feeders
    deps.acc(fresh, "level2", "sS2")
    readers = index.readers
    deps.acc(fresh, "level2", "sS4")
    assert index.readers is readers
    assert built == ["feeders", "readers"]


def test_link_maps_take_no_part_in_equality_or_repr(arch):
    fresh = Architecture.create(**to_tables(arch))
    index = fresh.level_index("level2")
    index.feeders, index.readers
    assert index_fields(index) == index_fields(LevelIndex(fresh.components, fresh.levels["level2"]))


def test_transitive_queries_on_2000_hub():
    k = 2_000
    a = hub(k)
    index = a.level_index("L0")
    for query, c in ((deps.sources, "q0"), (deps.acc, "p0")):
        start = time.perf_counter()
        result = query(a, "L0", c)
        assert time.perf_counter() - start < 1.0
        assert result == index.members and len(result) == 2 * k
    incidences = sum(len(rec.inputs) + len(rec.outputs) for rec in a.components.values())
    member_entries = (len(links[c]) for links in (index.feeders, index.readers) for c in index.members)
    assert sum(member_entries) <= incidences
    assert index.joins == (",hub",)
    assert index.feeders[",hub"] is index.producers["hub"]
    assert index.readers[",hub"] is index.consumers["hub"]


def test_condense_on_2000_hub_under_one_second():
    a = hub(2_000)
    start = time.perf_counter()
    partition = optimize.condense_level(a, "L0")
    assert time.perf_counter() - start < 1.0
    assert partition.groups == (frozenset(a.levels["L0"]),)


def chain(n: int) -> Architecture:
    """One level; component i reads the outputs of the three before it."""
    return Architecture.create(
        components={
            f"c{i}": {"in": [f"x{j}" for j in range(max(0, i - 3), i)], "out": [f"x{i}"]}
            for i in range(n)
        },
        levels={"L0": [f"c{i}" for i in range(n)]},
    )


def test_queries_on_20000_component_chain_are_near_linear():
    a = chain(20_000)
    start = time.perf_counter()
    result = deps.sources(a, "L0", "c19999")
    assert time.perf_counter() - start < 1.0
    assert len(result) == 19_999

    fresh = Architecture(  # same tables, no index built yet
        a.components, a.levels, a.chan_from_ch, a.chan_from_var,
        a.var_from, a.var_to, a.highload_channels, a.highperf_components,
    )
    start = time.perf_counter()
    report = slicing.slice_report(fresh, "L0", ["x19999"])
    assert time.perf_counter() - start < 1.0
    assert len(report.min_components) == 20_000


def test_condense_on_20000_component_chain_and_ring():
    n = 20_000
    ring = Architecture.create(
        components={f"c{i}": {"in": [f"x{(i - 1) % n}"], "out": [f"x{i}"]} for i in range(n)},
        levels={"L0": [f"c{i}" for i in range(n)]},
    )
    for a, groups in ((chain(n), n), (ring, 1)):
        start = time.perf_counter()
        partition = optimize.condense_level(a, "L0")
        assert time.perf_counter() - start < 1.0
        assert len(partition.groups) == groups


def test_validate_all_builds_no_level_index(arch):
    fresh = Architecture.create(**to_tables(arch))
    validate.validate_all(fresh)
    assert "_level_indexes" not in vars(fresh)


DOCUMENT_TABLES = ("parents", "levels_of", "producers", "targeted_by", "finest_first")


def cached(a: Architecture) -> set[str]:
    """The names of the lazily built tables the model holds now."""
    return set(vars(a)) - set(a._fields)


def test_document_tables_contents_and_laziness(arch):
    fresh = Architecture.create(**to_tables(arch))
    assert cached(fresh) == set()
    for name in DOCUMENT_TABLES:
        assert getattr(fresh, name) is getattr(fresh, name)
    assert cached(fresh) == set(DOCUMENT_TABLES)
    assert fresh == arch and ingest.serialize(fresh) == ingest.serialize(arch)
    assert fresh.parents["sA22"] == ("sA2", "sS4opt", "sS6")
    assert fresh.parents["sA5"] == ("sS7opt", "sS8")
    assert fresh.parents["sA6"] == ("sS9",)
    assert fresh.parents.get("sA1", ()) == ()
    assert fresh.levels_of["sS3"] == ("level2", "level3")
    assert fresh.producers == {
        x: tuple(c for c in sorted(arch.components) if x in arch.outputs_of(c))
        for x in arch.chan_from_ch
        if any(x in rec.outputs for rec in arch.components.values())
    }
    assert fresh.targeted_by["data15"] == ("stA6",)
    assert set(fresh.targeted_by) == set().union(*arch.var_to.values())
    assert fresh.finest_first == ("level1", "level0", "level2", "level3")


def test_field_writes_after_a_build_leave_the_caches_as_built(arch):
    # The caches read the fields once, on first use; a later write rebuilds none of them.
    a = Architecture.create(**to_tables(arch))
    index = a.level_index("level0")
    built = (index, index.feeders, a.parents, a.highperf_marks)
    a.levels, a.components, a.highperf_components = {}, {}, frozenset()
    index = a.level_index("level0")
    assert all(map(is_, (index, index.feeders, a.parents, a.highperf_marks), built))


def test_every_lazy_member_builds_with_the_collector_paused(arch, monkeypatch):
    fresh = Architecture.create(**to_tables(arch))
    index = fresh.level_index("level0")
    pauses = []
    monkeypatch.setattr(model, "gc", SimpleNamespace(
        isenabled=lambda: True, disable=lambda: pauses.append(1), enable=lambda: None))
    for owner, names in (
        (fresh, {"_level_indexes", *DOCUMENT_TABLES, "highperf_marks"}),
        (index, {"joins", "feeders", "readers"}),
    ):
        lazy = [n for n, v in vars(type(owner)).items() if isinstance(v, cached_property)]
        assert set(lazy) == names
        for name in lazy:  # in definition order, so what a build reads is cached already
            vars(owner).pop(name, None)
            before = len(pauses)
            getattr(owner, name)
            assert len(pauses) == before + 1, name


def test_highperf_marks_build_parents_and_nothing_else(arch):
    fresh = Architecture.create(**to_tables(arch))
    assert fresh.highperf_marks >= fresh.highperf_components
    assert cached(fresh) == {"parents", "highperf_marks"}


def test_finest_first_on_5000_deep_chain():
    depth = 5000
    components = {f"c{k}": {"subcomp": [f"c{k + 1}"]} for k in range(depth)}
    components[f"c{depth}"] = {}
    a = Architecture.create(
        components=components,
        levels={"fine": [f"c{depth}"], "coarse": ["c0"], "mid": ["c2500"]},
    )
    assert a.finest_first == ("fine", "mid", "coarse")


def test_validate_all_on_20001_component_hierarchy_is_near_linear():
    # L0: a chain of atoms, one variable each; L1: one wrapper per atom;
    # L2: one component over every wrapper.
    n = 10_000
    components = {}
    for i in range(n):
        interface = {"in": [f"x{i - 1}"] if i else [], "out": [f"x{i}"], "var": [f"v{i}"]}
        components[f"a{i}"] = interface
        components[f"w{i}"] = {**interface, "subcomp": [f"a{i}"]}
    components["top"] = {
        "out": [f"x{n - 1}"],
        "var": [f"v{i}" for i in range(n)],
        "subcomp": [f"w{i}" for i in range(n)],
    }
    a = Architecture.create(
        components=components,
        levels={
            "L0": [f"a{i}" for i in range(n)],
            "L1": [f"w{i}" for i in range(n)],
            "L2": ["top"],
        },
        chan_from_ch={f"x{i}": [f"x{i - 1}"] if i else [] for i in range(n)},
        chan_from_var={f"x{i}": [f"v{i}"] for i in range(n)},
        var_from={f"v{i}": [f"x{i - 1}"] if i else [] for i in range(n)},
        var_to={f"v{i}": [f"x{i}"] for i in range(n)},
    )
    start = time.perf_counter()
    report = validate.validate_all(a)
    assert time.perf_counter() - start < 2.0
    assert report.all_hold
    assert len(a.components) == 20_001


def test_validate_all_on_two_20000_component_levels_is_near_linear():
    # Each coarse component on L1 has one subcomponent on L0: composition_diff_levels
    # asks, per component, whether a level of its own holds a subcomponent.
    k = 20_000
    a = Architecture.create(
        components={
            **{f"f{i}": {} for i in range(k)},
            **{f"c{i}": {"subcomp": [f"f{i}"]} for i in range(k)},
        },
        levels={"L0": [f"f{i}" for i in range(k)], "L1": [f"c{i}" for i in range(k)]},
    )
    start = time.perf_counter()
    report = validate.validate_all(a)
    assert time.perf_counter() - start < 2.0
    assert report.all_hold


def test_index_builds_restore_the_collector_state(arch, collector_enabled):
    fresh = Architecture.create(**to_tables(arch))
    index = fresh.level_index("level0")
    assert gc.isenabled() is collector_enabled
    for name in ("feeders", "readers"):
        getattr(index, name)
        assert gc.isenabled() is collector_enabled
    for name in (*DOCUMENT_TABLES, "highperf_marks"):
        getattr(fresh, name)
        assert gc.isenabled() is collector_enabled
    assert cached(fresh) == {"_level_indexes", *DOCUMENT_TABLES, "highperf_marks"}
