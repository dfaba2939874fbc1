import gc
import time

from archdeps import deps, ingest, optimize, slicing, validate
from archdeps.model import Architecture, LevelIndex

from .conftest import to_tables


def test_level_index_producers_and_consumers(arch):
    index = arch.level_index("level2")
    assert index.members == arch.level_components("level2")
    assert index.producers["data2"] == ("sS2",)
    assert index.consumers["data2"] == ("sS3", "sS4", "sS6")
    assert arch.level_index("level0").producers["data10"] == ("sA1",)
    assert "data10" not in arch.level_index("level0").consumers
    assert all(
        isinstance(cs, tuple)
        for table in (index.producers, index.consumers)
        for cs in table.values()
    )


def test_level_index_is_built_once_on_first_use():
    a = ingest.parse(ingest.serialize(Architecture.create(levels={"L0": []})))
    assert "_level_indexes" not in vars(a)
    first = a.level_index("L0")
    assert first is a.level_index("L0")
    assert first == LevelIndex.build(a.components, a.levels["L0"])


def test_level_index_takes_no_part_in_equality(arch):
    fresh = Architecture.create(**to_tables(arch))
    for level in arch.levels:
        arch.level_index(level)
    assert arch == ingest.parse(ingest.serialize(arch))
    assert arch == fresh and fresh == arch
    assert ingest.serialize(fresh) == ingest.serialize(arch)


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


def test_hierarchy_index_contents_and_laziness(arch):
    fresh = Architecture.create(**to_tables(arch))
    assert "hierarchy_index" not in vars(fresh)
    index = fresh.hierarchy_index
    assert index is fresh.hierarchy_index
    assert fresh == arch and ingest.serialize(fresh) == ingest.serialize(arch)
    assert index.parents["sA22"] == ("sA2", "sS4opt", "sS6")
    assert index.parents["sA5"] == ("sS7opt", "sS8")
    assert index.parents["sA6"] == ("sS9",)
    assert index.parents.get("sA1", ()) == ()
    assert index.levels_of["sS3"] == ("level2", "level3")
    assert index.producers == {
        x: tuple(c for c in sorted(arch.components) if x in arch.outputs_of(c))
        for x in arch.chan_from_ch
        if any(x in rec.outputs for rec in arch.components.values())
    }
    assert index.targeted_by["data15"] == ("stA6",)
    assert set(index.targeted_by) == set().union(*arch.var_to.values())
    assert index.finest_first == ("level1", "level0", "level2", "level3")


def test_hierarchy_index_on_5000_deep_chain():
    depth = 5000
    components = {f"c{k}": {"subcomp": [f"c{k + 1}"]} for k in range(depth)}
    components[f"c{depth}"] = {}
    a = Architecture.create(
        components=components,
        levels={"fine": [f"c{depth}"], "coarse": ["c0"], "mid": ["c2500"]},
    )
    assert a.hierarchy_index.finest_first == ("fine", "mid", "coarse")


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


def test_index_builds_restore_the_collector_state(arch, collector_enabled):
    fresh = Architecture.create(**to_tables(arch))
    fresh.level_index("level0")
    assert gc.isenabled() is collector_enabled
    fresh.hierarchy_index
    assert gc.isenabled() is collector_enabled
    fresh.highperf_marks
    assert gc.isenabled() is collector_enabled
