import dataclasses
import time

from archdeps import deps, ingest, slicing
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

    fresh = dataclasses.replace(a)  # same tables, no index built yet
    start = time.perf_counter()
    report = slicing.slice_report(fresh, "L0", ["x19999"])
    assert time.perf_counter() - start < 1.0
    assert len(report.min_components) == 20_000
