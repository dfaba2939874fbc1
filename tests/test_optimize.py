import time

import pytest

from archdeps import ingest, optimize
from archdeps.model import Architecture, UnknownIdentifierError

from .conftest import mutated

LEVEL1_SCCS = {
    frozenset({"sA22", "sA31", "sA41"}),
    frozenset({"sA81", "sA91"}),
    frozenset({"sA11"}), frozenset({"sA12"}), frozenset({"sA21"}),
    frozenset({"sA23"}), frozenset({"sA32"}), frozenset({"sA42"}),
    frozenset({"sA5"}), frozenset({"sA6"}), frozenset({"sA71"}),
    frozenset({"sA72"}), frozenset({"sA82"}), frozenset({"sA92"}),
    frozenset({"sA93"}),
}

LEVEL2_LOAD_GROUPS = {
    frozenset({"sS1", "sS2"}),
    frozenset({"sS4", "sS5", "sS6"}),
    frozenset({"sS7", "sS8"}),
    frozenset({"sS11", "sS14", "sS15"}),
    frozenset({"sS3"}), frozenset({"sS9"}), frozenset({"sS10"}),
    frozenset({"sS12"}), frozenset({"sS13"}),
}


def test_condense_level1(arch):
    partition = optimize.condense_level(arch, "level1")
    assert set(partition.groups) == LEVEL1_SCCS
    assert partition.source_level == "level1"


def test_condense_level2_all_singletons(arch):
    partition = optimize.condense_level(arch, "level2")
    assert all(len(g) == 1 for g in partition.groups)
    assert len(partition.groups) == 15


def test_condense_level0(arch):
    partition = optimize.condense_level(arch, "level0")
    assert set(partition.groups) == {
        frozenset({"sA2", "sA3", "sA4"}),
        frozenset({"sA8", "sA9"}),
        frozenset({"sA1"}), frozenset({"sA5"}),
        frozenset({"sA6"}), frozenset({"sA7"}),
    }


def test_condense_groups_ordered_by_least_member(arch):
    partition = optimize.condense_level(arch, "level1")
    mins = [min(g) for g in partition.groups]
    assert mins == sorted(mins)


def test_condense_self_loop_single_group():
    a = Architecture.create(
        components={"A": {"in": ["x1"], "out": ["x1"]}},
        levels={"L0": ["A"]},
    )
    partition = optimize.condense_level(a, "L0")
    assert partition.groups == (frozenset({"A"}),)


def test_condense_empty_level():
    a = Architecture.create(levels={"L0": []})
    assert optimize.condense_level(a, "L0").groups == ()


def test_highload_grouping_level2(arch):
    partition = optimize.highload_grouping(arch, "level2")
    assert set(partition.groups) == LEVEL2_LOAD_GROUPS


def test_highload_grouping_marks(arch):
    partition = optimize.highload_grouping(arch, "level2")
    marked = {
        g for g, hp in zip(partition.groups, partition.high_perf) if hp
    }
    assert marked == {
        frozenset({"sS4", "sS5", "sS6"}),
        frozenset({"sS7", "sS8"}),
        frozenset({"sS11", "sS14", "sS15"}),
    }


def test_highload_grouping_without_highload_channels(arch):
    plain = mutated(arch, lambda t: t["highload_channels"].clear())
    partition = optimize.highload_grouping(plain, "level2")
    assert all(len(g) == 1 for g in partition.groups)
    assert len(partition.groups) == 15


def test_highload_shared_input_merges():
    a = Architecture.create(
        components={"A": {"in": ["x1"]}, "B": {"in": ["x1"]}},
        levels={"L0": ["A", "B"]},
        highload_channels=["x1"],
    )
    partition = optimize.highload_grouping(a, "L0")
    assert partition.groups == (frozenset({"A", "B"}),)


@pytest.mark.parametrize("level", ["level0", "level1", "level2", "level3"])
def test_partitions_cover_level_disjointly(arch, level):
    for partition in (
        optimize.condense_level(arch, level),
        optimize.highload_grouping(arch, level),
    ):
        union = set()
        for g in partition.groups:
            assert not (union & g)
            union |= g
        assert union == arch.level_components(level)
        assert len(partition.high_perf) == len(partition.groups)


def test_is_high_perf_direct(arch):
    assert optimize.is_high_perf(arch, "sA22")
    assert not optimize.is_high_perf(arch, "sA21")


def test_is_high_perf_through_subcomponents(arch):
    assert optimize.is_high_perf(arch, "sS4opt")
    assert optimize.is_high_perf(arch, "sS7opt")
    assert optimize.is_high_perf(arch, "sS11opt")
    assert not optimize.is_high_perf(arch, "sS1opt")


def test_is_highload_channel(arch):
    assert optimize.is_highload_channel(arch, "data8")
    assert not optimize.is_highload_channel(arch, "data2")


def test_unknown_identifiers(arch):
    with pytest.raises(UnknownIdentifierError):
        optimize.is_high_perf(arch, "nope")
    with pytest.raises(UnknownIdentifierError):
        optimize.is_highload_channel(arch, "dataX")
    with pytest.raises(UnknownIdentifierError):
        optimize.condense_level(arch, "level9")


def test_refinement_level1_to_level2(arch):
    report = optimize.verify_level_refinement(arch, "level1", "level2")
    assert report.ok and not report.witnesses


def test_refinement_level2_to_level3(arch):
    report = optimize.verify_level_refinement(arch, "level2", "level3")
    assert report.ok


def test_refinement_violated_by_dropped_subcomponent(arch):
    bad = mutated(arch, lambda t: t["components"]["sS6"]["subcomp"].remove("sA22"))
    report = optimize.verify_level_refinement(bad, "level1", "level2")
    assert not report.ok
    assert any("sA22" in w.entities for w in report.witnesses)


def test_refinement_double_coverage(arch):
    bad = mutated(arch, lambda t: t["components"]["sS5"]["subcomp"].append("sA22"))
    report = optimize.verify_level_refinement(bad, "level1", "level2")
    assert not report.ok
    assert any(
        w.entities == ("sA22", "sS5", "sS6") and w.reason == "sA22 covered by both sS5 and sS6"
        for w in report.witnesses
    )


def test_refinement_identity_level(arch):
    report = optimize.verify_level_refinement(arch, "level0", "level0")
    assert report.ok


def test_refinement_diamond_ladder_40_deep():
    # d0 -> {l0, r0} -> d1 -> ... -> d40: 2**40 paths, 121 components
    components = {"d40": {}}
    for k in range(40):
        components[f"d{k}"] = {"subcomp": [f"l{k}", f"r{k}"]}
        components[f"l{k}"] = {"subcomp": [f"d{k + 1}"]}
        components[f"r{k}"] = {"subcomp": [f"d{k + 1}"]}
    a = Architecture.create(
        components=components, levels={"fine": ["d40"], "coarse": ["d0"]}
    )
    assert optimize.verify_level_refinement(a, "fine", "coarse").ok


def test_refinement_chain_5000_deep():
    depth = 5000
    components = {f"c{k}": {"subcomp": [f"c{k + 1}"]} for k in range(depth)}
    components[f"c{depth}"] = {}
    a = Architecture.create(
        components=components,
        levels={"fine": [f"c{depth}"], "coarse": ["c0"]},
    )
    assert optimize.verify_level_refinement(a, "fine", "coarse").ok


def test_high_perf_marks_on_4000_deep_chain():
    # Every component is on the level and has the marked leaf below it.
    depth = 4000
    components = {f"c{k:04d}": {"subcomp": [f"c{k + 1:04d}"]} for k in range(depth)}
    components[f"c{depth:04d}"] = {}
    a = Architecture.create(
        components=components,
        levels={"chain": list(components)},
        highperf_components=[f"c{depth:04d}"],
    )
    for analysis in (ingest.export_dot, optimize.highload_grouping, optimize.condense_level):
        start = time.perf_counter()
        result = analysis(a, "chain")
        assert time.perf_counter() - start < 1.0, analysis.__name__
        if analysis is ingest.export_dot:
            assert result.count("fillcolor=lightgreen") == depth + 1
        else:
            assert len(result.groups) == depth + 1 and all(result.high_perf)
