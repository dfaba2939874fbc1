"""End-to-end acceptance checks.

Each test prints a single pass/fail line so the whole gate can be read
off a `pytest -v -s tests/test_acceptance.py` run at a glance.
"""

import json
import random
import time
from contextlib import contextmanager

from archdeps import case_study_fixture, cli, deps, elementary, ingest, optimize, slicing, validate

from .conftest import (
    mutual_reachability_classes,
    random_architecture,
    reachability_pairs,
)
from .test_deps import (
    ACC_L0,
    ACC_L1,
    DACC_L0,
    DACC_L1,
    DSOURCES_L0,
    DSOURCES_L1,
    SOURCES_L0,
    SOURCES_L1,
    SOURCES_L2,
)


@contextmanager
def reported(label: str):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS")


EXPECTED_LEVELS = {
    "level0": {"sA1", "sA2", "sA3", "sA4", "sA5", "sA6", "sA7", "sA8", "sA9"},
    "level1": {
        "sA11", "sA12", "sA21", "sA22", "sA23", "sA31", "sA32", "sA41",
        "sA42", "sA5", "sA6", "sA71", "sA72", "sA81", "sA82", "sA91",
        "sA92", "sA93",
    },
    "level2": {
        "sS1", "sS2", "sS3", "sS4", "sS5", "sS6", "sS7", "sS8", "sS9",
        "sS10", "sS11", "sS12", "sS13", "sS14", "sS15",
    },
    "level3": {
        "sS1opt", "sS3", "sS4opt", "sS7opt", "sS9", "sS10", "sS11opt",
        "sS12", "sS13",
    },
}

EXPECTED_HIGHLOAD = {
    "data1", "data4", "data5", "data6", "data7", "data8", "data18", "data21",
}

EXPECTED_HIGHPERF = {"sA22", "sA23", "sA41", "sA42", "sA72", "sA93"}

EXPECTED_CHAN_FROM_VAR = {
    "data3": {"stA4"}, "data4": {"stA2"}, "data10": {"stA1"},
    "data12": {"stA2"}, "data15": {"stA6"}, "data16": {"stA6"},
}

EXPECTED_VAR_FROM = {
    "stA1": {"data1"}, "stA2": {"data3"},
    "stA4": {"data6", "data7"}, "stA6": {"data14"},
}

EXPECTED_VAR_TO = {
    "stA1": {"data10"}, "stA2": {"data4", "data12"},
    "stA4": {"data3"}, "stA6": {"data15", "data16"},
}

SAMPLE_INTERFACES = {
    "sA1": ({"data1"}, {"data2", "data10"}, {"stA1"}, {"sA11", "sA12"}),
    "sA4": ({"data6", "data7", "data13"}, {"data3", "data8"}, {"stA4"},
            {"sA41", "sA42"}),
    "sA6": ({"data14"}, {"data15", "data16"}, {"stA6"}, set()),
    "sS6": ({"data2", "data7"}, {"data12"}, {"stA2", "stA4"},
            {"sA22", "sA31", "sA41"}),
    "sS4opt": ({"data2"}, {"data12"}, {"stA2", "stA4"},
               {"sA22", "sA23", "sA31", "sA32", "sA41"}),
}


def test_criterion_1_fixture_fidelity(capsys):
    with reported("criterion 1 fixture fidelity"):
        start = time.perf_counter()
        assert cli.run(["fixture"]) == cli.EXIT_OK
        parsed = ingest.parse(capsys.readouterr().out)
        elapsed = time.perf_counter() - start

        a = case_study_fixture()
        assert parsed == a
        assert len(a.components) == 44
        assert {lvl: set(m) for lvl, m in a.levels.items()} == EXPECTED_LEVELS
        assert set(a.highload_channels) == EXPECTED_HIGHLOAD
        assert set(a.highperf_components) == EXPECTED_HIGHPERF
        for x, expected in EXPECTED_CHAN_FROM_VAR.items():
            assert a.chan_from_var[x] == tuple(sorted(expected))
        assert all(
            not a.chan_from_var[x]
            for x in a.channel_ids
            if x not in EXPECTED_CHAN_FROM_VAR
        )
        assert {v: set(d) for v, d in a.var_from.items()} == EXPECTED_VAR_FROM
        assert {v: set(d) for v, d in a.var_to.items()} == EXPECTED_VAR_TO
        for c, (ins, outs, variables, subs) in SAMPLE_INTERFACES.items():
            assert a.inputs_of(c) == ins
            assert a.outputs_of(c) == outs
            assert a.vars_of(c) == variables
            assert a.subcomponents_of(c) == subs
        assert elapsed < 0.1, f"fixture round trip took {elapsed:.3f}s"


def test_criterion_2_validation_suite(arch, tmp_path, capsys):
    with reported("criterion 2 validation suite"):
        report = validate.validate_all(arch)
        assert report.all_hold
        assert set(report.verdicts) == set(validate.PREDICATE_NAMES)

        path = tmp_path / "system_s.json"
        path.write_text(ingest.serialize(arch), encoding="utf-8")
        assert cli.run(["validate", str(path)]) == cli.EXIT_OK
        capsys.readouterr()


def test_criterion_3_dependency_tables(arch):
    with reported("criterion 3 dependency tables"):
        start = time.perf_counter()
        tables = [
            (deps.dsources, "level0", DSOURCES_L0),
            (deps.dsources, "level1", DSOURCES_L1),
            (deps.sources, "level0", SOURCES_L0),
            (deps.sources, "level1", SOURCES_L1),
            (deps.sources, "level2", SOURCES_L2),
            (deps.dacc, "level0", DACC_L0),
            (deps.dacc, "level1", DACC_L1),
            (deps.acc, "level0", ACC_L0),
            (deps.acc, "level1", ACC_L1),
        ]
        for fn, level, expected in tables:
            for comp, value in expected.items():
                assert fn(arch, level, comp) == value, (fn.__name__, level, comp)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"dependency tables took {elapsed:.3f}s"


def test_criterion_4_slicing(arch):
    with reported("criterion 4 slicing"):
        cases = [
            ("level2", {"data10", "data13"}, {"sS1"}, False, False),
            ("level2", {"data1", "data12"},
             {"sS2", "sS4", "sS5", "sS6"}, True, True),
            ("level1", {"data1", "data10", "data11"},
             {"sA11", "sA12", "sA21"}, True, True),
            ("level2", {"data1", "data10", "data11"},
             {"sS1", "sS2", "sS3"}, True, True),
        ]
        for level, chset, min_set, no_irrelevant, all_needed in cases:
            assert slicing.min_set_of_components(arch, level, chset) == min_set
            assert slicing.no_irrelevant_channels(arch, level, chset) is no_irrelevant
            assert slicing.all_needed_in_channels(arch, level, chset) is all_needed


def test_criterion_5_elementary(arch):
    with reported("criterion 5 elementary classification"):
        level0 = elementary.elementary_report(arch, "level0")
        assert len(level0) == 9
        assert {c for c, ok in level0.items() if ok} == {"sA5", "sA6"}
        level1 = elementary.elementary_report(arch, "level1")
        assert len(level1) == 18
        assert all(level1.values())


def test_criterion_6_condensation(arch):
    with reported("criterion 6 condensation"):
        partition = optimize.condense_level(arch, "level1")
        # the level2 components encode the expected partition through
        # their subcomponent sets
        encoded = {
            frozenset(arch.subcomponents_of(c)) or frozenset((c,))
            for c in arch.level_components("level2")
        }
        level1 = arch.level_components("level1")
        encoded = {g & level1 or g for g in encoded}
        assert set(partition.groups) == encoded
        multi = {g for g in partition.groups if len(g) > 1}
        assert multi == {
            frozenset({"sA22", "sA31", "sA41"}),
            frozenset({"sA81", "sA91"}),
        }
        assert len(partition.groups) == 15


def test_criterion_7_optimization(arch):
    with reported("criterion 7 optimization"):
        partition = optimize.highload_grouping(arch, "level2")
        # level3 encodes the expected grouping: each opt component's
        # subcomponents flatten to one group of level2 members
        level2 = arch.level_components("level2")
        encoded = set()
        for c in arch.level_components("level3"):
            subs = arch.subcomponents_of(c)
            group = {
                f for f in level2
                if f == c or (subs and arch.subcomponents_of(f) <= subs
                              and arch.subcomponents_of(f))
            }
            encoded.add(frozenset(group) if group else frozenset((c,)))
        assert set(partition.groups) == encoded
        marked = {
            min(g)
            for g, hp in zip(partition.groups, partition.high_perf)
            if hp
        }
        assert marked == {"sS4", "sS7", "sS11"}
        for name in ("sS4opt", "sS7opt", "sS11opt"):
            assert optimize.is_high_perf(arch, name)
        assert not optimize.is_high_perf(arch, "sS1opt")


def test_criterion_8_property_suite():
    with reported("criterion 8 randomized property suite"):
        start = time.perf_counter()
        for seed in range(500):
            a = random_architecture(random.Random(seed))
            for level in a.levels:
                members = a.level_components(level)
                edges = {
                    (s, c)
                    for c in members
                    for s in deps.dsources(a, level, c)
                }
                closure = reachability_pairs(edges)
                for c in members:
                    direct = deps.dsources(a, level, c)
                    full = deps.sources(a, level, c)
                    assert full == {s for (s, t) in closure if t == c}
                    assert direct <= full <= members
                    assert bool(direct) == bool(full)
                    for s in full:
                        assert deps.sources(a, level, s) <= full
                    assert deps.acc(a, level, c) == {
                        t for t in members if c in deps.sources(a, level, t)
                    }
                    assert deps.dacc(a, level, c) == {
                        t for t in members if c in deps.dsources(a, level, t)
                    }
                for x in a.chan_from_ch:
                    validate.classify_channel(a, x, level)
                chans = sorted(a.chan_from_ch)
                assert slicing.min_set_of_components(a, level, set(chans[:3])) <= \
                    slicing.min_set_of_components(a, level, set(chans))
                partition = optimize.condense_level(a, level)
                assert set(partition.groups) == mutual_reachability_classes(
                    members, edges
                )
                union = set()
                for g in partition.groups:
                    assert g and not (union & g)
                    union |= g
                assert union == members
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"property suite took {elapsed:.1f}s"


def test_criterion_9_round_trip(arch):
    with reported("criterion 9 serialization round trip"):
        text = ingest.serialize(arch)
        assert ingest.parse(text) == arch
        assert ingest.serialize(ingest.parse(text)) == text
        for seed in range(100):
            a = random_architecture(random.Random(10_000 + seed))
            doc = ingest.serialize(a)
            assert ingest.parse(doc) == a
            assert ingest.serialize(ingest.parse(doc)) == doc
