import pytest

from archdeps import deps
from archdeps.model import UnknownIdentifierError

DSOURCES_L0 = {
    "sA1": set(),
    "sA2": {"sA1", "sA4"},
    "sA3": {"sA2"},
    "sA4": {"sA3"},
    "sA5": {"sA4"},
    "sA6": set(),
    "sA7": {"sA6"},
    "sA8": {"sA7", "sA9"},
    "sA9": {"sA8"},
}

DSOURCES_L1 = {
    "sA11": set(),
    "sA12": set(),
    "sA21": {"sA11"},
    "sA22": {"sA11", "sA41"},
    "sA23": {"sA11"},
    "sA31": {"sA22"},
    "sA32": {"sA23"},
    "sA41": {"sA31", "sA32"},
    "sA42": set(),
    "sA5": {"sA42"},
    "sA6": set(),
    "sA71": {"sA6"},
    "sA72": {"sA6"},
    "sA81": {"sA71", "sA91"},
    "sA82": {"sA72"},
    "sA91": {"sA81"},
    "sA92": {"sA81"},
    "sA93": {"sA82"},
}

DSOURCES_L2 = {
    "sS1": set(),
    "sS2": set(),
    "sS3": {"sS2"},
    "sS4": {"sS2"},
    "sS5": {"sS4"},
    "sS6": {"sS2", "sS5"},
    "sS7": set(),
    "sS8": {"sS7"},
    "sS9": set(),
    "sS10": {"sS9"},
    "sS11": {"sS9"},
    "sS12": {"sS10"},
    "sS13": {"sS12"},
    "sS14": {"sS11"},
    "sS15": {"sS14"},
}

SOURCES_L0 = {
    "sA1": set(),
    "sA2": {"sA1", "sA2", "sA3", "sA4"},
    "sA3": {"sA1", "sA2", "sA3", "sA4"},
    "sA4": {"sA1", "sA2", "sA3", "sA4"},
    "sA5": {"sA1", "sA2", "sA3", "sA4"},
    "sA6": set(),
    "sA7": {"sA6"},
    "sA8": {"sA6", "sA7", "sA8", "sA9"},
    "sA9": {"sA6", "sA7", "sA8", "sA9"},
}

SOURCES_L1 = {
    "sA11": set(),
    "sA12": set(),
    "sA21": {"sA11"},
    "sA22": {"sA11", "sA22", "sA23", "sA31", "sA32", "sA41"},
    "sA23": {"sA11"},
    "sA31": {"sA11", "sA22", "sA23", "sA31", "sA32", "sA41"},
    "sA32": {"sA11", "sA23"},
    "sA41": {"sA11", "sA22", "sA23", "sA31", "sA32", "sA41"},
    "sA42": set(),
    "sA5": {"sA42"},
    "sA6": set(),
    "sA71": {"sA6"},
    "sA72": {"sA6"},
    "sA81": {"sA6", "sA71", "sA81", "sA91"},
    "sA82": {"sA6", "sA72"},
    "sA91": {"sA6", "sA71", "sA81", "sA91"},
    "sA92": {"sA6", "sA71", "sA81", "sA91"},
    "sA93": {"sA6", "sA72", "sA82"},
}

SOURCES_L2 = {
    "sS1": set(),
    "sS2": set(),
    "sS3": {"sS2"},
    "sS4": {"sS2"},
    "sS5": {"sS2", "sS4"},
    "sS6": {"sS2", "sS4", "sS5"},
    "sS7": set(),
    "sS8": {"sS7"},
    "sS9": set(),
    "sS10": {"sS9"},
    "sS11": {"sS9"},
    "sS12": {"sS9", "sS10"},
    "sS13": {"sS9", "sS10", "sS12"},
    "sS14": {"sS9", "sS11"},
    "sS15": {"sS9", "sS11", "sS14"},
}

DACC_L0 = {
    "sA1": {"sA2"},
    "sA2": {"sA3"},
    "sA3": {"sA4"},
    "sA4": {"sA2", "sA5"},
    "sA5": set(),
    "sA6": {"sA7"},
    "sA7": {"sA8"},
    "sA8": {"sA9"},
    "sA9": {"sA8"},
}

DACC_L1 = {
    "sA11": {"sA21", "sA22", "sA23"},
    "sA12": set(),
    "sA21": set(),
    "sA22": {"sA31"},
    "sA23": {"sA32"},
    "sA31": {"sA41"},
    "sA32": {"sA41"},
    "sA41": {"sA22"},
    "sA42": {"sA5"},
    "sA5": set(),
    "sA6": {"sA71", "sA72"},
    "sA71": {"sA81"},
    "sA72": {"sA82"},
    "sA81": {"sA91", "sA92"},
    "sA82": {"sA93"},
    "sA91": {"sA81"},
    "sA92": set(),
    "sA93": set(),
}

ACC_L0 = {
    "sA5": set(),
    "sA6": {"sA7", "sA8", "sA9"},
    "sA7": {"sA8", "sA9"},
}

ACC_L1 = {
    "sA71": {"sA81", "sA91", "sA92"},
    "sA72": {"sA82", "sA93"},
    "sA81": {"sA81", "sA91", "sA92"},
    "sA82": {"sA93"},
    "sA91": {"sA81", "sA91", "sA92"},
    "sA92": set(),
}


@pytest.mark.parametrize("comp,expected", sorted(DSOURCES_L0.items()))
def test_dsources_level0(arch, comp, expected):
    assert deps.dsources(arch, "level0", comp) == expected


@pytest.mark.parametrize("comp,expected", sorted(DSOURCES_L1.items()))
def test_dsources_level1(arch, comp, expected):
    assert deps.dsources(arch, "level1", comp) == expected


@pytest.mark.parametrize("comp,expected", sorted(DSOURCES_L2.items()))
def test_dsources_level2(arch, comp, expected):
    assert deps.dsources(arch, "level2", comp) == expected


@pytest.mark.parametrize("comp,expected", sorted(SOURCES_L0.items()))
def test_sources_level0(arch, comp, expected):
    assert deps.sources(arch, "level0", comp) == expected


@pytest.mark.parametrize("comp,expected", sorted(SOURCES_L1.items()))
def test_sources_level1(arch, comp, expected):
    assert deps.sources(arch, "level1", comp) == expected


@pytest.mark.parametrize("comp,expected", sorted(SOURCES_L2.items()))
def test_sources_level2(arch, comp, expected):
    assert deps.sources(arch, "level2", comp) == expected


@pytest.mark.parametrize("comp,expected", sorted(DACC_L0.items()))
def test_dacc_level0(arch, comp, expected):
    assert deps.dacc(arch, "level0", comp) == expected


@pytest.mark.parametrize("comp,expected", sorted(DACC_L1.items()))
def test_dacc_level1(arch, comp, expected):
    assert deps.dacc(arch, "level1", comp) == expected


@pytest.mark.parametrize("comp,expected", sorted(ACC_L0.items()))
def test_acc_level0(arch, comp, expected):
    assert deps.acc(arch, "level0", comp) == expected


@pytest.mark.parametrize("comp,expected", sorted(ACC_L1.items()))
def test_acc_level1(arch, comp, expected):
    assert deps.acc(arch, "level1", comp) == expected


def test_component_off_level_yields_empty(arch):
    assert deps.dsources(arch, "level0", "sA11") == set()
    assert deps.sources(arch, "level0", "sA11") == set()
    assert deps.dacc(arch, "level2", "sA1") == set()
    assert deps.acc(arch, "level2", "sA1") == set()


def test_unknown_identifiers(arch):
    with pytest.raises(UnknownIdentifierError):
        deps.dsources(arch, "level9", "sA1")
    with pytest.raises(UnknownIdentifierError):
        deps.sources(arch, "level0", "nope")
    with pytest.raises(UnknownIdentifierError):
        deps.chan_direct_deps(arch, "dataX")


def test_is_not_dsource_for_unknown_target(arch):
    with pytest.raises(UnknownIdentifierError):
        deps.is_not_dsource_for(arch, "level0", "sA4", "nonexistent")


def test_is_not_dsource(arch):
    assert deps.is_not_dsource(arch, "level0", "sA5")
    assert deps.is_not_dsource(arch, "level1", "sA12")
    assert not deps.is_not_dsource(arch, "level0", "sA1")


def test_is_not_dsource_matches_per_target_variant(arch):
    for level in arch.levels:
        for s in sorted(arch.level_components(level)):
            pointwise = all(
                deps.is_not_dsource_for(arch, level, s, c)
                for c in sorted(arch.components)
            )
            assert deps.is_not_dsource(arch, level, s) == pointwise


def test_chan_direct_deps(arch):
    assert deps.chan_direct_deps(arch, "data3") == {"data6", "data7"}
    assert deps.chan_direct_deps(arch, "data2") == {"data1"}
    assert deps.chan_direct_deps(arch, "data1") == set()


def test_chan_transitive_deps(arch):
    assert deps.chan_transitive_deps(arch, "data9") == {"data8", "data13"}
    assert deps.chan_transitive_deps(arch, "data1") == set()
    assert deps.chan_transitive_deps(arch, "data23") == {
        "data21", "data18", "data19", "data16", "data14",
    }


def test_level_graph_level0(arch):
    members = arch.level_components("level0")
    index = arch.level_index("level0")
    edges = sorted(
        (z, c)
        for x in index.producers
        for z in index.producers[x]
        for c in index.consumers.get(x, ())
        if z != c
    )
    assert set(edges) == {
        ("sA1", "sA2"), ("sA4", "sA2"), ("sA2", "sA3"), ("sA3", "sA4"),
        ("sA4", "sA5"), ("sA6", "sA7"), ("sA7", "sA8"), ("sA9", "sA8"),
        ("sA8", "sA9"),
    }
    assert set(edges) == {(z, c) for c in members for z in deps.dsources(arch, "level0", c)}
    assert {n for edge in edges for n in edge} <= members


def test_level2_graph_acyclic(arch):
    from archdeps.optimize import condense_level

    partition = condense_level(arch, "level2")
    assert all(len(g) == 1 for g in partition.groups)
