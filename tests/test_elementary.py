import pytest

from archdeps import elementary
from archdeps.model import Architecture, UnknownIdentifierError

LEVEL1_COMPONENTS = [
    "sA11", "sA12", "sA21", "sA22", "sA23", "sA31", "sA32", "sA41", "sA42",
    "sA5", "sA6", "sA71", "sA72", "sA81", "sA82", "sA91", "sA92", "sA93",
]


def test_out_pair_correlated_shared_variable(arch):
    assert elementary.out_pair_correlated(arch, "sA6", "data15", "data16")


def test_out_pair_correlated_no_variable_deps(arch):
    assert not elementary.out_pair_correlated(arch, "sA1", "data2", "data10")


def test_out_pair_correlated_not_an_output(arch):
    assert not elementary.out_pair_correlated(arch, "sA5", "data15", "data16")


def test_out_set_correlated(arch):
    assert elementary.out_set_correlated(arch, "data15") == {
        "data15", "data16",
    }
    assert elementary.out_set_correlated(arch, "data2") == set()
    assert elementary.out_set_correlated(arch, "data4") == {
        "data4", "data12",
    }


def test_out_set_correlated_contains_itself_when_var_backed(arch):
    # relies on the fixture's consistent chan_from_var/var_to tables
    for x in arch.chan_from_ch:
        if arch.chan_from_var[x]:
            assert x in elementary.out_set_correlated(arch, x)


@pytest.mark.parametrize("comp", ["sA5", "sA6"])
def test_elementary_level0_positive(arch, comp):
    assert elementary.is_elementary(arch, comp)


@pytest.mark.parametrize(
    "comp", ["sA1", "sA2", "sA3", "sA4", "sA7", "sA8", "sA9"]
)
def test_elementary_level0_negative(arch, comp):
    assert not elementary.is_elementary(arch, comp)


@pytest.mark.parametrize("comp", LEVEL1_COMPONENTS)
def test_elementary_level1_all(arch, comp):
    assert elementary.is_elementary(arch, comp)


def test_elementary_report_level0(arch):
    report = elementary.elementary_report(arch, "level0")
    assert {c for c, ok in report.items() if ok} == {"sA5", "sA6"}
    assert len(report) == 9


def test_elementary_report_level1(arch):
    report = elementary.elementary_report(arch, "level1")
    assert len(report) == 18
    assert all(report.values())


def test_elementary_report_empty_level():
    a = Architecture.create(levels={"L0": []})
    assert elementary.elementary_report(a, "L0") == {}


def test_no_outputs_is_elementary():
    a = Architecture.create(components={"A": {"in": ["x1"]}})
    assert elementary.is_elementary(a, "A")


def test_single_output_always_elementary():
    a = Architecture.create(components={"A": {"out": ["x1"]}})
    assert elementary.is_elementary(a, "A")


def test_unknown_identifiers(arch):
    with pytest.raises(UnknownIdentifierError):
        elementary.is_elementary(arch, "nope")
    with pytest.raises(UnknownIdentifierError):
        elementary.out_set_correlated(arch, "dataX")
