import pytest

from archdeps import validate
from archdeps.model import Architecture, UnknownIdentifierError
from archdeps.validate import ChannelClass

from .conftest import mutated


def test_composition_diff_levels_holds(arch):
    assert validate.correct_composition_diff_levels(arch, "sA1")


def test_composition_diff_levels_vacuous(arch):
    assert validate.correct_composition_diff_levels(arch, "sA5")


def test_composition_diff_levels_violated(arch):
    bad = mutated(arch, lambda t: t["levels"]["level0"].append("sA11"))
    assert not validate.correct_composition_diff_levels(bad, "sA1")


def test_composition_var_holds(arch):
    assert validate.correct_composition_var(arch, "sS6")


def test_composition_var_no_subcomponents(arch):
    assert validate.correct_composition_var(arch, "sA5")


def test_composition_var_violated(arch):
    bad = mutated(arch, lambda t: t["components"]["sS6"]["var"].remove("stA2"))
    assert not validate.correct_composition_var(bad, "sS6")


def test_decomposition_var_holds_everywhere(arch):
    assert all(
        validate.correct_decomposition_var(arch, c) for c in arch.components
    )


def test_decomposition_var_violated(arch):
    bad = mutated(arch, lambda t: t["components"]["sA31"]["var"].append("stA2"))
    assert not validate.correct_decomposition_var(bad, "sS6")


def test_composition_out_holds(arch):
    assert validate.correct_composition_out(arch, "data2")


def test_composition_out_unproduced_channel():
    a = Architecture.create(
        components={"A": {"in": ["x1"]}}, levels={"L0": ["A"]}
    )
    assert validate.correct_composition_out(a, "x1")


def test_composition_out_violated(arch):
    bad = mutated(arch, lambda t: t["components"]["sA3"]["out"].append("data2"))
    assert not validate.correct_composition_out(bad, "data2")


def test_composition_subcomp_holds(arch):
    assert validate.correct_composition_subcomp(arch, "sA22")


def test_composition_subcomp_orphan(arch):
    assert validate.correct_composition_subcomp(arch, "sA1")


def test_composition_subcomp_violated(arch):
    bad = mutated(arch, lambda t: t["components"]["sS4"]["subcomp"].append("sA22"))
    assert not validate.correct_composition_subcomp(bad, "sA22")


def test_all_components_used_holds(arch):
    assert validate.all_components_used(arch)


def test_all_components_used_empty():
    assert validate.all_components_used(Architecture.create())


def test_all_components_used_violated(arch):
    bad = mutated(arch, lambda t: t["components"].__setitem__("sAX", {}))
    assert not validate.all_components_used(bad)


def test_outfromch_correct_holds(arch):
    assert validate.outfromch_correct(arch, "data2")
    assert validate.outfromch_correct(arch, "data1")


def test_outfromch_correct_violated(arch):
    bad = mutated(arch, lambda t: t["chan_from_ch"].__setitem__("data10", ["data5"]))
    assert not validate.outfromch_correct(bad, "data10")


def test_outfromv_correct1_holds(arch):
    assert validate.outfromv_correct1(arch, "data3")
    assert validate.outfromv_correct1(arch, "data1")


def test_outfromv_correct1_violated(arch):
    bad = mutated(arch, lambda t: t["chan_from_var"].__setitem__("data9", ["stA1"]))
    assert not validate.outfromv_correct1(bad, "data9")


def test_outfromv_correct2_holds(arch):
    assert all(validate.outfromv_correct2(arch, x) for x in arch.chan_from_ch)


def test_outfromv_correct2_vacuous_with_deps(arch):
    bad = mutated(arch, lambda t: t["var_to"]["stA4"].append("data9"))
    # data3 keeps its variable deps, so the antecedent stays false
    assert validate.outfromv_correct2(bad, "data3")
    assert not validate.outfromv_correct2(bad, "data9")


def test_outfromv_varto_consistent_holds(arch):
    assert validate.outfromv_varto_consistent(arch)


def test_outfromv_varto_consistent_empty():
    assert validate.outfromv_varto_consistent(Architecture.create())


def test_outfromv_varto_consistent_violated(arch):
    bad = mutated(arch, lambda t: t["var_to"]["stA2"].remove("data4"))
    assert not validate.outfromv_varto_consistent(bad)


def test_varfrom_varto_correct_hold(arch):
    assert validate.varfrom_correct(arch)
    assert validate.varto_correct(arch)


def test_varfrom_correct_no_variables():
    assert validate.varfrom_correct(Architecture.create(levels={"L0": []}))


def test_varfrom_correct_violated(arch):
    bad = mutated(arch, lambda t: t["var_from"]["stA1"].append("data3"))
    assert not validate.varfrom_correct(bad)


def test_default_level_pair_is_the_two_finest_levels(arch):
    # Level names sort coarsest first here, so name order gives the wrong pair.
    a = Architecture.create(
        components={
            "f1": {"in": ["x1"], "out": ["x2"], "var": ["v1"]},
            "m1": {"in": ["x0", "x1"], "out": ["x2"], "var": ["v1"], "subcomp": ["f1"]},
            "a1": {"in": ["x0", "x1"], "out": ["x2"], "var": ["v1"], "subcomp": ["m1"]},
        },
        levels={"z_fine": ["f1"], "m_mid": ["m1"], "a_coarse": ["a1"]},
        chan_from_var={"x2": ["v1"]},
        var_from={"v1": ["x0"]},
        var_to={"v1": ["x2"]},
    )
    assert not validate.varfrom_correct(a)
    witnesses = validate.validate_all(a).verdicts["varfrom_correct"].witnesses
    assert [w.entities for w in witnesses] == [("f1", "v1")]
    # level1 holds only atoms; level0 and level2 tie at height 1
    assert arch.finest_first[:2] == ("level1", "level0")


def test_var_useful_holds(arch):
    assert validate.var_useful(arch)


def test_var_useful_violated(arch):
    bad = mutated(arch, lambda t: t["var_from"].__setitem__("stX", []))
    assert not validate.var_useful(bad)


def test_classify_channel(arch):
    assert validate.classify_channel(arch, "data1", "level2") is ChannelClass.SYSTEM_IN
    assert validate.classify_channel(arch, "data2", "level0") is ChannelClass.LOCAL
    assert validate.classify_channel(arch, "data9", "level0") is ChannelClass.SYSTEM_OUT
    assert validate.classify_channel(arch, "data14", "level2") is ChannelClass.SYSTEM_IN


def test_classify_channel_unused(arch):
    assert validate.classify_channel(arch, "data4", "level2") is ChannelClass.UNUSED


def test_classify_channel_unknown(arch):
    with pytest.raises(UnknownIdentifierError):
        validate.classify_channel(arch, "dataX", "level0")


def test_validate_all_fixture_holds(arch):
    report = validate.validate_all(arch)
    assert set(report.verdicts) == set(validate.PREDICATE_NAMES)
    assert report.all_hold
    assert all(not v.witnesses for v in report.verdicts.values())


def test_validate_all_empty_architecture():
    report = validate.validate_all(Architecture.create())
    assert report.all_hold


MUTATIONS = {
    "composition_diff_levels": lambda t: t["levels"]["level0"].append("sA11"),
    "composition_var": lambda t: t["components"]["sS6"]["var"].remove("stA2"),
    "decomposition_var": lambda t: t["components"]["sA31"]["var"].append("stA2"),
    "composition_out": lambda t: t["components"]["sA3"]["out"].append("data2"),
    "composition_subcomp": lambda t: t["components"]["sS4"]["subcomp"].append("sA22"),
    "all_components_used": lambda t: t["components"].__setitem__("sAX", {}),
    "outfromch_correct": lambda t: t["chan_from_ch"].__setitem__("data10", ["data5"]),
    "outfromv_correct1": lambda t: t["chan_from_var"].__setitem__("data9", ["stA1"]),
    "outfromv_correct2": lambda t: t["var_to"]["stA1"].append("data9"),
    "outfromv_varto_consistent": lambda t: t["var_to"]["stA2"].remove("data4"),
    "varfrom_correct": lambda t: t["var_from"]["stA1"].append("data3"),
    "varto_correct": lambda t: t["var_to"]["stA1"].append("data3"),
    "var_useful": lambda t: t["var_from"].__setitem__("stX", []),
}


@pytest.mark.parametrize("predicate", sorted(MUTATIONS))
def test_mutation_flips_predicate(arch, predicate):
    report = validate.validate_all(mutated(arch, MUTATIONS[predicate]))
    verdict = report.verdicts[predicate]
    assert not verdict.holds
    assert verdict.witnesses


@pytest.mark.parametrize(
    "predicate",
    [
        "composition_var",
        "composition_out",
        "all_components_used",
        "outfromch_correct",
        "outfromv_varto_consistent",
        "varfrom_correct",
        "var_useful",
    ],
)
def test_mutation_flips_only_its_predicate(arch, predicate):
    # these mutations are surgical; the others overlap by construction
    # (e.g. a var_to edit disturbs both table-consistency and varto_correct)
    report = validate.validate_all(mutated(arch, MUTATIONS[predicate]))
    violated = {name for name, v in report.verdicts.items() if not v.holds}
    assert violated == {predicate}


def test_witnesses_sorted(arch):
    bad = mutated(
        arch,
        lambda t: (
            t["levels"]["level0"].extend(["sA11", "sA21"]),
        ),
    )
    report = validate.validate_all(bad)
    witnesses = report.verdicts["composition_diff_levels"].witnesses
    names = [w.entities[0] for w in witnesses]
    assert names == sorted(names)
