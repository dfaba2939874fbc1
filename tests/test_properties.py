import functools
import itertools
import json
import random
import time
from types import SimpleNamespace

from hypothesis import event, given, settings
from hypothesis import strategies as st

from archdeps import deps, elementary, ingest, model, optimize, slicing, validate
from archdeps.model import Architecture

from .conftest import (
    mutual_reachability_classes,
    random_architecture,
    reachability_pairs,
    rebuild,
    shared_output,
    to_tables,
)

seeds = st.integers(min_value=0, max_value=10**9)


def build(seed: int):
    return random_architecture(random.Random(seed))


def dependency_edges(a, level):
    """(s, c) for level members where an output of s is an input of c."""
    members = a.level_components(level)
    return {
        (s, c)
        for s in members
        for c in members
        if a.outputs_of(s) & a.inputs_of(c)
    }


@given(seeds)
def test_sources_matches_reachability_oracle(seed):
    a = build(seed)
    for level in a.levels:
        edges = dependency_edges(a, level)
        closure = reachability_pairs(edges)
        for c in a.level_components(level):
            expected = {s for (s, t) in closure if t == c}
            assert deps.sources(a, level, c) == expected
            assert deps.dsources(a, level, c) == {s for (s, t) in edges if t == c}
            assert deps.dacc(a, level, c) == {t for (s, t) in edges if s == c}


@given(seeds)
def test_acc_is_the_dual_of_sources(seed):
    a = build(seed)
    for level in a.levels:
        members = a.level_components(level)
        for c in members:
            assert deps.acc(a, level, c) == {
                t for t in members if c in deps.sources(a, level, t)
            }
            assert deps.dacc(a, level, c) == {
                t for t in members if c in deps.dsources(a, level, t)
            }


@given(seeds)
def test_dsources_within_sources_within_level(seed):
    a = build(seed)
    for level in a.levels:
        members = a.level_components(level)
        for c in members:
            direct = deps.dsources(a, level, c)
            full = deps.sources(a, level, c)
            assert direct <= full <= members
            assert bool(direct) == bool(full)


@given(seeds)
def test_sources_transitive(seed):
    a = build(seed)
    for level in a.levels:
        for c in a.level_components(level):
            full = deps.sources(a, level, c)
            for s in full:
                assert deps.sources(a, level, s) <= full


@given(seeds)
def test_off_level_component_has_no_deps(seed):
    a = build(seed)
    for level in a.levels:
        for c in set(a.components) - a.level_components(level):
            assert deps.sources(a, level, c) == set()
            assert deps.acc(a, level, c) == set()


@given(seeds)
def test_chan_transitive_deps_matches_oracle(seed):
    a = build(seed)
    edges = {
        (d, x)
        for x in a.chan_from_ch
        for d in deps.chan_direct_deps(a, x)
    }
    closure = reachability_pairs(edges)
    for x in a.chan_from_ch:
        expected = {d for (d, t) in closure if t == x}
        assert deps.chan_transitive_deps(a, x) == expected


def test_chan_transitive_deps_one_variable_hub_2000_under_one_second():
    # One variable reads k inputs and feeds k outputs; input i depends on
    # output i, which closes every output into a cycle through the variable.
    k = 2_000
    ins, outs = [f"i{j}" for j in range(k)], [f"o{j}" for j in range(k)]
    a = Architecture.create(
        chan_from_ch={**{i: [o] for i, o in zip(ins, outs)}, **{o: [] for o in outs}},
        chan_from_var={o: ["v"] for o in outs},
        var_from={"v": ins},
        var_to={"v": outs},
    )
    start = time.perf_counter()
    result = deps.chan_transitive_deps(a, "o0")
    assert time.perf_counter() - start < 1.0
    assert result == set(ins) | set(outs)


@given(seeds)
def test_channel_classification_is_exclusive(seed):
    a = build(seed)
    for level in a.levels:
        for x in a.chan_from_ch:
            # classify_channel returns exactly one class; check it is
            # consistent with the raw interface sets
            kind = validate.classify_channel(a, x, level)
            members = a.level_components(level)
            consumed = any(x in a.inputs_of(c) for c in members)
            produced = any(x in a.outputs_of(c) for c in members)
            expected = {
                (True, False): validate.ChannelClass.SYSTEM_IN,
                (False, True): validate.ChannelClass.SYSTEM_OUT,
                (True, True): validate.ChannelClass.LOCAL,
                (False, False): validate.ChannelClass.UNUSED,
            }[(consumed, produced)]
            assert kind is expected


@given(seeds, seeds)
def test_slice_verdicts_match_their_definitions(seed, pick):
    a = build(seed)
    rng = random.Random(pick)
    channels = sorted(a.chan_from_ch)
    for level in a.levels:
        members = a.level_components(level)
        chset = set(rng.sample(channels, rng.randint(0, len(channels))))
        report = slicing.slice_report(a, level, chset)
        produced = set().union(*map(a.outputs_of, members))
        consumed = set().union(*map(a.inputs_of, members))
        out = {c for c in members if a.outputs_of(c) & chset}
        closure = reachability_pairs(dependency_edges(a, level))
        min_set = out | {s for (s, t) in closure if t in out}
        system_inputs = {x for x in chset if x in consumed and x not in produced}
        assert report.min_components == min_set
        assert report.system_inputs_in_property == system_inputs
        assert report.no_irrelevant == all(
            any(x in a.inputs_of(z) for z in min_set) for x in system_inputs
        )
        assert report.all_needed == all(
            any(x in produced or x in chset for x in a.inputs_of(z)) for z in min_set
        )


@given(seeds)
def test_slice_sets_stay_within_level(seed):
    a = build(seed)
    chset = set(a.chan_from_ch)
    for level in a.levels:
        members = a.level_components(level)
        out = slicing.out_set_of_components(a, level, chset)
        full = slicing.min_set_of_components(a, level, chset)
        assert out <= full <= members


@given(seeds)
def test_slice_is_closed_under_sources(seed):
    a = build(seed)
    chset = set(a.chan_from_ch)
    for level in a.levels:
        full = slicing.min_set_of_components(a, level, chset)
        for c in full:
            assert deps.sources(a, level, c) <= full


@given(seeds, st.integers(min_value=0, max_value=5))
def test_slice_monotone_in_channels(seed, k):
    a = build(seed)
    chans = sorted(a.chan_from_ch)
    small = set(chans[:k])
    for level in a.levels:
        assert slicing.min_set_of_components(a, level, small) <= \
            slicing.min_set_of_components(a, level, set(chans))


@given(seeds)
def test_condensation_matches_scc_oracle(seed):
    a = build(seed)
    for level in a.levels:
        members = a.level_components(level)
        expected = mutual_reachability_classes(
            members, dependency_edges(a, level)
        )
        assert set(optimize.condense_level(a, level).groups) == expected


@given(seeds)
def test_answers_hold_no_join_node(seed):
    a = build(seed)
    for level in a.levels:
        index = a.level_index(level)
        members, joins = index.members, set(index.joins)
        assert members.isdisjoint(joins)
        answers = [
            query(a, level, c)
            for c in members
            for query in (deps.dsources, deps.dacc, deps.sources, deps.acc)
        ]
        for chset in ([x] for x in index.producers):
            report = slicing.slice_report(a, level, chset)
            answers += [report.out_components, report.min_components]
            answers.append(slicing.min_set_of_components(a, level, chset))
        answers += optimize.condense_level(a, level).groups
        assert all(answer <= members for answer in answers)
        if not joins:
            continue
        event("level with join nodes")
        edges = dependency_edges(a, level)
        closure = reachability_pairs(edges)
        for c in members:
            assert deps.sources(a, level, c) == {s for (s, t) in closure if t == c}
            assert deps.acc(a, level, c) == {t for (s, t) in closure if s == c}
        groups = set(optimize.condense_level(a, level).groups)
        assert groups == mutual_reachability_classes(members, edges)


@given(seeds)
def test_partitions_are_partitions(seed):
    a = build(seed)
    for level in a.levels:
        members = a.level_components(level)
        for part in (
            optimize.condense_level(a, level),
            optimize.highload_grouping(a, level),
        ):
            seen = set()
            for g in part.groups:
                assert g and not (seen & g)
                seen |= g
            assert seen == members
            assert len(part.high_perf) == len(part.groups)
            for g, mark in zip(part.groups, part.high_perf):
                assert mark == any(optimize.is_high_perf(a, c) for c in g)


@given(seeds)
def test_highload_groups_are_load_closed(seed):
    a = build(seed)
    for level in a.levels:
        part = optimize.highload_grouping(a, level)
        owner = {c: i for i, g in enumerate(part.groups) for c in g}
        for x in a.highload_channels:
            touched = {
                owner[c]
                for c in a.level_components(level)
                if x in a.inputs_of(c) | a.outputs_of(c)
            }
            assert len(touched) <= 1


@given(seeds)
def test_condensation_quotient_is_acyclic(seed):
    a = build(seed)
    for level in a.levels:
        part = optimize.condense_level(a, level)
        owner = {c: i for i, g in enumerate(part.groups) for c in g}
        edges = {
            (owner[s], owner[t])
            for (s, t) in dependency_edges(a, level)
            if owner[s] != owner[t]
        }
        assert all(u != v for (u, v) in reachability_pairs(edges))


def random_subcomponent_dag(rng: random.Random):
    """Dense subcomponent DAG: most components share a subcomponent with
    another, about half are on no level, a few are marked high-performance."""
    comps = [f"c{i:02d}" for i in range(rng.randint(0, 14))]
    return Architecture.create(
        components={
            c: {"subcomp": [d for d in comps[i + 1:] if rng.random() < 0.25]}
            for i, c in enumerate(comps)
        },
        levels={"L": [c for c in comps if rng.random() < 0.5]},
        highperf_components=[c for c in comps if rng.random() < 0.15],
    )


@given(seeds)
def test_high_perf_matches_descendant_walk(seed):
    a = random_subcomponent_dag(random.Random(seed))
    expected = set()
    for c in a.components:
        below, todo = set(), [c]
        while todo:
            node = todo.pop()
            if node not in below:
                below.add(node)
                todo.extend(a.components[node].subcomponents)
        if below & a.highperf_components:
            expected.add(c)
    for c in a.components:
        assert optimize.is_high_perf(a, c) == (c in expected)
    for part in (optimize.condense_level(a, "L"), optimize.highload_grouping(a, "L")):
        assert part.high_perf == tuple(bool(g & expected) for g in part.groups)
    dot = ingest.export_dot(a, "L")
    assert {c for c in a.levels["L"] if f'"{c}" [fillcolor' in dot} == expected & set(a.levels["L"])


def ranked_by_recursive_height(a: Architecture) -> tuple:
    """The levels by the largest recursive subcomponent height among their
    members (an undecomposed component has height 0), ties by name."""

    @functools.cache
    def height(c):
        return 1 + max(map(height, a.components[c].subcomponents), default=-1)

    return tuple(sorted(a.levels, key=lambda lvl: (max(map(height, a.levels[lvl]), default=0), lvl)))


@given(seeds)
def test_finest_first_ranks_levels_by_recursive_height(seed):
    a = build(seed)
    assert a.finest_first == ranked_by_recursive_height(a)


def test_finest_first_ranks_members_under_no_decomposed_component_at_height_0():
    # "lone" and "z" are neither decomposed nor below a decomposed component,
    # so the post-order walk never meets them.
    a = Architecture.create(
        components={"a": {"subcomp": ["b"]}, "b": {}, "lone": {}, "z": {}},
        levels={"L_top": ["a"], "L_lone": ["lone", "z"], "L_empty": [], "L_b": ["b"]},
    )
    assert {"lone", "z"}.isdisjoint(model._post_order(a.components))
    assert a.finest_first == ranked_by_recursive_height(a) == ("L_b", "L_empty", "L_lone", "L_top")


def random_refinement(rng: random.Random):
    """A random subcomponent DAG with a fine and a coarse level. The coarse
    level is sometimes the fine one itself, so complete, incomplete, double
    and missing covers all occur."""
    tables = to_tables(random_subcomponent_dag(rng))
    comps = sorted(tables["components"])
    fine = [c for c in comps if rng.random() < 0.5]
    coarse = fine if rng.random() < 0.3 else [c for c in comps if rng.random() < 0.3]
    tables["levels"] = {"fine": fine, "coarse": coarse}
    return rebuild(tables)


@given(seeds)
def test_refinement_witnesses_match_definition(seed):
    a = random_refinement(random.Random(seed))

    @functools.cache
    def leaves(c):
        subs = a.components[c].subcomponents
        return frozenset().union(*map(leaves, subs)) if subs else frozenset((c,))

    fine = sorted(a.levels["fine"])
    expected, covered = [], {}
    for c in sorted(a.levels["coarse"]):
        group = [f for f in fine if leaves(f) <= leaves(c)]
        leftover = sorted(leaves(c).difference(*map(leaves, group)))
        if leftover:
            reason = f"{c} covers no fine-level component for: " + ", ".join(leftover)
            expected.append(((c, *leftover), reason))
        for f in group:
            if f in covered:
                expected.append(((f, covered[f], c), f"{f} covered by both {covered[f]} and {c}"))
            else:
                covered[f] = c
    expected += [((f,), f"{f} is covered by no component on coarse") for f in fine if f not in covered]

    report = optimize.verify_level_refinement(a, "fine", "coarse")
    assert all(type(w) is validate.Witness for w in report.witnesses)
    assert [(w.entities, w.reason) for w in report.witnesses] == expected
    assert report.ok == (not expected)


@given(seeds, seeds)
def test_leaf_table_and_refinement_match_a_fresh_flattening(seed, pick):
    a = build(seed)

    @functools.cache
    def leaves(c):
        subs = a.components[c].subcomponents
        return frozenset().union(*map(leaves, subs)) if subs else frozenset((c,))

    decomposed = {c for c, rec in a.components.items() if rec.subcomponents}
    assert set(a.leaves) == decomposed
    for c in decomposed:
        assert len(set(a.leaves[c])) == len(a.leaves[c])
        assert set(a.leaves[c]) == leaves(c)

    # One model answers every pair in a drawn order, reading the table its first call built.
    pairs = list(itertools.product(a.levels, repeat=2))
    random.Random(pick).shuffle(pairs)
    check = optimize.verify_level_refinement
    for fine, coarse in pairs:
        assert check(a, fine, coarse) == check(rebuild(to_tables(a)), fine, coarse)


def random_coarsening(rng: random.Random):
    """A fine level wired by random channels and a coarse level grouping it.

    A coarse component's subcomponents are its group, and its interface is
    the union of theirs less a random part of the group's internal channels:
    those whose every producer and consumer on the fine level is in the
    group. A lone fine component is sometimes its own coarse component, and
    some fine components are decomposed into atoms on no level.
    """
    chans = [f"x{i}" for i in range(rng.randint(1, 10))]
    fine = [f"f{i}" for i in range(rng.randint(1, 10))]
    components = {}
    for f in fine:
        components[f] = {
            "in": rng.sample(chans, rng.randint(0, min(3, len(chans)))),
            "out": rng.sample(chans, rng.randint(0, min(2, len(chans)))),
        }
        if rng.random() < 0.3:
            atoms = [f"{f}.{j}" for j in range(rng.randint(1, 2))]
            components[f]["subcomp"] = atoms
            components.update((t, {}) for t in atoms)
    touching = {x: {f for f in fine if x in components[f]["in"] + components[f]["out"]} for x in chans}
    order = rng.sample(fine, len(fine))
    coarse = []
    while order:
        k = rng.randint(1, 3)
        group, order = order[:k], order[k:]
        if len(group) == 1 and rng.random() < 0.3:
            coarse.append(group[0])
            continue
        ins = {x for f in group for x in components[f]["in"]}
        outs = {x for f in group for x in components[f]["out"]}
        internal = {x for x in ins & outs if touching[x] <= set(group)}
        hidden = {x for x in internal if rng.random() < 0.7}
        name = f"g{len(coarse)}"
        components[name] = {"in": sorted(ins - hidden), "out": sorted(outs - hidden), "subcomp": group}
        coarse.append(name)
    return Architecture.create(components=components, levels={"fine": fine, "coarse": coarse})


@given(seeds)
def test_fine_slice_atoms_lie_in_coarse_slice_atoms(seed):
    rng = random.Random(seed)
    a = random_coarsening(rng)
    assert optimize.verify_level_refinement(a, "fine", "coarse").ok

    @functools.cache
    def leaves(c):
        subs = a.components[c].subcomponents
        return frozenset().union(*map(leaves, subs)) if subs else frozenset((c,))

    def slice_atoms(level, chset):
        return frozenset().union(*map(leaves, slicing.min_set_of_components(a, level, chset)))

    produced = sorted(set(a.level_index("fine").producers) & set(a.level_index("coarse").producers))
    for _ in range(3 if produced else 0):
        chset = rng.sample(produced, rng.randint(1, min(3, len(produced))))
        assert slice_atoms("fine", chset) <= slice_atoms("coarse", chset), chset


@given(seeds)
def test_serialize_parse_round_trip(seed):
    a = build(seed)
    text = ingest.serialize(a)
    assert ingest.parse(text) == a
    assert ingest.serialize(ingest.parse(text)) == text
    # Every entry and level is written in name order, so a reload takes create's copy path.
    doc = json.loads(text)
    parts = [{key: doc[key] for key in keys} for keys in (model._TABLES, model._ARRAYS)]
    columns = model._check_shape(doc["components"], *parts)
    assert [in_order for *_, in_order in columns.values()] == [True] * 9


@given(seeds)
def test_elementary_consistency(seed):
    a = build(seed)
    for c in a.components:
        outs = sorted(a.outputs_of(c))
        if len(outs) <= 1:
            assert elementary.is_elementary(a, c)
            continue
        # recompute correlation sets directly from the variable tables
        corr = {
            x: {y for v in a.chan_from_var[x] for y in a.var_to[v]}
            for x in outs
        }
        pairwise = all(
            corr[x] & corr[y]
            for i, x in enumerate(outs)
            for y in outs[i:]
        )
        assert elementary.is_elementary(a, c) == pairwise


def test_elementary_one_variable_feeding_2000_outputs_under_one_second():
    k = 2_000
    outs = [f"x{i}" for i in range(k)]
    a = Architecture.create(
        components={"c": {"in": ["i"], "out": outs, "var": ["v"]}},
        levels={"L": ["c"]},
        chan_from_var={x: ["v"] for x in outs},
        var_from={"v": ["i"]},
        var_to={"v": outs},
    )
    start = time.perf_counter()
    assert elementary.is_elementary(a, "c")
    assert time.perf_counter() - start < 1.0


def test_elementary_4000_outputs_with_one_shared_correlation_under_one_second():
    a = shared_output(4_000)
    start = time.perf_counter()
    assert elementary.is_elementary(a, "c")
    assert time.perf_counter() - start < 1.0


@given(seeds)
def test_out_set_correlated_symmetric_when_tables_agree(seed):
    a = build(seed)
    # rebuild var_to as the exact inverse of chan_from_var; symmetry of
    # the correlation relation depends on the two tables agreeing
    tables = to_tables(a)
    inverse = {v: [] for v in tables["var_from"]}
    for x, variables in tables["chan_from_var"].items():
        for v in variables:
            inverse.setdefault(v, []).append(x)
    tables["var_to"] = {v: sorted(set(xs)) for v, xs in inverse.items()}
    consistent = rebuild(tables)
    for x in consistent.chan_from_ch:
        corr = elementary.out_set_correlated(consistent, x)
        for y in corr:
            assert x in elementary.out_set_correlated(consistent, y)


@settings(max_examples=30)
@given(seeds)
def test_validate_all_never_crashes_and_reports_everything(seed):
    a = build(seed)
    report = validate.validate_all(a)
    assert set(report.verdicts) == set(validate.PREDICATE_NAMES)
    for verdict in report.verdicts.values():
        assert verdict.holds == (not verdict.witnesses)


def brute_force_witnesses(a) -> dict:
    """Every predicate's witness entity tuples, transcribed from its definition."""
    comps, chans, variables = sorted(a.components), sorted(a.chan_from_ch), sorted(a.var_from)
    members = set().union(*(a.levels[lvl] for lvl in a.finest_first[:2]))
    # The definitions read every member, table entry and level as a set.
    levels = [frozenset(m) for m in a.levels.values()]
    rec = {c: SimpleNamespace(**{f: frozenset(getattr(r, f)) for f in r._fields})
           for c, r in a.components.items()}
    a = SimpleNamespace(**{t: {k: frozenset(v) for k, v in getattr(a, t).items()}
                           for t in ("chan_from_ch", "chan_from_var", "var_from", "var_to")})
    return {
        "composition_diff_levels": [
            (c,) for c in comps
            if any(c in m and rec[c].subcomponents & m for m in levels)
        ],
        "composition_var": [
            (c,) for c in comps
            if any(not rec[s].vars <= rec[c].vars for s in rec[c].subcomponents)
        ],
        "decomposition_var": [
            (c,) for c in comps
            if any(
                sum(v in rec[s].vars for s in rec[c].subcomponents) > 1
                for v in rec[c].vars
            )
        ],
        "composition_out": [
            (x,) for x in chans
            if any(sum(x in rec[c].outputs for c in m) > 1 for m in levels)
        ],
        "composition_subcomp": [
            (c,) for c in comps
            if any(sum(c in rec[p].subcomponents for p in m) > 1 for m in levels)
        ],
        "all_components_used": [
            (c,) for c in comps if not any(c in m for m in levels)
        ],
        "outfromch_correct": [
            (x,) for x in chans
            if a.chan_from_ch[x] and not any(
                x in rec[z].outputs and a.chan_from_ch[x] <= rec[z].inputs for z in comps
            )
        ],
        "outfromv_correct1": [
            (x,) for x in chans
            if a.chan_from_var[x] and not any(
                x in rec[z].outputs and a.chan_from_var[x] <= rec[z].vars for z in comps
            )
        ],
        "outfromv_correct2": [
            (x,) for x in chans
            if not a.chan_from_var[x] and any(x in a.var_to[v] for v in variables)
        ],
        "outfromv_varto_consistent": [
            (x, v) for x in chans for v in variables
            if (v in a.chan_from_var[x]) != (x in a.var_to[v])
        ],
        "varfrom_correct": [
            (z, v) for z in sorted(members) for v in sorted(rec[z].vars)
            if not a.var_from[v] <= rec[z].inputs
        ],
        "varto_correct": [
            (z, v) for z in sorted(members) for v in sorted(rec[z].vars)
            if not a.var_to[v] <= rec[z].outputs
        ],
        "var_useful": [(v,) for v in variables if not a.var_to[v]],
    }


PER_COMPONENT = {
    "composition_diff_levels": validate.correct_composition_diff_levels,
    "composition_var": validate.correct_composition_var,
    "decomposition_var": validate.correct_decomposition_var,
    "composition_subcomp": validate.correct_composition_subcomp,
}

PER_CHANNEL = {
    "composition_out": validate.correct_composition_out,
    "outfromch_correct": validate.outfromch_correct,
    "outfromv_correct1": validate.outfromv_correct1,
    "outfromv_correct2": validate.outfromv_correct2,
}

WHOLE_DOCUMENT = {
    "all_components_used": validate.all_components_used,
    "outfromv_varto_consistent": validate.outfromv_varto_consistent,
    "varfrom_correct": validate.varfrom_correct,
    "varto_correct": validate.varto_correct,
    "var_useful": validate.var_useful,
}

REASONS = {
    "composition_diff_levels": "{0} shares a level with one of its subcomponents",
    "composition_var": "a subcomponent of {0} holds a variable {0} does not",
    "decomposition_var": "two subcomponents of {0} share a variable",
    "composition_out": "{0} is produced by two components on one level",
    "composition_subcomp": "{0} is a subcomponent of two components on one level",
    "all_components_used": "{0} appears on no abstraction level",
    "outfromch_correct": "no component consumes the deps of {0} and produces it",
    "outfromv_correct1": "no component owns the variables of {0} and produces it",
    "outfromv_correct2": "{0} has no variable deps yet is a variable target",
    "outfromv_varto_consistent": "chan_from_var/var_to disagree on ({0}, {1})",
    "varfrom_correct": "{1} of {0} uses channels outside its inputs",
    "varto_correct": "{1} of {0} uses channels outside its outputs",
    "var_useful": "{0} feeds no output channel",
}


@settings(max_examples=200)
@given(seeds)
def test_validate_witnesses_match_definitions(seed):
    a = build(seed)
    report = validate.validate_all(a)
    expected = brute_force_witnesses(a)
    assert set(expected) <= set(report.verdicts)
    for name, verdict in report.verdicts.items():
        # witnesses come in sorted order of their entity tuples
        assert [w.entities for w in verdict.witnesses] == sorted(expected.get(name, ()))
        assert [w.reason for w in verdict.witnesses] == [
            REASONS[name].format(*w.entities) for w in verdict.witnesses
        ]
        assert verdict.holds == (not verdict.witnesses)
    for checks, universe in ((PER_COMPONENT, a.components), (PER_CHANNEL, a.chan_from_ch)):
        for name, check in checks.items():
            assert {(e,) for e in universe if not check(a, e)} == set(expected[name])
    for name, check in WHOLE_DOCUMENT.items():
        assert check(a) == report.verdicts[name].holds
