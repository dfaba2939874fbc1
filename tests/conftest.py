import gc
import random
from typing import Iterator

import pytest

from archdeps import case_study_fixture
from archdeps.model import Architecture


@pytest.fixture(scope="session")
def arch() -> Architecture:
    return case_study_fixture()


@pytest.fixture(params=[True, False], ids=["gc_on", "gc_off"])
def collector_enabled(request) -> Iterator[bool]:
    """Runs the test with the cyclic collector on, then off; restores it after."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


def to_tables(a: Architecture) -> dict:
    """Plain-dict view of an Architecture, editable and rebuildable."""
    return {
        "components": {
            name: {
                "in": sorted(rec.inputs),
                "out": sorted(rec.outputs),
                "var": sorted(rec.vars),
                "subcomp": sorted(rec.subcomponents),
            }
            for name, rec in a.components.items()
        },
        "levels": {lvl: sorted(m) for lvl, m in a.levels.items()},
        "chan_from_ch": {c: sorted(d) for c, d in a.chan_from_ch.items()},
        "chan_from_var": {c: sorted(d) for c, d in a.chan_from_var.items()},
        "var_from": {v: sorted(d) for v, d in a.var_from.items()},
        "var_to": {v: sorted(d) for v, d in a.var_to.items()},
        "highload_channels": sorted(a.highload_channels),
        "highperf_components": sorted(a.highperf_components),
    }


def rebuild(tables: dict) -> Architecture:
    return Architecture.create(**tables)


def mutated(a: Architecture, patch) -> Architecture:
    """Apply an in-place edit to the plain tables and rebuild."""
    tables = to_tables(a)
    patch(tables)
    return rebuild(tables)


def random_architecture(rng: random.Random, max_components: int = 12, max_channels: int = 20) -> Architecture:
    """A small random architecture; well-formedness is not guaranteed,
    only the load invariants (closed universes, acyclic subcomponents)."""
    n_comp = rng.randint(0, max_components)
    n_chan = rng.randint(0, max_channels)
    n_var = rng.randint(0, 4)
    comps = [f"c{i}" for i in range(n_comp)]
    chans = [f"x{i}" for i in range(n_chan)]
    variables = [f"v{i}" for i in range(n_var)]

    def some(pool, lo=0, hi=3):
        if not pool:
            return []
        k = min(len(pool), rng.randint(lo, hi))
        return rng.sample(pool, k)

    components = {}
    for i, c in enumerate(comps):
        # subcomponents only from later names keeps the relation acyclic
        later = comps[i + 1:]
        components[c] = {
            "in": some(chans),
            "out": some(chans),
            "var": some(variables, hi=2),
            "subcomp": some(later, hi=2) if rng.random() < 0.3 else [],
        }
    n_levels = rng.randint(1, 3)
    levels = {
        f"L{j}": some(comps, lo=0, hi=max(1, n_comp)) for j in range(n_levels)
    }
    # keying the channel table over every channel keeps the universe total
    chan_from_ch = {x: some(chans, hi=2) for x in chans}
    chan_from_var = {x: some(variables, hi=2) for x in some(chans, hi=n_chan or 1)}
    var_from = {v: some(chans, hi=2) for v in variables}
    var_to = {v: some(chans, hi=2) for v in variables}
    return Architecture.create(
        components=components,
        levels=levels,
        chan_from_ch=chan_from_ch,
        chan_from_var=chan_from_var,
        var_from=var_from,
        var_to=var_to,
        highload_channels=some(chans, hi=4),
        highperf_components=some(comps, hi=3),
    )


def hub(k: int) -> Architecture:
    """One level, L0, of 2k components around one channel, ``hub``: p{i}
    outputs it and inputs y{i}; q{i} inputs it and outputs y{i}. Every
    component reaches every other, so the level is one cycle class."""
    producers = {f"p{i}": {"in": [f"y{i}"], "out": ["hub"]} for i in range(k)}
    consumers = {f"q{i}": {"in": ["hub"], "out": [f"y{i}"]} for i in range(k)}
    return Architecture.create(
        components={**producers, **consumers},
        levels={"L0": [*producers, *consumers]},
    )


def shared_output(k: int) -> Architecture:
    """One component, ``c``, on level L0, with k + 1 outputs: x{i} is fed by
    its own variable v{i}, and every variable also feeds the output ``shared``.
    So the k + 1 correlation sets are distinct, and ``shared`` lies in all."""
    outs = [f"x{i}" for i in range(k)]
    variables = [f"v{i}" for i in range(k)]
    return Architecture.create(
        components={"c": {"out": [*outs, "shared"], "var": variables}},
        levels={"L0": ["c"]},
        chan_from_var={**{x: [v] for x, v in zip(outs, variables)}, "shared": variables},
        var_to={v: [x, "shared"] for x, v in zip(outs, variables)},
    )


def reachability_pairs(edges) -> set:
    """Brute-force transitive closure: iterate relation composition to fixpoint."""
    pairs = set(edges)
    while True:
        new = {(a, c) for (a, b) in pairs for (b2, c) in pairs if b == b2}
        if new <= pairs:
            return pairs
        pairs |= new


def mutual_reachability_classes(nodes, edges) -> set:
    """Brute-force SCCs: classes of pairwise mutually reachable nodes."""
    closure = reachability_pairs(edges)

    def reach(u, v):
        return u == v or (u, v) in closure

    classes = []
    remaining = set(nodes)
    while remaining:
        u = remaining.pop()
        cls = {u} | {v for v in remaining if reach(u, v) and reach(v, u)}
        remaining -= cls
        classes.append(frozenset(cls))
    return set(classes)
