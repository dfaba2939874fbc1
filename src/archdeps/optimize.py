"""Level transformations: SCC condensation, high-load grouping, refinement."""

from __future__ import annotations

from typing import NamedTuple

from .model import Architecture, ChannelId, ComponentId, LevelId, Verdict, Witness, _post_order


class LevelPartition(NamedTuple):
    """Grouping of a level's components, with per-group high-performance marks.

    Groups are ordered by their least member; members are implicit sets.
    """

    source_level: LevelId
    groups: tuple[frozenset[ComponentId], ...]
    high_perf: tuple[bool, ...]


class RefinementReport(Verdict):
    """Outcome of ``verify_level_refinement``: it holds when it has no
    witnesses. ``ok`` is ``holds`` under the name ``archbench/run.py``, its
    one reader outside the tests, reads.

    Each witness names, in its reason's order, the components the reason
    mentions: ``(c, *sorted(leftover))`` when coarse ``c`` covers no fine
    component for the leftover leaves, ``(f, first, c)`` when fine ``f`` is
    covered by both ``first`` and ``c``, and ``(f,)`` when fine ``f`` is
    covered by nothing.
    """

    ok = Verdict.holds


def _canonical(
    a: Architecture, level: LevelId, raw_groups
) -> LevelPartition:
    groups = tuple(sorted((frozenset(g) for g in raw_groups), key=min))
    marks = tuple(not a.highperf_marks.isdisjoint(g) for g in groups)
    return LevelPartition(source_level=level, groups=groups, high_perf=marks)


def condense_level(a: Architecture, level: LevelId) -> LevelPartition:
    """Partition the level into strongly connected components of its graph.

    Tarjan's algorithm over the nodes of the level's feeders map, rooted at
    the members in name order, with a stack of entry iterators, so long paths
    meet no recursion limit. A join node lies on a cycle only through its
    producers and consumers, so dropping the join nodes from the groups leaves
    the partition of the component graph, in time linear in the map's size."""
    index = a.level_index(level)
    feeders = index.feeders
    number: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    sccs: list[set[str]] = []

    def enter(c: str):
        number[c] = lowlink[c] = len(number)
        stack.append(c)
        on_stack.add(c)
        return c, iter(feeders[c])

    for root in a.levels[level]:
        if root in number:
            continue
        work = [enter(root)]
        while work:
            node, pending = work[-1]
            child = next(pending, None)
            if child is None:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == number[node]:  # node roots an SCC: pop it
                    group = set()
                    while node not in group:
                        group.add(stack.pop())
                    on_stack -= group
                    sccs.append(group)
            elif child not in number:
                work.append(enter(child))
            elif child in on_stack:
                lowlink[node] = min(lowlink[node], number[child])
    if index.joins:  # a join node on no cycle is a group of its own
        joins = frozenset(index.joins)
        sccs = [g - joins for g in sccs if not g <= joins]
    return _canonical(a, level, sccs)


def highload_grouping(a: Architecture, level: LevelId) -> LevelPartition:
    """Group components connected by a high-load channel.

    Two distinct components are related when a high-load channel appears in
    the interface (inputs or outputs) of both; groups are the connected
    components of that relation, so shared inputs also merge.
    """
    index = a.level_index(level)
    members = a.levels[level]
    parent = {c: c for c in members}

    def find(c: ComponentId) -> ComponentId:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for x in a.highload_channels:
        peers = index.producers.get(x, ()) + index.consumers.get(x, ())
        for other in peers[1:]:
            ra, rb = find(peers[0]), find(other)
            if ra != rb:
                parent[rb] = ra

    groups: dict[ComponentId, set[ComponentId]] = {}
    for c in members:
        groups.setdefault(find(c), set()).add(c)
    return _canonical(a, level, groups.values())


def is_high_perf(a: Architecture, c: ComponentId) -> bool:
    """Marked directly, or containing (transitively) a marked subcomponent."""
    a.require_component(c)
    return c in a.highperf_marks


def is_highload_channel(a: Architecture, x: ChannelId) -> bool:
    a.require_channel(x)
    return x in a.highload_channels


def _atoms(a: Architecture, roots) -> dict[ComponentId, frozenset[ComponentId]]:
    """Leaves of the subcomponent tree below each root (a component itself
    when undecomposed), for the roots and every component below them.

    One pass over the post-order, so shared subcomponents cost nothing extra.
    """
    atoms: dict[ComponentId, frozenset[ComponentId]] = {}
    for c in _post_order(a.components, roots):
        subs = a.components[c].subcomponents
        atoms[c] = frozenset().union(*(atoms[s] for s in subs)) if subs else frozenset((c,))
    return atoms


def verify_level_refinement(
    a: Architecture, fine: LevelId, coarse: LevelId
) -> RefinementReport:
    """Check that the coarse level is a grouping of the fine level.

    Each coarse component is flattened (through the subcomponent relation)
    to the fine-level components it covers; those member sets must partition
    the fine level exactly. Witnesses come per coarse component in name
    order (its incomplete cover, then its double covers by fine name),
    then the uncovered fine components by name; see ``RefinementReport``
    for the entities each names. Cost is linear in the leaf sets ``_atoms``
    keeps, one per component: a subcomponent chain of depth d above l leaves
    holds at most d*l names, and a depth-4,000 broom (one leaf per link)
    holds 8 million, which takes about half a second.
    """
    a.require_level(fine)
    a.require_level(coarse)
    fine_members, coarse_members = a.levels[fine], a.levels[coarse]
    atoms = _atoms(a, (*fine_members, *coarse_members))
    # Atom sets are never empty, so a fine component whose atoms lie inside
    # a coarse component's shares one of them: look it up by atom.
    fine_by_atom: dict[ComponentId, list[ComponentId]] = {}
    for f in fine_members:
        for t in atoms[f]:
            fine_by_atom.setdefault(t, []).append(f)

    witnesses: list[Witness] = []
    covered: dict[ComponentId, ComponentId] = {}
    for c in coarse_members:
        below = atoms[c]
        candidates = {f for t in below for f in fine_by_atom.get(t, ())}
        group = {f for f in candidates if atoms[f] <= below}
        leftover = below - frozenset().union(*(atoms[f] for f in group)) if group else below
        if leftover:
            names = sorted(leftover)
            witnesses.append(Witness(
                (c, *names), f"{c} covers no fine-level component for: " + ", ".join(names)
            ))
        for f in sorted(group):
            if f in covered:
                witnesses.append(Witness(
                    (f, covered[f], c), f"{f} covered by both {covered[f]} and {c}"
                ))
            else:
                covered[f] = c
    for f in fine_members:
        if f not in covered:
            witnesses.append(Witness((f,), f"{f} is covered by no component on {coarse}"))
    return RefinementReport(tuple(witnesses))
