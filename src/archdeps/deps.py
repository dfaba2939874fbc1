"""Direct and transitive dependency queries over components and channels.

A component queried on a level it does not belong to has no dependencies on
that level; the result is the empty set, not an error. The transitive walks
are the level index's ``reach``, which keeps its join nodes to itself.
"""

from __future__ import annotations

from itertools import chain, repeat

from .model import Architecture, ChannelId, ComponentId, LevelId, LevelIndex, VariableId


def _index_on(a: Architecture, level: LevelId, c: ComponentId) -> LevelIndex | None:
    # The level's index, or None when c (a known component) is not on it.
    index = a.level_index(level)
    a.require_component(c)
    return index if c in index.members else None


def dsources(a: Architecture, level: LevelId, c: ComponentId) -> frozenset[ComponentId]:
    """Components on the level whose output is wired directly into c."""
    index = _index_on(a, level, c)
    if not index:
        return frozenset()
    return frozenset(chain.from_iterable(map(index.producers.get, a.components[c].inputs, repeat(()))))


def dacc(a: Architecture, level: LevelId, c: ComponentId) -> frozenset[ComponentId]:
    """Components on the level directly consuming an output of c."""
    index = _index_on(a, level, c)
    if not index:
        return frozenset()
    return frozenset(chain.from_iterable(map(index.consumers.get, a.components[c].outputs, repeat(()))))


def sources(a: Architecture, level: LevelId, c: ComponentId) -> frozenset[ComponentId]:
    """Every component on the level whose data can reach c (one or more hops).

    c itself belongs to the result only when it lies on a cycle.
    """
    index = _index_on(a, level, c)
    return index.reach(index.feeders, index.feeders[c]) if index else frozenset()


def acc(a: Architecture, level: LevelId, c: ComponentId) -> frozenset[ComponentId]:
    """Every component on the level that c's data can reach; dual of sources."""
    index = _index_on(a, level, c)
    return index.reach(index.readers, index.readers[c]) if index else frozenset()


def is_not_dsource(a: Architecture, level: LevelId, s: ComponentId) -> bool:
    """True when no component on the level consumes any output of s."""
    consumers = a.level_index(level).consumers
    return not any(x in consumers for x in a.outputs_of(s))


def is_not_dsource_for(
    a: Architecture, level: LevelId, s: ComponentId, c: ComponentId
) -> bool:
    """True when c (on the level) consumes no output of s."""
    members = a.level_index(level).members
    outputs = a.outputs_of(s)
    a.require_component(c)
    return c not in members or outputs.isdisjoint(a.components[c].inputs)


def chan_direct_deps(a: Architecture, x: ChannelId) -> frozenset[ChannelId]:
    """Input channels x depends on directly or through a local variable."""
    a.require_channel(x)
    return frozenset(a.chan_from_ch[x]).union(*map(a.var_from.__getitem__, a.chan_from_var[x]))


def chan_transitive_deps(a: Architecture, x: ChannelId) -> frozenset[ChannelId]:
    """All channels x depends on through any chain of direct dependencies, x
    itself only when it lies on a cycle. A depth-first walk over the channels
    that expands each variable once."""
    a.require_channel(x)
    from_ch, from_var, var_from = a.chan_from_ch, a.chan_from_var, a.var_from
    seen: set[ChannelId] = set()
    expanded: set[VariableId] = set()
    todo = [x]
    while todo:
        y = todo.pop()
        for z in from_ch[y]:
            if z not in seen:
                seen.add(z)
                todo.append(z)
        for v in from_var[y]:
            if v not in expanded:
                expanded.add(v)
                for z in var_from[v]:
                    if z not in seen:
                        seen.add(z)
                        todo.append(z)
    return frozenset(seen)
