"""Architecture model: components, channels, variables, levels.

All dependency tables are total mappings: an identifier without an explicit
entry maps to the empty set. Identifier universes are closed once an
Architecture is constructed. Model objects are equal by field and unhashable;
their fields are not write-protected, and the package never writes them.
"""

from __future__ import annotations

import gc
import re
from contextlib import contextmanager
from functools import cached_property
from itertools import chain, compress
from operator import attrgetter, methodcaller
from typing import Iterable, Iterator, Mapping

ComponentId = str
ChannelId = str
VariableId = str
LevelId = str


class ModelError(Exception):
    """Base class for architecture model errors."""


class InvalidIdentifierError(ModelError):
    """An identifier token is empty or contains whitespace or a comma.

    Commas are excluded because the CLI takes channel lists comma-separated.
    """


class UnknownIdentifierError(ModelError):
    """A name is referenced but never declared in its universe."""


class SubcomponentCycleError(ModelError):
    """The subcomponent relation contains a cycle."""


class _Fields:
    """Equality by type and ``_fields`` (the annotated fields, in order) and a
    repr of them. Unhashable: the fields are writable, and some are dicts."""

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        values = attrgetter(*self._fields)
        return values(self) == values(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class ComponentRecord(_Fields):
    inputs: frozenset[ChannelId]
    outputs: frozenset[ChannelId]
    vars: frozenset[VariableId]
    subcomponents: frozenset[ComponentId]
    _fields = __slots__ = tuple(__annotations__)

    def __init__(self, inputs, outputs, vars, subcomponents) -> None:
        self.inputs = inputs
        self.outputs = outputs
        self.vars = vars
        self.subcomponents = subcomponents


_SEPARATOR = re.compile(r"[\s,]")  # no identifier holds one; \s is what str.isspace accepts
_EMPTY: frozenset = frozenset()  # the one object behind every empty member and table entry
_MEMBERS = ("in", "out", "var", "subcomp")
# Where a collection of names belongs, a string would split into one-character
# names and a false scalar would pass for the empty collection.
_SCALARS = frozenset({str, bool, int, float, type(None)})


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Keep the cyclic garbage collector off for the body, then restore its state.

    Loading and index building allocate many containers and make no
    reference cycles, so each collection they would trigger only rescans
    the heap already built. Usable as a decorator too.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _collections(
    components: Mapping[str, Mapping[str, object]],
    tables: Mapping[str, Mapping[str, object]],
    arrays: Mapping[str, object],
) -> Iterator[tuple[str, object]]:
    """Each place a collection of names belongs, with its location, in the
    order ``create`` takes them."""
    for name, spec in components.items():
        for member in _MEMBERS:
            yield f"components[{name}].{member}", spec.get(member, ())
    for key, table in tables.items():
        for owner, value in table.items():
            yield f"{key}[{owner}]", value
    yield from arrays.items()


def _check_names(kind: str, names: Iterable[object]) -> None:
    """Raise InvalidIdentifierError for the first name in ``names`` that is not
    a non-empty string free of separators.

    One type test, one truth test and one search over the joined names
    decide; the loop only runs to name the offender.
    """
    if set(map(type, names)) <= {str} and all(names) and not _SEPARATOR.search("".join(names)):
        return
    for name in names:
        if not isinstance(name, str) or not name or _SEPARATOR.search(name):
            raise InvalidIdentifierError(f"invalid {kind} identifier: {name!r}")


def _inverse(pairs: Iterable[tuple[str, Iterable[str]]]) -> dict[str, tuple[str, ...]]:
    """Each value of the (key, values) pairs, mapped to its keys in pair order.

    Tuples, not sets: the indexes built from it must stay small beside the model.
    """
    inverse: dict[str, list[str]] = {}
    for key, values in pairs:
        for v in values:
            inverse.setdefault(v, []).append(key)
    return {v: tuple(keys) for v, keys in inverse.items()}


def _post_order(
    components: Mapping[ComponentId, ComponentRecord], roots: Iterable[ComponentId]
) -> list[ComponentId]:
    """The roots and every component below them, each after its subcomponents.

    Roots and children are visited in name order, and the walk is iterative,
    so depth meets no recursion limit. Raises SubcomponentCycleError, naming
    the first cycle met, when the relation below the roots is cyclic.
    """
    done: dict[ComponentId, bool] = {}  # False while on the path
    order: list[ComponentId] = []
    for root in sorted(roots):
        if root in done:
            continue
        done[root] = False
        path = [root]
        stack = [iter(sorted(components[root].subcomponents))]
        while stack:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
                node = path.pop()
                done[node] = True
                order.append(node)
            elif child not in done:
                below = components[child].subcomponents
                if below:
                    done[child] = False
                    path.append(child)
                    stack.append(iter(sorted(below)))
                else:  # no subcomponents: finished as soon as it is met
                    done[child] = True
                    order.append(child)
            elif not done[child]:
                cycle = path[path.index(child):] + [child]
                raise SubcomponentCycleError("subcomponent cycle: " + " -> ".join(cycle))
    return order


class LevelIndex(_Fields):
    """Who produces and who consumes each channel on one level.

    ``producers[x]`` and ``consumers[x]`` are the level's components, in name
    order, with x among their outputs or inputs. A channel no component on
    the level touches has no entry. Building it costs one pass over the
    level's channel incidences; every level analysis reads it in place of a
    scan of the level.
    """

    members: frozenset[ComponentId]
    producers: Mapping[ChannelId, tuple[ComponentId, ...]]
    consumers: Mapping[ChannelId, tuple[ComponentId, ...]]
    _fields = __slots__ = tuple(__annotations__)

    def __init__(self, members, producers, consumers) -> None:
        self.members, self.producers, self.consumers = members, producers, consumers

    @classmethod
    @_collector_paused()
    def build(
        cls,
        components: Mapping[ComponentId, ComponentRecord],
        members: frozenset[ComponentId],
    ) -> "LevelIndex":
        records = [(c, components[c]) for c in sorted(members)]
        return cls(
            members=members,
            producers=_inverse((c, rec.outputs) for c, rec in records),
            consumers=_inverse((c, rec.inputs) for c, rec in records),
        )


class HierarchyIndex(_Fields):
    """The subcomponent hierarchy and the document-wide channel tables.

    ``parents[c]``: every component, on a level or not, with c as a
    subcomponent. ``levels_of[c]``: the levels c is on. ``producers[x]``:
    every component, on a level or not, with x among its outputs.
    ``targeted_by[x]``: the variables whose ``var_to`` holds x. All in name
    order; a missing key means none. ``finest_first``: the levels by the
    largest subcomponent height among their members (an undecomposed
    component has height 0), ties by name.
    """

    parents: Mapping[ComponentId, tuple[ComponentId, ...]]
    levels_of: Mapping[ComponentId, tuple[LevelId, ...]]
    producers: Mapping[ChannelId, tuple[ComponentId, ...]]
    targeted_by: Mapping[ChannelId, tuple[VariableId, ...]]
    finest_first: tuple[LevelId, ...]
    _fields = __slots__ = tuple(__annotations__)

    def __init__(self, parents, levels_of, producers, targeted_by, finest_first) -> None:
        self.parents, self.levels_of, self.producers = parents, levels_of, producers
        self.targeted_by, self.finest_first = targeted_by, finest_first

    @classmethod
    @_collector_paused()
    def build(cls, a: "Architecture") -> "HierarchyIndex":
        components, levels = a.components, a.levels
        height: dict[ComponentId, int] = {}
        for c in _post_order(components, components):
            height[c] = 1 + max((height[s] for s in components[c].subcomponents), default=-1)
        return cls(
            parents=_inverse((c, components[c].subcomponents) for c in sorted(components)),
            levels_of=_inverse((lvl, levels[lvl]) for lvl in sorted(levels)),
            producers=_inverse((c, components[c].outputs) for c in sorted(components)),
            targeted_by=_inverse((v, a.var_to[v]) for v in sorted(a.var_to)),
            finest_first=tuple(sorted(
                levels, key=lambda lvl: (max((height[c] for c in levels[lvl]), default=0), lvl)
            )),
        )


class Architecture(_Fields):
    """Complete, validated analysis input.

    Construct through :meth:`create`, which normalizes the tables and
    enforces referential closure and subcomponent acyclicity. The cached
    indexes live in the instance ``__dict__``, outside the fields, so they
    take no part in ==, repr or serialization.
    """

    components: Mapping[ComponentId, ComponentRecord]
    levels: Mapping[LevelId, frozenset[ComponentId]]
    chan_from_ch: Mapping[ChannelId, frozenset[ChannelId]]
    chan_from_var: Mapping[ChannelId, frozenset[VariableId]]
    var_from: Mapping[VariableId, frozenset[ChannelId]]
    var_to: Mapping[VariableId, frozenset[ChannelId]]
    highload_channels: frozenset[ChannelId]
    highperf_components: frozenset[ComponentId]
    _fields = tuple(__annotations__)

    def __init__(
        self, components, levels, chan_from_ch, chan_from_var, var_from, var_to,
        highload_channels, highperf_components,
    ) -> None:
        self.components, self.levels = components, levels
        self.chan_from_ch, self.chan_from_var = chan_from_ch, chan_from_var
        self.var_from, self.var_to = var_from, var_to
        self.highload_channels, self.highperf_components = highload_channels, highperf_components

    @classmethod
    @_collector_paused()
    def create(
        cls,
        components: Mapping[ComponentId, Mapping[str, Iterable[str]]] | None = None,
        levels: Mapping[LevelId, Iterable[ComponentId]] | None = None,
        chan_from_ch: Mapping[ChannelId, Iterable[ChannelId]] | None = None,
        chan_from_var: Mapping[ChannelId, Iterable[VariableId]] | None = None,
        var_from: Mapping[VariableId, Iterable[ChannelId]] | None = None,
        var_to: Mapping[VariableId, Iterable[ChannelId]] | None = None,
        highload_channels: Iterable[ChannelId] = (),
        highperf_components: Iterable[ComponentId] = (),
    ) -> "Architecture":
        """Fill in missing members and tables, check every name, reference
        and the subcomponent relation, and freeze the tables in name order.

        A string, number, bool or None where a collection of names belongs is
        a TypeError that names the place. Every check runs over whole columns
        in C loops; a per-entry loop runs only to name the first offender.
        """
        components = components or {}
        levels = levels or {}
        chan_from_ch = chan_from_ch or {}
        chan_from_var = chan_from_var or {}
        var_from = var_from or {}
        var_to = var_to or {}
        tables = {
            "levels": levels, "chan_from_ch": chan_from_ch, "chan_from_var": chan_from_var,
            "var_from": var_from, "var_to": var_to,
        }
        arrays = {"highload_channels": highload_channels, "highperf_components": highperf_components}

        names = list(components)
        specs = list(components.values())
        columns = [list(map(methodcaller("get", m, ()), specs)) for m in _MEMBERS]
        placed = chain(*columns, *map(methodcaller("values"), tables.values()), arrays.values())
        if not _SCALARS.isdisjoint(map(type, placed)):
            where, value = next(
                (w, v) for w, v in _collections(components, tables, arrays) if type(v) in _SCALARS
            )
            raise TypeError(f"{where} must be a collection of names, not {type(value).__name__}")
        ins, outs, var_sets, subs = (
            [frozenset(v) if v else _EMPTY for v in column] for column in columns
        )

        comp_universe = frozenset(names)
        chans = set(chan_from_ch)
        chans.update(chan_from_var)
        chans.update(*chain.from_iterable(zip(ins, outs)))  # component by component, as declared
        variables = set(var_from)
        variables.update(var_to)
        variables.update(*var_sets)
        chan_universe = frozenset(chans)
        var_universe = frozenset(variables)

        for kind, universe in (
            ("component", names), ("channel", chan_universe),
            ("variable", var_universe), ("level", levels),
        ):
            _check_names(kind, universe)

        def total(table: Mapping[str, Iterable[str]], keys: list[str]) -> dict[str, frozenset[str]]:
            get = table.get
            return {k: frozenset(v) if (v := get(k)) else _EMPTY for k in keys}

        chan_order, var_order = sorted(chan_universe), sorted(var_universe)
        frozen = {
            "levels": total(levels, sorted(levels)),
            "chan_from_ch": total(chan_from_ch, chan_order),
            "chan_from_var": total(chan_from_var, chan_order),
            "var_from": total(var_from, var_order),
            "var_to": total(var_to, var_order),
        }
        highload, highperf = frozenset(highload_channels), frozenset(highperf_components)

        # (kind, universe, where, owners in declaration order, owner -> names)
        for kind, universe, where, owners, referenced in (
            ("component", comp_universe, "subcomp of ", names, dict(zip(names, subs))),
            ("component", comp_universe, "level ", levels, frozen["levels"]),
            ("channel", chan_universe, "chan_from_ch of ", chan_from_ch, frozen["chan_from_ch"]),
            ("variable", var_universe, "chan_from_var of ", chan_from_var, frozen["chan_from_var"]),
            ("channel", chan_universe, "var_from of ", var_from, frozen["var_from"]),
            ("channel", chan_universe, "var_to of ", var_to, frozen["var_to"]),
            ("channel", chan_universe, "", ["highload_channels"], {"highload_channels": highload}),
            ("component", comp_universe, "", ["highperf_components"], {"highperf_components": highperf}),
        ):
            if universe.issuperset(chain.from_iterable(referenced.values())):
                continue
            for owner in owners:
                unknown = referenced[owner] - universe
                if unknown:
                    raise UnknownIdentifierError(
                        f"undeclared {kind} {', '.join(sorted(unknown))} referenced in {where}{owner}"
                    )

        records = dict(zip(names, map(ComponentRecord, ins, outs, var_sets, subs)))
        arch = cls(
            components={k: records[k] for k in sorted(records)},
            highload_channels=highload,
            highperf_components=highperf,
            **frozen,
        )
        # Raises on a cycle: HighPerf recursion and level flattening need none.
        # A component without subcomponents closes no cycle, so no walk starts there.
        _post_order(arch.components, compress(names, subs))
        return arch

    @property
    def channel_ids(self) -> frozenset[ChannelId]:
        return frozenset(self.chan_from_ch)

    # -- lookups (total; unknown identifiers are an error) -----------------

    def require_component(self, c: ComponentId) -> None:
        if c not in self.components:
            raise UnknownIdentifierError(f"unknown component: {c}")

    def require_channel(self, x: ChannelId) -> None:
        if x not in self.chan_from_ch:
            raise UnknownIdentifierError(f"unknown channel: {x}")

    def require_level(self, level: LevelId) -> None:
        if level not in self.levels:
            raise UnknownIdentifierError(f"unknown level: {level}")

    def inputs_of(self, c: ComponentId) -> frozenset[ChannelId]:
        self.require_component(c)
        return self.components[c].inputs

    def outputs_of(self, c: ComponentId) -> frozenset[ChannelId]:
        self.require_component(c)
        return self.components[c].outputs

    def vars_of(self, c: ComponentId) -> frozenset[VariableId]:
        self.require_component(c)
        return self.components[c].vars

    def subcomponents_of(self, c: ComponentId) -> frozenset[ComponentId]:
        self.require_component(c)
        return self.components[c].subcomponents

    def level_components(self, level: LevelId) -> frozenset[ComponentId]:
        self.require_level(level)
        return self.levels[level]

    # -- per-level index (built on first use, not a field) ------------------

    @cached_property
    def _level_indexes(self) -> dict[LevelId, LevelIndex]:
        return {}

    def level_index(self, level: LevelId) -> LevelIndex:
        """The level's producer/consumer index, built once and then reused."""
        self.require_level(level)
        index = self._level_indexes.get(level)
        if index is None:
            index = LevelIndex.build(self.components, self.levels[level])
            self._level_indexes[level] = index
        return index

    @cached_property
    def hierarchy_index(self) -> HierarchyIndex:
        """The hierarchy index, built on first use and cached like the level indexes."""
        return HierarchyIndex.build(self)

    @cached_property
    @_collector_paused()
    def highperf_marks(self) -> frozenset[ComponentId]:
        """The high-performance components and every component above one.

        Built on first use, in one walk up the subcomponent edges from the
        marked components, and cached like the indexes.
        """
        # hierarchy_index.parents again, so condense, optimize and export-dot never build that index.
        parents = _inverse((c, rec.subcomponents) for c, rec in self.components.items())
        marked = set(self.highperf_components)
        todo = list(marked)
        while todo:
            for p in parents.get(todo.pop(), ()):
                if p not in marked:
                    marked.add(p)
                    todo.append(p)
        return frozenset(marked)
