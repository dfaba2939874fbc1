"""Architecture model: components, channels, variables, levels.

Name order is fixed once, in ``Architecture.create``: every component member,
table entry and level is a tuple of names in name order, each once (loading
drops a repeat), and every mapping iterates in name order. Only the two arrays
and the named lookups' answers (``inputs_of`` and so on) are frozensets; the
bare constructor expects what ``create`` builds. All tables are total: an
identifier without an entry maps to ``()``. Identifier universes are closed
once an Architecture is constructed. Model objects are equal by field and
unhashable; their fields are not write-protected, and the package never
writes them. The level indexes with their join nodes and feeder and reader
maps, the document-wide tables (``parents``, ``levels_of``, ``producers``,
``targeted_by``, ``finest_first``) and ``highperf_marks`` are built from the
fields on first use, so a field written after that leaves later answers stale.
"""

from __future__ import annotations

import gc
import re
from contextlib import contextmanager
from functools import cached_property
from itertools import chain, compress, islice, repeat
from operator import attrgetter, countOf, ge, gt, itemgetter, methodcaller
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple

ComponentId = str
ChannelId = str
VariableId = str
LevelId = str


class ModelError(Exception):
    """Base class for architecture model errors."""


class InvalidIdentifierError(ModelError):
    """An identifier token is empty or contains whitespace, a comma or a
    lone surrogate.

    Commas are excluded because the CLI takes channel lists comma-separated;
    surrogates (U+D800-U+DFFF) because no UTF-8 output can write them.
    """


class UnknownIdentifierError(ModelError):
    """A name is referenced but never declared in its universe."""


class SubcomponentCycleError(ModelError):
    """The subcomponent relation contains a cycle."""


class _ShapeError(TypeError):
    """A place in the document's layout holds the wrong kind of value: ``where``
    names it, ``wants`` says what belongs there ("mapping", "names" or
    "members"), so that ``ingest.parse`` can word it in the document's terms."""

    def __init__(self, where: str, wants: str, message: str) -> None:
        super().__init__(f"{where} {message}")
        self.where, self.wants = where, wants


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


class Witness(NamedTuple):
    entities: tuple[str, ...]
    reason: str


class Verdict(NamedTuple):
    witnesses: tuple[Witness, ...] = ()

    @property
    def holds(self) -> bool:
        return not self.witnesses


class ComponentRecord(_Fields):
    inputs: tuple[ChannelId, ...]
    outputs: tuple[ChannelId, ...]
    vars: tuple[VariableId, ...]
    subcomponents: tuple[ComponentId, ...]
    _fields = __slots__ = tuple(__annotations__)

    def __init__(self, inputs, outputs, vars, subcomponents) -> None:
        self.inputs, self.outputs, self.vars, self.subcomponents = inputs, outputs, vars, subcomponents


_SEPARATOR = re.compile(r"[\s,\ud800-\udfff]")  # no identifier holds one; \s as in str.isspace
# The document's layout, in the order create takes it: a component's member
# keys, the tables (name -> names) and the arrays of names.
_MEMBERS = ("in", "out", "var", "subcomp")
_TABLES = ("levels", "chan_from_ch", "chan_from_var", "var_from", "var_to")
_ARRAYS = ("highload_channels", "highperf_components")
_MEMBER_SET = frozenset(_MEMBERS)
_flat = chain.from_iterable
_NAME_COLLECTIONS = frozenset({list, tuple, set, frozenset})  # others pass the per-entry walk


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


def _check_shape(components: object, tables: dict[str, object], arrays: dict[str, object]) -> bool:
    """Raise _ShapeError for the first place, in document order (components,
    the tables, the arrays, each in entry order), that does not hold what the
    layout puts there: a mapping for ``components``, each spec (with member
    keys only) and each table; a collection of string names, not a string or
    a mapping, for each member, table entry and array. Return whether every
    member, table entry and level lists its names strictly increasing already.

    Type-set tests over whole columns and a join of their names pass plain
    dicts, lists, tuples, sets and strings in C loops; the per-entry walk
    (which answers False) runs only when one fails. The order test compares
    neighbours over the non-empty entries, each followed by "", which sorts
    before any name: when every entry is in order, only its (last, "") pairs
    fail to increase.
    """
    if type(components) is dict and set(map(type, tables.values())) <= {dict}:
        specs = components.values()
        if set(map(type, specs)) <= {dict} and _MEMBER_SET.issuperset(_flat(specs)):
            entries = [*_flat(map(dict.values, [*specs, *tables.values()]))]
            if set(map(type, entries)) | set(map(type, arrays.values())) <= _NAME_COLLECTIONS:
                entries = list(filter(None, entries))
                names = list(_flat(_flat(zip(entries, repeat(("",))))))
                try:  # join raises a TypeError unless every name is a string
                    "".join(names) + "".join(_flat(arrays.values()))
                except TypeError:
                    pass
                else:
                    return countOf(map(ge, names, islice(names, 1, None)), True) == len(entries)

    def mapping(where: str, value: object) -> None:
        if not isinstance(value, Mapping):
            raise _ShapeError(where, "mapping", f"must be a mapping, not {type(value).__name__}")

    def names(where: str, value: object) -> None:
        kind = type(value).__name__
        if not isinstance(value, (str, Mapping)) and isinstance(value, Collection):
            odd = [name for name in value if not isinstance(name, str)]
            if not odd:
                return
            kind += f" holding {type(odd[0]).__name__}"
        raise _ShapeError(where, "names", f"must be a collection of names, not {kind}")

    mapping("components", components)
    for name, spec in components.items():
        where = f"components[{name}]"
        mapping(where, spec)
        extra = set(spec) - _MEMBER_SET
        if extra:
            raise _ShapeError(where, "members", "has unknown members: " + ", ".join(sorted(map(str, extra))))
        for member in _MEMBERS:
            names(f"{where}.{member}", spec.get(member, ()))
    for key, table in tables.items():
        mapping(key, table)
        for owner, value in table.items():
            names(f"{key}[{owner}]", value)
    for key, value in arrays.items():
        names(key, value)
    return False


def _check_names(kind: str, universe: Collection[object], in_order: Iterable[object]) -> None:
    """Raise InvalidIdentifierError for the first name in ``in_order``, the
    universe's names in document order, that is not a non-empty string free
    of separators.

    One type test, one truth test and one search over the joined universe
    decide; the ordered loop only runs to name the offender, the same one in
    every process.
    """
    if set(map(type, universe)) <= {str} and all(universe) and not _SEPARATOR.search("".join(universe)):
        return
    for name in in_order:
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

    Roots are taken in the order given, children in name order; the walk is
    iterative, so depth meets no recursion limit. Raises SubcomponentCycleError,
    naming the first cycle met, when the relation below the roots is cyclic.
    """
    done: dict[ComponentId, bool] = {}  # False while on the path
    order: list[ComponentId] = []
    for root in roots:
        if root in done:
            continue
        done[root] = False
        path = [root]
        stack = [iter(components[root].subcomponents)]
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
                    stack.append(iter(below))
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

    ``feeders`` and ``readers`` are the level's one adjacency, which the
    transitive walks and ``condense`` read; the direct queries read
    ``producers`` and ``consumers``. Their entries are flat tuples of node
    names. A node is a member or a join node: a channel with two or more
    producers on the level stands for them as the node ``","`` + its name,
    listed in ``joins``. No identifier holds a comma, so no join node is a
    member's name. ``feeders[c]``, for each member c, names for each input of
    c produced on the level its sole producer or its join node;
    ``readers[c]`` names for each output of c consumed on the level its
    consumers, or its join node when c shares the channel with other
    producers. A join node's own entry is the index's ``producers[x]`` tuple
    in ``feeders`` and ``consumers[x]`` tuple, when x has one, in
    ``readers``: referenced, not copied. So c reaches p through the nodes
    exactly when p feeds c, a shared channel costs one entry per producer
    and per consumer however many there are, and the member entries of the
    two maps hold at most twice the level's channel incidences. Each map is
    built in one pass over the members on first use and takes no part in
    ==, repr or serialization.
    """

    members: frozenset[ComponentId]  # the level's one set, for membership tests
    producers: Mapping[ChannelId, tuple[ComponentId, ...]]
    consumers: Mapping[ChannelId, tuple[ComponentId, ...]]
    _fields = tuple(__annotations__)

    def __init__(self, members, producers, consumers, components) -> None:
        self.members, self.producers, self.consumers = members, producers, consumers
        self._components = components

    @classmethod
    @_collector_paused()
    def build(
        cls, components: Mapping[ComponentId, ComponentRecord], members: tuple[ComponentId, ...]
    ) -> "LevelIndex":
        records = [(c, components[c]) for c in members]
        return cls(
            members=frozenset(members),
            producers=_inverse((c, rec.outputs) for c, rec in records),
            consumers=_inverse((c, rec.inputs) for c, rec in records),
            components=components,
        )

    @cached_property
    def joins(self) -> tuple[str, ...]:
        """The join nodes: ``","`` + each channel with two or more producers."""
        producers = self.producers
        shared = compress(producers, map(gt, map(len, producers.values()), repeat(1)))
        return tuple(map(",".__add__, shared))

    @cached_property
    @_collector_paused()
    def feeders(self) -> Mapping[str, tuple[str, ...]]:
        producers, components = self.producers, self._components
        node = dict(zip(producers, map(itemgetter(0), producers.values())))  # channel -> node name
        node.update((j[1:], j) for j in self.joins)
        get = node.get
        links = {c: tuple(filter(None, map(get, components[c].inputs))) for c in self.members}
        links.update((j, producers[j[1:]]) for j in self.joins)
        return links

    @cached_property
    @_collector_paused()
    def readers(self) -> Mapping[str, tuple[str, ...]]:
        consumers, components = self.consumers, self._components
        joined = [j for j in self.joins if j[1:] in consumers]
        node = dict(consumers)  # channel -> the names its producer's entry lists
        node.update((j[1:], (j,)) for j in joined)
        get, nothing = node.get, repeat(())
        links = {c: tuple(_flat(map(get, components[c].outputs, nothing))) for c in self.members}
        links.update((j, consumers[j[1:]]) for j in joined)
        return links


class Architecture(_Fields):
    """Complete, validated analysis input.

    Construct through :meth:`create`, which normalizes the tables and
    enforces referential closure and subcomponent acyclicity. The bare
    constructor takes what ``create`` builds, unchecked and unsorted: mappings
    that iterate in name order, name-ordered tuples for members, table
    entries and levels, and frozensets for the two arrays. The level indexes
    and the document-wide tables are cached in the instance ``__dict__``,
    outside the fields, so they take no part in ==, repr or serialization.
    """

    components: Mapping[ComponentId, ComponentRecord]
    levels: Mapping[LevelId, tuple[ComponentId, ...]]
    chan_from_ch: Mapping[ChannelId, tuple[ChannelId, ...]]
    chan_from_var: Mapping[ChannelId, tuple[VariableId, ...]]
    var_from: Mapping[VariableId, tuple[ChannelId, ...]]
    var_to: Mapping[VariableId, tuple[ChannelId, ...]]
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
        components: Mapping[ComponentId, Mapping[str, Collection[str]]] | None = None,
        levels: Mapping[LevelId, Collection[ComponentId]] | None = None,
        chan_from_ch: Mapping[ChannelId, Collection[ChannelId]] | None = None,
        chan_from_var: Mapping[ChannelId, Collection[VariableId]] | None = None,
        var_from: Mapping[VariableId, Collection[ChannelId]] | None = None,
        var_to: Mapping[VariableId, Collection[ChannelId]] | None = None,
        highload_channels: Collection[ChannelId] = (),
        highperf_components: Collection[ComponentId] = (),
    ) -> "Architecture":
        """Check the shape, fill in missing members and tables, check every
        name, reference and the subcomponent relation; freeze each member,
        table entry and level as a name-ordered tuple without repeats.

        ``components``, each spec and each table are mappings (``None`` is an
        absent table), a spec's keys are among ``in``, ``out``, ``var`` and
        ``subcomp``, and each member, table entry and array is a collection of
        string names: not a string, number, bool, ``None`` or mapping. A
        breach is a TypeError naming the first such place in document order,
        the place ``ingest.parse`` names in a DocumentError. Every check runs
        over whole columns in C loops; a per-entry loop only names the first
        offender.
        """
        components = {} if components is None else components
        tables = dict(zip(_TABLES, (
            {} if t is None else t for t in (levels, chan_from_ch, chan_from_var, var_from, var_to)
        )))
        arrays = dict(zip(_ARRAYS, (highload_channels, highperf_components)))
        # Each entry as a tuple in name order, each name once: a copy when it is so already.
        entry = tuple if _check_shape(components, tables, arrays) else lambda v: tuple(sorted(set(v)))
        levels, chan_from_ch, chan_from_var, var_from, var_to = tables.values()

        names = list(components)
        specs = list(components.values())
        columns = [list(map(methodcaller("get", m, ()), specs)) for m in _MEMBERS]
        ins, outs, var_sets, subs = ([*map(entry, column)] for column in columns)

        comp_universe = frozenset(names)
        chans = {*chan_from_ch, *chan_from_var}
        chans.update(*chain.from_iterable(zip(ins, outs)))  # component by component, as declared
        variables = {*var_from, *var_to}
        variables.update(*var_sets)
        chan_universe, var_universe = frozenset(chans), frozenset(variables)

        # Each universe with its names in document order, walked only to name an offender.
        for kind, universe, in_order in (
            ("component", names, names),
            ("channel", chan_universe,
             chain(_flat(_flat(zip(columns[0], columns[1]))), chan_from_ch, chan_from_var)),
            ("variable", var_universe, chain(_flat(columns[2]), var_from, var_to)),
            ("level", levels, levels),
        ):
            _check_names(kind, universe, in_order)

        # Every table total: each key of its universe, in name order, with its entry or ().
        chan_order, var_order = sorted(chan_universe), sorted(var_universe)
        frozen = {}
        for key, keys in zip(_TABLES, (sorted(levels), chan_order, chan_order, var_order, var_order)):
            frozen[key] = dict(zip(keys, map(entry, map(tables[key].get, keys, repeat(())))))
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
                unknown = set(referenced[owner]).difference(universe)
                if unknown:
                    raise UnknownIdentifierError(
                        f"undeclared {kind} {', '.join(sorted(unknown))} referenced in {where}{owner}"
                    )

        records = dict(zip(names, map(ComponentRecord, ins, outs, var_sets, subs)))
        by_name = sorted(names)
        arch = cls(
            components=dict(zip(by_name, map(records.__getitem__, by_name))),
            highload_channels=highload,
            highperf_components=highperf,
            **frozen,
        )
        # Raises on a cycle: HighPerf recursion and level flattening need none.
        # A component without subcomponents closes no cycle, so no walk starts there.
        _post_order(arch.components, [c for c in by_name if records[c].subcomponents])
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
        return frozenset(self.components[c].inputs)

    def outputs_of(self, c: ComponentId) -> frozenset[ChannelId]:
        self.require_component(c)
        return frozenset(self.components[c].outputs)

    def vars_of(self, c: ComponentId) -> frozenset[VariableId]:
        self.require_component(c)
        return frozenset(self.components[c].vars)

    def subcomponents_of(self, c: ComponentId) -> frozenset[ComponentId]:
        self.require_component(c)
        return frozenset(self.components[c].subcomponents)

    def level_components(self, level: LevelId) -> frozenset[ComponentId]:
        self.require_level(level)
        return frozenset(self.levels[level])

    # -- per-level index (built on first use, not a field) ------------------

    @cached_property
    def _level_indexes(self) -> dict[LevelId, LevelIndex]:
        return {}

    def level_index(self, level: LevelId) -> LevelIndex:
        """The level's producer/consumer index, built once and then reused; only
        a miss checks the level, so an unknown one (never cached) still raises."""
        index = self._level_indexes.get(level)
        if index is None:
            self.require_level(level)
            index = LevelIndex.build(self.components, self.levels[level])
            self._level_indexes[level] = index
        return index

    # -- document-wide tables (each built on first use, not a field) --------
    # Each mapping lists its values in name order; a missing key means none.

    @cached_property
    @_collector_paused()
    def parents(self) -> Mapping[ComponentId, tuple[ComponentId, ...]]:
        """Every component, on a level or not, with the key as a subcomponent."""
        return _inverse((c, rec.subcomponents) for c, rec in self.components.items())

    @cached_property
    @_collector_paused()
    def levels_of(self) -> Mapping[ComponentId, tuple[LevelId, ...]]:
        """The levels each component is on."""
        return _inverse(self.levels.items())

    @cached_property
    @_collector_paused()
    def producers(self) -> Mapping[ChannelId, tuple[ComponentId, ...]]:
        """Every component, on a level or not, with the key among its outputs."""
        return _inverse((c, rec.outputs) for c, rec in self.components.items())

    @cached_property
    @_collector_paused()
    def targeted_by(self) -> Mapping[ChannelId, tuple[VariableId, ...]]:
        """The variables whose ``var_to`` holds the key."""
        return _inverse(self.var_to.items())

    @cached_property
    @_collector_paused()
    def finest_first(self) -> tuple[LevelId, ...]:
        """The levels by the largest subcomponent height among their members
        (an undecomposed component has height 0), ties by name."""
        components, levels = self.components, self.levels
        height: dict[ComponentId, int] = {}
        for c in _post_order(components, components):
            height[c] = 1 + max((height[s] for s in components[c].subcomponents), default=-1)
        return tuple(sorted(
            levels, key=lambda lvl: (max((height[c] for c in levels[lvl]), default=0), lvl)
        ))

    @cached_property
    @_collector_paused()
    def highperf_marks(self) -> frozenset[ComponentId]:
        """The high-performance components and every component above one.

        Built on first use, in one walk up ``parents`` from the marked
        components, and cached like the tables.
        """
        parents = self.parents
        marked = set(self.highperf_components)
        todo = list(marked)
        while todo:
            for p in parents.get(todo.pop(), ()):
                if p not in marked:
                    marked.add(p)
                    todo.append(p)
        return frozenset(marked)
