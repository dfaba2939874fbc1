"""Architecture model: components, channels, variables, levels.

``Architecture.create`` takes the containers ``json.loads`` builds, by exact
type: dicts for ``components``, specs and tables, and lists of strings for
members, table entries and arrays. Any other value, ``None`` included, is a
breach, raised once, as a DocumentError in the document's terms. Name order is
fixed there once: every member, table entry and level is a tuple of names in
name order, each once, and every mapping iterates in name order. Only the two
arrays and the named lookups' answers (``inputs_of`` and so on) are
frozensets; the bare constructor expects what ``create`` builds. All tables
are total: an identifier without an entry maps to ``()``. An Architecture and
a ComponentRecord are equal by field and unhashable; their fields are not
write-protected, and the package never writes them. The level indexes
(compared by identity) and the document-wide tables (``parents``,
``levels_of``, ``producers``, ``targeted_by``, ``finest_first``,
``highperf_marks``) are caches built on first use, outside the fields, each
lazy member through ``_table``, so a field written after that leaves later
answers stale. Join nodes are seen only here and in ``condense``.
"""

from __future__ import annotations

import gc
import re
from contextlib import contextmanager
from functools import cached_property, reduce
from itertools import chain, compress, islice, repeat
from operator import attrgetter, countOf, ge, gt, iadd, itemgetter, lt
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


class DocumentError(ModelError):
    """The document is not a well-formed architecture description: malformed
    text, a key repeated in one object, a bad top level, or a place in the
    layout holding the wrong kind of value."""


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
_ABSENT: dict = {}  # create's default for components and each table; never written
_NO_NAMES: list = []  # create's default for each member and array; never written


def _sorted_entry(names: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted(set(names)))


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


def _table(build):
    """A lazy member: ``build`` runs on first use with the collector paused,
    and its answer is cached in the instance ``__dict__``."""
    return cached_property(_collector_paused()(build))


def _check_shape(
    components: object, tables: dict[str, object], arrays: dict[str, object]
) -> dict[str, tuple[list, list, bool]]:
    """Raise DocumentError for the first place, in document order (components,
    the tables, the arrays, each in entry order), not holding a dict (for
    ``components``, each spec, with member keys only, and each table) or a
    list of strings (for each member, table entry and array). Return the
    columns: for each member key, in ``_MEMBERS`` order, and each table, its
    entries in document order (a missing member is ``_NO_NAMES``), their names
    flattened in that order, and whether every entry lists its names strictly
    increasing already.

    Each member column is one ``map(dict.get, ...)`` over the specs. Type-set
    tests over whole columns and a join of their names decide in C loops; only
    when one fails does the per-entry walk, making the same tests, run to name
    the breach.
    """
    if type(components) is dict and set(map(type, tables.values())) <= {dict}:
        specs = components.values()
        if set(map(type, specs)) <= {dict} and _MEMBER_SET.issuperset(_flat(specs)):
            columns = [list(map(dict.get, specs, repeat(m), repeat(_NO_NAMES))) for m in _MEMBERS]
            columns += map(list, map(dict.values, tables.values()))
            if set(map(type, chain(_flat(columns), arrays.values()))) <= {list}:
                flats = [reduce(iadd, column, []) for column in columns]
                try:  # join raises a TypeError unless every name is a string
                    "".join(map("".join, flats)) + "".join(_flat(arrays.values()))
                except TypeError:
                    pass
                else:
                    ordered = map(_in_order, columns, flats)
                    return dict(zip((*_MEMBERS, *tables), zip(columns, flats, ordered)))

    def mapping(where: str, value: object) -> None:
        if type(value) is not dict:
            raise DocumentError(f"{where} must be an object")

    def names(where: str, value: object) -> None:
        if type(value) is not list or not all(isinstance(name, str) for name in value):
            raise DocumentError(f"{where} must be an array of identifier strings")

    mapping("components", components)
    for name, spec in components.items():
        where = f"components[{name}]"
        mapping(where, spec)
        extra = set(spec) - _MEMBER_SET
        if extra:
            raise DocumentError(f"{where} has unknown members: " + ", ".join(sorted(map(str, extra))))
        for member in _MEMBERS:
            names(f"{where}.{member}", spec.get(member, _NO_NAMES))
    for key, table in tables.items():
        mapping(key, table)
        for owner, value in table.items():
            names(f"{key}[{owner}]", value)
    for key, value in arrays.items():
        names(key, value)


def _in_order(entries: list[list[str]], names: list[str]) -> bool:
    """Whether each of a column's entries lists its names strictly increasing,
    given the names flattened in entry order.

    One comparison of neighbours over the names counts the descents; when
    there are any, they must all fall at the seams between entries, each
    non-empty entry's last name against the next one's first.
    """
    descents = countOf(map(ge, names, islice(names, 1, None)), True)
    if not descents:
        return True
    entries = list(filter(None, entries))
    firsts = map(itemgetter(0), islice(entries, 1, None))
    return descents == countOf(map(ge, map(itemgetter(-1), entries), firsts), True)


def _check_names(kind: str, universe: Collection[object], in_order: Iterable[object]) -> None:
    """Raise InvalidIdentifierError for the first name in ``in_order``, the
    universe's names in document order, that is not a non-empty string free
    of separators.

    One join of the universe (which raises unless every name is a string),
    one membership test for "" (``universe`` is a set or a dict) and one
    search decide; the ordered loop only runs to name the offender, the same
    one in every process.
    """
    try:
        joined = "".join(universe)
    except TypeError:
        pass
    else:
        if "" not in universe and not _SEPARATOR.search(joined):
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


class LevelIndex:
    """Who produces and who consumes each channel on one level.

    ``producers[x]`` and ``consumers[x]`` are the level's components, in name
    order, with x among their outputs or inputs. A channel no component on
    the level touches has no entry. Building it costs one pass over the
    level's channel incidences; every level analysis reads it in place of a
    scan of the level. It is a cache, compared by identity.

    ``feeders`` and ``readers`` are the level's one adjacency, which ``reach``
    walks and ``condense`` reads; the direct queries read ``producers`` and
    ``consumers``. Their entries are flat tuples of node names. A node is a
    member or a join node: a channel with two or more producers on the level
    stands for them as the node ``","`` + its name, listed in ``joins``. No
    identifier holds a comma, so no join node is a member's name.
    ``feeders[c]``, for each member c, names for each input of c produced on
    the level its sole producer or its join node; ``readers[c]`` names for
    each output of c consumed on the level its consumers, or its join node
    when c shares the channel with other producers. A join node's own entry
    is the index's ``producers[x]`` tuple in ``feeders`` and ``consumers[x]``
    tuple, when x has one, in ``readers``: referenced, not copied. So c
    reaches p through the nodes exactly when p feeds c, a shared channel
    costs one entry per producer and per consumer however many there are,
    and the member entries of the two maps hold at most twice the level's
    channel incidences. Each map is built in one pass over the members on
    first use. ``reach`` drops the join nodes from its answer.
    """

    members: frozenset[ComponentId]  # the level's one set, for membership tests
    producers: Mapping[ChannelId, tuple[ComponentId, ...]]
    consumers: Mapping[ChannelId, tuple[ComponentId, ...]]

    @_collector_paused()
    def __init__(self, components, members) -> None:  # the model's components, the level's tuple
        records = [(c, components[c]) for c in members]
        self.members = frozenset(members)
        self.producers = _inverse((c, rec.outputs) for c, rec in records)
        self.consumers = _inverse((c, rec.inputs) for c, rec in records)
        self._components = components

    @_table
    def joins(self) -> tuple[str, ...]:
        """The join nodes: ``","`` + each channel with two or more producers."""
        producers = self.producers
        shared = compress(producers, map(gt, map(len, producers.values()), repeat(1)))
        return tuple(map(",".__add__, shared))

    @_table
    def feeders(self) -> Mapping[str, tuple[str, ...]]:
        producers, components = self.producers, self._components
        node = dict(zip(producers, map(itemgetter(0), producers.values())))  # channel -> node name
        node.update((j[1:], j) for j in self.joins)
        get = node.get
        links = {c: tuple(filter(None, map(get, components[c].inputs))) for c in self.members}
        links.update((j, producers[j[1:]]) for j in self.joins)
        return links

    @_table
    def readers(self) -> Mapping[str, tuple[str, ...]]:
        consumers, components = self.consumers, self._components
        joined = [j for j in self.joins if j[1:] in consumers]
        node = dict(consumers)  # channel -> the names its producer's entry lists
        node.update((j[1:], (j,)) for j in joined)
        get, nothing = node.get, repeat(())
        links = {c: tuple(_flat(map(get, components[c].outputs, nothing))) for c in self.members}
        links.update((j, consumers[j[1:]]) for j in joined)
        return links

    def reach(self, links: Mapping[str, tuple[str, ...]], start: Iterable[str]) -> frozenset[ComponentId]:
        """start plus every member reached from it over ``links``, the index's
        ``feeders`` or ``readers``; each entry is read once, and the join nodes
        walked through are dropped from the answer."""
        seen: set[str] = set(start)
        todo = list(seen)
        while todo:
            for z in links[todo.pop()]:
                if z not in seen:
                    seen.add(z)
                    todo.append(z)
        if self.joins:
            seen.difference_update(self.joins)
        return frozenset(seen)


class Architecture(_Fields):
    """Complete, validated analysis input.

    Construct through :meth:`create`, which normalizes the tables and
    enforces referential closure and subcomponent acyclicity. The bare
    constructor takes what ``create`` builds (see the module docstring),
    unchecked and unsorted. The level indexes and the document-wide tables
    are cached in the instance ``__dict__``, outside the fields, so they take
    no part in ==, repr or serialization.
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
        components: dict[ComponentId, dict[str, list[str]]] = _ABSENT,
        levels: dict[LevelId, list[ComponentId]] = _ABSENT,
        chan_from_ch: dict[ChannelId, list[ChannelId]] = _ABSENT,
        chan_from_var: dict[ChannelId, list[VariableId]] = _ABSENT,
        var_from: dict[VariableId, list[ChannelId]] = _ABSENT,
        var_to: dict[VariableId, list[ChannelId]] = _ABSENT,
        highload_channels: list[ChannelId] = _NO_NAMES,
        highperf_components: list[ComponentId] = _NO_NAMES,
    ) -> "Architecture":
        """Check the shape, fill in missing members and tables, check every
        name, reference and the subcomponent relation; freeze each member,
        table entry and level as a name-ordered tuple without repeats.

        The containers are those ``json.loads`` builds, by exact type:
        ``components``, each spec and each table are dicts, a spec's keys are
        among ``in``, ``out``, ``var`` and ``subcomp``, and each member, table
        entry and array is a list of strings. A left-out parameter or member
        is empty; ``None`` is a breach. A breach is a DocumentError naming the
        first such place in document order, in the document's terms: ``X must
        be an object``, ``X must be an array of identifier strings`` or ``X
        has unknown members: ...``.

        The columns the shape check builds (each member over all components,
        each table's entries, their names flattened) feed every later pass.
        Order is decided per column: a column whose entries all list their
        names strictly increasing is only copied into tuples, any other is
        sorted entry by entry. The subcomponent walk runs only when the names
        do not already order every parent above its subcomponents.
        """
        tables = dict(zip(_TABLES, (levels, chan_from_ch, chan_from_var, var_from, var_to)))
        arrays = dict(zip(_ARRAYS, (highload_channels, highperf_components)))
        columns = _check_shape(components, tables, arrays)
        # Each entry as a tuple in name order, each name once: a copy when its column is so already.
        frozen = {
            key: list(map(tuple if in_order else _sorted_entry, entries))
            for key, (entries, _, in_order) in columns.items()
        }
        flat = {key: names for key, (_, names, _) in columns.items()}
        ins, outs, var_sets, subs = map(frozen.__getitem__, _MEMBERS)

        names = list(components)
        chan_universe = frozenset(chain(chan_from_ch, chan_from_var, flat["in"], flat["out"]))
        var_universe = frozenset(chain(var_from, var_to, flat["var"]))
        # Each universe with its names in document order, walked only to name an offender.
        for kind, universe, in_order in (
            ("component", components, names),
            ("channel", chan_universe,
             chain(_flat(_flat(zip(columns["in"][0], columns["out"][0]))), chan_from_ch, chan_from_var)),
            ("variable", var_universe, chain(flat["var"], var_from, var_to)),
            ("level", levels, levels),
        ):
            _check_names(kind, universe, in_order)

        comp_universe = frozenset(names)
        highload, highperf = frozenset(highload_channels), frozenset(highperf_components)
        # (kind, universe, where, owners in declaration order, their entries, every name they hold)
        for kind, universe, where, owners, entries, referenced in (
            ("component", comp_universe, "subcomp of ", names, subs, flat["subcomp"]),
            *((kind, universe, where, tables[key], frozen[key], flat[key]) for kind, universe, where, key in (
                ("component", comp_universe, "level ", "levels"),
                ("channel", chan_universe, "chan_from_ch of ", "chan_from_ch"),
                ("variable", var_universe, "chan_from_var of ", "chan_from_var"),
                ("channel", chan_universe, "var_from of ", "var_from"),
                ("channel", chan_universe, "var_to of ", "var_to"),
            )),
            ("channel", chan_universe, "", _ARRAYS[:1], [highload], highload),
            ("component", comp_universe, "", _ARRAYS[1:], [highperf], highperf),
        ):
            if universe.issuperset(referenced):
                continue
            for owner, entry in zip(owners, entries):
                unknown = set(entry).difference(universe)
                if unknown:
                    raise UnknownIdentifierError(
                        f"undeclared {kind} {', '.join(sorted(unknown))} referenced in {where}{owner}"
                    )

        # Every table total: each key of its universe, in name order, with its entry or ().
        by_chan, by_var = (dict.fromkeys(sorted(u), ()) for u in (chan_universe, var_universe))
        totals = {}
        for key, empty in zip(_TABLES, (dict.fromkeys(sorted(levels), ()), by_chan, by_chan, by_var, by_var)):
            totals[key] = total = empty.copy()
            total.update(zip(tables[key], frozen[key]))

        records = dict(zip(names, map(ComponentRecord, ins, outs, var_sets, subs)))
        records = dict(zip(by_name := sorted(names), map(records.__getitem__, by_name)))
        # Raises on a cycle: HighPerf recursion and level flattening need none. No cycle
        # is possible when every subcomponent's name sorts before its parent's, or every
        # one after: only otherwise does the walk run, from each decomposed component.
        decomposed, below = list(compress(names, subs)), list(filter(None, subs))
        if not (all(map(lt, map(itemgetter(-1), below), decomposed))
                or all(map(gt, map(itemgetter(0), below), decomposed))):
            _post_order(records, [c for c, rec in records.items() if rec.subcomponents])
        return cls(records, highload_channels=highload, highperf_components=highperf, **totals)

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

    @_table
    def _level_indexes(self) -> dict[LevelId, LevelIndex]:
        return {}

    def level_index(self, level: LevelId) -> LevelIndex:
        """The level's producer/consumer index, built once and then reused; only
        a miss checks the level, so an unknown one (never cached) still raises."""
        index = self._level_indexes.get(level)
        if index is None:
            self.require_level(level)
            index = LevelIndex(self.components, self.levels[level])
            self._level_indexes[level] = index
        return index

    # -- document-wide tables (each built on first use, not a field) --------
    # Each mapping lists its values in name order; a missing key means none.

    @_table
    def parents(self) -> Mapping[ComponentId, tuple[ComponentId, ...]]:
        """Every component, on a level or not, with the key as a subcomponent."""
        return _inverse((c, rec.subcomponents) for c, rec in self.components.items())

    @_table
    def levels_of(self) -> Mapping[ComponentId, tuple[LevelId, ...]]:
        """The levels each component is on."""
        return _inverse(self.levels.items())

    @_table
    def producers(self) -> Mapping[ChannelId, tuple[ComponentId, ...]]:
        """Every component, on a level or not, with the key among its outputs."""
        return _inverse((c, rec.outputs) for c, rec in self.components.items())

    @_table
    def targeted_by(self) -> Mapping[ChannelId, tuple[VariableId, ...]]:
        """The variables whose ``var_to`` holds the key."""
        return _inverse(self.var_to.items())

    @_table
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

    @_table
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
