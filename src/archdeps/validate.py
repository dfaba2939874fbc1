"""Well-formedness predicates over an architecture and their aggregation.

Each predicate is written once, as a generator of the witnesses that
violate it among the entities it is given. ``validate_all`` runs each over
its whole universe; the public boolean functions run it over one entity
(or the whole document) and hold when it yields nothing. They read
``Architecture.hierarchy_index`` in place of scans; only
``classify_channel`` reads a level index.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .model import Architecture, ChannelId, ComponentId, LevelId


class ChannelClass(enum.Enum):
    SYSTEM_IN = "system_in"
    SYSTEM_OUT = "system_out"
    LOCAL = "local"
    UNUSED = "unused"


class Witness(NamedTuple):
    entities: tuple[str, ...]
    reason: str


class Verdict(NamedTuple):
    witnesses: tuple[Witness, ...] = ()

    @property
    def holds(self) -> bool:
        return not self.witnesses


class ValidationReport(NamedTuple):
    verdicts: dict[str, Verdict]

    @property
    def all_hold(self) -> bool:
        return all(v.holds for v in self.verdicts.values())


Witnesses = Iterator[Witness]


def _composition_diff_levels(a: Architecture, comps: Iterable[ComponentId]) -> Witnesses:
    levels_of = a.hierarchy_index.levels_of
    for c in comps:
        subs = a.components[c].subcomponents
        if subs and any(not subs.isdisjoint(a.levels[lvl]) for lvl in levels_of.get(c, ())):
            yield Witness((c,), f"{c} shares a level with one of its subcomponents")


def _composition_var(a: Architecture, comps: Iterable[ComponentId]) -> Witnesses:
    for c in comps:
        own = a.components[c].vars
        if any(not a.components[s].vars <= own for s in a.components[c].subcomponents):
            yield Witness((c,), f"a subcomponent of {c} holds a variable {c} does not")


def _decomposition_var(a: Architecture, comps: Iterable[ComponentId]) -> Witnesses:
    for c in comps:
        own = a.components[c].vars
        owned = [v for s in a.components[c].subcomponents for v in a.components[s].vars if v in own]
        if len(owned) != len(set(owned)):
            yield Witness((c,), f"two subcomponents of {c} share a variable")


def _two_owners_on_one_level(
    a: Architecture, owners_of: Mapping[str, tuple[ComponentId, ...]], names: Iterable[str], what: str
) -> Witnesses:
    # The owners are distinct, so a level listed twice among their levels holds two of them.
    levels_of = a.hierarchy_index.levels_of
    for n in names:
        owners = owners_of.get(n, ())
        if len(owners) > 1:
            levels = [lvl for c in owners for lvl in levels_of.get(c, ())]
            if len(levels) != len(set(levels)):
                yield Witness((n,), f"{n} is {what} two components on one level")


def _composition_out(a: Architecture, chans: Iterable[ChannelId]) -> Witnesses:
    return _two_owners_on_one_level(a, a.hierarchy_index.producers, chans, "produced by")


def _composition_subcomp(a: Architecture, comps: Iterable[ComponentId]) -> Witnesses:
    return _two_owners_on_one_level(a, a.hierarchy_index.parents, comps, "a subcomponent of")


def _unused_components(a: Architecture, comps: Iterable[ComponentId]) -> Witnesses:
    levels_of = a.hierarchy_index.levels_of
    for c in comps:
        if c not in levels_of:
            yield Witness((c,), f"{c} appears on no abstraction level")


def _outfromch(a: Architecture, chans: Iterable[ChannelId]) -> Witnesses:
    producers = a.hierarchy_index.producers
    for x in chans:
        dep = a.chan_from_ch[x]
        if dep and not any(dep <= a.components[z].inputs for z in producers.get(x, ())):
            yield Witness((x,), f"no component consumes the deps of {x} and produces it")


def _outfromv1(a: Architecture, chans: Iterable[ChannelId]) -> Witnesses:
    producers = a.hierarchy_index.producers
    for x in chans:
        dep = a.chan_from_var[x]
        if dep and not any(dep <= a.components[z].vars for z in producers.get(x, ())):
            yield Witness((x,), f"no component owns the variables of {x} and produces it")


def _outfromv2(a: Architecture, chans: Iterable[ChannelId]) -> Witnesses:
    targeted_by = a.hierarchy_index.targeted_by
    for x in chans:
        if not a.chan_from_var[x] and x in targeted_by:
            yield Witness((x,), f"{x} has no variable deps yet is a variable target")


def _varto_mismatches(a: Architecture) -> Witnesses:
    targeted_by = a.hierarchy_index.targeted_by
    for x in sorted(a.chan_from_var):
        for v in sorted(a.chan_from_var[x].symmetric_difference(targeted_by.get(x, ()))):
            yield Witness((x, v), f"chan_from_var/var_to disagree on ({x}, {v})")


def _default_level_pair(a: Architecture) -> tuple[LevelId, ...]:
    return a.hierarchy_index.finest_first[:2]


def _fine_var_escapes(
    a: Architecture, levels: tuple[LevelId, ...] | None, side: str
) -> Witnesses:
    levels = _default_level_pair(a) if levels is None else levels
    table = a.var_from if side == "inputs" else a.var_to
    members: set[ComponentId] = set()
    for lvl in levels:
        members |= a.level_components(lvl)
    for z in sorted(members):
        ref = getattr(a.components[z], side)
        for v in sorted(a.components[z].vars):
            if not table[v] <= ref:
                yield Witness((z, v), f"{v} of {z} uses channels outside its {side}")


def _useless_vars(a: Architecture) -> Witnesses:
    for v in sorted(a.var_to):
        if not a.var_to[v]:
            yield Witness((v,), f"{v} feeds no output channel")


def correct_composition_diff_levels(a: Architecture, s: ComponentId) -> bool:
    """A component never shares an abstraction level with its subcomponents."""
    a.require_component(s)
    return not any(_composition_diff_levels(a, (s,)))


def correct_composition_var(a: Architecture, s: ComponentId) -> bool:
    """Every subcomponent variable also belongs to the composed component."""
    a.require_component(s)
    return not any(_composition_var(a, (s,)))


def correct_decomposition_var(a: Architecture, s: ComponentId) -> bool:
    """No variable of s is shared by two distinct subcomponents."""
    a.require_component(s)
    return not any(_decomposition_var(a, (s,)))


def correct_composition_out(a: Architecture, x: ChannelId) -> bool:
    """At most one component per level produces x."""
    a.require_channel(x)
    return not any(_composition_out(a, (x,)))


def correct_composition_subcomp(a: Architecture, x: ComponentId) -> bool:
    """At most one component per level has x as a subcomponent."""
    a.require_component(x)
    return not any(_composition_subcomp(a, (x,)))


def all_components_used(a: Architecture) -> bool:
    """Every declared component appears on at least one level."""
    return not any(_unused_components(a, a.components))


def outfromch_correct(a: Architecture, x: ChannelId) -> bool:
    """Channel-level deps of x are witnessed by a producing component."""
    a.require_channel(x)
    return not any(_outfromch(a, (x,)))


def outfromv_correct1(a: Architecture, x: ChannelId) -> bool:
    """Variable-level deps of x are witnessed by a producing component."""
    a.require_channel(x)
    return not any(_outfromv1(a, (x,)))


def outfromv_correct2(a: Architecture, x: ChannelId) -> bool:
    """A channel with no variable deps never appears as a variable target."""
    a.require_channel(x)
    return not any(_outfromv2(a, (x,)))


def outfromv_varto_consistent(a: Architecture) -> bool:
    """chan_from_var and var_to describe the same relation."""
    return not any(_varto_mismatches(a))


def varfrom_correct(
    a: Architecture, levels: tuple[LevelId, ...] | None = None
) -> bool:
    """Variables of fine-level components are fed only from their inputs.

    By default the check covers the members of the two finest levels: the
    levels are ranked by the largest subcomponent height among their
    members (an undecomposed component has height 0), ties by level name.
    """
    return not any(_fine_var_escapes(a, levels, "inputs"))


def varto_correct(
    a: Architecture, levels: tuple[LevelId, ...] | None = None
) -> bool:
    """Variables of fine-level components feed only their outputs; levels
    default as for :func:`varfrom_correct`."""
    return not any(_fine_var_escapes(a, levels, "outputs"))


def var_useful(a: Architecture) -> bool:
    """Every variable contributes to at least one output channel."""
    return not any(_useless_vars(a))


def classify_channel(a: Architecture, x: ChannelId, level: LevelId) -> ChannelClass:
    """Classify x on a level as system input/output, local, or unused."""
    a.require_channel(x)
    index = a.level_index(level)
    consumed = x in index.consumers
    produced = x in index.producers
    if consumed and produced:
        return ChannelClass.LOCAL
    if consumed:
        return ChannelClass.SYSTEM_IN
    if produced:
        return ChannelClass.SYSTEM_OUT
    return ChannelClass.UNUSED


# Every predicate once, in report order, as its witnesses over the whole document.
_PREDICATES: dict[str, Callable[[Architecture], Witnesses]] = {
    "composition_diff_levels": lambda a: _composition_diff_levels(a, sorted(a.components)),
    "composition_var": lambda a: _composition_var(a, sorted(a.components)),
    "decomposition_var": lambda a: _decomposition_var(a, sorted(a.components)),
    "composition_out": lambda a: _composition_out(a, sorted(a.chan_from_ch)),
    "composition_subcomp": lambda a: _composition_subcomp(a, sorted(a.components)),
    "all_components_used": lambda a: _unused_components(a, sorted(a.components)),
    "outfromch_correct": lambda a: _outfromch(a, sorted(a.chan_from_ch)),
    "outfromv_correct1": lambda a: _outfromv1(a, sorted(a.chan_from_ch)),
    "outfromv_correct2": lambda a: _outfromv2(a, sorted(a.chan_from_ch)),
    "outfromv_varto_consistent": _varto_mismatches,
    "varfrom_correct": lambda a: _fine_var_escapes(a, None, "inputs"),
    "varto_correct": lambda a: _fine_var_escapes(a, None, "outputs"),
    "var_useful": _useless_vars,
}

PREDICATE_NAMES = tuple(_PREDICATES)


def validate_all(a: Architecture) -> ValidationReport:
    """Evaluate every well-formedness predicate with full witness lists."""
    return ValidationReport({name: Verdict(tuple(found(a))) for name, found in _PREDICATES.items()})
