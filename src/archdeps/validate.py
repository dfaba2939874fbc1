"""Well-formedness predicates over an architecture and their aggregation."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .model import Architecture, ChannelId, ComponentId, LevelId


class ChannelClass(enum.Enum):
    SYSTEM_IN = "system_in"
    SYSTEM_OUT = "system_out"
    LOCAL = "local"
    UNUSED = "unused"


@dataclass(frozen=True)
class Witness:
    entities: tuple[str, ...]
    reason: str


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witnesses: tuple[Witness, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    verdicts: dict[str, Verdict] = field(default_factory=dict)

    @property
    def all_hold(self) -> bool:
        return all(v.holds for v in self.verdicts.values())


def correct_composition_diff_levels(a: Architecture, s: ComponentId) -> bool:
    """A component never shares an abstraction level with its subcomponents."""
    subs = a.subcomponents_of(s)
    return all(
        not (subs & members)
        for members in a.levels.values()
        if s in members
    )


def correct_composition_var(a: Architecture, s: ComponentId) -> bool:
    """Every subcomponent variable also belongs to the composed component."""
    own = a.vars_of(s)
    return all(a.vars_of(c) <= own for c in a.subcomponents_of(s))


def correct_decomposition_var(a: Architecture, s: ComponentId) -> bool:
    """No variable of s is shared by two distinct subcomponents."""
    subs = sorted(a.subcomponents_of(s))
    for v in a.vars_of(s):
        owners = [c for c in subs if v in a.vars_of(c)]
        if len(owners) > 1:
            return False
    return True


def correct_composition_out(a: Architecture, x: ChannelId) -> bool:
    """At most one component per level produces x."""
    a.require_channel(x)
    return all(
        len(a.level_index(level).producers.get(x, ())) <= 1 for level in a.levels
    )


def correct_composition_subcomp(a: Architecture, x: ComponentId) -> bool:
    """At most one component per level has x as a subcomponent."""
    a.require_component(x)
    for members in a.levels.values():
        parents = [c for c in members if x in a.subcomponents_of(c)]
        if len(parents) > 1:
            return False
    return True


def all_components_used(a: Architecture) -> bool:
    """Every declared component appears on at least one level."""
    on_levels: set[ComponentId] = set()
    for members in a.levels.values():
        on_levels |= members
    return set(a.components) <= on_levels


def outfromch_correct(a: Architecture, x: ChannelId) -> bool:
    """Channel-level deps of x are witnessed by a producing component."""
    a.require_channel(x)
    dep = a.chan_from_ch[x]
    if not dep:
        return True
    return any(
        x in rec.outputs and dep <= rec.inputs for rec in a.components.values()
    )


def outfromv_correct1(a: Architecture, x: ChannelId) -> bool:
    """Variable-level deps of x are witnessed by a producing component."""
    a.require_channel(x)
    dep = a.chan_from_var[x]
    if not dep:
        return True
    return any(
        x in rec.outputs and dep <= rec.vars for rec in a.components.values()
    )


def outfromv_correct2(a: Architecture, x: ChannelId) -> bool:
    """A channel with no variable deps never appears as a variable target."""
    a.require_channel(x)
    if a.chan_from_var[x]:
        return True
    return all(x not in targets for targets in a.var_to.values())


def outfromv_varto_consistent(a: Architecture) -> bool:
    """chan_from_var and var_to describe the same relation."""
    for x, dep in a.chan_from_var.items():
        for v in dep:
            if x not in a.var_to[v]:
                return False
    for v, targets in a.var_to.items():
        for x in targets:
            if v not in a.chan_from_var[x]:
                return False
    return True


def _default_level_pair(a: Architecture) -> tuple[LevelId, ...]:
    # The two finest levels in declaration order; fewer if fewer declared.
    return tuple(list(a.levels)[:2])


def varfrom_correct(
    a: Architecture, levels: tuple[LevelId, ...] | None = None
) -> bool:
    """Variables of fine-level components are fed only from their inputs."""
    levels = _default_level_pair(a) if levels is None else levels
    members: set[ComponentId] = set()
    for lvl in levels:
        members |= a.level_components(lvl)
    for z in members:
        for v in a.vars_of(z):
            if not a.var_from[v] <= a.inputs_of(z):
                return False
    return True


def varto_correct(
    a: Architecture, levels: tuple[LevelId, ...] | None = None
) -> bool:
    """Variables of fine-level components feed only their outputs."""
    levels = _default_level_pair(a) if levels is None else levels
    members: set[ComponentId] = set()
    for lvl in levels:
        members |= a.level_components(lvl)
    for z in members:
        for v in a.vars_of(z):
            if not a.var_to[v] <= a.outputs_of(z):
                return False
    return True


def var_useful(a: Architecture) -> bool:
    """Every variable contributes to at least one output channel."""
    return all(a.var_to[v] for v in a.var_to)


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


def _quantified(
    entities, predicate, describe
) -> Verdict:
    witnesses = tuple(
        Witness(entities=(e,), reason=describe(e))
        for e in sorted(entities)
        if not predicate(e)
    )
    return Verdict(holds=not witnesses, witnesses=witnesses)


PREDICATE_NAMES = (
    "composition_diff_levels",
    "composition_var",
    "decomposition_var",
    "composition_out",
    "composition_subcomp",
    "all_components_used",
    "outfromch_correct",
    "outfromv_correct1",
    "outfromv_correct2",
    "outfromv_varto_consistent",
    "varfrom_correct",
    "varto_correct",
    "var_useful",
    "classification_exclusive",
)


def validate_all(a: Architecture) -> ValidationReport:
    """Evaluate every well-formedness predicate with full witness lists."""
    comps = sorted(a.components)
    chans = sorted(a.chan_from_ch)
    verdicts: dict[str, Verdict] = {}

    verdicts["composition_diff_levels"] = _quantified(
        comps,
        lambda c: correct_composition_diff_levels(a, c),
        lambda c: f"{c} shares a level with one of its subcomponents",
    )
    verdicts["composition_var"] = _quantified(
        comps,
        lambda c: correct_composition_var(a, c),
        lambda c: f"a subcomponent of {c} holds a variable {c} does not",
    )
    verdicts["decomposition_var"] = _quantified(
        comps,
        lambda c: correct_decomposition_var(a, c),
        lambda c: f"two subcomponents of {c} share a variable",
    )
    verdicts["composition_out"] = _quantified(
        chans,
        lambda x: correct_composition_out(a, x),
        lambda x: f"{x} is produced by two components on one level",
    )
    verdicts["composition_subcomp"] = _quantified(
        comps,
        lambda c: correct_composition_subcomp(a, c),
        lambda c: f"{c} is a subcomponent of two components on one level",
    )
    if all_components_used(a):
        verdicts["all_components_used"] = Verdict(holds=True)
    else:
        on_levels: set[ComponentId] = set()
        for members in a.levels.values():
            on_levels |= members
        verdicts["all_components_used"] = Verdict(
            holds=False,
            witnesses=tuple(
                Witness((c,), f"{c} appears on no abstraction level")
                for c in sorted(set(a.components) - on_levels)
            ),
        )
    verdicts["outfromch_correct"] = _quantified(
        chans,
        lambda x: outfromch_correct(a, x),
        lambda x: f"no component consumes the deps of {x} and produces it",
    )
    verdicts["outfromv_correct1"] = _quantified(
        chans,
        lambda x: outfromv_correct1(a, x),
        lambda x: f"no component owns the variables of {x} and produces it",
    )
    verdicts["outfromv_correct2"] = _quantified(
        chans,
        lambda x: outfromv_correct2(a, x),
        lambda x: f"{x} has no variable deps yet is a variable target",
    )
    if outfromv_varto_consistent(a):
        verdicts["outfromv_varto_consistent"] = Verdict(holds=True)
    else:
        mismatches = []
        for x in chans:
            for v in sorted(a.var_from):
                if (v in a.chan_from_var[x]) != (x in a.var_to[v]):
                    mismatches.append(
                        Witness((x, v), f"chan_from_var/var_to disagree on ({x}, {v})")
                    )
        verdicts["outfromv_varto_consistent"] = Verdict(
            holds=False, witnesses=tuple(mismatches)
        )
    for name, check in (("varfrom_correct", varfrom_correct), ("varto_correct", varto_correct)):
        if check(a):
            verdicts[name] = Verdict(holds=True)
        else:
            levels = _default_level_pair(a)
            members: set[ComponentId] = set()
            for lvl in levels:
                members |= a.level_components(lvl)
            table = a.var_from if name == "varfrom_correct" else a.var_to
            side = "inputs" if name == "varfrom_correct" else "outputs"
            witnesses = []
            for z in sorted(members):
                for v in sorted(a.vars_of(z)):
                    ref = a.inputs_of(z) if name == "varfrom_correct" else a.outputs_of(z)
                    if not table[v] <= ref:
                        witnesses.append(
                            Witness((z, v), f"{v} of {z} uses channels outside its {side}")
                        )
            verdicts[name] = Verdict(holds=False, witnesses=tuple(witnesses))
    verdicts["var_useful"] = _quantified(
        sorted(a.var_to),
        lambda v: bool(a.var_to[v]),
        lambda v: f"{v} feeds no output channel",
    )
    # Exhaustive mutual-exclusivity check of the channel classification;
    # tautological by construction, reported for completeness.
    exclusive = all(
        isinstance(classify_channel(a, x, lvl), ChannelClass)
        for x in chans
        for lvl in a.levels
    )
    verdicts["classification_exclusive"] = Verdict(holds=exclusive)
    return ValidationReport(verdicts=verdicts)
