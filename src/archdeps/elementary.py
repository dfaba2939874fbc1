"""Output-channel correlation and elementary-component classification."""

from __future__ import annotations

from .model import Architecture, ChannelId, ComponentId, LevelId


def out_pair_correlated(
    a: Architecture, c: ComponentId, x: ChannelId, y: ChannelId
) -> bool:
    """True when x and y are outputs of c sharing a local-variable dependency."""
    a.require_channel(x)
    a.require_channel(y)
    outputs = a.outputs_of(c)
    return (
        x in outputs
        and y in outputs
        and not frozenset(a.chan_from_var[x]).isdisjoint(a.chan_from_var[y])
    )


def out_set_correlated(a: Architecture, x: ChannelId) -> frozenset[ChannelId]:
    """Channels fed by a variable that also feeds x."""
    a.require_channel(x)
    return frozenset().union(*map(a.var_to.__getitem__, a.chan_from_var[x]))


def is_elementary(a: Architecture, c: ComponentId) -> bool:
    """Single output, or all output pairs share correlated variable deps.

    A component with no outputs counts as elementary (vacuous condition).
    An output's correlation set depends only on its variable deps, so one
    set is built per distinct deps set. When one channel lies in all of
    them, every pair meets and the answer is found in linear time;
    otherwise the distinct sets are intersected pairwise, each also with
    itself for the non-empty check, so the worst case stays quadratic in
    the number of distinct sets.
    """
    a.require_component(c)
    outputs = a.components[c].outputs
    if len(outputs) <= 1:
        return True
    var_to = a.var_to  # out_set_correlated per deps set, unchecked: outputs are declared channels
    corr = list({frozenset().union(*map(var_to.__getitem__, deps))
                 for deps in set(map(a.chan_from_var.__getitem__, outputs))})
    if frozenset.intersection(*corr):
        return True
    return all(p & q for i, p in enumerate(corr) for q in corr[i:])


def elementary_report(
    a: Architecture, level: LevelId
) -> dict[ComponentId, bool]:
    """Elementary verdict for every component on the level, in name order."""
    a.require_level(level)
    return {c: is_elementary(a, c) for c in a.levels[level]}
