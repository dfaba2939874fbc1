"""Minimal component slice for checking a property over a set of channels."""

from __future__ import annotations

from typing import NamedTuple

from .model import Architecture, ChannelId, ComponentId, LevelId, LevelIndex


class SliceReport(NamedTuple):
    level: LevelId
    property_channels: frozenset[ChannelId]
    out_components: frozenset[ComponentId]
    min_components: frozenset[ComponentId]
    no_irrelevant: bool
    all_needed: bool
    system_inputs_in_property: frozenset[ChannelId]


def _require_channels(a: Architecture, chset) -> frozenset[ChannelId]:
    chset = frozenset(chset)
    for x in sorted(chset):
        a.require_channel(x)
    return chset


def in_set_of_components(
    a: Architecture, level: LevelId, chset
) -> frozenset[ComponentId]:
    """Level components consuming at least one channel from the set."""
    chset = _require_channels(a, chset)
    consumers = a.level_index(level).consumers
    return frozenset(c for x in chset for c in consumers.get(x, ()))


def _out_set(index: LevelIndex, chset) -> frozenset[ComponentId]:
    producers = index.producers
    return frozenset(c for x in chset for c in producers.get(x, ()))


def out_set_of_components(
    a: Architecture, level: LevelId, chset
) -> frozenset[ComponentId]:
    """Level components producing at least one channel from the set."""
    chset = _require_channels(a, chset)
    return _out_set(a.level_index(level), chset)


def min_set_of_components(
    a: Architecture, level: LevelId, chset
) -> frozenset[ComponentId]:
    """Producers of the property channels plus everything feeding them."""
    chset = _require_channels(a, chset)
    index = a.level_index(level)
    return index.reach(index.feeders, _out_set(index, chset))


def no_irrelevant_channels(a: Architecture, level: LevelId, chset) -> bool:
    """Every system input in the set is consumed inside the minimal slice."""
    return slice_report(a, level, chset).no_irrelevant


def all_needed_in_channels(a: Architecture, level: LevelId, chset) -> bool:
    """Each slice component has an input that is either internal or listed."""
    return slice_report(a, level, chset).all_needed


def slice_report(a: Architecture, level: LevelId, chset) -> SliceReport:
    """Assemble the slice, its verdicts, and the property's system inputs.

    The minimal set is one ``reach`` over the index's ``feeders``, seeded
    with the whole out set.
    """
    chset = _require_channels(a, chset)
    index = a.level_index(level)
    out_set = _out_set(index, chset)
    min_set = index.reach(index.feeders, out_set)
    producers, feeders, components = index.producers, index.feeders, a.components
    system_inputs = frozenset(x for x in chset if x in index.consumers and x not in producers)
    return SliceReport(
        level=level,
        property_channels=chset,
        out_components=out_set,
        min_components=min_set,
        no_irrelevant=all(
            any(z in min_set for z in index.consumers[x]) for x in system_inputs
        ),
        # z has an input produced on the level exactly when its feeders entry
        # is non-empty; otherwise one of its inputs must be listed.
        all_needed=all(
            feeders[z] or not chset.isdisjoint(components[z].inputs) for z in min_set
        ),
        system_inputs_in_property=system_inputs,
    )
