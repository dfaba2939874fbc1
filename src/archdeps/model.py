"""Immutable architecture model: components, channels, variables, levels.

All dependency tables are total mappings: an identifier without an explicit
entry maps to the empty set. Identifier universes are closed once an
Architecture is constructed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Mapping

ComponentId = str
ChannelId = str
VariableId = str
LevelId = str


class ModelError(Exception):
    """Base class for architecture model errors."""


class InvalidIdentifierError(ModelError):
    """An identifier token is empty or contains whitespace."""


class UnknownIdentifierError(ModelError):
    """A name is referenced but never declared in its universe."""


class SubcomponentCycleError(ModelError):
    """The subcomponent relation contains a cycle."""


@dataclass(frozen=True)
class ComponentRecord:
    inputs: frozenset[ChannelId]
    outputs: frozenset[ChannelId]
    vars: frozenset[VariableId]
    subcomponents: frozenset[ComponentId]


def _check_token(name: str, kind: str) -> None:
    if not isinstance(name, str) or not name or any(c.isspace() for c in name):
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


@dataclass(frozen=True)
class LevelIndex:
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

    @classmethod
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


@dataclass(frozen=True)
class HierarchyIndex:
    """The subcomponent hierarchy and the document-wide channel tables.

    ``parents[level][c]``: the level's components with c as a subcomponent.
    ``levels_of[c]``: the levels c is on. ``producers[x]``: every component,
    on a level or not, with x among its outputs. ``targeted_by[x]``: the
    variables whose ``var_to`` holds x. All in name order; a missing key
    means none. ``finest_first``: the levels by the largest subcomponent
    height among their members (an undecomposed component has height 0),
    ties by name.
    """

    parents: Mapping[LevelId, Mapping[ComponentId, tuple[ComponentId, ...]]]
    levels_of: Mapping[ComponentId, tuple[LevelId, ...]]
    producers: Mapping[ChannelId, tuple[ComponentId, ...]]
    targeted_by: Mapping[ChannelId, tuple[VariableId, ...]]
    finest_first: tuple[LevelId, ...]

    @classmethod
    def build(cls, a: "Architecture") -> "HierarchyIndex":
        components, levels = a.components, a.levels
        # Iterative, because chains run deeper than the recursion limit; the
        # relation is acyclic, which create checks.
        height: dict[ComponentId, int] = {}
        for root in components:
            stack = [root]
            while stack:
                c = stack.pop()
                if c in height:
                    continue
                subs = components[c].subcomponents
                if all(s in height for s in subs):
                    height[c] = 1 + max((height[s] for s in subs), default=-1)
                else:
                    stack.append(c)
                    stack.extend(subs)
        return cls(
            parents={
                lvl: _inverse((c, components[c].subcomponents) for c in sorted(levels[lvl]))
                for lvl in sorted(levels)
            },
            levels_of=_inverse((lvl, levels[lvl]) for lvl in sorted(levels)),
            producers=_inverse((c, components[c].outputs) for c in sorted(components)),
            targeted_by=_inverse((v, a.var_to[v]) for v in sorted(a.var_to)),
            finest_first=tuple(sorted(
                levels, key=lambda lvl: (max((height[c] for c in levels[lvl]), default=0), lvl)
            )),
        )


@dataclass(frozen=True)
class Architecture:
    """Complete, validated analysis input.

    Construct through :meth:`create`, which normalizes the tables and
    enforces referential closure and subcomponent acyclicity.
    """

    components: Mapping[ComponentId, ComponentRecord]
    levels: Mapping[LevelId, frozenset[ComponentId]]
    chan_from_ch: Mapping[ChannelId, frozenset[ChannelId]]
    chan_from_var: Mapping[ChannelId, frozenset[VariableId]]
    var_from: Mapping[VariableId, frozenset[ChannelId]]
    var_to: Mapping[VariableId, frozenset[ChannelId]]
    highload_channels: frozenset[ChannelId]
    highperf_components: frozenset[ComponentId]

    @classmethod
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
        components = components or {}
        levels = levels or {}
        chan_from_ch = chan_from_ch or {}
        chan_from_var = chan_from_var or {}
        var_from = var_from or {}
        var_to = var_to or {}

        records: dict[ComponentId, ComponentRecord] = {}
        for name, spec in components.items():
            _check_token(name, "component")
            records[name] = ComponentRecord(
                inputs=frozenset(spec.get("in", ())),
                outputs=frozenset(spec.get("out", ())),
                vars=frozenset(spec.get("var", ())),
                subcomponents=frozenset(spec.get("subcomp", ())),
            )

        comp_universe = frozenset(records)
        chans = set(chan_from_ch)
        chans.update(chan_from_var)
        variables = set(var_from)
        variables.update(var_to)
        for rec in records.values():
            chans.update(rec.inputs)
            chans.update(rec.outputs)
            variables.update(rec.vars)
        chan_universe = frozenset(chans)
        var_universe = frozenset(variables)

        for name in chan_universe:
            _check_token(name, "channel")
        for name in var_universe:
            _check_token(name, "variable")
        for name in levels:
            _check_token(name, "level")

        def check_refs(kind: str, referenced: Iterable[str], universe: frozenset[str], where: str) -> None:
            unknown = sorted(set(referenced) - universe)
            if unknown:
                raise UnknownIdentifierError(
                    f"undeclared {kind} {', '.join(unknown)} referenced in {where}"
                )

        for name, rec in records.items():
            check_refs("component", rec.subcomponents, comp_universe, f"subcomp of {name}")
            check_refs("variable", rec.vars, var_universe, f"var of {name}")
        for lvl, members in levels.items():
            check_refs("component", members, comp_universe, f"level {lvl}")
        for chan, dep in chan_from_ch.items():
            check_refs("channel", dep, chan_universe, f"chan_from_ch of {chan}")
        for chan, dep in chan_from_var.items():
            check_refs("variable", dep, var_universe, f"chan_from_var of {chan}")
        for var, dep in var_from.items():
            check_refs("channel", dep, chan_universe, f"var_from of {var}")
        for var, dep in var_to.items():
            check_refs("channel", dep, chan_universe, f"var_to of {var}")
        check_refs("channel", highload_channels, chan_universe, "highload_channels")
        check_refs("component", highperf_components, comp_universe, "highperf_components")

        arch = cls(
            components={k: records[k] for k in sorted(records)},
            levels={k: frozenset(levels[k]) for k in sorted(levels)},
            chan_from_ch={c: frozenset(chan_from_ch.get(c, ())) for c in sorted(chan_universe)},
            chan_from_var={c: frozenset(chan_from_var.get(c, ())) for c in sorted(chan_universe)},
            var_from={v: frozenset(var_from.get(v, ())) for v in sorted(var_universe)},
            var_to={v: frozenset(var_to.get(v, ())) for v in sorted(var_universe)},
            highload_channels=frozenset(highload_channels),
            highperf_components=frozenset(highperf_components),
        )
        arch._check_subcomp_acyclic()
        return arch

    def _check_subcomp_acyclic(self) -> None:
        # Iterative DFS; HighPerf recursion and level flattening rely on this.
        state: dict[ComponentId, int] = {}  # 1 = on stack, 2 = done
        for root in self.components:
            if state.get(root):
                continue
            stack: list[tuple[ComponentId, Iterable[ComponentId]]] = [
                (root, iter(sorted(self.components[root].subcomponents)))
            ]
            state[root] = 1
            path = [root]
            while stack:
                node, children = stack[-1]
                child = next(children, None)
                if child is None:
                    stack.pop()
                    path.pop()
                    state[node] = 2
                    continue
                if state.get(child) == 1:
                    cycle = path[path.index(child):] + [child]
                    raise SubcomponentCycleError(
                        "subcomponent cycle: " + " -> ".join(cycle)
                    )
                if not state.get(child):
                    state[child] = 1
                    path.append(child)
                    stack.append((child, iter(sorted(self.components[child].subcomponents))))

    # -- universes ---------------------------------------------------------

    @property
    def component_ids(self) -> frozenset[ComponentId]:
        return frozenset(self.components)

    @property
    def channel_ids(self) -> frozenset[ChannelId]:
        return frozenset(self.chan_from_ch)

    @property
    def variable_ids(self) -> frozenset[VariableId]:
        return frozenset(self.var_from)

    @property
    def level_ids(self) -> frozenset[LevelId]:
        return frozenset(self.levels)

    # -- lookups (total; unknown identifiers are an error) -----------------

    def require_component(self, c: ComponentId) -> None:
        if c not in self.components:
            raise UnknownIdentifierError(f"unknown component: {c}")

    def require_channel(self, x: ChannelId) -> None:
        if x not in self.chan_from_ch:
            raise UnknownIdentifierError(f"unknown channel: {x}")

    def require_variable(self, v: VariableId) -> None:
        if v not in self.var_from:
            raise UnknownIdentifierError(f"unknown variable: {v}")

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

    # -- per-level index (built on first use, not a dataclass field) --------

    @cached_property
    def _level_indexes(self) -> dict[LevelId, LevelIndex]:
        # Lives in the instance __dict__, outside the fields, so it takes no
        # part in ==, repr or serialization.
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


_FIXTURE_IN = {
    "sA1": ["data1"],
    "sA2": ["data2", "data3"],
    "sA3": ["data4", "data5"],
    "sA4": ["data6", "data7", "data13"],
    "sA5": ["data8"],
    "sA6": ["data14"],
    "sA7": ["data15", "data16"],
    "sA8": ["data17", "data18", "data19", "data22"],
    "sA9": ["data20", "data21"],
    "sA11": ["data1"],
    "sA12": ["data1"],
    "sA21": ["data2"],
    "sA22": ["data2", "data3"],
    "sA23": ["data2"],
    "sA31": ["data4"],
    "sA32": ["data5"],
    "sA41": ["data6", "data7"],
    "sA42": ["data13"],
    "sA71": ["data15"],
    "sA72": ["data16"],
    "sA81": ["data17", "data22"],
    "sA82": ["data18", "data19"],
    "sA91": ["data20"],
    "sA92": ["data20"],
    "sA93": ["data21"],
    "sS1": ["data1"],
    "sS2": ["data1"],
    "sS3": ["data2"],
    "sS4": ["data2"],
    "sS5": ["data5"],
    "sS6": ["data2", "data7"],
    "sS7": ["data13"],
    "sS8": ["data8"],
    "sS9": ["data14"],
    "sS10": ["data15"],
    "sS11": ["data16"],
    "sS12": ["data17"],
    "sS13": ["data20"],
    "sS14": ["data18", "data19"],
    "sS15": ["data21"],
    "sS1opt": ["data1"],
    "sS4opt": ["data2"],
    "sS7opt": ["data13"],
    "sS11opt": ["data16", "data19"],
}

_FIXTURE_OUT = {
    "sA1": ["data2", "data10"],
    "sA2": ["data4", "data5", "data11", "data12"],
    "sA3": ["data6", "data7"],
    "sA4": ["data3", "data8"],
    "sA5": ["data9"],
    "sA6": ["data15", "data16"],
    "sA7": ["data17", "data18"],
    "sA8": ["data20", "data21"],
    "sA9": ["data22", "data23", "data24"],
    "sA11": ["data2"],
    "sA12": ["data10"],
    "sA21": ["data11"],
    "sA22": ["data4", "data12"],
    "sA23": ["data5"],
    "sA31": ["data6"],
    "sA32": ["data7"],
    "sA41": ["data3"],
    "sA42": ["data8"],
    "sA71": ["data17"],
    "sA72": ["data18"],
    "sA81": ["data20"],
    "sA82": ["data21"],
    "sA91": ["data22"],
    "sA92": ["data23"],
    "sA93": ["data24"],
    "sS1": ["data10"],
    "sS2": ["data2"],
    "sS3": ["data11"],
    "sS4": ["data5"],
    "sS5": ["data7"],
    "sS6": ["data12"],
    "sS7": ["data8"],
    "sS8": ["data9"],
    "sS9": ["data15", "data16"],
    "sS10": ["data17"],
    "sS11": ["data18"],
    "sS12": ["data20"],
    "sS13": ["data23"],
    "sS14": ["data21"],
    "sS15": ["data24"],
    "sS1opt": ["data2", "data10"],
    "sS4opt": ["data12"],
    "sS7opt": ["data9"],
    "sS11opt": ["data24"],
}

_FIXTURE_VAR = {
    "sA1": ["stA1"],
    "sA2": ["stA2"],
    "sA4": ["stA4"],
    "sA6": ["stA6"],
    "sA12": ["stA1"],
    "sA22": ["stA2"],
    "sA41": ["stA4"],
    "sS1": ["stA1"],
    "sS6": ["stA2", "stA4"],
    "sS9": ["stA6"],
    "sS1opt": ["stA1"],
    "sS4opt": ["stA2", "stA4"],
}

_FIXTURE_SUBCOMP = {
    "sA1": ["sA11", "sA12"],
    "sA2": ["sA21", "sA22", "sA23"],
    "sA3": ["sA31", "sA32"],
    "sA4": ["sA41", "sA42"],
    "sA7": ["sA71", "sA72"],
    "sA8": ["sA81", "sA82"],
    "sA9": ["sA91", "sA92", "sA93"],
    "sS1": ["sA12"],
    "sS2": ["sA11"],
    "sS3": ["sA21"],
    "sS4": ["sA23"],
    "sS5": ["sA32"],
    "sS6": ["sA22", "sA31", "sA41"],
    "sS7": ["sA42"],
    "sS8": ["sA5"],
    "sS9": ["sA6"],
    "sS10": ["sA71"],
    "sS11": ["sA72"],
    "sS12": ["sA81", "sA91"],
    "sS13": ["sA92"],
    "sS14": ["sA82"],
    "sS15": ["sA93"],
    "sS1opt": ["sA11", "sA12"],
    "sS4opt": ["sA22", "sA23", "sA31", "sA32", "sA41"],
    "sS7opt": ["sA42", "sA5"],
    "sS11opt": ["sA72", "sA82", "sA93"],
}

_FIXTURE_LEVELS = {
    "level0": ["sA1", "sA2", "sA3", "sA4", "sA5", "sA6", "sA7", "sA8", "sA9"],
    "level1": [
        "sA11", "sA12", "sA21", "sA22", "sA23", "sA31", "sA32", "sA41", "sA42",
        "sA5", "sA6", "sA71", "sA72", "sA81", "sA82", "sA91", "sA92", "sA93",
    ],
    "level2": [
        "sS1", "sS2", "sS3", "sS4", "sS5", "sS6", "sS7", "sS8",
        "sS9", "sS10", "sS11", "sS12", "sS13", "sS14", "sS15",
    ],
    "level3": [
        "sS1opt", "sS3", "sS4opt", "sS7opt", "sS9",
        "sS10", "sS11opt", "sS12", "sS13",
    ],
}

_FIXTURE_CHAN_FROM_CH = {
    "data1": [],
    "data2": ["data1"],
    "data3": [],
    "data4": ["data2"],
    "data5": ["data2"],
    "data6": ["data4"],
    "data7": ["data5"],
    "data8": ["data13"],
    "data9": ["data8"],
    "data10": [],
    "data11": ["data2"],
    "data12": [],
    "data13": [],
    "data14": [],
    "data15": [],
    "data16": [],
    "data17": ["data15"],
    "data18": ["data16"],
    "data19": [],
    "data20": ["data17", "data22"],
    "data21": ["data18", "data19"],
    "data22": ["data20"],
    "data23": ["data21"],
    "data24": ["data20"],
}

_FIXTURE_CHAN_FROM_VAR = {
    "data3": ["stA4"],
    "data4": ["stA2"],
    "data10": ["stA1"],
    "data12": ["stA2"],
    "data15": ["stA6"],
    "data16": ["stA6"],
}

_FIXTURE_VAR_FROM = {
    "stA1": ["data1"],
    "stA2": ["data3"],
    "stA4": ["data6", "data7"],
    "stA6": ["data14"],
}

_FIXTURE_VAR_TO = {
    "stA1": ["data10"],
    "stA2": ["data4", "data12"],
    "stA4": ["data3"],
    "stA6": ["data15", "data16"],
}

_FIXTURE_HIGHLOAD = [
    "data1", "data4", "data5", "data6", "data7", "data8", "data18", "data21",
]

_FIXTURE_HIGHPERF = ["sA22", "sA23", "sA41", "sA42", "sA72", "sA93"]


@lru_cache(maxsize=1)
def case_study_fixture() -> Architecture:
    """The bundled four-level example system S."""
    components = {
        name: {
            "in": _FIXTURE_IN.get(name, []),
            "out": _FIXTURE_OUT.get(name, []),
            "var": _FIXTURE_VAR.get(name, []),
            "subcomp": _FIXTURE_SUBCOMP.get(name, []),
        }
        for name in _FIXTURE_IN
    }
    return Architecture.create(
        components=components,
        levels=_FIXTURE_LEVELS,
        chan_from_ch=_FIXTURE_CHAN_FROM_CH,
        chan_from_var=_FIXTURE_CHAN_FROM_VAR,
        var_from=_FIXTURE_VAR_FROM,
        var_to=_FIXTURE_VAR_TO,
        highload_channels=_FIXTURE_HIGHLOAD,
        highperf_components=_FIXTURE_HIGHPERF,
    )
