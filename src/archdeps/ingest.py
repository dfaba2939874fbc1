"""Architecture document parsing, canonical serialization, DOT export."""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

from .model import _MEMBERS, Architecture, LevelId, ModelError, _collector_paused

_TABLES = ("levels", "chan_from_ch", "chan_from_var", "var_from", "var_to")
_ARRAYS = ("highload_channels", "highperf_components")
_TOP_LEVEL = ("components", *_TABLES, *_ARRAYS)  # Architecture.create's parameters

_MEMBER_SET = frozenset(_MEMBERS)


class DocumentError(ModelError):
    """The document text is not a well-formed architecture description."""


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    # json.loads's object_pairs_hook: the object, unless a key repeats.
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise DocumentError(f"duplicate key: {key!r}")
            seen.add(key)
    return obj


def _well_shaped(raw: dict) -> bool:
    """Whether the decoded document has the shape ``_raise_first_breach`` checks.

    A few passes over whole columns, each a C loop: every component and
    table is an object, every component member known, every array a list
    and every array element a string.
    """
    components = raw.get("components", {})
    tables = [raw.get(key, {}) for key in _TABLES]
    if type(components) is not dict or not set(map(type, tables)) <= {dict}:
        return False
    specs = components.values()
    if not set(map(type, specs)) <= {dict} or not _MEMBER_SET.issuperset(chain.from_iterable(specs)):
        return False
    arrays = [
        *chain.from_iterable(map(dict.values, specs)),
        *chain.from_iterable(map(dict.values, tables)),
        *(raw.get(key, []) for key in _ARRAYS),
    ]
    return set(map(type, arrays)) <= {list} and set(map(type, chain.from_iterable(arrays))) <= {str}


def _is_string_array(value: object) -> bool:
    return isinstance(value, list) and set(map(type, value)) <= {str}


def _raise_first_breach(raw: dict) -> None:
    """Raise DocumentError for the first shape breach in document order.

    The per-entry form of ``_well_shaped``, run only when that fails, so a
    location is built only for the breach it names.
    """
    components = raw.get("components", {})
    if not isinstance(components, dict):
        raise DocumentError("components must be an object")
    for name, spec in components.items():
        if not isinstance(spec, dict):
            raise DocumentError(f"components[{name}] must be an object")
        extra = sorted(set(spec) - _MEMBER_SET)
        if extra:
            raise DocumentError(f"components[{name}] has unknown members: {', '.join(extra)}")
        for member in _MEMBERS:
            if not _is_string_array(spec.get(member, [])):
                raise DocumentError(
                    f"components[{name}].{member} must be an array of identifier strings"
                )
    for key in _TABLES:
        table = raw.get(key, {})
        if not isinstance(table, dict):
            raise DocumentError(f"{key} must be an object")
        for owner, members in table.items():
            if not _is_string_array(members):
                raise DocumentError(f"{key}[{owner}] must be an array of identifier strings")
    for key in _ARRAYS:
        if not _is_string_array(raw.get(key, [])):
            raise DocumentError(f"{key} must be an array of identifier strings")


def parse(doc: str) -> Architecture:
    """Parse an architecture description document.

    Checks the shape of the decoded JSON in place, then hands it to
    ``Architecture.create``, which fills in what is missing and checks names,
    references and the subcomponent relation. Raises DocumentError on
    malformed text (with position for syntax errors) or a key repeated in
    one object, and the model's InvalidIdentifierError,
    UnknownIdentifierError and SubcomponentCycleError. Decoding and building
    run with the cyclic garbage collector paused: they make no cycles.
    """
    with _collector_paused():
        try:
            raw = json.loads(doc, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise DocumentError(
                f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        except RecursionError as exc:
            raise DocumentError("arrays or objects nested too deeply") from exc
        except ValueError as exc:  # e.g. an integer literal past the digit limit
            raise DocumentError(f"unreadable value: {exc}") from exc
        if not isinstance(raw, dict):
            raise DocumentError("top level must be an object")
        unknown = sorted(set(raw) - set(_TOP_LEVEL))
        if unknown:
            raise DocumentError(f"unknown top-level members: {', '.join(unknown)}")
        if not _well_shaped(raw):
            _raise_first_breach(raw)
        return Architecture.create(**raw)


@lru_cache(maxsize=1)
def case_study_fixture() -> Architecture:
    """The bundled four-level example system S, parsed from data/system_s.json."""
    from importlib import resources  # here, so other CLI calls do not import it

    path = resources.files(__package__) / "data" / "system_s.json"
    return parse(path.read_text(encoding="utf-8"))


def _array(names, pad: str) -> str:
    # One JSON array of sorted strings, an item per line, as json.dumps(indent=2)
    # lays it out; pad is the newline and indent of the array's own line.
    if not names:
        return "[]"
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(map(_quote, sorted(names))) + pad + "]"


def _object(entries, pad: str) -> str:
    # One JSON object from (key, member text) pairs already in key order.
    if not entries:
        return "{}"
    inner = pad + "  "
    return "{" + inner + ("," + inner).join(_quote(k) + ": " + v for k, v in entries) + pad + "}"


def serialize(a: Architecture) -> str:
    """Canonical document text: total tables, lexicographic order everywhere.

    The bytes are those of ``json.dumps(tables, indent=2, sort_keys=True)``,
    written directly: with ``indent`` json.dumps runs its pure-Python encoder.
    """
    def table(mapping) -> str:
        return _object([(k, _array(v, "\n    ")) for k, v in sorted(mapping.items())], "\n  ")

    leaf = "\n      "
    components = _object([
        (name, _object([
            ("in", _array(rec.inputs, leaf)),
            ("out", _array(rec.outputs, leaf)),
            ("subcomp", _array(rec.subcomponents, leaf)),
            ("var", _array(rec.vars, leaf)),
        ], "\n    "))
        for name, rec in sorted(a.components.items())
    ], "\n  ")
    return _object([
        ("chan_from_ch", table(a.chan_from_ch)),
        ("chan_from_var", table(a.chan_from_var)),
        ("components", components),
        ("highload_channels", _array(a.highload_channels, "\n  ")),
        ("highperf_components", _array(a.highperf_components, "\n  ")),
        ("levels", table(a.levels)),
        ("var_from", table(a.var_from)),
        ("var_to", table(a.var_to)),
    ], "\n") + "\n"


def _dot_id(name: str) -> str:
    # DOT quoted string: escape the backslash first, then the quote.
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(a: Architecture, level: LevelId) -> str:
    """Render one level as a Graphviz digraph.

    Components become nodes, producer-to-consumer channels become labeled
    edges. High-load channels are drawn thick and red; components requiring
    high-performance execution are filled light green.
    """
    index = a.level_index(level)
    marks = a.highperf_marks
    lines = [f"digraph {_dot_id(level)} {{"]
    for node in sorted(index.members):
        attrs = ""
        if node in marks:
            attrs = " [fillcolor=lightgreen,style=filled]"
        lines.append(f"  {_dot_id(node)}{attrs};")
    edges = sorted(
        (producer, consumer, chan)
        for chan, producers in index.producers.items()
        for producer in producers
        for consumer in index.consumers.get(chan, ())
    )
    for producer, consumer, chan in edges:
        attrs = f"label={_dot_id(chan)}"
        if chan in a.highload_channels:
            attrs += ",penwidth=3,color=red"
        lines.append(f"  {_dot_id(producer)} -> {_dot_id(consumer)} [{attrs}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
