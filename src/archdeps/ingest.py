"""Architecture document parsing, canonical serialization, DOT export."""

from __future__ import annotations

import json
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter

from .model import _ARRAYS, _TABLES, Architecture, DocumentError, LevelId, _collector_paused

_TOP_LEVEL = ("components", *_TABLES, *_ARRAYS)  # Architecture.create's parameters


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


def _key_count(raw: object) -> int:
    # The keys of the top-level object, of the objects among its values and of
    # the component specs; -1, which no count matches, when the top level,
    # "components" or a spec is not an object: such a document fails to load.
    specs = raw.get("components", {}) if type(raw) is dict else None
    if type(specs) is not dict or not set(map(type, specs.values())) <= {dict}:
        return -1
    members = [value for value in raw.values() if type(value) is dict]
    return len(raw) + sum(map(len, members)) + sum(map(len, specs.values()))


def _decode(doc: str) -> object:
    """The decoded text; a DocumentError for malformed text or a key repeated
    in one object.

    A plain ``json.loads`` decodes. Each key-value pair of an object writes
    one ":" outside strings, so when the text holds as many ":" as the keys
    counted in the top level, its object members and the component specs, no
    key repeats and no other object holds one. Otherwise, and when the plain
    decode fails, the text is decoded again with the duplicate-key hook, which
    words any error as a DocumentError.
    """
    try:
        raw = json.loads(doc)
    except (ValueError, RecursionError):
        pass  # decoded again below, to word the error
    else:
        if doc.count(":") == _key_count(raw):
            return raw
    try:
        return json.loads(doc, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise DocumentError("arrays or objects nested too deeply") from exc
    except ValueError as exc:  # e.g. an integer literal past the digit limit
        raise DocumentError(f"unreadable value: {exc}") from exc


def parse(doc: str) -> Architecture:
    """Parse an architecture description document.

    Decodes the text, checks that the top level is an object of
    ``Architecture.create``'s parameters, and hands it to ``create``, which
    checks the shape, fills in what is missing and checks names, references
    and the subcomponent relation. Raises DocumentError on malformed text
    (with position for syntax errors), a key repeated in one object and a
    bad top level; ``create`` raises the shape breaches (a top-level null is
    one) and the InvalidIdentifierError, UnknownIdentifierError and
    SubcomponentCycleError, which pass through.

    The per-object duplicate-key hook runs only when a plain decode fails or
    a count of the text's ":" leaves a repeated key possible (see
    ``_decode``). Decoding and building run with the cyclic garbage collector
    paused: they make no cycles.
    """
    with _collector_paused():
        raw = _decode(doc)
        if not isinstance(raw, dict):
            raise DocumentError("top level must be an object")
        unknown = sorted(set(raw) - set(_TOP_LEVEL))
        if unknown:
            raise DocumentError(f"unknown top-level members: {', '.join(unknown)}")
        return Architecture.create(**raw)


@lru_cache(maxsize=1)
def case_study_fixture() -> Architecture:
    """The bundled four-level example system S, parsed from data/system_s.json."""
    from importlib import resources  # here, so other CLI calls do not import it

    path = resources.files(__package__) / "data" / "system_s.json"
    return parse(path.read_text(encoding="utf-8"))


class _Quoted(dict):
    """Name -> its JSON string text; a name it lacks is quoted and stored on first use."""

    def __missing__(self, name: str) -> str:
        self[name] = text = _quote(name)
        return text


def serialize(a: Architecture) -> str:
    """Canonical document text: total tables, lexicographic order everywhere.

    The bytes are those of ``json.dumps(tables, indent=2, sort_keys=True)``,
    written directly: with ``indent`` json.dumps runs its pure-Python encoder.
    Each distinct name is quoted once per call. Components, tables, members,
    table entries and levels are written as the model holds them, in name
    order; only the two arrays, held as sets, are sorted.
    """
    quoted = _Quoted()  # the four universes hold every name of a created model
    for names in (a.components, a.chan_from_ch, a.var_from, a.levels):
        quoted.update(zip(names, map(_quote, names)))
    quote = quoted.__getitem__

    def arrays(entries, pad: str) -> list[str]:
        # Each entry, its names in name order, as a JSON array with an item per line, as
        # json.dumps(indent=2) lays it out; pad is the newline and indent of the array's line.
        head, sep, tail = "[" + pad + "  ", "," + pad + "  ", pad + "]"
        return [head + sep.join(map(quote, s)) + tail if s else "[]" for s in entries]

    def obj(keys, members, pad: str) -> str:
        # One JSON object from its keys, in name order, and their member texts.
        head, sep, tail = "{" + pad + "  ", "," + pad + "  ", pad + "}"
        pairs = map("{}: {}".format, map(quote, keys), members)
        return head + sep.join(pairs) + tail if keys else "{}"

    def table(mapping) -> str:
        return obj(mapping, arrays(mapping.values(), "\n    "), "\n  ")

    records = a.components.values()
    leaf = "\n      "
    fields = ("inputs", "outputs", "subcomponents", "vars")  # the members' key order
    columns = (arrays(map(attrgetter(f), records), leaf) for f in fields)
    members = {key: table(getattr(a, key)) for key in _TABLES}
    members.update(zip(_ARRAYS, arrays(map(sorted, attrgetter(*_ARRAYS)(a)), "\n  ")))
    members["components"] = obj(a.components, [
        f'{{{leaf}"in": {i},{leaf}"out": {o},{leaf}"subcomp": {s},{leaf}"var": {v}\n    }}'
        for i, o, s, v in zip(*columns)
    ], "\n  ")
    keys = sorted(members)
    return obj(keys, map(members.__getitem__, keys), "\n") + "\n"


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
    names = [*index.members, *index.producers]  # every node, and every channel an edge carries
    ids = dict(zip(names, map(_dot_id, names)))
    lines = [f"digraph {_dot_id(level)} {{"]
    for node in a.levels[level]:
        attrs = ""
        if node in marks:
            attrs = " [fillcolor=lightgreen,style=filled]"
        lines.append(f"  {ids[node]}{attrs};")
    edges = sorted(
        (producer, consumer, chan)
        for chan, producers in index.producers.items()
        for producer in producers
        for consumer in index.consumers.get(chan, ())
    )
    for producer, consumer, chan in edges:
        attrs = f"label={ids[chan]}"
        if chan in a.highload_channels:
            attrs += ",penwidth=3,color=red"
        lines.append(f"  {ids[producer]} -> {ids[consumer]} [{attrs}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
