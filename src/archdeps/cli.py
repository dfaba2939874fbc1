"""Command-line driver for the architecture dependency analyses."""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path
from typing import Collection

from . import ingest  # each handler imports the analysis it runs, and no other
from .model import Architecture, ModelError, _collector_paused

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2
EXIT_USAGE = 64

# What a subcommand returns: JSON payload (None when the text is the answer
# in both modes), text output and exit code.
_Result = tuple[dict | None, str, int]
# A name in a message may hold a line break; write it as an escape so an error stays one line.
_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        try:
            sys.stdout.write(text)
        except UnicodeEncodeError as exc:  # the encoding lacks a character of a name; nothing is written
            raise OSError(f"stdout cannot encode {exc.object[exc.start:exc.end]!r} as {exc.encoding}") from exc


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load(path: str) -> Architecture:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ingest.DocumentError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc
    # The model lives until the process exits: freeze it before any collection scans it.
    with _collector_paused():
        a = ingest.parse(text)
        gc.freeze()
    return a


def _channels_arg(raw: str) -> list[str]:
    return [x for x in raw.split(",") if x]


def _partition(part) -> _Result:  # part: an optimize.LevelPartition
    groups = [(sorted(g), mark) for g, mark in zip(part.groups, part.high_perf)]
    payload = {
        "level": part.source_level,
        "groups": [{"members": m, "high_perf": mark} for m, mark in groups],
    }
    text = "".join(" ".join(m) + ("  [high-perf]" if mark else "") + "\n" for m, mark in groups)
    return payload, text, EXIT_OK


def _sorted_names(key: str, names) -> _Result:
    names = sorted(names)
    return {key: names}, " ".join(names) + "\n", EXIT_OK


def build_parser(commands: Collection[str] | None = None) -> argparse.ArgumentParser:
    """The parser with subparsers for ``commands`` only (all by default); its usage
    line names every subcommand either way, so it prints as the full parser does."""
    commands = _COMMANDS if commands is None else commands
    parser = _Parser(
        prog="archdeps",
        description="Component data-dependency analysis of layered architectures.",
    )
    every = None if set(_COMMANDS) <= set(commands) else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser, metavar=every)

    def add(name: str, level: bool = False, **kwargs) -> argparse.ArgumentParser | None:
        if name not in commands:
            return None
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if level:
            p.add_argument("--level", required=True)
        if name != "fixture":
            p.add_argument("file")
        return p

    add("validate", help="run all well-formedness predicates")

    if p := add("sources", level=True, help="dependency set of one component on a level"):
        p.add_argument("--component", required=True)
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--direct", action="store_true", help="direct sources only")
        mode.add_argument("--acc", action="store_true", help="transitive accessors")
        mode.add_argument("--dacc", action="store_true", help="direct accessors")

    if p := add("slice", level=True, help="minimal component set for a channel property"):
        p.add_argument("--channels", required=True, help="comma-separated, no spaces")

    add("elementary", level=True, help="elementary classification of a level")
    add("classify", level=True, help="classify every channel on a level")

    if p := add("chan-deps", help="channel dependency set"):
        p.add_argument("--channel", required=True)
        p.add_argument("--transitive", action="store_true")

    add("condense", level=True, help="strongly-connected-component partition of a level")
    add("optimize", level=True, help="high-load channel grouping of a level")

    if p := add("check-refinement", help="check a coarse level refines a fine one"):
        p.add_argument("--fine", required=True)
        p.add_argument("--coarse", required=True)

    if p := add("export-dot", level=True, help="Graphviz digraph of a level"):
        p.add_argument("-o", "--output")

    if p := add("fixture", help="emit the bundled case-study document"):
        p.add_argument("-o", "--output")

    return parser


def _cmd_validate(a: Architecture, args) -> _Result:
    from . import validate
    report = validate.validate_all(a)
    payload = {
        "all_hold": report.all_hold,
        "predicates": {
            name: {
                "holds": v.holds,
                "witnesses": [w._asdict() for w in v.witnesses],
            }
            for name, v in report.verdicts.items()
        },
    }
    text = "".join(
        f"{name}: {'holds' if v.holds else 'violated'}\n"
        + "".join(f"  {', '.join(w.entities)}: {w.reason}\n" for w in v.witnesses)
        for name, v in report.verdicts.items()
    )
    return payload, text, EXIT_OK if report.all_hold else EXIT_VIOLATION


def _cmd_sources(a: Architecture, args) -> _Result:
    from . import deps
    queries = {"direct": deps.dsources, "acc": deps.acc, "dacc": deps.dacc}
    query = next((f for flag, f in queries.items() if getattr(args, flag)), deps.sources)
    return _sorted_names("components", query(a, args.level, args.component))


def _cmd_slice(a: Architecture, args) -> _Result:
    from . import slicing
    report = slicing.slice_report(a, args.level, _channels_arg(args.channels))
    # The report's fields as JSON, each set as a sorted list; the text labels them in field order.
    payload = {key: sorted(v) if isinstance(v, frozenset) else v for key, v in report._asdict().items()}
    labels = ("level", "channels", "out components", "min components", "no irrelevant channels",
              "all needed inputs listed", "system inputs in property")
    text = "".join(
        f"{label}: {' '.join(v) if isinstance(v, list) else v}\n" for label, v in zip(labels, payload.values())
    )
    ok = report.no_irrelevant and report.all_needed
    return payload, text, EXIT_OK if ok else EXIT_VIOLATION


def _cmd_elementary(a: Architecture, args) -> _Result:
    from . import elementary
    report = elementary.elementary_report(a, args.level)
    text = "".join(
        f"{comp}: {'elementary' if verdict else 'not elementary'}\n"
        for comp, verdict in report.items()
    )
    return report, text, EXIT_OK


def _cmd_classify(a: Architecture, args) -> _Result:
    from . import validate
    a.require_level(args.level)
    result = {
        x: validate.classify_channel(a, x, args.level).value
        for x in a.chan_from_ch
    }
    return result, "".join(f"{chan}: {kind}\n" for chan, kind in result.items()), EXIT_OK


def _cmd_chan_deps(a: Architecture, args) -> _Result:
    from . import deps
    query = deps.chan_transitive_deps if args.transitive else deps.chan_direct_deps
    return _sorted_names("channels", query(a, args.channel))


def _cmd_condense(a: Architecture, args) -> _Result:
    from . import optimize
    return _partition(optimize.condense_level(a, args.level))


def _cmd_optimize(a: Architecture, args) -> _Result:
    from . import optimize
    return _partition(optimize.highload_grouping(a, args.level))


def _cmd_check_refinement(a: Architecture, args) -> _Result:
    from . import optimize
    report = optimize.verify_level_refinement(a, args.fine, args.coarse)
    reasons = [w.reason for w in report.witnesses]
    text = ("ok" if report.holds else "violated") + "\n" + "".join(f"  {r}\n" for r in reasons)
    payload = {"ok": report.holds, "witnesses": reasons}
    return payload, text, EXIT_OK if report.holds else EXIT_VIOLATION


def _cmd_export_dot(a: Architecture, args) -> _Result:
    return None, ingest.export_dot(a, args.level), EXIT_OK


def _cmd_fixture(a: Architecture, args) -> _Result:
    return None, ingest.serialize(a), EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "sources": _cmd_sources,
    "slice": _cmd_slice,
    "elementary": _cmd_elementary,
    "classify": _cmd_classify,
    "chan-deps": _cmd_chan_deps,
    "condense": _cmd_condense,
    "optimize": _cmd_optimize,
    "check-refinement": _cmd_check_refinement,
    "export-dot": _cmd_export_dot,
    "fixture": _cmd_fixture,
}


def run(argv: list[str] | None = None) -> int:
    """Parse ``argv``, run one subcommand and write its answer.

    The one place that loads a model (the document, or system S for
    ``fixture``) and that picks ``--json`` or text output.
    """
    argv = sys.argv[1:] if argv is None else argv
    named = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS  # all for help and errors
    args = build_parser(named).parse_args(argv)
    try:
        a = ingest.case_study_fixture() if args.command == "fixture" else _load(args.file)
        payload, text, code = _COMMANDS[args.command](a, args)
        if args.json and payload is not None:
            text = _dump_json(payload)
        _emit(text, getattr(args, "output", None))
        return code
    except (ModelError, OSError) as exc:
        print(f"archdeps: error: {str(exc).translate(_LINE_BREAKS)}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
