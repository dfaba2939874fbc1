"""Command-line driver for the architecture dependency analyses."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import deps, elementary, ingest, optimize, slicing, validate
from .model import Architecture, ModelError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load(path: str) -> Architecture:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ingest.DocumentError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc
    return ingest.parse(text)


def _channels_arg(raw: str) -> list[str]:
    return [x for x in raw.split(",") if x]


def _partition_json(part: optimize.LevelPartition) -> dict:
    return {
        "level": part.source_level,
        "groups": [
            {"members": sorted(g), "high_perf": mark}
            for g, mark in zip(part.groups, part.high_perf)
        ],
    }


def _print_partition(part: optimize.LevelPartition, as_json: bool) -> None:
    if as_json:
        _emit(_dump_json(_partition_json(part)), None)
        return
    for group, mark in zip(part.groups, part.high_perf):
        suffix = "  [high-perf]" if mark else ""
        print(" ".join(sorted(group)) + suffix)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="archdeps",
        description="Component data-dependency analysis of layered architectures.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name: str, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("validate", help="run all well-formedness predicates")
    p.add_argument("file")

    p = add("sources", help="dependency set of one component on a level")
    p.add_argument("file")
    p.add_argument("--level", required=True)
    p.add_argument("--component", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--direct", action="store_true", help="direct sources only")
    mode.add_argument("--acc", action="store_true", help="transitive accessors")
    mode.add_argument("--dacc", action="store_true", help="direct accessors")

    p = add("slice", help="minimal component set for a channel property")
    p.add_argument("file")
    p.add_argument("--level", required=True)
    p.add_argument("--channels", required=True, help="comma-separated, no spaces")

    p = add("elementary", help="elementary classification of a level")
    p.add_argument("file")
    p.add_argument("--level", required=True)

    p = add("classify", help="classify every channel on a level")
    p.add_argument("file")
    p.add_argument("--level", required=True)

    p = add("chan-deps", help="channel dependency set")
    p.add_argument("file")
    p.add_argument("--channel", required=True)
    p.add_argument("--transitive", action="store_true")

    p = add("condense", help="strongly-connected-component partition of a level")
    p.add_argument("file")
    p.add_argument("--level", required=True)

    p = add("optimize", help="high-load channel grouping of a level")
    p.add_argument("file")
    p.add_argument("--level", required=True)

    p = add("check-refinement", help="check a coarse level refines a fine one")
    p.add_argument("file")
    p.add_argument("--fine", required=True)
    p.add_argument("--coarse", required=True)

    p = add("export-dot", help="Graphviz digraph of a level")
    p.add_argument("file")
    p.add_argument("--level", required=True)
    p.add_argument("-o", "--output")

    p = add("fixture", help="emit the bundled case-study document")
    p.add_argument("-o", "--output")

    return parser


def _cmd_validate(args) -> int:
    report = validate.validate_all(_load(args.file))
    if args.json:
        _emit(
            _dump_json(
                {
                    "all_hold": report.all_hold,
                    "predicates": {
                        name: {
                            "holds": v.holds,
                            "witnesses": [
                                {"entities": list(w.entities), "reason": w.reason}
                                for w in v.witnesses
                            ],
                        }
                        for name, v in report.verdicts.items()
                    },
                }
            ),
            None,
        )
    else:
        for name, verdict in report.verdicts.items():
            print(f"{name}: {'holds' if verdict.holds else 'violated'}")
            for w in verdict.witnesses:
                print(f"  {', '.join(w.entities)}: {w.reason}")
    return EXIT_OK if report.all_hold else EXIT_VIOLATION


def _cmd_sources(args) -> int:
    a = _load(args.file)
    if args.direct:
        result = deps.dsources(a, args.level, args.component)
    elif args.acc:
        result = deps.acc(a, args.level, args.component)
    elif args.dacc:
        result = deps.dacc(a, args.level, args.component)
    else:
        result = deps.sources(a, args.level, args.component)
    if args.json:
        _emit(_dump_json({"components": sorted(result)}), None)
    else:
        print(" ".join(sorted(result)))
    return EXIT_OK


def _cmd_slice(args) -> int:
    a = _load(args.file)
    report = slicing.slice_report(a, args.level, _channels_arg(args.channels))
    if args.json:
        _emit(
            _dump_json(
                {
                    "level": report.level,
                    "property_channels": sorted(report.property_channels),
                    "out_components": sorted(report.out_components),
                    "min_components": sorted(report.min_components),
                    "no_irrelevant": report.no_irrelevant,
                    "all_needed": report.all_needed,
                    "system_inputs_in_property": sorted(report.system_inputs_in_property),
                }
            ),
            None,
        )
    else:
        print(f"level: {report.level}")
        print(f"channels: {' '.join(sorted(report.property_channels))}")
        print(f"out components: {' '.join(sorted(report.out_components))}")
        print(f"min components: {' '.join(sorted(report.min_components))}")
        print(f"no irrelevant channels: {report.no_irrelevant}")
        print(f"all needed inputs listed: {report.all_needed}")
        print(
            "system inputs in property: "
            + " ".join(sorted(report.system_inputs_in_property))
        )
    ok = report.no_irrelevant and report.all_needed
    return EXIT_OK if ok else EXIT_VIOLATION


def _cmd_elementary(args) -> int:
    report = elementary.elementary_report(_load(args.file), args.level)
    if args.json:
        _emit(_dump_json(report), None)
    else:
        for comp, verdict in report.items():
            print(f"{comp}: {'elementary' if verdict else 'not elementary'}")
    return EXIT_OK


def _cmd_classify(args) -> int:
    a = _load(args.file)
    a.require_level(args.level)
    result = {
        x: validate.classify_channel(a, x, args.level).value
        for x in sorted(a.chan_from_ch)
    }
    if args.json:
        _emit(_dump_json(result), None)
    else:
        for chan, kind in result.items():
            print(f"{chan}: {kind}")
    return EXIT_OK


def _cmd_chan_deps(args) -> int:
    a = _load(args.file)
    if args.transitive:
        result = deps.chan_transitive_deps(a, args.channel)
    else:
        result = deps.chan_direct_deps(a, args.channel)
    if args.json:
        _emit(_dump_json({"channels": sorted(result)}), None)
    else:
        print(" ".join(sorted(result)))
    return EXIT_OK


def _cmd_condense(args) -> int:
    _print_partition(optimize.condense_level(_load(args.file), args.level), args.json)
    return EXIT_OK


def _cmd_optimize(args) -> int:
    _print_partition(
        optimize.highload_grouping(_load(args.file), args.level), args.json
    )
    return EXIT_OK


def _cmd_check_refinement(args) -> int:
    report = optimize.verify_level_refinement(_load(args.file), args.fine, args.coarse)
    if args.json:
        _emit(_dump_json({"ok": report.ok, "witnesses": list(report.witnesses)}), None)
    else:
        print("ok" if report.ok else "violated")
        for w in report.witnesses:
            print(f"  {w}")
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_export_dot(args) -> int:
    _emit(ingest.export_dot(_load(args.file), args.level), args.output)
    return EXIT_OK


def _cmd_fixture(args) -> int:
    _emit(ingest.serialize(ingest.case_study_fixture()), args.output)
    return EXIT_OK


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
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ModelError as exc:
        print(f"archdeps: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"archdeps: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
