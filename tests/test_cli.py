import contextlib
import copy
import functools
import gc
import io
import json
import operator
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from archdeps import case_study_fixture, cli, ingest


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "system_s.json"
    path.write_text(ingest.serialize(case_study_fixture()), encoding="utf-8")
    return str(path)


def test_validate_ok(model_file, capsys):
    assert cli.run(["validate", model_file]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "composition_out: holds" in out
    assert "violated" not in out


def test_loaded_model_is_frozen_out_of_collections(model_file, capsys):
    gc.unfreeze()
    try:
        assert cli.run(["validate", model_file]) == cli.EXIT_OK
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


def test_load_runs_no_collection_over_the_model(tmp_path):
    n = 2_000
    doc = {
        "components": {f"c{i}": {"in": [f"x{i - 1}"] if i else [], "out": [f"x{i}"]}
                       for i in range(n)},
        "levels": {"L0": [f"c{i}" for i in range(n)]},
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.enable()
    gc.collect()  # an empty young generation: only the load's allocations count
    gc.callbacks.append(count)
    try:
        cli._load(str(path))
    finally:
        gc.callbacks.remove(count)
        gc.unfreeze()
        (gc.enable if was_enabled else gc.disable)()
    assert started == []


# Run in a fresh interpreter: which modules one call imports, after the
# import of the CLI and after the call.
_STARTUP_PROBE = """
import json, sys
argv, unused = json.loads(sys.argv[1]), sys.argv[2:]
import archdeps.cli
after_import = [m for m in unused if m in sys.modules]
code = archdeps.cli.run(argv)
print(json.dumps([after_import, code, [m for m in unused if m in sys.modules]]))
"""


def test_startup_imports_only_the_analysis_a_subcommand_runs(model_file):
    for argv, unused in (
        (["sources", model_file, "--level", "level0", "--component", "sA8"],
         ["dataclasses", "archdeps.validate", "archdeps.optimize",
          "archdeps.slicing", "archdeps.elementary"]),
        (["slice", model_file, "--level", "level2", "--channels", "data1,data12"],
         ["dataclasses", "archdeps.deps", "archdeps.validate", "archdeps.optimize", "archdeps.elementary"]),
        (["condense", model_file, "--level", "level0"],
         ["archdeps.deps", "archdeps.validate", "archdeps.slicing", "archdeps.elementary"]),
        (["check-refinement", model_file, "--fine", "level1", "--coarse", "level2"],
         ["archdeps.deps", "archdeps.validate", "archdeps.slicing", "archdeps.elementary"]),
    ):
        proc = subprocess.run(
            [sys.executable, "-c", _STARTUP_PROBE, json.dumps(argv), *unused],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [[], cli.EXIT_OK, []], argv


def test_a_named_subcommand_builds_only_its_own_subparser(model_file, monkeypatch, capsys):
    built = []

    class Counting(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", Counting)
    assert cli.run(["sources", model_file, "--level", "level0", "--component", "sA8"]) == cli.EXIT_OK
    assert built == ["archdeps", "archdeps sources"]
    capsys.readouterr()


# Enough arguments for each subcommand to parse, so one more is left unrecognized.
_PARSING_ARGV = {
    "validate": ["f.json"],
    "sources": ["f.json", "--level", "L", "--component", "c"],
    "slice": ["f.json", "--level", "L", "--channels", "x"],
    "elementary": ["f.json", "--level", "L"],
    "classify": ["f.json", "--level", "L"],
    "chan-deps": ["f.json", "--channel", "x"],
    "condense": ["f.json", "--level", "L"],
    "optimize": ["f.json", "--level", "L"],
    "check-refinement": ["f.json", "--fine", "L", "--coarse", "M"],
    "export-dot": ["f.json", "--level", "L"],
    "fixture": [],
}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_one_subcommand_parser_prints_as_the_full_parser(command):
    assert set(_PARSING_ARGV) == set(cli._COMMANDS)

    def parse(parser, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as excinfo:
                parser.parse_args(argv)
        return excinfo.value.code, out.getvalue(), err.getvalue()

    for argv in ([command, "--help"], [command, "--bogus"],
                 [command, *_PARSING_ARGV[command], "extra"]):
        full = parse(cli.build_parser(), argv)
        assert parse(cli.build_parser([command]), argv) == full, argv
        assert full[0] in (cli.EXIT_OK, cli.EXIT_USAGE) and (full[1] or full[2])


def test_validate_violation_exit_code(tmp_path, capsys):
    doc = json.dumps(
        {"components": {"A": {"out": ["x1"]}, "B": {"out": ["x1"]}},
         "levels": {"L0": ["A", "B"]}}
    )
    path = tmp_path / "bad.json"
    path.write_text(doc, encoding="utf-8")
    assert cli.run(["validate", str(path)]) == cli.EXIT_VIOLATION
    assert "composition_out: violated" in capsys.readouterr().out


def test_validate_json(model_file, capsys):
    assert cli.run(["validate", "--json", model_file]) == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_hold"] is True
    assert payload["predicates"]["var_useful"]["holds"] is True


def test_sources(model_file, capsys):
    assert cli.run(
        ["sources", model_file, "--level", "level0", "--component", "sA8"]
    ) == cli.EXIT_OK
    assert capsys.readouterr().out == "sA6 sA7 sA8 sA9\n"


def test_sources_direct(model_file, capsys):
    assert cli.run(
        ["sources", model_file, "--level", "level0", "--component", "sA8",
         "--direct"]
    ) == cli.EXIT_OK
    assert capsys.readouterr().out == "sA7 sA9\n"


def test_sources_acc_json(model_file, capsys):
    assert cli.run(
        ["sources", model_file, "--level", "level0", "--component", "sA7",
         "--acc", "--json"]
    ) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "components": ["sA8", "sA9"]
    }


def test_sources_dacc(model_file, capsys):
    assert cli.run(
        ["sources", model_file, "--level", "level0", "--component", "sA4",
         "--dacc"]
    ) == cli.EXIT_OK
    assert capsys.readouterr().out == "sA2 sA5\n"


def test_slice_incomplete_property_exits_two(model_file, capsys):
    code = cli.run(
        ["slice", model_file, "--level", "level2",
         "--channels", "data10,data13"]
    )
    assert code == cli.EXIT_VIOLATION
    out = capsys.readouterr().out
    assert "min components: sS1" in out


def test_slice_ok_json(model_file, capsys):
    code = cli.run(
        ["slice", model_file, "--level", "level2",
         "--channels", "data1,data12", "--json"]
    )
    assert code == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["min_components"] == ["sS2", "sS4", "sS5", "sS6"]
    assert payload["no_irrelevant"] and payload["all_needed"]


def test_elementary(model_file, capsys):
    assert cli.run(["elementary", model_file, "--level", "level0"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "sA5: elementary" in out
    assert "sA1: not elementary" in out


def test_classify_json(model_file, capsys):
    assert cli.run(
        ["classify", model_file, "--level", "level2", "--json"]
    ) == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["data1"] == "system_in"
    assert payload["data4"] == "unused"


def test_chan_deps(model_file, capsys):
    assert cli.run(
        ["chan-deps", model_file, "--channel", "data3"]
    ) == cli.EXIT_OK
    assert capsys.readouterr().out == "data6 data7\n"


def test_chan_deps_transitive(model_file, capsys):
    assert cli.run(
        ["chan-deps", model_file, "--channel", "data9", "--transitive"]
    ) == cli.EXIT_OK
    assert capsys.readouterr().out == "data13 data8\n"


def test_condense(model_file, capsys):
    assert cli.run(["condense", model_file, "--level", "level1"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "sA22 sA31 sA41  [high-perf]" in lines
    assert "sA81 sA91" in lines


def test_optimize_marks_high_perf(model_file, capsys):
    assert cli.run(["optimize", model_file, "--level", "level2"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "sS4 sS5 sS6  [high-perf]" in lines
    assert "sS1 sS2" in lines


def test_optimize_json(model_file, capsys):
    assert cli.run(
        ["optimize", model_file, "--level", "level2", "--json"]
    ) == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["level"] == "level2"
    by_members = {tuple(g["members"]): g["high_perf"] for g in payload["groups"]}
    assert by_members[("sS11", "sS14", "sS15")] is True
    assert by_members[("sS1", "sS2")] is False


def test_check_refinement_ok(model_file, capsys):
    code = cli.run(
        ["check-refinement", model_file, "--fine", "level1",
         "--coarse", "level2"]
    )
    assert code == cli.EXIT_OK
    assert capsys.readouterr().out == "ok\n"


def test_check_refinement_violated(tmp_path, capsys):
    doc = json.dumps(
        {"components": {"A": {}, "B": {}, "G": {"subcomp": ["A"]}},
         "levels": {"fine": ["A", "B"], "coarse": ["G"]}}
    )
    path = tmp_path / "partial.json"
    path.write_text(doc, encoding="utf-8")
    code = cli.run(
        ["check-refinement", str(path), "--fine", "fine", "--coarse", "coarse"]
    )
    assert code == cli.EXIT_VIOLATION
    assert "violated" in capsys.readouterr().out


def test_export_dot_stdout(model_file, capsys):
    assert cli.run(["export-dot", model_file, "--level", "level0"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith('digraph "level0" {')
    assert '"sA1" -> "sA2" [label="data2"];' in out


def test_export_dot_to_file(model_file, tmp_path):
    target = tmp_path / "level0.dot"
    assert cli.run(
        ["export-dot", model_file, "--level", "level0", "-o", str(target)]
    ) == cli.EXIT_OK
    assert '"sA4" -> "sA5" [label="data8",penwidth=3,color=red];' in target.read_text()


def test_fixture_round_trip(capsys):
    assert cli.run(["fixture"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert ingest.parse(out) == case_study_fixture()


def test_fixture_to_file(tmp_path):
    target = tmp_path / "fixture.json"
    assert cli.run(["fixture", "-o", str(target)]) == cli.EXIT_OK
    assert ingest.parse(target.read_text()) == case_study_fixture()


def test_json_output_deterministic(model_file, capsys):
    cli.run(["validate", "--json", model_file])
    first = capsys.readouterr().out
    cli.run(["validate", "--json", model_file])
    assert capsys.readouterr().out == first


def test_missing_file_exits_one(capsys):
    assert cli.run(["validate", "/no/such/file.json"]) == cli.EXIT_ERROR
    assert "error" in capsys.readouterr().err


def test_unknown_identifier_exits_one(model_file, capsys):
    code = cli.run(
        ["sources", model_file, "--level", "level0", "--component", "nope"]
    )
    assert code == cli.EXIT_ERROR
    assert "nope" in capsys.readouterr().err


def test_malformed_document_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli.run(["validate", str(path)]) == cli.EXIT_ERROR
    assert "syntax error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["no-such-command"],
        ["sources", "file.json", "--level", "level0"],
        ["slice", "file.json", "--level", "level0"],
    ],
)
def test_usage_errors_exit_sixty_four(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.run(argv)
    assert excinfo.value.code == cli.EXIT_USAGE
    capsys.readouterr()


def test_main_raises_system_exit(model_file, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main()
    assert excinfo.value.code == cli.EXIT_USAGE
    capsys.readouterr()


def test_comma_in_identifier_exits_one(tmp_path, capsys):
    path = tmp_path / "comma.json"
    path.write_text(json.dumps({"components": {"A": {"out": ["a,b"]}}}), encoding="utf-8")
    assert cli.run(["slice", str(path), "--level", "L0", "--channels", "a,b"]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert "invalid channel identifier: 'a,b'" in err
    assert err.count("\n") == 1


SURROGATE_NAMES = {
    "component": {"components": {"a\ud800": {"out": ["x"]}, "b": {"in": ["x"]}},
                  "levels": {"L": ["a\ud800", "b"]}},
    "channel": {"components": {"a": {"out": ["x\ud800"]}, "b": {"in": ["x\ud800"]}},
                "levels": {"L": ["a", "b"]}},
    "variable": {"components": {"a": {"out": ["x"], "var": ["v\ud800"]}, "b": {"in": ["x"]}},
                 "levels": {"L": ["a", "b"]}},
    "level": {"components": {"a": {"out": ["x"]}, "b": {"in": ["x"]}},
              "levels": {"L\ud800": ["a", "b"]}},
}


@pytest.mark.parametrize("kind", sorted(SURROGATE_NAMES))
@pytest.mark.parametrize("argv", [
    ["validate"],
    ["sources", "--level", "L", "--component", "b"],
    ["condense", "--level", "L"],
    ["export-dot", "--level", "L"],
    ["export-dot", "--level", "L", "-o"],
], ids=["validate", "sources", "condense", "export-dot", "export-dot-o"])
def test_lone_surrogate_in_a_name_exits_one(tmp_path, capsys, kind, argv):
    path, dot = tmp_path / "surrogate.json", tmp_path / "out.dot"
    path.write_text(json.dumps(SURROGATE_NAMES[kind]), encoding="utf-8")
    output = [str(dot)] if argv[-1] == "-o" else []
    assert cli.run([argv[0], str(path), *argv[1:], *output]) == cli.EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == "" and not dot.exists()
    assert err.startswith(f"archdeps: error: invalid {kind} identifier: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["condense", "--level", "L"],
    ["export-dot", "--level", "L"],
    ["sources", "--level", "L", "--component", "b"],
], ids=["condense", "export-dot", "sources"])
def test_name_stdout_cannot_encode_exits_one(tmp_path, monkeypatch, capsys, argv):
    path = tmp_path / "doc.json"
    doc = {"components": {"b": {"in": ["x"]}, "é1": {"out": ["x"]}}, "levels": {"L": ["b", "é1"]}}
    path.write_text(json.dumps(doc), encoding="utf-8")
    raw = io.BytesIO()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="ascii"))
    assert cli.run([argv[0], str(path), *argv[1:]]) == cli.EXIT_ERROR
    sys.stdout.flush()
    assert raw.getvalue() == b""
    err = capsys.readouterr().err
    assert err == "archdeps: error: stdout cannot encode 'é' as ascii\n"


@pytest.mark.parametrize(
    "data,message",
    [
        (b'{"levels": {"L\xff": []}}', "not UTF-8 text"),
        (b"[" * 100_000, "nested too deeply"),
        (b'{"chan_from_ch": {"a\\r\\n\\u2028b": null}}', "chan_from_ch[a\\r\\n\\u2028b] must be"),
    ],
    ids=["non_utf8", "deep_nesting", "line_breaks_in_name"],
)
def test_unreadable_document_exits_one(tmp_path, capsys, data, message):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    assert cli.run(["validate", str(path)]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("doc,message", [
    ({"components": {"A": {"in": ["i j"], "out": ["k l"], "var": ["u v"]}},
      "chan_from_ch": {"a b": [], "c d": [], "e f": [], "g h": []},
      "var_from": {"m n": [], "o p": [], "q r": [], "s t": []}},
     "invalid channel identifier: 'i j'"),
    ({"var_from": {"a b": [], "c d": []}, "var_to": {"e f": [], "g h": []}},
     "invalid variable identifier: 'a b'"),
], ids=["channels_and_variables", "variables"])
def test_identifier_error_is_the_same_under_every_hash_seed(tmp_path, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    errors = set()
    for seed in ("1", "2", "3", "4"):
        proc = subprocess.run(
            [sys.executable, "-m", "archdeps.cli", "validate", str(path)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONHASHSEED": seed,
                 "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
        )
        assert proc.returncode == cli.EXIT_ERROR
        errors.add(proc.stderr)
    assert errors == {f"archdeps: error: {message}\n"}


SYSTEM_S = json.loads(ingest.serialize(case_study_fixture()))
NAMES = sorted(
    set(SYSTEM_S["components"]) | set(SYSTEM_S["levels"]) | set(SYSTEM_S["chan_from_ch"])
)
LEVELS = st.sampled_from(["level0", "level1", "level2", "level3"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4) | st.sampled_from(NAMES),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_system_s(draw) -> bytes:
    """System S with one to three values, at any depth, replaced or deleted."""
    doc = copy.deepcopy(SYSTEM_S)
    for _ in range(draw(st.integers(1, 3))):
        by_depth: dict[int, list[tuple]] = {}
        for path in _paths(doc):
            by_depth.setdefault(len(path), []).append(path)
        if not by_depth:
            break
        *parents, key = draw(st.sampled_from(by_depth[draw(st.sampled_from(sorted(by_depth)))]))
        node = functools.reduce(operator.getitem, parents, doc)
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(JSON_VALUES)
    return json.dumps(doc).encode()


@st.composite
def subcommand_argv(draw) -> list[str]:
    """Arguments after the file name, for any subcommand that reads one."""
    level, name = draw(LEVELS), draw(st.sampled_from(NAMES))
    channels = ",".join(draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3)))
    args = draw(st.sampled_from([
        ["validate"],
        ["sources", "--level", level, "--component", name]
        + draw(st.sampled_from([[], ["--direct"], ["--acc"], ["--dacc"]])),
        ["slice", "--level", level, "--channels", channels],
        ["elementary", "--level", level],
        ["classify", "--level", level],
        ["chan-deps", "--channel", name] + draw(st.sampled_from([[], ["--transitive"]])),
        ["condense", "--level", level],
        ["optimize", "--level", level],
        ["check-refinement", "--fine", level, "--coarse", draw(LEVELS)],
        ["export-dot", "--level", level],
    ]))
    return args + draw(st.sampled_from([[], ["--json"]]))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.binary(max_size=64) | mutated_system_s(), argv=subcommand_argv())
def test_cli_fuzz_exits_cleanly_with_one_line_errors(tmp_path_factory, data, argv):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run([argv[0], str(path)] + argv[1:])
    assert code in (cli.EXIT_OK, cli.EXIT_ERROR, cli.EXIT_VIOLATION)
    assert err.getvalue().count("\n") <= 1


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


def _pairs(text: str) -> list[tuple[str, str]]:
    return [tuple(line.split(": ", 1)) for line in text.splitlines()]


def _partition_text(text: str, level: str) -> dict:
    groups = []
    for line in text.splitlines():
        members, mark, _ = line.partition("  [high-perf]")
        groups.append({"members": members.split(), "high_perf": bool(mark)})
    return {"level": level, "groups": groups}


def _validate_text(text: str) -> dict:
    predicates = {}
    for line in text.splitlines():
        if line.startswith("  "):
            entities, reason = line[2:].split(": ", 1)
            witness = {"entities": entities.split(", "), "reason": reason}
            predicates[name]["witnesses"].append(witness)
        else:
            name, verdict = line.split(": ")
            predicates[name] = {"holds": verdict == "holds", "witnesses": []}
    return {"all_hold": all(p["holds"] for p in predicates.values()), "predicates": predicates}


_SLICE_KEYS = {
    "level": "level", "channels": "property_channels", "out components": "out_components",
    "min components": "min_components", "no irrelevant channels": "no_irrelevant",
    "all needed inputs listed": "all_needed", "system inputs in property": "system_inputs_in_property",
}


def _slice_text(text: str) -> dict:
    parsed = {}
    for label, value in _pairs(text):
        key = _SLICE_KEYS[label]
        if key == "level":
            parsed[key] = value
        elif key in ("no_irrelevant", "all_needed"):
            parsed[key] = {"True": True, "False": False}[value]
        else:
            parsed[key] = value.split()
    return parsed


def _refinement_text(text: str) -> dict:
    verdict, *reasons = text.splitlines()
    assert verdict in ("ok", "violated") and all(r.startswith("  ") for r in reasons)
    return {"ok": verdict == "ok", "witnesses": [r[2:] for r in reasons]}


def _system_s_calls(path: str):
    """(argv, parser of its text output) for every subcommand on every level."""
    a = case_study_fixture()
    yield ["validate", path], _validate_text
    for x in sorted(a.chan_from_ch):
        for mode in ([], ["--transitive"]):
            yield ["chan-deps", path, "--channel", x] + mode, lambda t: {"channels": t.split()}
    for level in sorted(a.levels):
        for c in sorted(a.levels[level]):
            for mode in ([], ["--direct"], ["--acc"], ["--dacc"]):
                argv = ["sources", path, "--level", level, "--component", c] + mode
                yield argv, lambda t: {"components": t.split()}
        outputs = [sorted(a.components[c].outputs) for c in sorted(a.levels[level])]
        for channels in outputs + [sorted(set().union(*outputs)), ["data10", "data13"]]:
            yield ["slice", path, "--level", level, "--channels", ",".join(channels)], _slice_text
        yield ["elementary", path, "--level", level], lambda t: {
            c: verdict == "elementary" for c, verdict in _pairs(t)
        }
        yield ["classify", path, "--level", level], lambda t: dict(_pairs(t))
        for cmd in ("condense", "optimize"):
            yield [cmd, path, "--level", level], functools.partial(_partition_text, level=level)
        for coarse in sorted(a.levels):
            yield ["check-refinement", path, "--fine", level, "--coarse", coarse], _refinement_text
        yield ["export-dot", path, "--level", level], None
    yield ["fixture"], None


GOLDEN = Path(__file__).parent / "data" / "system_s_cli.json"
_DOC = "system_s.json"  # stands for the bundled document's path in argv keys


def _golden_runs() -> dict:
    """Exit code and stdout of every system S call, in text and with --json,
    keyed by its argv joined with spaces."""
    path = str(resources.files("archdeps") / "data" / "system_s.json")
    runs = {}
    for argv, _ in _system_s_calls(_DOC):
        for call in (argv, argv + ["--json"]):
            code, out = _run([path if arg == _DOC else arg for arg in call])
            runs[" ".join(call)] = [code, out]
    return runs


@pytest.fixture(scope="module")
def system_s_runs():
    return _golden_runs()


def test_system_s_cli_matches_golden(system_s_runs):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert system_s_runs.keys() == golden.keys()
    assert [key for key in golden if system_s_runs[key] != golden[key]] == []


def test_text_and_json_agree_on_system_s(system_s_runs):
    seen = set()
    for argv, parse in _system_s_calls(_DOC):
        text_code, text = system_s_runs[" ".join(argv)]
        json_code, payload = system_s_runs[" ".join(argv + ["--json"])]
        assert text_code == json_code, argv
        if parse is None:  # DOT and the canonical document in both modes
            assert text == payload, argv
        else:
            assert parse(text) == json.loads(payload), argv
        seen.add((argv[0], text_code))
    assert {cmd for cmd, _ in seen} == set(cli._COMMANDS)
    assert {("check-refinement", cli.EXIT_VIOLATION), ("slice", cli.EXIT_VIOLATION)} <= seen


if __name__ == "__main__":
    # PYTHONPATH=src python -m tests.test_cli rewrites the golden from this tree.
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_golden_runs(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
