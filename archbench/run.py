"""archdeps benchmark: one workload, one seed, one run.

Run from the root of a checkout:

    python3 archbench/run.py --workload queries --seed 1 --seconds 30 --trace 0

The run generates its documents in a child process (``gen.py``), loads them
with ``ingest.parse`` (set-up), then runs whole rounds of the workload's
operations one at a time, closed loop, until ``--seconds`` have passed. Every
answer is checked against the independent checker's digest. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. ``--trace 1`` also writes its spans to
``.archbench/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".archbench"

# setup_s is the median of several loads: three before the first round and
# one after each round, so the loads sample the whole run, not one moment.
SETUP_REPEATS = 3
TRACE_SETUP_REPEATS = 3
PROBE_REPEATS = 20  # calls per layer the workload does not use, on system S
# Interpreter start and import are part of what the cli workload measures;
# bytecode caching stays off so every call compiles the package afresh.
CHILD_ENV = {"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}

if not (SRC / "archdeps" / "__init__.py").is_file():
    sys.exit(f"archbench: no archdeps sources under {SRC}")
sys.path.insert(0, str(SRC))
from archdeps import cli, deps, elementary, ingest, optimize, slicing, validate  # noqa: E402
from archdeps.model import Architecture, ModelError  # noqa: E402

LAYERS = (
    "cli.startup", "cli.run",
    "ingest.json_decode", "ingest.parse", "model.create",
    "deps.dsources", "deps.dacc", "deps.sources", "deps.acc", "deps.chan_transitive_deps",
    "slicing.slice_report",
    "validate.validate_all", "validate.classify_level",
    "elementary.report",
    "optimize.condense", "optimize.highload", "optimize.refinement",
    "ingest.export_dot", "ingest.serialize",
)


# -- machine speed and timing ---------------------------------------------------

class Speed:
    """Calibration samples of a fixed set-and-dict loop, one before each timing.

    The cores of this shared machine run the same Python loop up to twice as
    fast at one moment as at another, in phases lasting seconds, which is far
    more than the benchmark's bounds. Each timing is scaled by the speed of
    this loop measured beside it on the same pinned core, and so reported at
    the speed where the loop takes ``REFERENCE_MS``.
    """

    REFERENCE_MS = 2.0

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._sets = [frozenset(f"k{(i * 7 + j) % 500}" for j in range(3)) for i in range(400)]
        self._probe = frozenset(f"k{j}" for j in range(0, 500, 9))
        self._table = {f"k{i}": i for i in range(500)}

    def sample(self) -> int:
        """Time the loop once; returns the sample's index."""
        start = time.perf_counter()
        hits = 0
        for _ in range(25):
            for s in self._sets:
                if s & self._probe:
                    hits += self._table["k7"]
        self.samples.append((time.perf_counter() - start) * 1000)
        return len(self.samples) - 1

    def scale(self, k: int) -> float:
        """Factor for a timing taken after sample k: the samples around it."""
        return self.REFERENCE_MS / statistics.median(self.samples[max(0, k - 2):k + 3])


def _size(result) -> int:
    """Size of a call's result: members, groups, witnesses or characters."""
    for attr in ("min_components", "groups", "witnesses"):
        if hasattr(result, attr):
            return len(getattr(result, attr))
    if hasattr(result, "verdicts"):
        return sum(len(v.witnesses) for v in result.verdicts.values())
    return len(result) if hasattr(result, "__len__") else 0


class Timer:
    """Times outermost calls only, each after a calibration sample (untraced runs)."""

    def __init__(self, speed: Speed) -> None:
        self.speed = speed
        self.roots: list[tuple[str, float, int]] = []  # name, seconds, calibration index
        self._depth = 0

    def call(self, name: str, fn, *args, level: int = 0):
        if self._depth:
            return fn(*args)
        k = self.speed.sample()
        self._depth += 1
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.roots.append((name, time.perf_counter() - start, k))
            self._depth -= 1

    def scaled_ms(self, name: str) -> list[float]:
        return [sec * 1000 * self.speed.scale(k) for n, sec, k in self.roots if n == name]


class Tracer:
    """One span per call, kept in memory; a calibration sample opens each root span.

    A span is (id, parent, name, start_ns, end_ns, level_size, result_size,
    calibration index).
    """

    FIELDS = ["id", "parent", "name", "start_ns", "end_ns", "level_size", "result_size", "speed_sample"]

    def __init__(self, speed: Speed) -> None:
        self.speed = speed
        self.spans: list[tuple] = []
        self._open: list[int] = []
        self._k = 0

    def call(self, name: str, fn, *args, level: int = 0):
        if not self._open:
            self._k = self.speed.sample()
        span_id, parent = len(self.spans), (self._open[-1] if self._open else -1)
        self.spans.append(None)
        self._open.append(span_id)
        start = time.perf_counter_ns()
        try:
            result = fn(*args)
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            self.spans[span_id] = (span_id, parent, name, start, end, level, 0, self._k)
        self.spans[span_id] = self.spans[span_id][:6] + (_size(result), self._k)
        return result

    def self_ms(self) -> dict[str, list[float]]:
        """Each span's duration less the time its children cover, by name, scaled."""
        child_ns = [0] * len(self.spans)
        for _, parent, _, start, end, *_ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        by_name: dict[str, list[float]] = {}
        for span_id, _, name, start, end, _, _, k in self.spans:
            ms = (end - start - child_ns[span_id]) / 1e6 * self.speed.scale(k)
            by_name.setdefault(name, []).append(ms)
        return by_name

    def total_ms(self, name: str) -> list[float]:
        """Whole durations of the spans with this name, scaled."""
        return [(end - start) / 1e6 * self.speed.scale(k)
                for _, _, n, start, end, _, _, k in self.spans if n == name]


# -- operations ----------------------------------------------------------------

def classify_level(a: Architecture, level: str) -> dict[str, str]:
    return {x: validate.classify_channel(a, x, level).value for x in sorted(a.channel_ids)}


def _partition(part) -> list:
    return sorted([sorted(g), mark] for g, mark in zip(part.groups, part.high_perf))


def _named(report, a: Architecture) -> list:
    """Components named by refinement witnesses, structured or text."""
    named = set()
    for w in report.witnesses:
        tokens = getattr(w, "entities", None) or re.split(r"[\s,:]+", str(w))
        named |= {t for t in tokens if t in a.components}
    return sorted(named)


def _dot_counts(text: str) -> list:
    lines = text.splitlines()
    edges = [line for line in lines if " -> " in line]
    filled = [line for line in lines if " -> " not in line and "fillcolor" in line]
    return [len(edges), sum("color=red" in line for line in edges), len(filled)]


def query_op(call, a: Architecture, op: dict) -> tuple:
    """Everything a user asks about one component."""
    lvl, c, x = op["level"], op["component"], op["channel"]
    n = len(a.levels[lvl])
    return (
        call("deps.dsources", deps.dsources, a, lvl, c, level=n),
        call("deps.sources", deps.sources, a, lvl, c, level=n),
        call("deps.dacc", deps.dacc, a, lvl, c, level=n),
        call("deps.acc", deps.acc, a, lvl, c, level=n),
        call("deps.chan_transitive_deps", deps.chan_transitive_deps, a, x),
        call("slicing.slice_report", slicing.slice_report, a, lvl, op["channels"], level=n),
    )


def query_digest(answers) -> str:
    *sets, r = answers
    return oracle.digest([sorted(s) for s in sets] + [{
        "out": sorted(r.out_components),
        "min": sorted(r.min_components),
        "no_irrelevant": r.no_irrelevant,
        "all_needed": r.all_needed,
        "sys_in": sorted(r.system_inputs_in_property),
    }])


def sweep_op(call, a: Architecture) -> tuple:
    """A full check of one document."""
    report = call("validate.validate_all", validate.validate_all, a, level=len(a.components))
    order = sorted(a.levels)
    levels = {}
    for lvl in order:
        n = len(a.levels[lvl])
        levels[lvl] = (
            call("optimize.condense", optimize.condense_level, a, lvl, level=n),
            call("optimize.highload", optimize.highload_grouping, a, lvl, level=n),
            call("elementary.report", elementary.elementary_report, a, lvl, level=n),
            call("validate.classify_level", classify_level, a, lvl, level=n),
            call("ingest.export_dot", ingest.export_dot, a, lvl, level=n),
        )
    refinements = [
        (f, c, call("optimize.refinement", optimize.verify_level_refinement, a, f, c,
                    level=len(a.levels[f])))
        for f, c in zip(order, order[1:])
    ]
    text = call("ingest.serialize", ingest.serialize, a, level=len(a.components))
    return report, levels, refinements, text


def sweep_digest(answers, a: Architecture) -> str | None:
    report, levels, refinements, text = answers
    if ingest.parse(text) != a:
        return None
    return oracle.digest({
        "validate": {
            name: sorted(list(w.entities) for w in v.witnesses)
            for name, v in report.verdicts.items() if not v.holds
        },
        "levels": {
            lvl: {
                "condense": _partition(cond), "highload": _partition(hl),
                "elementary": el, "classify": cl, "dot": _dot_counts(dot),
            }
            for lvl, (cond, hl, el, cl, dot) in levels.items()
        },
        "refinement": [[f, c, r.ok, _named(r, a)] for f, c, r in refinements],
        "serialized": json.loads(text),
    })


def _output_digest(stdout: str, as_json: bool) -> str:
    return oracle.digest(json.loads(stdout) if as_json else stdout)


def run_child(argv: list[str], workdir: Path) -> tuple[int, str, str, int]:
    """One CLI process; returns exit code, stdout, stderr and its peak RSS in KiB."""
    with open(workdir / "stdout", "w+", encoding="utf-8") as out, \
            open(workdir / "stderr", "w+", encoding="utf-8") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env={**os.environ, **CHILD_ENV})
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read(), usage.ru_maxrss


def cli_argv(op: dict, doc_paths: list[Path]) -> list[str]:
    return [arg.replace("{doc}", str(doc_paths[op["doc"]])) for arg in op["argv"]]


# -- the run -------------------------------------------------------------------

OP_SPAN = {"queries": "op", "sweep": "op", "cli": "cli.process"}


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.workdir = OUT / f"{workload}-{seed}-{os.getpid()}"
        self.speed = Speed()
        self.timer, self.tracer = Timer(self.speed), Tracer(self.speed)
        self.attempted = self.failed = self.wrong = 0
        self.child_rss_kib = 0
        self.errors: list[str] = []

    def generate(self) -> None:
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"), "--workload", self.workload,
             "--seed", str(self.seed), "--out", str(self.workdir)],
            check=True, cwd=ROOT,
        )
        manifest = json.loads((self.workdir / "manifest.json").read_text(encoding="utf-8"))
        self.doc_paths = [self.workdir / f"doc{i:03d}.json" for i in range(manifest["docs"])]
        self.texts = [p.read_text(encoding="utf-8") for p in self.doc_paths]
        self.ops, self.expected = manifest["ops"], manifest["expected"]

    def load(self) -> list[Architecture]:
        """Load every document once, as one timing."""
        return self.timer.call("setup", lambda: [ingest.parse(text) for text in self.texts])

    def setup(self) -> None:
        if not self.trace:
            for _ in range(SETUP_REPEATS):
                self.archs = self.load()
            return
        call = self.tracer.call
        for _ in range(TRACE_SETUP_REPEATS):
            for text in self.texts:
                raw = call("ingest.json_decode", json.loads, text)
                call("model.create", lambda: Architecture.create(**raw), level=len(raw["components"]))
                call("ingest.parse", ingest.parse, text, level=len(raw["components"]))
        self.archs = [ingest.parse(text) for text in self.texts]

    def _fail(self, op, reason: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        if len(self.errors) < 5:
            self.errors.append(f"{self.workload} op {op}: {reason}")

    def operation(self, call, op: dict):
        """One timed operation; returns what its check needs."""
        if self.workload == "queries":
            return call("op", query_op, call, self.archs[0], op)
        if self.workload == "sweep":
            return call("op", sweep_op, call, self.archs[op["doc"]])
        argv = [sys.executable, "-m", "archdeps.cli"] + cli_argv(op, self.doc_paths)
        code, stdout, stderr, rss = call("cli.process", run_child, argv, self.workdir)
        self.child_rss_kib = max(self.child_rss_kib, rss)
        if code != 0:
            raise RuntimeError(f"exit {code}: {stderr.strip()[:200]}")
        return stdout

    def digest(self, op: dict, answers) -> str | None:
        if self.workload == "queries":
            return query_digest(answers)
        if self.workload == "sweep":
            return sweep_digest(answers, self.archs[op["doc"]])
        return _output_digest(answers, op["json"])

    def one(self, op: dict, want: str, traced: bool) -> None:
        self.attempted += 1
        try:
            answers = self.operation(self.tracer.call if traced else self.timer.call, op)
        except Exception as exc:  # a crash of the program is a failed operation
            self._fail(op, f"{type(exc).__name__}: {exc}", wrong=False)
            return
        try:
            got = self.digest(op, answers)
        except (ValueError, ModelError) as exc:  # output that does not decode
            got = f"unreadable: {exc}"
        if got != want:
            self._fail(op, f"answer differs from the checker's ({got})", wrong=True)
        elif traced and self.workload == "cli":
            self.cli_in_process(op, want)

    def cli_in_process(self, op: dict, want: str) -> None:
        """The same call through ``cli.run`` in this process, plus a bare import."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.tracer.call("cli.run", cli.run, cli_argv(op, self.doc_paths))
        if code != 0 or _output_digest(buf.getvalue(), op["json"]) != want:
            self._fail(op, f"in-process cli.run differs (exit {code})", wrong=True)
        self.tracer.call("cli.startup", run_child,
                         [sys.executable, "-c", "import archdeps.cli"], self.workdir)

    def timed(self) -> None:
        """Whole rounds until the time is up; traced runs alternate traced rounds."""
        start, traced, rounds = time.perf_counter(), self.trace, 0
        while time.perf_counter() - start < self.seconds or (self.trace and rounds < 2):
            for op, want in zip(self.ops, self.expected):
                self.one(op, want, traced)
            if not self.trace:
                self.load()
            traced, rounds = self.trace and not traced, rounds + 1
        self.speed.sample()  # the sample after the last timing

    def probe(self) -> None:
        """Layers this workload does not call, measured on the bundled system S."""
        seen = set(self.tracer.self_ms())
        missing = [name for name in LAYERS if name not in seen]
        if not missing:
            return
        path = SRC / "archdeps" / "data" / "system_s.json"
        text = path.read_text(encoding="utf-8")
        raw = json.loads(text)
        a = ingest.parse(text)
        call = self.tracer.call
        single = {
            "ingest.json_decode": lambda: json.loads(text),
            "ingest.parse": lambda: ingest.parse(text),
            "model.create": lambda: Architecture.create(**raw),
            "deps.dsources": lambda: deps.dsources(a, "level0", "sA8"),
            "deps.dacc": lambda: deps.dacc(a, "level0", "sA4"),
            "deps.sources": lambda: deps.sources(a, "level0", "sA8"),
            "deps.acc": lambda: deps.acc(a, "level0", "sA7"),
            "deps.chan_transitive_deps": lambda: deps.chan_transitive_deps(a, "data9"),
            "slicing.slice_report": lambda: slicing.slice_report(a, "level2", ["data1", "data12"]),
            "validate.validate_all": lambda: validate.validate_all(a),
            "validate.classify_level": lambda: classify_level(a, "level2"),
            "elementary.report": lambda: elementary.elementary_report(a, "level0"),
            "optimize.condense": lambda: optimize.condense_level(a, "level1"),
            "optimize.highload": lambda: optimize.highload_grouping(a, "level2"),
            "optimize.refinement": lambda: optimize.verify_level_refinement(a, "level1", "level2"),
            "ingest.export_dot": lambda: ingest.export_dot(a, "level0"),
            "ingest.serialize": lambda: ingest.serialize(a),
            "cli.run": lambda: cli.run(["sources", str(path), "--level", "level0",
                                        "--component", "sA8"]),
            "cli.startup": lambda: run_child([sys.executable, "-c", "import archdeps.cli"],
                                             self.workdir),
        }
        for name in missing:
            for _ in range(PROBE_REPEATS if name != "cli.startup" else PROBE_REPEATS // 4):
                with contextlib.redirect_stdout(io.StringIO()):
                    call(name, single[name])
        self.speed.sample()

    def metrics(self) -> dict:
        if self.trace:
            by_name = self.tracer.self_ms()
            result = {f"{name}_ms": {"value": statistics.median(by_name[name]), "unit": "ms"}
                      for name in LAYERS}
            traced = statistics.median(self.tracer.total_ms(OP_SPAN[self.workload]))
            untraced = statistics.median(self.timer.scaled_ms(OP_SPAN[self.workload]))
            result["trace.overhead_ratio"] = {"value": traced / untraced, "unit": "ratio"}
            return result
        lat_ms = self.timer.scaled_ms(OP_SPAN[self.workload])
        if self.workload == "cli":
            rss_kib = self.child_rss_kib
        else:
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "setup_s": {"value": statistics.median(self.timer.scaled_ms("setup")) / 1000, "unit": "s"},
            "ops_per_s": {"value": (self.attempted - self.failed) / (sum(lat_ms) / 1000), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
            "op_p90_ms": {"value": statistics.quantiles(lat_ms, n=10)[-1], "unit": "ms"},
            "peak_rss_mb": {"value": rss_kib / 1024, "unit": "MB"},
        }

    def write_trace(self) -> None:
        path = OUT / f"trace-{self.workload}-{self.seed}.json"
        path.write_text(json.dumps({
            "workload": self.workload, "seed": self.seed, "fields": Tracer.FIELDS,
            "spans": self.tracer.spans, "speed_samples_ms": self.speed.samples,
            "reference_ms": Speed.REFERENCE_MS,
        }), encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="archdeps benchmark: one run of one workload")
    parser.add_argument("--workload", required=True, choices=("queries", "sweep", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One core for this process and its children, so that each calibration
    # sample and the timing beside it see the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.generate()
        run.setup()
        run.timed()
        if run.trace:
            run.probe()
            run.write_trace()
        metrics = run.metrics()
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    for line in run.errors:
        print(line, file=sys.stderr)
    print(json.dumps({"correct": run.wrong == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
