"""Seeded generator of multi-level architecture documents and their answers.

Writes one workload's documents, its operations and the checker's expected
answers into a directory; the same seed gives the same files:

    python3 archbench/gen.py --workload queries --seed 1 --out DIR

Documents have four levels, declared finest first (``L0`` < ``L1`` < ``L2`` <
``L3``, so sorted order is declaration order):

* ``L0`` holds the undecomposed components. Component i reads an output of
  i-1 or i-2 and two more from the eight before it, so its
  sources are nearly every earlier component and its accessors nearly every
  later one; a few read forward, which closes short cycles.
* ``L1`` groups consecutive ``L0`` components, ``L2`` groups consecutive
  ``L1`` components, and ``L3`` groups consecutive ``L2`` components but
  lists their ``L1`` subcomponents directly, so those are shared between an
  ``L2`` and an ``L3`` component (as ``sA11`` is under both ``sA1`` and
  ``sS1opt`` in system S). A coarse component's interface and variables are
  the union of its parts'.
* Variables appear on both ``chan_from_var`` and ``var_to``; some channels
  are high-load and some components high-performance.

This module does not import archdeps: the expected answers come from
``oracle``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from pathlib import Path

import oracle

SYSTEM_S = Path(__file__).resolve().parent.parent / "src" / "archdeps" / "data" / "system_s.json"

WINDOW = 8  # how far back a component's extra inputs reach
QUERY_ATOMS = 360  # queries: one document of about 680 components
# Targets per round, spread along each level. Most sit on L0, so both
# percentiles fall among L0 targets, whose cost grows smoothly with position.
# Rounds of queries and sweep hold an odd number of operations, so the median
# falls amid one operation's repeats, not on the step between two operations.
QUERY_TARGETS = {"L0": 29, "L1": 8, "L2": 4, "L3": 2}
SWEEP_ATOMS = (50, 200)  # sweep: smallest and largest document
SWEEP_DOCS = 25  # per round; every fourth carries planted violations
CLI_ATOMS = 1000  # cli: about 1,900 components


def _groups(members: list) -> list[list]:
    """Consecutive runs of 2, 1, 3, 2, 1, 3, ... members: level sizes halve."""
    out, i = [], 0
    for k in itertools.cycle((2, 1, 3)):
        if i >= len(members):
            return out
        out.append(members[i:i + k])
        i += k


def build(rng: random.Random, n_atoms: int) -> dict:
    """One well-formed four-level document with ``n_atoms`` components on L0."""
    names = [f"a{i:05d}" for i in range(n_atoms)]
    outs = [[f"x{i:05d}{k}" for k in "abc"[:1 + i % 3]] for i in range(n_atoms)]
    sys_in = [f"in{k:04d}" for k in range(max(3, n_atoms // 25))]
    comps: dict[str, dict] = {}
    cfc: dict[str, list] = {}
    cfv: dict[str, list] = {}
    var_from: dict[str, list] = {}
    var_to: dict[str, list] = {}
    for i, c in enumerate(names):
        ins = set()
        if i < 3 or rng.random() < 0.08:
            ins.add(rng.choice(sys_in))
        if i >= 1:
            ins.add(rng.choice(outs[i - 1 if i < 2 or rng.random() < 0.7 else i - 2]))
            for _ in range(2):
                ins.add(rng.choice(outs[rng.randint(max(0, i - WINDOW), i - 1)]))
        if i + 2 < n_atoms and rng.random() < 0.06:
            ins.add(rng.choice(outs[i + rng.randint(1, 2)]))
        ins = sorted(ins)
        variables = [f"v{i:05d}{k}" for k in "pq"[:(0, 1, 1, 2)[i % 4]]]
        for v in variables:
            var_from[v] = sorted(rng.sample(ins, min(len(ins), rng.randint(1, 2))))
            var_to[v] = sorted(rng.sample(outs[i], rng.randint(1, len(outs[i]))))
        for x in outs[i]:
            cfc[x] = sorted(rng.sample(ins, min(len(ins), rng.randint(0, 2))))
            cfv[x] = [v for v in variables if x in var_to[v]]
        comps[c] = {"in": ins, "out": list(outs[i]), "var": variables, "subcomp": []}

    def compose(name: str, parts: list, subcomp: list) -> None:
        comps[name] = {
            key: sorted(set().union(*(comps[p][key] for p in parts)))
            for key in ("in", "out", "var")
        }
        comps[name]["subcomp"] = sorted(subcomp)

    levels = {"L0": list(names), "L1": [], "L2": [], "L3": []}
    for j, group in enumerate(_groups(names)):
        levels["L1"].append(f"g{j:05d}")
        compose(f"g{j:05d}", group, group)
    for j, group in enumerate(_groups(levels["L1"])):
        levels["L2"].append(f"h{j:05d}")
        compose(f"h{j:05d}", group, group)
    for j, group in enumerate(_groups(levels["L2"])):
        shared = [g for h in group for g in comps[h]["subcomp"]]
        levels["L3"].append(f"k{j:05d}")
        compose(f"k{j:05d}", group, group if len(group) == 1 else shared)
    channels = sorted(set(cfc).union(*(spec["in"] for spec in comps.values())))
    return {
        "components": comps,
        "levels": levels,
        "chan_from_ch": cfc,
        "chan_from_var": cfv,
        "var_from": var_from,
        "var_to": var_to,
        "highload_channels": [x for x in channels if rng.random() < 0.15],
        "highperf_components": [c for c in names if rng.random() < 0.05],
    }


# -- planted well-formedness violations ------------------------------------

def _plant_dup_producer(rng, doc):
    """A second L0 component produces an existing channel: composition_out."""
    comps, atoms = doc["components"], doc["levels"]["L0"]
    a, b = rng.sample(atoms, 2)
    comps[b]["out"] = sorted(set(comps[b]["out"]) | {comps[a]["out"][0]})


def _plant_orphan(rng, doc):
    """A component on no level: all_components_used."""
    feed = rng.choice(doc["levels"]["L0"])
    doc["components"]["o00000"] = {
        "in": [doc["components"][feed]["out"][0]], "out": ["xo0000"], "var": [], "subcomp": []
    }


def _plant_varto_mismatch(rng, doc):
    """var_to names an output whose chan_from_var omits the variable."""
    comps = doc["components"]
    for c in rng.sample(doc["levels"]["L0"], len(doc["levels"]["L0"])):
        for v in comps[c]["var"]:
            for x in comps[c]["out"]:
                if x not in doc["var_to"][v] and doc["chan_from_var"][x]:
                    doc["var_to"][v] = sorted(doc["var_to"][v] + [x])
                    return
    raise ValueError("no place for a var_to mismatch")


def _plant_varfrom_escape(rng, doc):
    """A variable is fed from a channel its owner does not read: varfrom_correct."""
    comps = doc["components"]
    owner = rng.choice([c for c in doc["levels"]["L0"] if comps[c]["var"]])
    v = comps[owner]["var"][0]
    outside = sorted(set(doc["chan_from_ch"]) - set(comps[owner]["in"]))
    doc["var_from"][v] = sorted(set(doc["var_from"][v]) | {rng.choice(outside)})


def _plant_uncovered(rng, doc):
    """An L0 component that no L1 component contains: refinement L0 -> L1 fails."""
    feed = rng.choice(doc["levels"]["L0"])
    doc["components"]["u00000"] = {
        "in": [doc["components"][feed]["out"][0]], "out": ["xu0000"], "var": [], "subcomp": []
    }
    doc["levels"]["L0"].append("u00000")


def _plant_subcomp_var(rng, doc):
    """An L0 component holds a variable its L1 parent lacks: composition_var."""
    comps = doc["components"]
    c = rng.choice(doc["levels"]["L0"])
    x = comps[c]["out"][0]
    comps[c]["var"] = sorted(comps[c]["var"] + ["w00000"])
    doc["var_from"]["w00000"] = []
    doc["var_to"]["w00000"] = [x]
    doc["chan_from_var"][x] = sorted(doc["chan_from_var"][x] + ["w00000"])


PLANTS = (
    (_plant_dup_producer, _plant_varfrom_escape),
    (_plant_orphan, _plant_varto_mismatch),
    (_plant_uncovered, _plant_subcomp_var),
)


# -- workloads ----------------------------------------------------------------

def _spread(members: list, count: int) -> list:
    """``count`` members at the midpoints of equal stretches of the level."""
    step = len(members) / count
    return [members[int((j + 0.5) * step)] for j in range(count)]


def queries(rng: random.Random) -> tuple[list, list, list]:
    doc = build(rng, QUERY_ATOMS)
    t = oracle.Tables(doc)
    ops, expected = [], []
    for lvl, count in QUERY_TARGETS.items():
        for c in _spread(sorted(doc["levels"][lvl]), count):
            x = rng.choice(sorted(t.out[c]))
            ops.append({"level": lvl, "component": c, "channel": x, "channels": sorted(t.out[c])})
            expected.append(oracle.digest([
                sorted(t.dsources(lvl, c)), sorted(t.sources(lvl, c)),
                sorted(t.dacc(lvl, c)), sorted(t.acc(lvl, c)),
                sorted(t.chan_transitive(x)), t.slice(lvl, sorted(t.out[c])),
            ]))
    order = list(range(len(ops)))
    rng.shuffle(order)
    return [doc], [ops[i] for i in order], [expected[i] for i in order]


def sweep_expected(doc: dict) -> str:
    t = oracle.Tables(doc)
    order = sorted(t.levels)
    return oracle.digest({
        "validate": t.violations(),
        "levels": {
            lvl: {
                "condense": t.sccs(lvl),
                "highload": t.highload_groups(lvl),
                "elementary": t.elementary(lvl),
                "classify": {x: t.classify(lvl, x) for x in sorted(t.chans)},
                "dot": t.dot_counts(lvl),
            }
            for lvl in order
        },
        "refinement": [[f, c] + t.refinement(f, c) for f, c in zip(order, order[1:])],
        "serialized": oracle.canonical(doc),
    })


def sweep(rng: random.Random) -> tuple[list, list, list]:
    lo, hi = SWEEP_ATOMS
    docs = []
    for j in range(SWEEP_DOCS):
        doc = build(rng, lo + (hi - lo) * j // (SWEEP_DOCS - 1))
        if j % 4 == 3:
            for plant in PLANTS[(j // 4) % len(PLANTS)]:
                plant(rng, doc)
        docs.append(doc)
    rng.shuffle(docs)
    ops = [{"doc": i} for i in range(len(docs))]
    return docs, ops, [sweep_expected(doc) for doc in docs]


def _cli_case(t: oracle.Tables, doc_index: int, argv: list, as_json: bool) -> tuple[dict, str]:
    """One subcommand call and the digest of its expected output."""
    cmd = argv[0]
    if cmd == "sources":
        lvl, c = argv[argv.index("--level") + 1], argv[argv.index("--component") + 1]
        result = sorted(t.dsources(lvl, c))
        expect = {"components": result} if as_json else " ".join(result) + "\n"
    elif cmd == "chan-deps":
        x = argv[argv.index("--channel") + 1]
        result = sorted(t.chan_transitive(x) if "--transitive" in argv else t.chan_direct(x))
        expect = {"channels": result} if as_json else " ".join(result) + "\n"
    elif cmd == "optimize":
        lvl = argv[argv.index("--level") + 1]
        groups = t.highload_groups(lvl)
        if as_json:
            expect = {"level": lvl, "groups": [{"members": m, "high_perf": hp} for m, hp in groups]}
        else:
            expect = "".join(" ".join(m) + ("  [high-perf]" if hp else "") + "\n" for m, hp in groups)
    elif cmd == "elementary":
        verdicts = t.elementary(argv[argv.index("--level") + 1])
        expect = verdicts if as_json else "".join(
            f"{c}: {'elementary' if ok else 'not elementary'}\n" for c, ok in verdicts.items()
        )
    else:  # fixture: the canonical system S in either mode
        expect = oracle.canonical(json.loads(SYSTEM_S.read_text(encoding="utf-8")))
    case = {"doc": doc_index, "argv": argv + (["--json"] if as_json else []), "json": as_json or cmd == "fixture"}
    return case, oracle.digest(expect)


def cli(rng: random.Random) -> tuple[list, list, list]:
    big = build(rng, CLI_ATOMS)
    small = json.loads(SYSTEM_S.read_text(encoding="utf-8"))
    tables = [oracle.Tables(big), oracle.Tables(small)]
    levels0 = sorted(big["levels"]["L0"])

    def on_big(kind: str) -> tuple[int, list]:
        if kind == "sources":
            c = rng.choice(levels0)
            return 0, ["sources", "{doc}", "--level", "L0", "--component", c, "--direct"]
        if kind == "chan-deps":
            x = rng.choice(sorted(big["chan_from_ch"]))
            return 0, ["chan-deps", "{doc}", "--channel", x] + (["--transitive"] if rng.random() < 0.5 else [])
        return 0, [kind, "{doc}", "--level", rng.choice(("L1", "L2"))]

    def on_s(kind: str) -> tuple[int, list]:
        if kind == "sources":
            lvl = rng.choice(sorted(small["levels"]))
            c = rng.choice(sorted(small["levels"][lvl]))
            return 1, ["sources", "{doc}", "--level", lvl, "--component", c, "--direct"]
        if kind == "chan-deps":
            return 1, ["chan-deps", "{doc}", "--channel", rng.choice(sorted(small["chan_from_ch"])), "--transitive"]
        return 1, ["fixture"]

    # A round of eight calls: six load the generated document, two are
    # small ones on system S, so both percentiles fall in the larger cluster.
    ops, expected = [], []
    big_kinds = ["sources", "chan-deps", "optimize", "elementary", "sources", "chan-deps"]
    for i, (doc_index, argv) in enumerate(
        [on_big(k) for k in big_kinds] + [on_s("sources"), on_s(rng.choice(("chan-deps", "fixture")))]
    ):
        case, want = _cli_case(tables[doc_index], doc_index, argv, i % 2 == 1)
        ops.append(case)
        expected.append(want)
    order = list(range(len(ops)))
    rng.shuffle(order)
    return [big, small], [ops[i] for i in order], [expected[i] for i in order]


WORKLOADS = {"queries": queries, "sweep": sweep, "cli": cli}


def check_pinned() -> None:
    """The checker reproduces system S answers published in the CLI tests."""
    t = oracle.Tables(json.loads(SYSTEM_S.read_text(encoding="utf-8")))
    pinned = [
        (sorted(t.sources("level0", "sA8")), ["sA6", "sA7", "sA8", "sA9"]),
        (sorted(t.dsources("level0", "sA8")), ["sA7", "sA9"]),
        (sorted(t.acc("level0", "sA7")), ["sA8", "sA9"]),
        (sorted(t.dacc("level0", "sA4")), ["sA2", "sA5"]),
        (sorted(t.chan_direct("data3")), ["data6", "data7"]),
        (sorted(t.chan_transitive("data9")), ["data13", "data8"]),
        (t.slice("level2", ["data1", "data12"])["min"], ["sS2", "sS4", "sS5", "sS6"]),
        ([t.classify("level2", "data1"), t.classify("level2", "data4")], ["system_in", "unused"]),
        ([t.elementary("level0")[c] for c in ("sA5", "sA1")], [True, False]),
        ([["sA22", "sA31", "sA41"], True] in t.sccs("level1"), True),
        ([["sS1", "sS2"], False] in t.highload_groups("level2"), True),
        ([["sS11", "sS14", "sS15"], True] in t.highload_groups("level2"), True),
        (t.refinement("level1", "level2"), [True, []]),
        (t.violations(), {}),
    ]
    for i, (got, want) in enumerate(pinned):
        if got != want:
            raise SystemExit(f"checker disagrees with pinned system S answer {i}: {got} != {want}")


def makeup(docs: list, ops: list, workload: str) -> dict:
    """Sizes of the generated inputs, for the README."""
    out = []
    for doc in docs:
        t = oracle.Tables(doc)
        out.append({
            "components": len(t.comps),
            "channels": len(t.chans),
            "incidences": sum(len(t.inp[c]) + len(t.out[c]) for c in t.comps),
            "levels": {lvl: len(m) for lvl, m in sorted(t.levels.items())},
        })
    if workload == "queries":
        t = oracle.Tables(docs[0])
        sizes = sorted(len(t.sources(o["level"], o["component"])) for o in ops)
        out[0]["sources_sizes"] = [sizes[0], sizes[len(sizes) // 2], sizes[-1]]
    return {"documents": out}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--makeup", action="store_true", help="print input sizes")
    args = parser.parse_args(argv)
    check_pinned()
    docs, ops, expected = WORKLOADS[args.workload](random.Random(f"{args.workload}:{args.seed}"))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, doc in enumerate(docs):
        (out / f"doc{i:03d}.json").write_text(json.dumps(doc), encoding="utf-8")
    manifest = {"docs": len(docs), "ops": ops, "expected": expected}
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    if args.makeup:
        json.dump(makeup(docs, ops, args.workload), sys.stdout, indent=1)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
