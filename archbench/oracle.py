"""Independent checker: expected answers computed from the plain tables.

Nothing here imports archdeps. Every answer is derived from the document's
own wiring with indexes of its own (producers and consumers per level), so a
fault in the program's analyses cannot hide in the expected answers.

Both sides reduce an answer to plain JSON data of the same shape and compare
the digests of those shapes (see ``digest``).
"""

from __future__ import annotations

import hashlib
import json


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def canonical(doc: dict) -> dict:
    """The document with total tables and sorted lists, as serialized."""
    t = Tables(doc)
    return {
        "components": {
            c: {"in": sorted(t.inp[c]), "out": sorted(t.out[c]),
                "var": sorted(t.var[c]), "subcomp": sorted(t.sub[c])}
            for c in sorted(t.comps)
        },
        "levels": {lvl: sorted(m) for lvl, m in sorted(t.levels.items())},
        "chan_from_ch": {x: sorted(t.cfc[x]) for x in sorted(t.chans)},
        "chan_from_var": {x: sorted(t.cfv[x]) for x in sorted(t.chans)},
        "var_from": {v: sorted(t.var_from[v]) for v in sorted(t.vars)},
        "var_to": {v: sorted(t.var_to[v]) for v in sorted(t.vars)},
        "highload_channels": sorted(t.highload),
        "highperf_components": sorted(t.highperf),
    }


class Tables:
    """Normalised, indexed view of one architecture document."""

    def __init__(self, doc: dict):
        spec = doc.get("components", {})
        self.comps = sorted(spec)
        self.inp = {c: frozenset(spec[c].get("in", ())) for c in spec}
        self.out = {c: frozenset(spec[c].get("out", ())) for c in spec}
        self.var = {c: frozenset(spec[c].get("var", ())) for c in spec}
        self.sub = {c: frozenset(spec[c].get("subcomp", ())) for c in spec}
        self.levels = {lvl: frozenset(m) for lvl, m in doc.get("levels", {}).items()}
        cfc, cfv = doc.get("chan_from_ch", {}), doc.get("chan_from_var", {})
        vfrom, vto = doc.get("var_from", {}), doc.get("var_to", {})
        chans = set(cfc) | set(cfv)
        varset = set(vfrom) | set(vto)
        for c in spec:
            chans |= self.inp[c] | self.out[c]
            varset |= self.var[c]
        self.chans, self.vars = chans, varset
        self.cfc = {x: frozenset(cfc.get(x, ())) for x in chans}
        self.cfv = {x: frozenset(cfv.get(x, ())) for x in chans}
        self.var_from = {v: frozenset(vfrom.get(v, ())) for v in varset}
        self.var_to = {v: frozenset(vto.get(v, ())) for v in varset}
        self.highload = frozenset(doc.get("highload_channels", ()))
        self.highperf = frozenset(doc.get("highperf_components", ()))
        self._index: dict[str, tuple[dict, dict]] = {}
        self._atoms: dict[str, frozenset] = {}
        self._hp: dict[str, bool] = {}

    # -- per-level producer/consumer index ---------------------------------

    def index(self, level: str) -> tuple[dict, dict]:
        if level not in self._index:
            prod: dict[str, set] = {}
            cons: dict[str, set] = {}
            for c in self.levels[level]:
                for x in self.out[c]:
                    prod.setdefault(x, set()).add(c)
                for x in self.inp[c]:
                    cons.setdefault(x, set()).add(c)
            self._index[level] = (prod, cons)
        return self._index[level]

    def dsources(self, level: str, c: str) -> set:
        if c not in self.levels[level]:
            return set()
        prod, _ = self.index(level)
        return {z for x in self.inp[c] for z in prod.get(x, ())}

    def dacc(self, level: str, c: str) -> set:
        if c not in self.levels[level]:
            return set()
        _, cons = self.index(level)
        return {z for x in self.out[c] for z in cons.get(x, ())}

    @staticmethod
    def _bfs(start: set, step) -> set:
        seen, todo = set(start), list(start)
        while todo:
            for nxt in step(todo.pop()):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return seen

    def sources(self, level: str, c: str) -> set:
        return self._bfs(self.dsources(level, c), lambda z: self.dsources(level, z))

    def acc(self, level: str, c: str) -> set:
        # The dual of sources: walk the consumer edges instead of the producer ones.
        return self._bfs(self.dacc(level, c), lambda z: self.dacc(level, z))

    def chan_direct(self, x: str) -> set:
        return set(self.cfc[x]) | {y for v in self.cfv[x] for y in self.var_from[v]}

    def chan_transitive(self, x: str) -> set:
        return self._bfs(self.chan_direct(x), self.chan_direct)

    def classify(self, level: str, x: str) -> str:
        prod, cons = self.index(level)
        consumed, produced = x in cons, x in prod
        if consumed and produced:
            return "local"
        if consumed:
            return "system_in"
        return "system_out" if produced else "unused"

    def slice(self, level: str, chset) -> dict:
        chset = set(chset)
        prod, _ = self.index(level)
        out = {z for x in chset for z in prod.get(x, ())}
        minimal = set(out)
        for z in out:
            minimal |= self.sources(level, z)
        sys_in = {x for x in chset if self.classify(level, x) == "system_in"}
        return {
            "out": sorted(out),
            "min": sorted(minimal),
            "no_irrelevant": all(any(x in self.inp[z] for z in minimal) for x in sys_in),
            "all_needed": all(
                any(self.classify(level, x) != "system_in" or x in chset for x in self.inp[z])
                for z in minimal
            ),
            "sys_in": sorted(sys_in),
        }

    # -- subcomponent relation ---------------------------------------------

    def atoms(self, c: str) -> frozenset:
        """Undecomposed components below c, memoised over the shared DAG."""
        if c not in self._atoms:
            subs = self.sub[c]
            self._atoms[c] = (
                frozenset().union(*(self.atoms(s) for s in subs)) if subs else frozenset((c,))
            )
        return self._atoms[c]

    def high_perf(self, c: str) -> bool:
        if c not in self._hp:
            self._hp[c] = c in self.highperf or any(self.high_perf(s) for s in self.sub[c])
        return self._hp[c]

    # -- level transformations ---------------------------------------------

    def _partition(self, groups) -> list:
        return sorted([sorted(g), any(self.high_perf(c) for c in g)] for g in groups)

    def sccs(self, level: str) -> list:
        """Kosaraju's two passes over the level's producer-to-consumer edges."""
        members = sorted(self.levels[level])
        order, seen = [], set()
        for root in members:
            if root in seen:
                continue
            seen.add(root)
            stack = [(root, iter(sorted(self.dacc(level, root))))]
            while stack:
                node, it = stack[-1]
                nxt = next((z for z in it if z not in seen), None)
                if nxt is None:
                    stack.pop()
                    order.append(node)
                else:
                    seen.add(nxt)
                    stack.append((nxt, iter(sorted(self.dacc(level, nxt)))))
        comp: dict[str, str] = {}
        groups = []
        for root in reversed(order):
            if root in comp:
                continue
            comp[root] = root
            group, todo = [root], [root]
            while todo:
                for z in self.dsources(level, todo.pop()):
                    if z not in comp:
                        comp[z] = root
                        group.append(z)
                        todo.append(z)
            groups.append(group)
        return self._partition(groups)

    def highload_groups(self, level: str) -> list:
        members = sorted(self.levels[level])
        parent = {c: c for c in members}

        def find(c):
            while parent[c] != c:
                parent[c] = parent[parent[c]]
                c = parent[c]
            return c

        first: dict[str, str] = {}
        for c in members:
            for x in sorted((self.inp[c] | self.out[c]) & self.highload):
                if x in first:
                    parent[find(c)] = find(first[x])
                else:
                    first[x] = c
        groups: dict[str, list] = {}
        for c in members:
            groups.setdefault(find(c), []).append(c)
        return self._partition(groups.values())

    def elementary(self, level: str) -> dict:
        def corr(x):
            return {y for v in self.cfv[x] for y in self.var_to[v]}

        verdicts = {}
        for c in sorted(self.levels[level]):
            outs = self.out[c]
            sets = {x: corr(x) for x in outs}
            verdicts[c] = len(outs) == 1 or all(sets[x] & sets[y] for x in outs for y in outs)
        return verdicts

    def dot_counts(self, level: str) -> list:
        """[edges, high-load edges, filled nodes] of the level's DOT export."""
        prod, cons = self.index(level)
        edges = red = 0
        for x, producers in prod.items():
            n = len(producers) * len(cons.get(x, ()))
            edges += n
            red += n if x in self.highload else 0
        filled = sum(self.high_perf(c) for c in self.levels[level])
        return [edges, red, filled]

    def refinement(self, fine: str, coarse: str) -> list:
        """[ok, components named by the witnesses] for fine -> coarse."""
        fine_members = self.levels[fine]
        named: set = set()
        covered: dict[str, str] = {}
        for c in sorted(self.levels[coarse]):
            atoms = self.atoms(c)
            group = {f for f in fine_members if self.atoms(f) <= atoms}
            leftover = atoms - frozenset().union(*(self.atoms(f) for f in group))
            if leftover:
                named |= {c} | leftover
            for f in sorted(group):
                if f in covered:
                    named |= {f, covered[f], c}
                else:
                    covered[f] = c
        named |= set(fine_members) - set(covered)
        return [not named, sorted(named)]

    # -- well-formedness ----------------------------------------------------

    def violations(self) -> dict:
        """Violated predicates, each with the sorted entity tuples of its witnesses."""
        comps, chans = self.comps, sorted(self.chans)
        found: dict[str, list] = {}

        def report(name, witnesses):
            if witnesses:
                found[name] = sorted(list(w) for w in witnesses)

        level_of: dict[str, list] = {}
        for lvl, members in self.levels.items():
            for c in members:
                level_of.setdefault(c, []).append(members)
        report("composition_diff_levels", [
            (c,) for c in comps if any(self.sub[c] & m for m in level_of.get(c, ()))
        ])
        report("composition_var", [
            (c,) for c in comps if any(not self.var[s] <= self.var[c] for s in self.sub[c])
        ])
        report("decomposition_var", [
            (c,) for c in comps
            if any(sum(v in self.var[s] for s in self.sub[c]) > 1 for v in self.var[c])
        ])
        double_out, double_sub = set(), set()
        for members in self.levels.values():
            prod_count: dict[str, int] = {}
            parent_count: dict[str, int] = {}
            for c in members:
                for x in self.out[c]:
                    prod_count[x] = prod_count.get(x, 0) + 1
                for s in self.sub[c]:
                    parent_count[s] = parent_count.get(s, 0) + 1
            double_out |= {x for x, n in prod_count.items() if n > 1}
            double_sub |= {s for s, n in parent_count.items() if n > 1}
        report("composition_out", [(x,) for x in double_out])
        report("composition_subcomp", [(c,) for c in double_sub])
        used = set().union(*self.levels.values()) if self.levels else set()
        report("all_components_used", [(c,) for c in comps if c not in used])
        producers: dict[str, list] = {}
        for c in comps:
            for x in self.out[c]:
                producers.setdefault(x, []).append(c)
        report("outfromch_correct", [
            (x,) for x in chans
            if self.cfc[x] and not any(self.cfc[x] <= self.inp[z] for z in producers.get(x, ()))
        ])
        report("outfromv_correct1", [
            (x,) for x in chans
            if self.cfv[x] and not any(self.cfv[x] <= self.var[z] for z in producers.get(x, ()))
        ])
        targets = set().union(*self.var_to.values()) if self.var_to else set()
        report("outfromv_correct2", [(x,) for x in chans if not self.cfv[x] and x in targets])
        by_chan = {(x, v) for x in chans for v in self.cfv[x]}
        by_var = {(x, v) for v in self.vars for x in self.var_to[v]}
        report("outfromv_varto_consistent", by_chan ^ by_var)
        # The two finest levels: the documents declare their levels finest
        # first, in sorted order.
        members = set().union(*(self.levels[lvl] for lvl in sorted(self.levels)[:2]))
        report("varfrom_correct", [
            (z, v) for z in members for v in self.var[z] if not self.var_from[v] <= self.inp[z]
        ])
        report("varto_correct", [
            (z, v) for z in members for v in self.var[z] if not self.var_to[v] <= self.out[z]
        ])
        report("var_useful", [(v,) for v in self.vars if not self.var_to[v]])
        return found
