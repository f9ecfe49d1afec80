#!/usr/bin/env python3
"""Layer report for a traced simbench run.

Reads the span file a traced run writes (simbench/run.py --trace 1 keeps
it under the build directory and prints its path) and prints, per
layer, the self time per traced pass, the span count and the share of
all traced time, plus obs.trace_overhead from the run's raw file:

    python3 simbench/layers.py SPANS.jsonl [--raw RAW.json]
                               [--design fig4_ex2]

The span file holds two kinds of lines. "bench" lines are the
benchmark's own spans around each public call, with ids and parents;
an operation root has parent 0. "program" lines carry the program's own
obs::trace export (Chrome trace_event JSON) for one operation root,
with the steady-clock time of its ts 0. A program span's parent is the
innermost span that contains it: a program span on the same thread, or
a benchmark span. A span's self time is its duration minus the part of
it its children cover. The second table splits the same self time by
span name ("b" = benchmark span, "p" = program span).
"""

import argparse
import json
import statistics
import sys

# Span name -> layer. Benchmark spans and program spans share the map;
# names not listed fall back on their prefix before the first dot.
LAYER_OF = {
    "design.build": "design",
    "design.compile": "design",
    "core.run": "core",
    "omnisim.run": "core",
    "omnisim.execute": "core",
    "omnisim.finalize": "core",
    "omnisim.freeze": "graph",
    "omnisim.resimulate": "graph",
    "relax.level": "graph",
    "graph.rehydrate": "graph",
    "graph.resim": "graph",
    "io.encode": "io",
    "io.decode": "io",
    "store.publish": "io",
    "store.load_all": "io",
    "dse.evaluate": "dse",
    "dse.explore": "dse",
    "serve.simulate": "serve",
    "serve.resimulate": "serve",
    "serve.request": "serve",
    "csim.run": "csim",
    "cosim.run": "cosim",
    "lightningsim.run": "lightningsim",
}
PREFIX_LAYER = {"compile": "opt", "op": "bench"}

# Program spans may start up to this much before the benchmark span
# that issued them: the trace epoch is estimated to within the time one
# obs::traceStart() call takes.
EPOCH_SLACK_NS = 20_000


def layer_of(name):
    if name in LAYER_OF:
        return LAYER_OF[name]
    prefix = name.split(".", 1)[0]
    return PREFIX_LAYER.get(prefix, prefix)


class Span:
    __slots__ = ("kind", "name", "design", "passno", "start", "end", "tid",
                 "parent", "children", "root")

    def __init__(self, kind, name, design, passno, start, end, tid=None):
        self.kind = kind
        self.name = name
        self.design = design
        self.passno = passno
        self.start = start
        self.end = end
        self.tid = tid
        self.parent = None
        self.children = []
        self.root = None

    @property
    def dur(self):
        return self.end - self.start

    def self_ns(self):
        covered = 0
        cur_s = cur_e = None
        for c in sorted(self.children, key=lambda c: c.start):
            s, e = max(c.start, self.start), min(c.end, self.end)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        return max(0, self.dur - covered)


def load(path):
    """Parse a span file. @return every span, parents linked."""
    bench = {}
    programs = []
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec["kind"] == "bench":
                s = Span("bench", rec["name"], rec["design"], rec["pass"],
                         rec["start_ns"], rec["end_ns"])
                s.parent = rec["parent"]
                bench[rec["id"]] = s
            else:
                programs.append(rec)

    spans = list(bench.values())
    by_root = {}
    for sid, s in bench.items():
        p = bench.get(s.parent)
        s.parent = p
        if p is not None:
            p.children.append(s)
    for sid, s in bench.items():
        r = s
        while r.parent is not None:
            r = r.parent
        s.root = r
        by_root.setdefault(id(r), []).append(s)

    for rec in programs:
        root = bench[rec["root"]]
        epoch = rec["epoch_ns"]
        owned = by_root[id(root)]
        prog = []
        for ev in rec["trace"]["traceEvents"]:
            if ev.get("ph") != "X":
                continue
            start = epoch + round(ev["ts"] * 1000)
            s = Span("program", ev["name"], root.design, root.passno, start,
                     start + round(ev["dur"] * 1000), ev["tid"])
            s.root = root
            prog.append(s)
        for s in prog:
            best = None
            for c in prog:
                if (c is not s and c.tid == s.tid and c.start <= s.start
                        and s.end <= c.end and c.dur > s.dur
                        and (best is None or c.dur < best.dur)):
                    best = c
            if best is None:
                for c in owned:
                    if (c.start - EPOCH_SLACK_NS <= s.start
                            and s.end <= c.end + EPOCH_SLACK_NS
                            and (best is None or c.dur < best.dur)):
                        best = c
            s.parent = best or root
            s.parent.children.append(s)
        spans.extend(prog)
    return spans


def design_pass_total(spans, pick, value):
    """Per design, the median over passes of the per-pass total of
    value(span) over spans pick() accepts; summed over designs. Designs
    whose calls run on only some passes (staggered co-sim) count once.
    """
    per = {}
    for s in spans:
        if pick(s):
            key = (s.design, s.passno)
            per[key] = per.get(key, 0) + value(s)
    by_design = {}
    for (d, _), v in per.items():
        by_design.setdefault(d, []).append(v)
    return sum(statistics.median(v) for v in by_design.values())


def layer_table(spans, design=None, key=lambda s: layer_of(s.name)):
    """Self time grouped by key(span), by default the span's layer.
    @return [(group, self_ms_per_pass, count, share)], largest first."""
    passes = {s.passno for s in spans}
    if not passes:
        return []
    totals = {}
    counts = {}
    for s in spans:
        if design is not None and s.design != design:
            continue
        k = key(s)
        totals[k] = totals.get(k, 0) + s.self_ns()
        counts[k] = counts.get(k, 0) + 1
    grand = sum(totals.values()) or 1
    rows = [(k, totals[k] / 1e6 / len(passes), counts[k], totals[k] / grand)
            for k in totals]
    return sorted(rows, key=lambda r: -r[1])


def print_table(title, rows):
    print(title)
    print(f"{'':<22}{'self ms':>12}{'spans':>10}{'share':>9}")
    for k, ms, n, share in rows:
        print(f"{k:<22}{ms:>12.3f}{n:>10d}{share:>8.1%}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("spans", help="span file of a traced run")
    ap.add_argument("--raw", help="raw driver output of the same run "
                    "(for obs.trace_overhead)")
    ap.add_argument("--design", help="restrict to one design's operations")
    args = ap.parse_args()

    spans = load(args.spans)
    rows = layer_table(spans, args.design)
    if not rows:
        print("no spans", file=sys.stderr)
        return 1
    npass = len({s.passno for s in spans})
    scope = f"design {args.design}" if args.design else "all designs"
    print_table(f"Self time per layer, {scope}, per traced pass "
                f"({npass} traced passes)", rows)
    print_table("\nSelf time per span",
                layer_table(spans, args.design,
                            key=lambda s: f"{s.kind[0]} {s.name}"))
    if args.raw:
        with open(args.raw) as f:
            raw = json.load(f)
        suite = {True: [], False: []}
        for p in raw["passes"]:
            suite[p["traced"]].append(
                sum(d["omnisim"] for d in p["designs"].values()))
        if suite[True] and suite[False]:
            ratio = (statistics.median(suite[True]) /
                     statistics.median(suite[False]))
            print(f"obs.trace_overhead = {ratio:.4f} (traced / untraced "
                  f"cold pass, {len(suite[True])} + {len(suite[False])} "
                  "passes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
