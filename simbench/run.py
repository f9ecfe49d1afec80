#!/usr/bin/env python3
"""simbench: OmniSim's end-to-end and per-layer benchmark.

    python3 simbench/run.py --workload typebc-cold --seed 1 --seconds 20 \\
        --trace 0

Builds the driver (simbench/CMakeLists.txt) from the enclosing checkout
into $CARGO_TARGET_DIR/simbench (default .bench_build/simbench), runs
one workload for --seconds, and prints one line per metric with its
unit and sample count, then, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the same
workload with spans recorded and reports the per-layer metrics. The
span file stays under the build directory for simbench/layers.py.
Workloads, metrics and the layer map: simbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402

WORKLOADS = ("typebc-cold", "typea-cold", "fifo-sizing-warm")


def driver_timeout_s(seconds):
    """The driver measures for `seconds`, plus set-ups, reference runs
    and a minimum number of passes."""
    return 2 * seconds + 120


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "simbench")


def build():
    """Configure (once) and build the driver. @return its path."""
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(bdir, "simbench_driver")


# ---------------------------------------------------------------------------
# Statistics.
# ---------------------------------------------------------------------------

def median(xs):
    return statistics.median(xs)


def quantile(xs, q):
    """Linear-interpolated quantile, q in (0, 1)."""
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def geomean(xs):
    xs = [x for x in xs if x > 0 and math.isfinite(x)]
    return math.exp(sum(math.log(x) for x in xs) / len(xs)) if xs else 0.0


def suites(raw, traced):
    """Host time of each (un)traced pass's cold OmniSim answers."""
    return [sum(d["omnisim"] for d in p["designs"].values())
            for p in raw["passes"] if p["traced"] == traced]


def paired_geomean(raw, ratio):
    """Geomean over designs of the median over passes of ratio(sample),
    for the passes where ratio() gives a value. Both times of a ratio
    come from one pass, moments apart, so host-speed drift cancels.
    @return (value, designs used)."""
    per = {}
    for p in raw["passes"]:
        for name, d in p["designs"].items():
            r = ratio(d)
            if r is not None:
                per.setdefault(name, []).append(r)
    return geomean([median(v) for v in per.values()]), len(per)


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

class Report:
    def __init__(self):
        self.metrics = {}
        self.lines = []

    def add(self, name, value, unit, note):
        self.metrics[name] = {"value": value, "unit": unit}
        self.lines.append(f"{name:<32} {value:>16.6g} {unit:<6} {note}")


def end_to_end(raw):
    r = Report()
    w = raw["workload"]
    cold = w != "fifo-sizing-warm"
    passes = raw["passes"]
    r.add("setup_s", median(raw["setup_ns"]) / 1e9, "s",
          f"median of {len(raw['setup_ns'])} set-ups")
    r.add("ok_rate", 1.0 - raw["failed"] / raw["attempted"], "ratio",
          f"{raw['attempted'] - raw['failed']} of {raw['attempted']} "
          "answers checked correct")
    r.add("peak_rss_mb", raw["peak_rss_kb"] / 1024.0, "MB",
          "peak resident set during OmniSim / service calls")
    suite = suites(raw, False)
    r.add("omnisim_suite_s", median(suite) / 1e9, "s",
          f"median of {len(suite)} cold passes over "
          f"{len(passes[0]['designs'])} designs")
    v, n = paired_geomean(
        raw, lambda d: d["omnisim"] / d["csim"]
        if d["omnisim"] and d["csim"] else None)
    r.add("csim_slowdown_geomean", v, "x",
          f"OmniSim / C-sim host time, geomean over {n} designs C-sim "
          "completes")
    if cold:
        ref = "co-sim" if w == "typebc-cold" else "LightningSim"
        v, n = paired_geomean(
            raw, lambda d: d["ref"] / d["omnisim"]
            if d["omnisim"] and d["ref"] else None)
        note = f"{ref} / OmniSim host time, geomean over {n} designs"
    else:
        # Per design and round: cold simulate over the geometric mean of
        # that round's reused (incremental) resimulate latencies. The
        # divergent probes, full runs whose number the seed sets (from a
        # few to most of a design's probes), stay out of the ratio; they
        # show in answer_ms.tail.
        v, n = paired_geomean(
            raw, lambda d: d["omnisim"] / geomean(d["reused"])
            if d["omnisim"] and d["reused"] else None)
        note = (f"cold simulate / reused resimulate latency, geomean over "
                f"{n} designs")
    r.add("ref_speedup_geomean", v, "x", note)
    # Answer latencies on the cold workloads cover the registry designs
    # only: the seeded designs differ in size by orders of magnitude from
    # seed to seed, so a percentile over them would measure the seed.
    # They still count in the suite, the ratios and the answer checks.
    fixed = [{n: d for n, d in p["designs"].items()
              if n not in raw["generated"]} for p in passes]
    ans = [x for p in fixed for d in p.values() for x in d["answers"]]
    what = ("cold simulations of registry designs" if cold
            else "resimulate requests")

    def per_design_median(key):
        per = {}
        for p in fixed:
            for name, d in p.items():
                if d[key]:
                    per.setdefault(name, []).append(d[key])
        return [median(v) for v in per.values()]

    if cold:
        # Each design contributes the same number of samples, so a
        # pooled median over an even number of designs falls in the gap
        # between two designs' samples; the median of the designs'
        # medians gives the typical design without depending on that
        # gap.
        typical = per_design_median("omnisim")
        r.add("answer_ms.p50", median(typical) / 1e6, "ms",
              f"median over {len(typical)} registry designs of each "
              f"design's median cold run ({len(ans)} runs)")
        # The tail is the highest percentile with at least ten samples
        # beyond it at the workload's sample count (a few hundred runs).
        r.add("answer_ms.tail", quantile(ans, 0.95) / 1e6, "ms",
              f"p95 of {len(ans)} {what}, {len(ans) * 0.05:.0f} beyond")
    else:
        # Each round's percentile, then the median over rounds: a host
        # stall that slows one round's divergent probes (the tail is
        # mostly multicore's full runs) moves one value, not the result.
        rounds = [[x for d in p.values() for x in d["answers"]]
                  for p in fixed]
        for name, q in (("answer_ms.p50", 0.5), ("answer_ms.tail", 0.99)):
            r.add(name, median([quantile(x, q) for x in rounds]) / 1e6,
                  "ms", f"median over {len(rounds)} rounds of each round's "
                  f"p{q * 100:.0f} of {len(rounds[0])} {what}")
    if cold:
        firsts = [median(v) for v in raw["first_ns"].values()]
        where = ("median first OmniSim answer in a fresh process, "
                 f"{len(next(iter(raw['first_ns'].values())))} processes")
    else:
        firsts = per_design_median("first")
        where = "median warm-first answer of a fresh service"
    r.add("first_answer_ms.p50", median(firsts) / 1e6, "ms",
          f"median over {len(firsts)} registry designs of each design's "
          + where)
    return r


def per_layer(raw, spans):
    r = Report()
    counts = raw["counts"]
    npass = len({s.passno for s in spans}) or 1

    def count(name, note="count from the first traced pass"):
        r.add(name, float(counts.get(name, 0.0)), "count", note)

    def bench(name):
        return lambda s: s.kind == "bench" and s.name == name

    # Engine and compile spans of the cold pass only: the warm workload
    # also runs the engine inside divergent resimulate requests, which
    # the core.* counts (one cold pass) do not cover.
    def cold(name):
        return lambda s: (s.kind == "program" and s.name == name and
                          s.root.name in ("op.omnisim", "serve.simulate"))

    def total_ms(pick, use_self=False):
        return layers.design_pass_total(
            spans, pick,
            (lambda s: s.self_ns()) if use_self else (lambda s: s.dur)) / 1e6

    def durations(pick):
        return [s.dur for s in spans if pick(s)]

    def one_run_each(name, note):
        """Per design the median duration of one call, summed."""
        per = {}
        for s in spans:
            if bench(name)(s):
                per.setdefault(s.design, []).append(s.dur)
        r.add(f"{name}_ms", sum(median(v) for v in per.values()) / 1e6,
              "ms", note)

    def add_ms(name, pick, use_self=False, note=""):
        r.add(name, total_ms(pick, use_self), "ms",
              note or f"per pass, {npass} traced passes")

    add_ms("design.build_ms", bench("design.build"))
    add_ms("design.compile_ms", bench("design.compile"))
    run_ms = total_ms(cold("omnisim.run"))
    r.add("core.run_ms", run_ms, "ms", "omnisim.run spans per cold pass")
    exec_ms = total_ms(cold("omnisim.execute"), True)
    r.add("core.execute_ms", exec_ms, "ms", "omnisim.execute self time")
    add_ms("core.finalize_ms", cold("omnisim.finalize"), True,
           "omnisim.finalize self time")
    pauses = counts.get("core.pauses", 0.0)
    r.add("core.handoff_us", exec_ms * 1e3 / pauses if pauses else 0.0,
          "us", f"execute self time / {pauses:.0f} pauses")
    for name in ("core.events", "core.queries", "core.pauses",
                 "core.forced_blind"):
        count(name)
    events = counts.get("core.events", 0.0)
    r.add("core.ns_per_event", run_ms * 1e6 / events if events else 0.0,
          "ns", "core.run_ms / core.events")
    r.add("core.sim_cycles", float(counts.get("core.sim_cycles", 0.0)),
          "cycles", "simulated cycles summed over the pass")

    for name in ("opt.nodes_in", "opt.nodes_out", "opt.edges_in",
                 "opt.edges_out"):
        count(name, "CompileStats summed over the pass")
    r.add("opt.elimination", float(counts.get("opt.elimination", 0.0)),
          "ratio", "share of nodes+edges the passes removed")
    for p in ("lattice_prune", "chain_collapse", "dedup", "partition"):
        count(f"opt.{p}.eliminated", "nodes+edges the pass removed")
        add_ms(f"opt.{p}_ms", cold(f"compile.{p}"), True,
               f"compile.{p} self time per pass")

    add_ms("graph.freeze_ms", cold("omnisim.freeze"), True,
           "omnisim.freeze self time per pass")
    add_ms("graph.rehydrate_ms", bench("graph.rehydrate"))
    resim = durations(bench("graph.resim"))
    for q, tag in ((0.5, "p50"), (0.99, "p99")):
        r.add(f"graph.resim_us.{tag}",
              quantile(resim, q) / 1e3 if resim else 0.0, "us",
              f"{len(resim)} direct OmniSim::resimulate calls")
    for name in ("graph.resim_delta", "graph.resim_full",
                 "graph.resim_diverged"):
        count(name, "engine.resim.* over the direct probe sequence")
    r.add("graph.reuse_rate", float(counts.get("graph.reuse_rate", 0.0)),
          "ratio", "reused / attempted direct resimulate calls")
    for name in ("relax.runs.parallel", "relax.runs.serial"):
        count(name)

    add_ms("io.encode_ms", bench("io.encode"))
    add_ms("io.decode_ms", bench("io.decode"))
    r.add("io.run_bytes", float(counts.get("io.run_bytes", 0.0)), "bytes",
          "encoded run images, one per design")
    r.add("io.store_publishes", float(counts.get("store.publishes", 0.0)),
          "count", "store.publishes over one round")
    r.add("io.store_load_hits", float(counts.get("store.load_hits", 0.0)),
          "count", "store.load_hits over one round")

    dse = {k: float(counts.get("dse.evalcache." + k, 0.0))
           for k in ("memo_hits", "incremental", "delta", "full_runs")}
    for k, v in dse.items():
        r.add(f"dse.{k}", v, "count", f"dse.evalcache.{k} over one round")
    tried = dse["memo_hits"] + dse["incremental"] + dse["full_runs"]
    r.add("dse.hit_rate",
          (dse["memo_hits"] + dse["incremental"]) / tried if tried else 0.0,
          "ratio", "memo + incremental answers / evaluations")

    serve = durations(bench("serve.resimulate"))
    for q, tag in ((0.5, "p50"), (0.99, "p99")):
        r.add(f"serve.resimulate_us.{tag}",
              quantile(serve, q) / 1e3 if serve else 0.0, "us",
              f"{len(serve)} SimService::handle resimulate calls")
    overhead = 0.0
    if serve and resim:
        overhead = (quantile(serve, 0.5) - quantile(resim, 0.5)) / 1e3
    r.add("serve.overhead_us", overhead, "us",
          "serve.resimulate_us.p50 - graph.resim_us.p50")
    r.add("serve.errors", float(counts.get("serve.errors", 0.0)), "count",
          "error responses over one round")

    for name in ("csim.run", "cosim.run", "lightningsim.run"):
        one_run_each(name, "one run per design (median), summed")
    count("cosim.cycles_stepped", "co-sim clock steps, one run per design")

    traced_s, untraced_s = suites(raw, True), suites(raw, False)
    r.add("obs.trace_overhead", median(traced_s) / median(untraced_s),
          "ratio", f"traced / untraced omnisim_suite_s, "
          f"{len(traced_s)} + {len(untraced_s)} passes")
    return r


def main():
    ap = argparse.ArgumentParser(
        description="Run one simbench workload and print its metrics.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        driver = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"simbench: build failed: {e}")
        return 1

    bdir = build_dir()
    work = os.path.join(bdir, f"work-{os.getpid()}")
    keep = os.path.join(bdir, "last-trace")
    raw_path = os.path.join(keep if args.trace else work,
                            f"{args.workload}.raw.json")
    spans_path = os.path.join(keep, f"{args.workload}.spans.jsonl")
    os.makedirs(work, exist_ok=True)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", work, "--out", raw_path]
    if args.trace:
        os.makedirs(keep, exist_ok=True)
        cmd += ["--spans", spans_path]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=driver_timeout_s(args.seconds))
        if proc.returncode != 0:
            log(f"simbench: driver exited with {proc.returncode}")
            return 1
        with open(raw_path) as f:
            raw = json.load(f)
    except subprocess.TimeoutExpired:
        log("simbench: driver timed out")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        rep = per_layer(raw, layers.load(spans_path))
    else:
        rep = end_to_end(raw)

    print(f"simbench {args.workload} seed={args.seed} "
          f"trace={args.trace}: {len(raw['passes'])} passes")
    for line in rep.lines:
        print(line)
    err = raw["failed"] / raw["attempted"]
    print(f"error_rate = {err:.6g} ({raw['failed']} of "
          f"{raw['attempted']} answers)")
    for f in raw["failures"]:
        print("FAILED " + f)
    if args.trace:
        print(f"span file: {spans_path} (raw: {raw_path})")
    print(json.dumps({"correct": raw["failed"] == 0,
                      "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": rep.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
