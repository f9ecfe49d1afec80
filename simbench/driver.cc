/**
 * @file
 * simbench driver: runs one benchmark workload against the OmniSim
 * public API, checks every OmniSim answer against a reference engine,
 * and writes the raw measurements (per-call host times in ns, check
 * outcomes, layer counters) as one JSON object. simbench/run.py turns
 * them into the reported metrics; simbench/README.md documents the
 * workloads and the layer -> metric map.
 *
 *   simbench_driver --workload typebc-cold --seed 1 --seconds 20
 *                   --trace 0 --workdir DIR --out raw.json
 *                   [--spans spans.jsonl]
 *   simbench_driver --describe --workload typea-cold --seed 1
 *   simbench_driver --first-answers --workload typea-cold
 *
 * One load thread issues every call, one at a time. With --trace 1 the
 * driver alternates traced and untraced passes: traced passes record a
 * span around every public call it makes, plus the program's own
 * obs::trace spans, written to --spans at exit.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/omnisim.hh"
#include "cosim/cosim.hh"
#include "csim/csim.hh"
#include "design/classify.hh"
#include "design/frontend.hh"
#include "designs/common.hh"
#include "dse/dse.hh"
#include "gen/generate.hh"
#include "gen/spec.hh"
#include "io/run_io.hh"
#include "io/run_store.hh"
#include "lightningsim/lightningsim.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/json.hh"
#include "serve/service.hh"
#include "support/logging.hh"

using namespace omnisim;

namespace
{

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

// ---------------------------------------------------------------------------
// Spans recorded by the benchmark itself.
// ---------------------------------------------------------------------------

/**
 * Span recorder for the load thread. Every timed call goes through a
 * Span, traced or not, so traced and untraced passes time exactly the
 * same code. A span opened with no enclosing span is an operation root:
 * while tracing is armed it restarts the program's trace session, and
 * on close it keeps the program's spans for that operation, so the
 * per-thread trace rings never wrap.
 */
class Tracer
{
  public:
    struct Rec
    {
        std::uint64_t id = 0;
        std::uint64_t parent = 0; ///< 0 for an operation root
        std::string name;
        std::string design;
        int pass = 0;
        std::uint64_t startNs = 0;
        std::uint64_t endNs = 0;
    };
    struct ProgramTrace
    {
        std::uint64_t root = 0;
        std::uint64_t epochNs = 0; ///< steady-clock time of trace ts 0
        std::string json;          ///< obs::traceJson() of the operation
    };

    /** Records (and arms program tracing) only while armed. */
    void arm(bool on, int pass)
    {
        armed_ = on;
        pass_ = pass;
    }

    class Span
    {
      public:
        Span(Tracer &t, const char *name, const std::string &design)
            : t_(t), name_(name), design_(design)
        {
            if (t_.armed_ && t_.stack_.empty()) {
                const std::uint64_t before = nowNs();
                obs::traceStart();
                epochNs_ = before + (nowNs() - before) / 2;
            }
            if (t_.armed_) {
                id_ = ++t_.nextId_;
                parent_ = t_.stack_.empty() ? 0 : t_.stack_.back();
                t_.stack_.push_back(id_);
            }
            startNs_ = nowNs();
        }
        ~Span() { end(); }
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

        /** Close the span (idempotent). @return its duration in ns. */
        std::uint64_t end()
        {
            if (endNs_ == 0) {
                endNs_ = nowNs();
                if (id_ != 0) {
                    t_.stack_.pop_back();
                    t_.recs_.push_back({id_, parent_, name_, design_,
                                        t_.pass_, startNs_, endNs_});
                    if (parent_ == 0) {
                        obs::traceStop();
                        t_.programs_.push_back(
                            {id_, epochNs_, obs::traceJson()});
                    }
                }
            }
            return endNs_ - startNs_;
        }

      private:
        Tracer &t_;
        const char *name_;
        const std::string &design_;
        std::uint64_t id_ = 0;
        std::uint64_t parent_ = 0;
        std::uint64_t epochNs_ = 0;
        std::uint64_t startNs_ = 0;
        std::uint64_t endNs_ = 0;
    };

    /** Write every span as JSON lines. @return false on IO failure. */
    bool write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        if (!f)
            return false;
        for (const Rec &r : recs_) {
            const std::string line = strf(
                "{\"kind\":\"bench\",\"id\":%llu,\"parent\":%llu,"
                "\"name\":%s,\"design\":%s,\"pass\":%d,\"start_ns\":%llu,"
                "\"end_ns\":%llu}\n",
                static_cast<unsigned long long>(r.id),
                static_cast<unsigned long long>(r.parent),
                serve::jsonQuote(r.name).c_str(),
                serve::jsonQuote(r.design).c_str(), r.pass,
                static_cast<unsigned long long>(r.startNs),
                static_cast<unsigned long long>(r.endNs));
            std::fputs(line.c_str(), f);
        }
        for (const ProgramTrace &p : programs_) {
            std::fprintf(f,
                         "{\"kind\":\"program\",\"root\":%llu,"
                         "\"epoch_ns\":%llu,\"trace\":",
                         static_cast<unsigned long long>(p.root),
                         static_cast<unsigned long long>(p.epochNs));
            std::fputs(p.json.c_str(), f);
            std::fputs("}\n", f);
        }
        return std::fclose(f) == 0;
    }

  private:
    bool armed_ = false;
    int pass_ = 0;
    std::uint64_t nextId_ = 0;
    std::vector<std::uint64_t> stack_;
    std::vector<Rec> recs_;
    std::vector<ProgramTrace> programs_;
};

using Span = Tracer::Span;

// ---------------------------------------------------------------------------
// Raw results.
// ---------------------------------------------------------------------------

/** One design's host times (ns) within one pass; 0 = not run. */
struct DesignSample
{
    std::uint64_t omnisim = 0; ///< cold OmniSim answer (warm: simulate)
    std::uint64_t csim = 0;    ///< C-sim, when it completed
    std::uint64_t ref = 0;     ///< co-sim / LightningSim, when it ran
    std::uint64_t first = 0;   ///< warm: warm-first answer, fresh service
    std::vector<std::uint64_t> answers; ///< every answer's latency
    /** Warm: the latencies of the answers resimulate reused a run for. */
    std::vector<std::uint64_t> reused;
};

/** One pass (cold) or round (warm) over the design set. Keeping the
 *  samples per pass lets run.py pair each OmniSim time with the
 *  reference time taken moments later, so host-speed drift cancels. */
struct PassRec
{
    bool traced = false;
    std::map<std::string, DesignSample> designs;
};

/** Everything the driver measured; serialized for run.py. */
struct Raw
{
    std::vector<std::uint64_t> setupNs;
    std::vector<PassRec> passes;
    /** Cold workloads: each registry design's OmniSim answer as the
     *  first answer of a fresh process, one per process. */
    std::map<std::string, std::vector<std::uint64_t>> firstNs;
    /** Names of the seeded generated designs in the set. */
    std::vector<std::string> generated;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    /** Per-layer counts from the first traced pass (trace mode). */
    std::map<std::string, double> counts;
    int tracedPasses = 0;
};

/**
 * Peak resident memory of the OmniSim and service calls alone: reset()
 * sets the kernel's high-water mark (VmHWM) to the current resident set
 * just before a call, and sample() reads it just after and keeps the
 * largest. Reference engines run outside these windows, so they do not
 * set the peak; memory they leave resident does count in it.
 */
class RssPeak
{
  public:
    void reset()
    {
        std::FILE *f = std::fopen("/proc/self/clear_refs", "w");
        if (!f)
            throw std::runtime_error("cannot open /proc/self/clear_refs");
        const bool ok = std::fputs("5", f) >= 0;
        if (std::fclose(f) != 0 || !ok)
            throw std::runtime_error("cannot reset the peak resident set");
    }

    void sample()
    {
        std::FILE *f = std::fopen("/proc/self/status", "r");
        if (!f)
            throw std::runtime_error("cannot read /proc/self/status");
        char line[256];
        while (std::fgets(line, sizeof line, f))
            if (std::strncmp(line, "VmHWM:", 6) == 0)
                maxKb_ = std::max(maxKb_, std::strtoull(line + 6, nullptr,
                                                        10));
        std::fclose(f);
    }

    unsigned long long maxKb() const { return maxKb_; }

  private:
    unsigned long long maxKb_ = 0;
};

struct DesignRef
{
    std::string name;
    bool generated = false;
    std::string spec; ///< generated designs: gen::specToString
    char type = 'A';
    std::function<Design()> build;
};

struct Ctx
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    std::string workdir;
    Tracer tracer;
    RssPeak rss;
    Raw raw;

    void fail(const DesignRef &d, const std::string &what)
    {
        ++raw.failed;
        std::string who = "design=" + d.name;
        if (d.generated)
            who += " spec='" + d.spec + "'";
        who += strf(" seed=%llu: ", static_cast<unsigned long long>(seed));
        if (raw.failures.size() < 64)
            raw.failures.push_back(who + what);
    }
};

// ---------------------------------------------------------------------------
// Answer comparison (the agreement rules of src/gen/conformance.cc).
// ---------------------------------------------------------------------------

std::string
memoryDiff(const SimResult &a, const SimResult &b, const char *bn)
{
    if (a.memories.size() != b.memories.size())
        return strf("memory count omnisim=%zu %s=%zu", a.memories.size(),
                    bn, b.memories.size());
    for (auto ai = a.memories.begin(), bi = b.memories.begin();
         ai != a.memories.end(); ++ai, ++bi) {
        if (ai->first != bi->first || ai->second != bi->second)
            return strf("memory '%s' differs from %s", ai->first.c_str(),
                        bn);
    }
    return "";
}

/** Status always; cycles and memories when both completed. */
std::string
resultDiff(const SimResult &om, const SimResult &ref, const char *rn)
{
    if (om.status != ref.status)
        return strf("status omnisim=%s %s=%s", simStatusName(om.status), rn,
                    simStatusName(ref.status));
    if (!om.ok())
        return "";
    if (om.totalCycles != ref.totalCycles)
        return strf("cycles omnisim=%llu %s=%llu",
                    static_cast<unsigned long long>(om.totalCycles), rn,
                    static_cast<unsigned long long>(ref.totalCycles));
    return memoryDiff(om, ref, rn);
}

// ---------------------------------------------------------------------------
// Design sets.
// ---------------------------------------------------------------------------

constexpr std::size_t kTypeBCGenerated = 16;
constexpr std::size_t kTypeAGenerated = 8;
constexpr std::uint32_t kTypeAItems = 2025;

char
typeOf(const Design &d)
{
    return designTypeName(classify(d).type)[0];
}

DesignRef
registryRef(const designs::DesignEntry &e)
{
    DesignRef r;
    r.name = e.name;
    r.build = e.build;
    r.type = typeOf(e.build());
    return r;
}

DesignRef
generatedRef(const gen::GenSpec &spec, char type)
{
    DesignRef r;
    r.name = "gen_" + std::to_string(spec.seed);
    r.generated = true;
    r.spec = gen::specToString(spec);
    r.type = type;
    r.build = [spec] { return gen::materialize(spec); };
    return r;
}

/** The Fig. 8 suite plus seeded generated designs that classify as B/C. */
std::vector<DesignRef>
typeBCSet(std::uint64_t seed)
{
    std::vector<DesignRef> out;
    for (const auto &e : designs::typeBCDesigns())
        out.push_back(registryRef(e));
    std::size_t found = 0;
    for (std::uint64_t i = 0; found < kTypeBCGenerated; ++i) {
        const gen::GenSpec spec = gen::generateSpec(seed + i);
        const char t = typeOf(gen::materialize(spec));
        if (t == 'A')
            continue;
        out.push_back(generatedRef(spec, t));
        ++found;
    }
    return out;
}

/** The Table 5 suite plus seeded blocking-only generated designs. */
std::vector<DesignRef>
typeASet(std::uint64_t seed)
{
    std::vector<DesignRef> out;
    for (const auto &e : designs::typeADesigns())
        out.push_back(registryRef(e));
    gen::GenConfig cfg;
    cfg.pNonBlocking = 0;
    cfg.pMixedEnds = 0;
    cfg.pResponse = 0;
    cfg.pDeadlockInjection = 0;
    for (std::uint64_t i = 0; i < kTypeAGenerated; ++i) {
        gen::GenSpec spec = gen::generateSpec(seed + i, cfg);
        spec.items = kTypeAItems;
        out.push_back(generatedRef(spec, typeOf(gen::materialize(spec))));
    }
    return out;
}

/** Every registry design with at least one FIFO (the sizing targets). */
std::vector<DesignRef>
fifoSet()
{
    std::vector<DesignRef> out;
    for (const auto *suite :
         {&designs::typeBCDesigns(), &designs::typeADesigns()})
        for (const auto &e : *suite)
            if (!e.build().fifos().empty())
                out.push_back(registryRef(e));
    return out;
}

// ---------------------------------------------------------------------------
// Counters the program already exports.
// ---------------------------------------------------------------------------

std::uint64_t
counter(const char *name)
{
    return obs::Registry::global().counter(name).value();
}

/** Counter values at construction; delta() reads the growth since. */
class CounterWindow
{
  public:
    explicit CounterWindow(std::vector<const char *> names)
        : names_(std::move(names))
    {
        for (const char *n : names_)
            base_.push_back(counter(n));
    }
    double delta(const char *name) const
    {
        for (std::size_t i = 0; i < names_.size(); ++i)
            if (std::strcmp(names_[i], name) == 0)
                return static_cast<double>(counter(name) - base_[i]);
        return 0;
    }

  private:
    std::vector<const char *> names_;
    std::vector<std::uint64_t> base_;
};

/** Pass names as CompileStats reports them -> metric spelling. */
std::string
passMetric(const std::string &pass)
{
    std::string s = pass;
    std::replace(s.begin(), s.end(), '-', '_');
    return s;
}

constexpr const char *kPasses[] = {"lattice_prune", "chain_collapse", "dedup",
                                   "partition"};

/** Accumulates core.* and opt.* counts over one pass. */
struct EngineCounts
{
    double events = 0, queries = 0, pauses = 0, forcedBlind = 0, cycles = 0;
    double nodesIn = 0, nodesOut = 0, edgesIn = 0, edgesOut = 0;
    std::map<std::string, double> passElim;

    void add(const SimResult &r, const opt::CompileStats *cs)
    {
        events += static_cast<double>(r.stats.events);
        queries += static_cast<double>(r.stats.queries);
        pauses += static_cast<double>(r.stats.threadPauses);
        forcedBlind += static_cast<double>(r.stats.forcedBlind);
        if (r.ok())
            cycles += static_cast<double>(r.totalCycles);
        if (!cs)
            return;
        nodesIn += static_cast<double>(cs->origNodes);
        nodesOut += static_cast<double>(cs->optNodes);
        edgesIn += static_cast<double>(cs->origEdges);
        edgesOut += static_cast<double>(cs->optEdges);
        for (const opt::PassStats &p : cs->passes)
            passElim[passMetric(p.pass)] +=
                static_cast<double>(p.nodesEliminated + p.edgesEliminated);
    }

    void store(std::map<std::string, double> &out) const
    {
        out["core.events"] = events;
        out["core.queries"] = queries;
        out["core.pauses"] = pauses;
        out["core.forced_blind"] = forcedBlind;
        out["core.sim_cycles"] = cycles;
        out["opt.nodes_in"] = nodesIn;
        out["opt.nodes_out"] = nodesOut;
        out["opt.edges_in"] = edgesIn;
        out["opt.edges_out"] = edgesOut;
        const double before = nodesIn + edgesIn;
        out["opt.elimination"] =
            before > 0 ? 1.0 - (nodesOut + edgesOut) / before : 0.0;
        for (const char *p : kPasses) {
            const auto it = passElim.find(p);
            out[std::string("opt.") + p + ".eliminated"] =
                it == passElim.end() ? 0.0 : it->second;
        }
    }
};

const std::vector<const char *> kRelaxCounters = {
    "relax.runs.parallel", "relax.runs.serial"};

// ---------------------------------------------------------------------------
// Cold workloads: typebc-cold and typea-cold.
// ---------------------------------------------------------------------------

/** Runs the full engine cold: build -> compile -> engine, in spans. */
template <typename RunFn>
SimResult
coldRun(Ctx &c, const DesignRef &d, const char *root, const char *leaf,
        std::uint64_t &ns, RunFn &&run)
{
    Span op(c.tracer, root, d.name);
    std::optional<Design> des;
    {
        Span s(c.tracer, "design.build", d.name);
        des.emplace(d.build());
    }
    std::optional<CompiledDesign> cd;
    {
        Span s(c.tracer, "design.compile", d.name);
        cd.emplace(compile(*des));
    }
    SimResult r;
    {
        Span s(c.tracer, leaf, d.name);
        r = run(*cd);
    }
    ns = op.end();
    return r;
}

/**
 * Host time of one cold C-sim run of a design, or 0 when C-sim does not
 * complete it. A C-sim failure (SIGSEGV, timeout) is the expected
 * reference behaviour on Type B/C designs, not an error; it only drops
 * the design from the C-sim ratio.
 */
std::uint64_t
timeCSim(Ctx &c, const DesignRef &d)
{
    try {
        std::uint64_t ns = 0;
        const SimResult r = coldRun(c, d, "op.csim", "csim.run", ns,
                                    [](const CompiledDesign &cd) {
                                        return simulateCSim(cd);
                                    });
        return r.ok() ? ns : 0;
    } catch (const std::exception &) {
        return 0;
    }
}

struct ColdRefs
{
    SimResult truth;   ///< co-sim (B/C) or LightningSim (A) answer
    SimResult csim;
};

/** Fresh driver processes that answer the registry designs once each. */
constexpr int kFreshProcesses = 5;

/**
 * --first-answers: one cold OmniSim run (build -> compile -> run) of
 * each registry design of a cold workload, the first answers of a fresh
 * process; one line each: name, host ns, status ("threw" when the
 * engine threw), cycles.
 */
int
firstAnswers(const std::string &workload)
{
    setLogQuiet(true);
    const auto &suite = workload == "typea-cold" ? designs::typeADesigns()
                                                 : designs::typeBCDesigns();
    for (const auto &e : suite) {
        const std::uint64_t t0 = nowNs();
        const char *status = "threw";
        SimResult r;
        try {
            const Design d = e.build();
            const CompiledDesign cd = compile(d);
            r = OmniSim(cd).run();
            status = simStatusName(r.status);
        } catch (const std::exception &) {
        }
        std::printf("%s %llu %s %llu\n", e.name.c_str(),
                    static_cast<unsigned long long>(nowNs() - t0), status,
                    static_cast<unsigned long long>(r.totalCycles));
    }
    return 0;
}

/**
 * Runs this driver with --first-answers in a fresh process and records
 * its answers, each checked against the reference on status and cycles.
 */
void
freshProcessAnswers(Ctx &c, const std::vector<DesignRef> &set,
                    const std::vector<ColdRefs> &refs)
{
    const std::string cmd =
        "'" + std::filesystem::read_symlink("/proc/self/exe").string() +
        "' --first-answers --workload " + c.workload;
    std::FILE *p = popen(cmd.c_str(), "r");
    if (!p)
        throw std::runtime_error("cannot start a fresh driver process");
    char name[256];
    char status[32];
    unsigned long long ns = 0;
    unsigned long long cycles = 0;
    while (std::fscanf(p, "%255s %llu %31s %llu", name, &ns, status,
                       &cycles) == 4) {
        const auto it =
            std::find_if(set.begin(), set.end(),
                         [&](const DesignRef &d) { return d.name == name; });
        if (it == set.end())
            continue;
        const SimResult &truth = refs[it - set.begin()].truth;
        ++c.raw.attempted;
        c.raw.firstNs[name].push_back(ns);
        if (std::strcmp(status, simStatusName(truth.status)) != 0 ||
            (truth.ok() && cycles != truth.totalCycles))
            c.fail(*it, strf("first answer in a fresh process %s/%llu, "
                             "reference %s/%llu",
                             status, cycles, simStatusName(truth.status),
                             static_cast<unsigned long long>(
                                 truth.totalCycles)));
    }
    if (pclose(p) != 0)
        throw std::runtime_error("a fresh driver process failed");
}

void
runCold(Ctx &c, bool typeA)
{
    setLogQuiet(true);

    std::vector<DesignRef> set;
    // Set-up: build the design set, then one untimed warm-up pass.
    auto warmUp = [&] {
        for (const DesignRef &d : set) {
            std::uint64_t ns = 0;
            coldRun(c, d, "op.omnisim", "core.run", ns,
                    [](const CompiledDesign &cd) {
                        return simulateOmniSim(cd);
                    });
            coldRun(c, d, "op.csim", "csim.run", ns,
                    [](const CompiledDesign &cd) {
                        return simulateCSim(cd);
                    });
            if (typeA)
                coldRun(c, d, "op.lightningsim", "lightningsim.run", ns,
                        [](const CompiledDesign &cd) {
                            return simulateLightningSim(cd);
                        });
        }
    };
    for (int rep = 0; rep < 3; ++rep) {
        const std::uint64_t t0 = nowNs();
        set = typeA ? typeASet(c.seed) : typeBCSet(c.seed);
        warmUp();
        c.raw.setupNs.push_back(nowNs() - t0);
    }
    for (const DesignRef &d : set)
        if (d.generated)
            c.raw.generated.push_back(d.name);

    // Reference answers (checker work, not timed): co-sim with the RTL
    // cost model off is the conformance ground truth for Type B/C;
    // LightningSim for Type A, plus C-sim's outputs where it completes.
    std::vector<ColdRefs> refs(set.size());
    for (std::size_t i = 0; i < set.size(); ++i) {
        const Design des = set[i].build();
        const CompiledDesign cd = compile(des);
        try {
            if (typeA) {
                refs[i].truth = simulateLightningSim(cd);
                refs[i].csim = simulateCSim(cd);
            } else {
                CosimOptions co;
                co.modelRtlCost = false;
                refs[i].truth = simulateCosim(cd, co);
            }
        } catch (const std::exception &e) {
            refs[i].truth.status = SimStatus::Crash;
            refs[i].truth.message = e.what();
        }
    }

    // The measured time starts with the fresh-process first answers.
    const std::uint64_t deadline =
        nowNs() + static_cast<std::uint64_t>(c.seconds * 1e9);
    for (int k = 0; k < kFreshProcesses; ++k)
        freshProcessAnswers(c, set, refs);

    // Co-sim with the RTL cost model (the Fig. 8 baseline) costs about
    // 15x an OmniSim run, so each design's co-sim runs on every
    // kCosimEvery-th pass, staggered across designs. A traced run pairs
    // each traced pass with an untraced one doing the same work.
    constexpr int kCosimEvery = 8;
    const int minPasses = typeA ? 2 : (c.trace ? 2 : 1) * kCosimEvery;
    // Co-sim clock steps per design, from its first traced co-sim run
    // (each design is co-simulated on a different traced pass).
    std::map<std::string, double> cosimSteps;
    std::uint64_t lastPassNs = 0;
    for (int pass = 0;; ++pass) {
        const std::uint64_t now = nowNs();
        if (pass >= minPasses && now + lastPassNs > deadline)
            break;
        const bool traced = c.trace && pass % 2 == 0;
        c.tracer.arm(traced, pass);
        const bool countPass = traced && c.raw.tracedPasses == 0;
        const int slot = c.trace ? pass / 2 : pass;
        PassRec &rec = c.raw.passes.emplace_back();
        rec.traced = traced;
        EngineCounts ec;
        CounterWindow relax(kRelaxCounters);

        for (std::size_t i = 0; i < set.size(); ++i) {
            const DesignRef &d = set[i];
            DesignSample &ds = rec.designs[d.name];
            std::uint64_t ns = 0;
            ++c.raw.attempted;
            try {
                SimResult om;
                bool haveStats = false;
                opt::CompileStats cs;
                c.rss.reset();
                om = coldRun(c, d, "op.omnisim", "core.run", ns,
                             [&](const CompiledDesign &cd) {
                                 OmniSim eng(cd);
                                 SimResult r = eng.run();
                                 if (r.ok() && countPass) {
                                     cs = eng.compileStats();
                                     haveStats = true;
                                 }
                                 return r;
                             });
                c.rss.sample();
                ds.omnisim = ns;
                ds.answers.push_back(ns);
                if (countPass)
                    ec.add(om, haveStats ? &cs : nullptr);
                std::string diff = resultDiff(
                    om, refs[i].truth, typeA ? "lightningsim" : "cosim");
                if (diff.empty() && typeA && om.ok() && refs[i].csim.ok())
                    diff = memoryDiff(om, refs[i].csim, "csim");
                if (!diff.empty())
                    c.fail(d, diff);
            } catch (const std::exception &e) {
                c.fail(d, std::string("omnisim threw: ") + e.what());
            }

            // Reference engines: their failures on designs they cannot
            // simulate (C-sim SIGSEGV, LightningSim on Type B/C) are
            // expected and only drop the design from that ratio.
            ds.csim = timeCSim(c, d);
            try {
                if (typeA) {
                    const SimResult ls = coldRun(
                        c, d, "op.lightningsim", "lightningsim.run", ns,
                        [](const CompiledDesign &cd) {
                            return simulateLightningSim(cd);
                        });
                    if (ls.ok())
                        ds.ref = ns;
                } else if ((slot + static_cast<int>(i)) % kCosimEvery == 0) {
                    const SimResult co = coldRun(
                        c, d, "op.cosim", "cosim.run", ns,
                        [](const CompiledDesign &cd) {
                            return simulateCosim(cd);
                        });
                    if (co.status == refs[i].truth.status)
                        ds.ref = ns;
                    if (traced)
                        cosimSteps.emplace(
                            d.name,
                            static_cast<double>(co.stats.cyclesStepped));
                }
            } catch (const std::exception &) {
            }
        }
        if (countPass) {
            ec.store(c.raw.counts);
            for (const char *n : kRelaxCounters)
                c.raw.counts[n] = relax.delta(n);
        }
        if (traced)
            ++c.raw.tracedPasses;
        lastPassNs = nowNs() - now;
    }
    c.tracer.arm(false, 0);
    if (c.trace) {
        double steps = 0;
        for (const auto &[name, n] : cosimSteps)
            steps += n;
        c.raw.counts["cosim.cycles_stepped"] = steps;
    }
}

// ---------------------------------------------------------------------------
// fifo-sizing-warm.
// ---------------------------------------------------------------------------

/** The FIFO-sizing traffic is what dse::explore evaluates with the
 *  seeded annealing strategy (the one that takes a seed) under this
 *  budget of configurations per design. */
constexpr const char *kSizingStrategy = "anneal";
constexpr std::size_t kSizingBudget = 32;
/** Every kCheckEvery-th incremental answer is re-derived by
 *  OmniSim::resimulateReference. */
constexpr std::size_t kCheckEvery = 8;

using Depths = std::vector<std::uint32_t>;

/**
 * The configurations one FIFO-sizing search of a design evaluates: the
 * program's own dse::explore over the default space (every FIFO, depths
 * 1, 2, 4, 8, 16), in the order its report lists them. Replayed as
 * resimulate requests against a service seeded with the design's
 * registered depths, a share of them diverges into full runs similar
 * to the search's own (simbench/README.md has the figures).
 */
std::vector<Depths>
sizingProbes(const DesignRef &d, std::uint64_t seed, unsigned jobs)
{
    dse::DseOptions o;
    o.strategy = kSizingStrategy;
    o.budget = kSizingBudget;
    o.seed = seed;
    o.jobs = jobs;
    std::vector<Depths> out;
    for (const dse::Evaluation &e :
         dse::explore(d.name, d.build, o).evaluations)
        out.push_back(e.depths);
    return out;
}

struct FifoTarget
{
    DesignRef ref;
    Depths base;
    std::unique_ptr<Design> design;
    std::unique_ptr<CompiledDesign> cd;
    std::unique_ptr<OmniSim> engine; ///< base-depth run (reference)
    SimResult baseRun;
    SimResult truth; ///< LightningSim (A) / co-sim (B/C) at base depths
};

struct Probe
{
    std::size_t target = 0;
    Depths depths;
};

/** A JSON array of unsigned integers. */
template <typename T>
std::string
jsonList(const std::vector<T> &v)
{
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        s += (i ? "," : "") + std::to_string(v[i]);
    return s + "]";
}

/** The design rebuilt with the given FIFO depths. */
Design
atDepths(const DesignRef &r, const Depths &d)
{
    Design des = r.build();
    for (std::size_t f = 0; f < d.size(); ++f)
        des.setFifoDepth(static_cast<FifoId>(f), d[f]);
    return des;
}

/**
 * The reference answer for a full run at the given depths: LightningSim
 * for Type A (co-sim where it declines the configuration), co-sim with
 * the RTL cost model off for Type B/C. A fresh OmniSim run must agree
 * with it unconditionally (fresh-engine-agreement in
 * src/gen/conformance.cc).
 */
SimResult
truthAt(const DesignRef &r, const Depths &d)
{
    const Design des = atDepths(r, d);
    const CompiledDesign cd = compile(des);
    if (r.type == 'A') {
        SimResult ls = simulateLightningSim(cd);
        if (ls.status != SimStatus::Unsupported)
            return ls;
    }
    CosimOptions co;
    co.modelRtlCost = false;
    return simulateCosim(cd, co);
}

struct Answer
{
    bool ok = false;
    std::string status;
    std::uint64_t cycles = 0;
    std::string method;
    std::string error;
};

Answer
parseAnswer(const std::string &line)
{
    Answer a;
    try {
        const serve::JsonValue v = serve::JsonValue::parse(line);
        const serve::JsonValue *ok = v.find("ok");
        a.ok = ok && ok->isBool() && ok->boolean();
        if (!a.ok) {
            const serve::JsonValue *e = v.find("error");
            a.error = e && e->isString() ? e->str() : line;
            return a;
        }
        auto field = [&](const char *k) -> const serve::JsonValue & {
            const serve::JsonValue *f = v.find(k);
            if (!f)
                throw std::runtime_error(std::string("no \"") + k + "\"");
            return *f;
        };
        a.status = field("status").str();
        a.cycles = field("cycles").asU64("cycles", ~0ULL);
        a.method = field("method").str();
    } catch (const std::exception &e) {
        a.ok = false;
        a.error = std::string("unparseable response: ") + e.what();
    }
    return a;
}

/** "" when the answer matches the expected result, else the mismatch. */
std::string
answerDiff(const char *what, const Depths &d, const Answer &a,
           const SimResult &expect, const char *by)
{
    if (a.status == simStatusName(expect.status) &&
        (!expect.ok() || a.cycles == expect.totalCycles))
        return "";
    return strf("%s %s answered %s/%llu (%s), %s %s/%llu", what,
                jsonList(d).c_str(), a.status.c_str(),
                static_cast<unsigned long long>(a.cycles), a.method.c_str(),
                by, simStatusName(expect.status),
                static_cast<unsigned long long>(expect.totalCycles));
}

void
runFifo(Ctx &c)
{
    setLogQuiet(true);
    namespace fs = std::filesystem;
    const unsigned jobs =
        std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    int storeSerial = 0;
    auto freshStore = [&] {
        const fs::path p =
            fs::path(c.workdir) / ("store-" + std::to_string(storeSerial++));
        fs::remove_all(p);
        return p.string();
    };
    auto serveOpts = [&](const std::string &dir) {
        serve::ServeOptions o;
        o.jobs = jobs; // as `omnisim_cli serve --jobs N` configures it
        o.storeDir = dir;
        return o;
    };

    std::vector<FifoTarget> targets;
    std::uint64_t reqId = 0;
    auto request = [&](serve::SimService &svc, const std::string &body) {
        return svc.handle(strf("{\"id\":%llu,%s}",
                               static_cast<unsigned long long>(++reqId),
                               body.c_str()));
    };
    auto simulateReq = [&](const FifoTarget &t) {
        return strf("\"op\":\"simulate\",\"design\":%s",
                    serve::jsonQuote(t.ref.name).c_str());
    };
    auto resimReq = [&](const FifoTarget &t, const Depths &d) {
        return strf("\"op\":\"resimulate\",\"design\":%s,\"depths\":%s",
                    serve::jsonQuote(t.ref.name).c_str(),
                    jsonList(d).c_str());
    };

    // Set-up: build the design set, start the service, and warm it with
    // one cold simulate + one resimulate per design.
    for (int rep = 0; rep < 3; ++rep) {
        const std::uint64_t t0 = nowNs();
        targets.clear();
        for (DesignRef &r : fifoSet()) {
            FifoTarget t;
            t.ref = std::move(r);
            const Design d = t.ref.build();
            for (const auto &f : d.fifos())
                t.base.push_back(f.depth);
            targets.push_back(std::move(t));
        }
        const std::string dir = freshStore();
        {
            serve::SimService svc(serveOpts(dir));
            for (const FifoTarget &t : targets) {
                request(svc, simulateReq(t));
                request(svc, resimReq(t, t.base));
            }
        }
        c.raw.setupNs.push_back(nowNs() - t0);
        fs::remove_all(dir);
    }

    // The probe stream (input generation, not timed): each design's
    // sizing search, the designs taking turns so that a stall of the
    // host slows a mix of designs rather than one design's block. The
    // seed picks the annealing trajectories.
    std::vector<std::vector<Depths>> searches;
    for (const FifoTarget &t : targets)
        searches.push_back(sizingProbes(t.ref, c.seed, jobs));
    std::vector<Probe> probes;
    for (std::size_t k = 0;; ++k) {
        const std::size_t before = probes.size();
        for (std::size_t ti = 0; ti < searches.size(); ++ti)
            if (k < searches[ti].size())
                probes.push_back({ti, searches[ti][k]});
        if (probes.size() == before)
            break;
    }

    // The cold simulate answers' reference (checker work, not timed).
    for (FifoTarget &t : targets)
        t.truth = truthAt(t.ref, t.base);
    // The base-depth OmniSim run of a design, made on first use: it
    // serves resimulateReference() to the answer checks and the graph
    // and io layers' direct calls on traced rounds. Untraced rounds run
    // without it, so it is not resident while the service is measured.
    auto baseEngine = [](FifoTarget &t) -> OmniSim & {
        if (!t.engine) {
            t.design = std::make_unique<Design>(t.ref.build());
            t.cd = std::make_unique<CompiledDesign>(compile(*t.design));
            t.engine = std::make_unique<OmniSim>(*t.cd);
            t.baseRun = t.engine->run();
        }
        return *t.engine;
    };
    // Warm-first probe: the first FIFO one deeper than registered.
    auto warmFirstDepths = [](const FifoTarget &t) {
        Depths d = t.base;
        ++d[0];
        return d;
    };

    // Every answer must repeat across rounds and services; the
    // distinct answers are checked against references after the timed
    // rounds (see checkAnswer): every one a full run gave, every
    // kCheckEvery-th incremental one, and every warm-first one.
    struct Seen
    {
        Answer a;
        bool full = false;
        bool check = false;
    };
    std::map<std::pair<std::size_t, Depths>, Seen> seen;
    std::size_t incrementalSeen = 0;
    auto record = [&](std::size_t ti, const Depths &d, const Answer &a,
                      bool always) {
        const FifoTarget &t = targets[ti];
        if (!a.ok) {
            c.fail(t.ref, "resimulate error: " + a.error);
            return;
        }
        auto [it, fresh] = seen.emplace(std::make_pair(ti, d), Seen{a});
        Seen &s = it->second;
        if (!fresh && (s.a.status != a.status || s.a.cycles != a.cycles)) {
            c.fail(t.ref, strf("resimulate %s answered %s/%llu, earlier "
                               "%s/%llu", jsonList(d).c_str(),
                               a.status.c_str(),
                               static_cast<unsigned long long>(a.cycles),
                               s.a.status.c_str(),
                               static_cast<unsigned long long>(s.a.cycles)));
            return;
        }
        s.full = s.full || a.method != "incremental";
        s.check = s.check || s.full || always ||
                  incrementalSeen++ % kCheckEvery == 0;
    };
    // A full run's answer must equal truthAt() at the probe depths. An
    // incremental one must equal resimulateReference() from the
    // base-depth run or, when that run's constraints diverge, a fresh
    // full run, unless that run had to guess (the resim-vs-fresh rule
    // of src/gen/conformance.cc).
    auto checkAnswer = [&](FifoTarget &t, const Depths &d,
                           const Seen &s) -> std::string {
        if (s.full)
            return answerDiff("resimulate", d, s.a, truthAt(t.ref, d),
                              t.ref.type == 'A' ? "lightningsim" : "cosim");
        const IncrementalOutcome ref = baseEngine(t).resimulateReference(d);
        if (ref.reused)
            return answerDiff("resimulate", d, s.a, ref.result,
                              "resimulateReference");
        const Design fresh = atDepths(t.ref, d);
        const CompiledDesign fcd = compile(fresh);
        const SimResult expect = simulateOmniSim(fcd);
        if (expect.stats.forcedBlind != 0 ||
            expect.stats.deadlockRetroSuspect != 0)
            return "";
        return answerDiff("resimulate", d, s.a, expect, "fresh run");
    };
    // A warm-first answer may be a full run only when none of the runs
    // the store offered the fresh service can reuse it: the first
    // maxPoolPerDesign runs loadAll() gives, leaving out the one that
    // full run itself published.
    std::map<std::size_t, bool> storeCovers;
    auto storeCoversProbe = [&](const std::string &dir, std::size_t ti) {
        const auto [it, todo] = storeCovers.emplace(ti, false);
        if (todo) {
            const FifoTarget &t = targets[ti];
            const Depths d = warmFirstDepths(t);
            const std::size_t pool = serve::ServeOptions{}.maxPoolPerDesign;
            std::size_t offered = 0;
            for (const auto &run : io::RunStore(dir).loadAll(
                     t.ref.name, "omnisim",
                     io::designFingerprint(t.ref.build()), pool + 1)) {
                if (run->baseDepths() == d || offered == pool)
                    continue;
                ++offered;
                it->second = it->second || run->resimulate(d).reused;
            }
        }
        return it->second;
    };

    const std::vector<const char *> dseCounters = {
        "dse.evalcache.memo_hits", "dse.evalcache.incremental",
        "dse.evalcache.delta", "dse.evalcache.full_runs",
        "store.publishes", "store.load_hits"};
    const std::vector<const char *> graphCounters = {
        "engine.resim.attempts", "engine.resim.delta",
        "engine.resim.full_relax", "engine.resim.diverged",
        "engine.resim.reused", "relax.runs.parallel", "relax.runs.serial"};

    /** One timed SimService::handle call, inside the peak-RSS window. */
    auto timed = [&](serve::SimService &svc, const char *span,
                     const FifoTarget &t, const std::string &body,
                     std::uint64_t &ns) {
        c.rss.reset();
        std::string line;
        {
            Span s(c.tracer, span, t.ref.name);
            line = request(svc, body);
            ns = s.end();
        }
        c.rss.sample();
        return parseAnswer(line);
    };

    const int minRounds = 2;
    const std::uint64_t deadline =
        nowNs() + static_cast<std::uint64_t>(c.seconds * 1e9);
    std::uint64_t lastRoundNs = 0;
    for (int round = 0;; ++round) {
        const std::uint64_t now = nowNs();
        if (round >= minRounds && now + lastRoundNs > deadline)
            break;
        const bool traced = c.trace && round % 2 == 0;
        c.tracer.arm(traced, round);
        const bool countRound = traced && c.raw.tracedPasses == 0;
        PassRec &rec = c.raw.passes.emplace_back();
        rec.traced = traced;
        const std::string dir = freshStore();
        CounterWindow serveWindow(dseCounters);
        double serveErrors = 0;
        {
            serve::SimService svc(serveOpts(dir));
            // Step 1: a cold simulate for every design fills the store.
            for (const FifoTarget &t : targets) {
                DesignSample &ds = rec.designs[t.ref.name];
                const Answer a = timed(svc, "serve.simulate", t,
                                       simulateReq(t), ds.omnisim);
                ++c.raw.attempted;
                if (!a.ok) {
                    ++serveErrors;
                    c.fail(t.ref, "simulate error: " + a.error);
                } else if (std::string diff = answerDiff(
                               "simulate", t.base, a, t.truth,
                               t.ref.type == 'A' ? "lightningsim" : "cosim");
                           !diff.empty()) {
                    c.fail(t.ref, diff);
                }
                // C-sim of the same design: the "C speed" denominator.
                ds.csim = timeCSim(c, t.ref);
            }

            // Step 2: the closed-loop resimulate stream.
            for (const Probe &p : probes) {
                const FifoTarget &t = targets[p.target];
                std::uint64_t ns = 0;
                const Answer a = timed(svc, "serve.resimulate", t,
                                       resimReq(t, p.depths), ns);
                DesignSample &ds = rec.designs[t.ref.name];
                ds.answers.push_back(ns);
                if (a.ok && a.method == "incremental")
                    ds.reused.push_back(ns);
                ++c.raw.attempted;
                if (!a.ok)
                    ++serveErrors;
                record(p.target, p.depths, a, false);
            }
        }

        // Step 3: a fresh service over the filled store answers one
        // resimulate per design — the warm-first case. Where the store
        // holds the design's base run (its reference completes), the
        // answer must load runs from the store.
        std::vector<std::size_t> fullWarmFirst;
        {
            serve::SimService svc(serveOpts(dir));
            for (std::size_t ti = 0; ti < targets.size(); ++ti) {
                const FifoTarget &t = targets[ti];
                const Depths d = warmFirstDepths(t);
                const std::uint64_t loads = counter("store.load_hits");
                const Answer a = timed(svc, "serve.resimulate", t,
                                       resimReq(t, d),
                                       rec.designs[t.ref.name].first);
                ++c.raw.attempted;
                if (!a.ok)
                    ++serveErrors;
                if (a.ok && t.truth.ok() &&
                    counter("store.load_hits") == loads)
                    c.fail(t.ref, "warm-first resimulate " + jsonList(d) +
                                      " loaded nothing from the store");
                if (a.ok && t.truth.ok() && a.method != "incremental")
                    fullWarmFirst.push_back(ti);
                record(ti, d, a, true);
            }
        }
        if (countRound) {
            for (const char *n : dseCounters)
                c.raw.counts[n] = serveWindow.delta(n);
            c.raw.counts["serve.errors"] = serveErrors;
        }
        for (const std::size_t ti : fullWarmFirst)
            if (storeCoversProbe(dir, ti))
                c.fail(targets[ti].ref,
                       "warm-first resimulate " +
                           jsonList(warmFirstDepths(targets[ti])) +
                           " answered by a full run, although a run in "
                           "the store reuses it");
        fs::remove_all(dir);

        // Traced rounds also drive the graph and io layers directly on
        // the same designs and probe sequence.
        if (traced) {
            double bytes = 0;
            for (FifoTarget &t : targets) {
                OmniSim &eng = baseEngine(t);
                if (!t.baseRun.ok())
                    continue;
                Span op(c.tracer, "op.io", t.ref.name);
                RunSnapshot snap;
                eng.exportSnapshot(snap);
                io::RunFileMeta meta;
                meta.design = t.ref.name;
                meta.engine = "omnisim";
                meta.fingerprint = io::designFingerprint(*t.design);
                std::string image;
                {
                    Span s(c.tracer, "io.encode", t.ref.name);
                    image = io::encodeRun(meta, snap);
                }
                bytes += static_cast<double>(image.size());
                io::RunFileMeta meta2;
                RunSnapshot snap2;
                {
                    Span s(c.tracer, "io.decode", t.ref.name);
                    io::decodeRun(image, meta2, snap2);
                }
                {
                    Span s(c.tracer, "graph.rehydrate", t.ref.name);
                    io::StoredRun::rehydrate(std::move(snap2),
                                             std::move(meta2));
                }
            }
            CounterWindow graphWindow(graphCounters);
            for (const Probe &p : probes) {
                const FifoTarget &t = targets[p.target];
                if (!t.baseRun.ok())
                    continue;
                Span op(c.tracer, "op.resim", t.ref.name);
                Span s(c.tracer, "graph.resim", t.ref.name);
                t.engine->resimulate(p.depths);
            }
            if (countRound) {
                auto &k = c.raw.counts;
                k["io.run_bytes"] = bytes;
                k["graph.resim_delta"] =
                    graphWindow.delta("engine.resim.delta");
                k["graph.resim_full"] =
                    graphWindow.delta("engine.resim.full_relax");
                k["graph.resim_diverged"] =
                    graphWindow.delta("engine.resim.diverged");
                const double attempts =
                    graphWindow.delta("engine.resim.attempts");
                k["graph.reuse_rate"] =
                    attempts > 0
                        ? graphWindow.delta("engine.resim.reused") / attempts
                        : 0.0;
                for (const char *n : kRelaxCounters)
                    k[n] = graphWindow.delta(n);
            }
        }
        if (traced)
            ++c.raw.tracedPasses;
        lastRoundNs = nowNs() - now;
    }
    c.tracer.arm(false, 0);

    // The reference checks, untimed, once per distinct answer.
    for (const auto &[key, s] : seen) {
        if (!s.check)
            continue;
        FifoTarget &t = targets[key.first];
        try {
            if (std::string diff = checkAnswer(t, key.second, s);
                !diff.empty())
                c.fail(t.ref, diff);
        } catch (const std::exception &e) {
            c.fail(t.ref, "reference check of resimulate " +
                              jsonList(key.second) + " threw: " + e.what());
        }
    }

    if (c.trace) {
        EngineCounts ec;
        for (FifoTarget &t : targets) {
            OmniSim &eng = baseEngine(t);
            ec.add(t.baseRun, t.baseRun.ok() ? &eng.compileStats() : nullptr);
        }
        ec.store(c.raw.counts);
    }
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

std::string
passJson(const PassRec &p)
{
    std::string s = strf("{\"traced\":%s,\"designs\":{",
                         p.traced ? "true" : "false");
    bool first = true;
    for (const auto &[name, d] : p.designs) {
        s += (first ? "" : ",") + serve::jsonQuote(name) +
             strf(":{\"omnisim\":%llu,\"csim\":%llu,\"ref\":%llu,"
                  "\"first\":%llu,\"answers\":",
                  static_cast<unsigned long long>(d.omnisim),
                  static_cast<unsigned long long>(d.csim),
                  static_cast<unsigned long long>(d.ref),
                  static_cast<unsigned long long>(d.first)) +
             jsonList(d.answers) + ",\"reused\":" + jsonList(d.reused) +
             "}";
        first = false;
    }
    return s + "}}";
}

std::string
rawJson(const Ctx &c)
{
    const Raw &r = c.raw;
    std::string s = "{";
    s += "\"workload\":" + serve::jsonQuote(c.workload);
    s += strf(",\"seed\":%llu", static_cast<unsigned long long>(c.seed));
    s += ",\"setup_ns\":" + jsonList(r.setupNs);
    s += ",\"generated\":[";
    for (std::size_t i = 0; i < r.generated.size(); ++i)
        s += (i ? "," : "") + serve::jsonQuote(r.generated[i]);
    s += "]";
    s += ",\"passes\":[";
    for (std::size_t i = 0; i < r.passes.size(); ++i)
        s += (i ? "," : "") + passJson(r.passes[i]);
    s += "]";
    s += strf(",\"attempted\":%llu,\"failed\":%llu",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
    s += ",\"failures\":[";
    for (std::size_t i = 0; i < r.failures.size(); ++i)
        s += (i ? "," : "") + serve::jsonQuote(r.failures[i]);
    s += "],\"counts\":{";
    bool first = true;
    for (const auto &[k, v] : r.counts) {
        s += (first ? "" : ",") + serve::jsonQuote(k) + strf(":%.17g", v);
        first = false;
    }
    s += "},\"first_ns\":{";
    first = true;
    for (const auto &[k, v] : r.firstNs) {
        s += (first ? "" : ",") + serve::jsonQuote(k) + ":" + jsonList(v);
        first = false;
    }
    s += strf("},\"peak_rss_kb\":%llu}", c.rss.maxKb());
    return s;
}

/** --describe: the workload's design set, one JSON object per line;
 *  on fifo-sizing-warm with each design's probe stream. */
int
describe(const std::string &workload, std::uint64_t seed)
{
    std::vector<DesignRef> set;
    if (workload == "typebc-cold")
        set = typeBCSet(seed);
    else if (workload == "typea-cold")
        set = typeASet(seed);
    else
        set = fifoSet();
    const bool sizing = workload == "fifo-sizing-warm";
    setLogQuiet(true);
    for (const DesignRef &d : set) {
        std::string probes;
        if (sizing) {
            probes = ",\"probes\":[";
            const std::vector<Depths> ps = sizingProbes(d, seed, 1);
            for (std::size_t i = 0; i < ps.size(); ++i)
                probes += (i ? "," : "") + jsonList(ps[i]);
            probes += "]";
        }
        std::printf("{\"name\":%s,\"type\":\"%c\",\"generated\":%s,"
                    "\"spec\":%s%s}\n",
                    serve::jsonQuote(d.name).c_str(), d.type,
                    d.generated ? "true" : "false",
                    serve::jsonQuote(d.spec).c_str(), probes.c_str());
    }
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: simbench_driver --workload W --seed N --seconds S "
                 "--trace 0|1 --workdir DIR --out FILE [--spans FILE]\n"
                 "       simbench_driver --describe --workload W --seed N\n"
                 "       simbench_driver --first-answers --workload W\n"
                 "workloads: typebc-cold typea-cold fifo-sizing-warm\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Ctx c;
    std::string out;
    std::string spans;
    bool describeOnly = false;
    bool firstOnly = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            auto val = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw std::runtime_error(a + " needs a value");
                return argv[++i];
            };
            if (a == "--workload")
                c.workload = val();
            else if (a == "--seed")
                c.seed = std::stoull(val());
            else if (a == "--seconds")
                c.seconds = std::stod(val());
            else if (a == "--trace")
                c.trace = val() == "1";
            else if (a == "--workdir")
                c.workdir = val();
            else if (a == "--out")
                out = val();
            else if (a == "--spans")
                spans = val();
            else if (a == "--describe")
                describeOnly = true;
            else if (a == "--first-answers")
                firstOnly = true;
            else
                return usage();
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return usage();
    }
    const bool known = c.workload == "typebc-cold" ||
                       c.workload == "typea-cold" ||
                       c.workload == "fifo-sizing-warm";
    if (!known)
        return usage();
    if (describeOnly)
        return describe(c.workload, c.seed);
    if (firstOnly)
        return firstAnswers(c.workload);
    if (out.empty() || c.workdir.empty() || (c.trace && spans.empty()))
        return usage();

    try {
        std::filesystem::create_directories(c.workdir);
        if (c.workload == "fifo-sizing-warm")
            runFifo(c);
        else
            runCold(c, c.workload == "typea-cold");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: workload aborted: %s\n", e.what());
        return 1;
    }

    if (c.trace && !c.tracer.write(spans)) {
        std::fprintf(stderr, "error: cannot write %s\n", spans.c_str());
        return 1;
    }
    std::FILE *f = std::fopen(out.c_str(), "wb");
    if (!f) {
        std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
        return 1;
    }
    const std::string json = rawJson(c);
    const bool ok = std::fputs(json.c_str(), f) >= 0;
    if (std::fclose(f) != 0 || !ok)
        return 1;
    return 0;
}
