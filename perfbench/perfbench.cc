/**
 * @file
 * Host-speed benchmark of the FAST runners.  Two workloads: spec-coupled
 * (fast::FastSimulator over four spec guests) and smp-service
 * (fast::SmpSimulator, 4 cores, tmThreads=1).  Traced runs add one pass
 * of the mechanism each workload bypasses: fast::ParallelFastSimulator
 * for spec-coupled, tmThreads=2 under tm::BspScheduler for smp-service.
 * README.md beside this file documents the workloads, every metric and
 * how to read a traced run.
 *
 *   perfbench --workload spec-coupled|smp-service [--seed N] [--seconds S]
 *             [--trace 0|1] [--spans PATH] [--corrupt-expected]
 *
 * One operation is one guest simulation.  It fails unless the guest
 * reaches its final halt within the cycle bound and its
 * (committed instructions, cycles, commit hash) equal the expected
 * triple: the first run of that guest on the workload's own runner.
 * Companion-pass operations must match it too, cycles included.  Service
 * runs also fail unless every request completes.
 *
 * With --trace 0 the end-to-end metrics are measured with tracing off.
 * With --trace 1 an untraced phase is followed by a traced phase and the
 * companion pass, whose spans (name, start, end, parent, trace id) are
 * kept in memory and written as a Chrome trace-event file at the end;
 * the per-layer metrics come from those.  The last stdout line is the
 * JSON result.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fast/parallel.hh"
#include "fast/simulator.hh"
#include "fast/smp.hh"
#include "fm/func_model.hh"
#include "kernel/boot.hh"
#include "tm/bsp.hh"
#include "workloads/service.hh"
#include "workloads/workloads.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace fastsim {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// --- seeded inputs ---------------------------------------------------------

constexpr std::uint64_t DefaultSeed = 1;

/** The spec guests and their default (bench) scales. */
const std::pair<const char *, unsigned> kSpecGuests[] = {
    {"164.gzip", 8000},
    {"181.mcf", 2500},
    {"253.perlbmk", 400},
    {"Sweep3D", 2000},
};

/** Service shape: 1 server + 3 closed-loop generators. */
constexpr unsigned SmpCores = 4;
constexpr unsigned DefaultRequestsPerGen = 3000;
constexpr unsigned ServerWorkIters = 8;

/** Every seeded input is drawn uniformly from default * [1-Band, 1+Band]. */
constexpr double Band = 0.10;

constexpr Cycle SpecCycleBound = 20'000'000;
constexpr Cycle SmpCycleBound = 5'000'000;

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

unsigned
drawAround(std::uint64_t &state, unsigned base)
{
    const unsigned lo = static_cast<unsigned>(base * (1.0 - Band));
    const unsigned hi = static_cast<unsigned>(base * (1.0 + Band));
    return lo + static_cast<unsigned>(splitmix64(state) % (hi - lo + 1));
}

struct Guest
{
    std::string name;
    unsigned scale = 0;
};

struct Inputs
{
    std::vector<Guest> guests;
    workloads::ServiceConfig svc;
};

Inputs
drawInputs(std::uint64_t seed)
{
    std::uint64_t s = seed;
    Inputs in;
    for (const auto &[name, scale] : kSpecGuests)
        in.guests.push_back({name, drawAround(s, scale)});
    in.svc.loadGenerators = SmpCores - 1;
    in.svc.requestsPerGen = drawAround(s, DefaultRequestsPerGen);
    in.svc.serverWorkIters = ServerWorkIters;
    return in;
}

// --- spans -----------------------------------------------------------------

/**
 * In-memory span recorder.  Spans of one guest run share a trace id;
 * parent is the index of the enclosing span (-1 for a root).  Disabled
 * tracers record nothing and cost one branch per call.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double startUs = 0;
        double endUs = 0;
        int parent = -1;
        std::uint64_t traceId = 0;
    };

    explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}


    int
    begin(std::string name, int parent, std::uint64_t trace_id)
    {
        if (!on_)
            return -1;
        spans_.push_back({std::move(name), nowUs(), 0, parent, trace_id});
        return static_cast<int>(spans_.size() - 1);
    }

    void
    end(int span)
    {
        if (span >= 0)
            spans_[span].endUs = nowUs();
    }

    /** A span whose interval was timed by the caller. */
    void
    add(std::string name, Clock::time_point a, Clock::time_point b,
        int parent, std::uint64_t trace_id)
    {
        if (on_)
            spans_.push_back({std::move(name), us(a), us(b), parent,
                              trace_id});
    }

    std::uint64_t newTraceId() { return ++lastTraceId_; }

    /** Chrome trace-event JSON (opens in Perfetto / chrome://tracing). */
    bool
    write(const std::string &path) const
    {
        std::ofstream f(path);
        if (!f)
            return false;
        f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            char buf[160];
            std::snprintf(buf, sizeof buf,
                          "\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                          "\"ts\":%.3f,\"dur\":%.3f,",
                          static_cast<unsigned long long>(s.traceId),
                          s.startUs, s.endUs - s.startUs);
            f << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\","
              << buf << "\"args\":{\"span\":" << i
              << ",\"parent\":" << s.parent
              << ",\"trace_id\":" << s.traceId << "}}";
        }
        f << "\n]}\n";
        return static_cast<bool>(f);
    }

    /** Per span name: count, total and self time (total minus the part
     *  covered by child spans). */
    void
    printSelfTimes() const
    {
        std::vector<double> childUs(spans_.size(), 0.0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                childUs[s.parent] += s.endUs - s.startUs;
        struct Agg
        {
            std::uint64_t n = 0;
            double totalUs = 0, selfUs = 0;
        };
        std::map<std::string, Agg> by;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            Agg &a = by[spans_[i].name];
            const double d = spans_[i].endUs - spans_[i].startUs;
            ++a.n;
            a.totalUs += d;
            a.selfUs += d - childUs[i];
        }
        std::printf("\nspan self time (traced phase and companion pass)\n");
        std::printf("  %-22s %8s %12s %12s\n", "span", "count", "total_ms",
                    "self_ms");
        for (const auto &[name, a] : by)
            std::printf("  %-22s %8llu %12.3f %12.3f\n", name.c_str(),
                        static_cast<unsigned long long>(a.n),
                        a.totalUs / 1e3, a.selfUs / 1e3);
    }

  private:
    double us(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - epoch_).count();
    }
    double nowUs() const { return us(Clock::now()); }

    bool on_;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::uint64_t lastTraceId_ = 0;
};

/** Scoped span. */
class SpanScope
{
  public:
    SpanScope(Tracer &t, std::string name, int parent, std::uint64_t id)
        : t_(t), span_(t.begin(std::move(name), parent, id))
    {
    }
    ~SpanScope() { t_.end(span_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;
    int id() const { return span_; }

  private:
    Tracer &t_;
    int span_;
};

// --- one operation ---------------------------------------------------------

/** Named counters of one operation; summed over a pass. */
using Counters = std::map<std::string, double>;

struct OpResult
{
    std::string guest;
    bool finished = false;
    Cycle cycles = 0;
    std::uint64_t insts = 0;
    std::uint64_t hash = 0;
    double imageS = 0, constructS = 0, bootS = 0;
    double runS = 0;
    Counters counters;
    std::vector<std::string> failures;

    double setupS() const { return imageS + constructS + bootS; }
};

/** Host ns of each traced tickOnce(), in order. */
using TickLog = std::vector<std::uint32_t>;

constexpr std::uint64_t TickWindow = 16384; //!< ticks per fast.ticks span

fast::FastConfig
specConfig()
{
    fast::FastConfig cfg;
    cfg.fm.ramBytes = kernel::MemoryMap::RamBytes;
    cfg.core.bp.kind = tm::BpKind::Gshare;
    cfg.core.statsIntervalBb = 1u << 30; // interval sampling off
    cfg.guardrails.hashCommits = true;
    cfg.deterministicDevices = true;
    return cfg;
}

fast::FastConfig
smpConfig(unsigned tm_threads)
{
    fast::FastConfig cfg;
    cfg.numCores = SmpCores;
    cfg.fm.ramBytes = kernel::MemoryMap::RamBytes;
    cfg.core.statsIntervalBb = 1u << 30;
    cfg.core.tmThreads = tm_threads;
    cfg.guardrails.hashCommits = true;
    return cfg;
}

kernel::BuildOptions
specBootOptions(const Guest &g)
{
    auto opts =
        workloads::bootOptionsFor(workloads::byName(g.name), g.scale);
    opts.timerInterval = 4000; // target cycles between timer ticks
    return opts;
}

/** tickOnce() until the final halt or the bound: the body of run() with
 *  checkpointing off, each call timed. */
template <typename Sim>
void
tracedTicks(Sim &sim, Cycle bound, TickLog &log, Tracer &tr, int parent,
            std::uint64_t id)
{
    auto windowStart = Clock::now();
    std::uint64_t n = 0;
    while (sim.core().cycle() < bound) {
        const auto t0 = Clock::now();
        sim.tickOnce();
        const auto t1 = Clock::now();
        log.push_back(static_cast<std::uint32_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
        const bool done = sim.finished();
        if (++n % TickWindow == 0 || done) {
            tr.add("fast.ticks", windowStart, t1, parent, id);
            windowStart = t1;
        }
        if (done)
            break;
    }
}

void
addFmCounters(Counters &c, const stats::Group &s)
{
    c["fm.steps"] += s.value("instructions");
    c["fm.wrong_path_insts"] += s.value("wrong_path_insts");
    c["fm.rolled_back_insts"] += s.value("rolled_back_insts");
    c["fm.rollbacks"] += s.value("rollbacks");
    c["fm.decode_hits"] += s.value("decode_cache_hits");
    c["fm.decode_misses"] += s.value("decode_cache_misses");
}

void
addRunnerCounters(Counters &c, const stats::Group &s)
{
    c["fast.halted_cycles"] += s.value("fm_halted_polls");
    c["fast.tb_full_stalls"] += s.value("fm_stall_tb_full");
    c["fast.resteers"] +=
        s.value("wrong_path_resteers") + s.value("resolve_resteers");
    c["fast.timer_interrupts"] += s.value("timer_interrupts");
    c["fast.disk_completions"] += s.value("disk_completions");
}

void
addCache(Counters &c, const char *key, const stats::Group &s)
{
    c[std::string(key) + "_hits"] += s.value("hits");
    c[std::string(key) + "_accesses"] += s.value("accesses");
}

/** Counters of a single-core run (coupled or parallel). */
template <typename Sim>
void
collectSingle(Sim &sim, OpResult &op)
{
    Counters &c = op.counters;
    addFmCounters(c, sim.fm().stats());
    addRunnerCounters(c, sim.stats());
    const tm::Core &core = sim.core();
    c["tm.cycles"] += core.cycle();
    c["tm.committed_insts"] += core.committedInsts();
    c["tm.bp_branches"] += core.bp().branches();
    c["tm.bp_correct"] += core.bp().branches() - core.bp().mispredicts();
    c["tm.fetch_stall_starved"] +=
        core.registry().statValue("fetch_stall_starved");
    c["tm.drain_cycles"] += core.registry().statValue("drain_cycles");
    addCache(c, "tm.l1d", core.l1d().level().stats());
    addCache(c, "tm.l2", core.l2().level().stats());
    const stats::Group &s = sim.stats();
    for (const char *k : {"fm_parks", "tm_parks", "fm_wakes", "tm_wakes",
                          "epoch_hold_ticks", "cmd_commit_batches"})
        c[std::string("fast.parallel.") + k] += s.value(k);
}

/**
 * The set-up every operation pays: boot-image build, simulator
 * construction (fabric verify, BSP partitioning) and boot().
 */
template <typename Sim>
std::unique_ptr<Sim>
setUp(const kernel::BuildOptions &opts, const fast::FastConfig &cfg,
      OpResult &op, Tracer &tr, int parent, std::uint64_t id)
{
    const auto t0 = Clock::now();
    const kernel::BootImage image = kernel::buildBootImage(opts);
    const auto t1 = Clock::now();
    auto sim = std::make_unique<Sim>(cfg);
    const auto t2 = Clock::now();
    sim->boot(image);
    const auto t3 = Clock::now();
    tr.add("kernel.image_build", t0, t1, parent, id);
    tr.add("fast.construct", t1, t2, parent, id);
    tr.add("fast.boot", t2, t3, parent, id);
    op.imageS = secondsBetween(t0, t1);
    op.constructS = secondsBetween(t1, t2);
    op.bootS = secondsBetween(t2, t3);
    return sim;
}

OpResult
runSpecGuest(const Guest &g, bool parallel, Tracer &tr, TickLog *ticks)
{
    OpResult op;
    op.guest = g.name;
    const std::uint64_t id = tr.newTraceId();
    SpanScope root(tr, "guest:" + g.name, -1, id);
    const auto opts = specBootOptions(g);

    if (!parallel) {
        auto sim = setUp<fast::FastSimulator>(opts, specConfig(), op, tr,
                                              root.id(), id);
        const auto r0 = Clock::now();
        {
            SpanScope run(tr, "fast.run", root.id(), id);
            if (ticks)
                tracedTicks(*sim, SpecCycleBound, *ticks, tr, run.id(), id);
            else
                sim->run(SpecCycleBound);
        }
        op.runS = secondsBetween(r0, Clock::now());
        op.finished = sim->finished();
        op.cycles = sim->core().cycle();
        op.insts = sim->core().committedInsts();
        op.hash = sim->commitHash();
        collectSingle(*sim, op);
    } else {
        auto sim = setUp<fast::ParallelFastSimulator>(opts, specConfig(), op,
                                                      tr, root.id(), id);
        const auto r0 = Clock::now();
        fast::RunResult r;
        {
            SpanScope run(tr, "fast.parallel.run", root.id(), id);
            r = sim->run(SpecCycleBound);
        }
        op.runS = secondsBetween(r0, Clock::now());
        op.finished = r.finished;
        op.cycles = r.cycles;
        op.insts = r.insts;
        op.hash = sim->commitHash();
        collectSingle(*sim, op);
        op.counters["fast.parallel.run_s"] += op.runS;
        if (sim->degraded())
            op.failures.push_back("parallel run degraded to coupled");
    }
    return op;
}

OpResult
runSmp(const workloads::ServiceConfig &svc, unsigned tm_threads, Tracer &tr,
       TickLog *ticks)
{
    OpResult op;
    op.guest = "service";
    const std::uint64_t id = tr.newTraceId();
    SpanScope root(tr, "guest:service", -1, id);
    auto sim = setUp<fast::SmpSimulator>(workloads::serviceBootOptions(svc),
                                         smpConfig(tm_threads), op, tr,
                                         root.id(), id);
    workloads::ServiceMonitor monitor(svc, *sim);

    const auto r0 = Clock::now();
    {
        SpanScope run(tr, "fast.run", root.id(), id);
        if (ticks)
            tracedTicks(*sim, SmpCycleBound, *ticks, tr, run.id(), id);
        else
            sim->run(SmpCycleBound);
    }
    op.runS = secondsBetween(r0, Clock::now());
    op.finished = sim->finished();
    op.cycles = sim->cycle();
    op.insts = sim->core().committedInstsTotal();
    op.hash = sim->commitHash();

    Counters &c = op.counters;
    const tm::ModuleRegistry &reg = sim->core().registry();
    for (unsigned i = 0; i < sim->numCores(); ++i) {
        const std::string slice = "c" + std::to_string(i) + ".";
        addFmCounters(c, sim->fmCore(i).stats());
        addCache(c, "tm.l1d", sim->core().l1d(i).level().stats());
        c["tm.fetch_stall_starved"] +=
            reg.statValue(slice + "fetch_stall_starved");
        c["tm.drain_cycles"] += reg.statValue(slice + "drain_cycles");
    }
    addCache(c, "tm.l2", sim->core().l2().level().stats());
    addRunnerCounters(c, sim->stats());
    c["tm.cycles"] += op.cycles;
    c["tm.committed_insts"] += op.insts;
    for (const char *k : {"l2_reads", "l2_snoops", "l2_write_notices",
                          "l2_dirty_services"})
        c[std::string("tm.smp.") + k] +=
            reg.statValue(std::string("smp_") + k);
    c["fast.smp.wrong_path_suppressed"] +=
        sim->stats().value("wrong_path_suppressed");
    if (const tm::BspScheduler *bsp = sim->core().bspScheduler()) {
        c["tm.bsp.partitions"] += bsp->partitionCount();
        c["tm.bsp.barriers"] += op.cycles; // one barrier per target cycle
    }

    const workloads::ServiceReport rep = monitor.report();
    c["workloads.service.completed"] += rep.completed;
    c["workloads.service.p50_cycles"] += rep.p50;
    c["workloads.service.p99_cycles"] += rep.p99;
    if (rep.completed != rep.totalRequests)
        op.failures.push_back(
            "service completed " + std::to_string(rep.completed) + " of " +
            std::to_string(rep.totalRequests) + " requests");
    return op;
}

/** Set-up only (no run): an extra sample for the set-up medians.  A
 *  null guest selects the service. */
OpResult
setUpOnly(const Inputs &in, const Guest *g)
{
    Tracer off(false);
    OpResult op;
    op.guest = g ? g->name : "service";
    if (g)
        setUp<fast::FastSimulator>(specBootOptions(*g), specConfig(), op,
                                   off, -1, 0);
    else
        setUp<fast::SmpSimulator>(workloads::serviceBootOptions(in.svc),
                                  smpConfig(1), op, off, -1, 0);
    return op;
}

/** Run one operation; a simulator exception (panic() or fatal()) makes
 *  it a failed operation instead of ending the benchmark. */
template <typename Run>
OpResult
guarded(const std::string &guest, Run &&run)
{
    try {
        return run();
    } catch (const std::exception &e) {
        OpResult op;
        op.guest = guest;
        op.failures.push_back(std::string("exception: ") + e.what());
        return op;
    }
}

// --- checks ----------------------------------------------------------------

struct Expected
{
    std::uint64_t insts = 0;
    Cycle cycles = 0;
    std::uint64_t hash = 0;
};

std::string
triple(std::uint64_t insts, Cycle cycles, std::uint64_t hash)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "(insts=%llu cycles=%llu hash=%016llx)",
                  static_cast<unsigned long long>(insts),
                  static_cast<unsigned long long>(cycles),
                  static_cast<unsigned long long>(hash));
    return buf;
}

/** Append the op's check failures (if any) against `exp`. */
void
checkOp(OpResult &op, const Expected *exp, Cycle bound,
        const char *against)
{
    if (!op.finished)
        op.failures.push_back("no final halt within " +
                              std::to_string(bound) + " cycles");
    if (!exp) {
        op.failures.push_back(std::string("no expected result (") +
                              against + " did not finish)");
        return;
    }
    if (op.insts != exp->insts || op.cycles != exp->cycles ||
        op.hash != exp->hash)
        op.failures.push_back(triple(op.insts, op.cycles, op.hash) +
                              " != " + against + " " +
                              triple(exp->insts, exp->cycles, exp->hash));
}

// --- statistics helpers ----------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile. */
double
percentile(std::vector<std::uint32_t> &v, double p)
{
    if (v.empty())
        return 0;
    std::size_t k = static_cast<std::size_t>(p * v.size());
    if (k >= v.size())
        k = v.size() - 1;
    std::nth_element(v.begin(), v.begin() + k, v.end());
    return v[k];
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

// --- host description --------------------------------------------------------

std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    return "unknown";
}

bool
optimisedBuild()
{
#if defined(__OPTIMIZE__)
    return true;
#else
    return false;
#endif
}

void
printHost()
{
    std::printf("host: nproc=%ld hardware_concurrency=%u cpu=\"%s\"\n",
                sysconf(_SC_NPROCESSORS_ONLN),
                std::thread::hardware_concurrency(), cpuModel().c_str());
    std::printf("build: compiler=\"%s\" build_type=%s flags=\"%s\" "
                "optimised=%s\n",
                __VERSION__, PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
                optimisedBuild() ? "yes" : "no");
    if (!optimisedBuild())
        std::printf("WARNING: this build is not optimised; its host-speed "
                    "numbers are not comparable to an optimised build\n");
}

// --- workloads ---------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = DefaultSeed;
    double seconds = 10;
    bool trace = false;
    std::string spansPath;
    bool corruptExpected = false;
};

using Passes = std::vector<std::vector<OpResult>>;

/** Per guest, the median of `f` over the guest's operations; summed over
 *  guests (whose figures differ, so a median across them would jump). */
double
perGuestMedianSum(const Passes &passes,
                  const std::function<double(const OpResult &)> &f)
{
    std::map<std::string, std::vector<double>> by;
    for (const auto &p : passes)
        for (const OpResult &o : p)
            by[o.guest].push_back(f(o));
    double sum = 0;
    for (const auto &kv : by)
        sum += median(kv.second);
    return sum;
}

/**
 * Host rate of `work` per run() second: per guest, the median work and the
 * median run() time over the guest's operations, each summed over guests,
 * in thousands per second.  Per-guest medians keep one slow operation (a
 * descheduled host thread) from moving the figure.
 */
double
rate(const Passes &passes, const std::function<double(const OpResult &)> &work)
{
    return ratio(perGuestMedianSum(passes, work),
                 perGuestMedianSum(passes,
                                   [](const OpResult &o) { return o.runS; })) /
           1e3;
}

double
kips(const Passes &passes)
{
    return rate(passes, [](const OpResult &o) { return double(o.insts); });
}

double
kcyclesPerS(const Passes &passes)
{
    return rate(passes, [](const OpResult &o) { return double(o.cycles); });
}

/** kips of the operations of one guest. */
double
guestKips(const Passes &passes, const std::string &guest)
{
    Passes only(1);
    for (const auto &p : passes)
        for (const OpResult &o : p)
            if (o.guest == guest)
                only.front().push_back(o);
    return kips(only);
}

/** What one phase (untraced or traced) measured. */
struct Phase
{
    Passes passes;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** The counters of the first pass (simulated counts repeat exactly
     *  across passes when every check passes). */
    Counters
    firstPassCounters() const
    {
        Counters c;
        if (!passes.empty())
            for (const OpResult &o : passes.front())
                for (const auto &[k, v] : o.counters)
                    c[k] += v;
        return c;
    }
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    bool applies = true; //!< false: the workload does not run this layer
};

class Bench
{
  public:
    explicit Bench(Options o)
        : opt_(std::move(o)), in_(drawInputs(opt_.seed)),
          spec_(opt_.workload == "spec-coupled")
    {
    }

    int run();

  private:
    using PassFn = std::function<std::vector<OpResult>()>;

    /** Run whole passes for about `seconds` of wall time (at least one
     *  pass; the pass count is rounded to the nearest), counting attempts
     *  and failures. */
    Phase
    measure(const PassFn &pass, double seconds)
    {
        Phase ph;
        const auto start = Clock::now();
        double elapsed = 0;
        do {
            ph.passes.push_back(pass());
            for (const OpResult &o : ph.passes.back()) {
                ++ph.attempted;
                if (!o.failures.empty()) {
                    ++ph.failed;
                    for (const std::string &f : o.failures)
                        std::printf("FAILED %s: %s\n", o.guest.c_str(),
                                    f.c_str());
                }
            }
            elapsed = secondsBetween(start, Clock::now());
        } while (elapsed + 0.5 * elapsed / ph.passes.size() < seconds);
        return ph;
    }

    /** Record the first finished result of each guest as its expected
     *  triple (corrupted once under --corrupt-expected). */
    void
    expectFirst(const OpResult &op)
    {
        if (expected_.count(op.guest) || !op.finished)
            return;
        Expected e{op.insts, op.cycles, op.hash};
        if (opt_.corruptExpected && !corrupted_) {
            e.cycles += 1;
            corrupted_ = true;
            std::printf("self-test: expected cycles of %s corrupted to "
                        "%llu\n",
                        op.guest.c_str(),
                        static_cast<unsigned long long>(e.cycles));
        }
        expected_[op.guest] = e;
    }

    const Expected *
    expectedFor(const std::string &guest) const
    {
        auto it = expected_.find(guest);
        return it == expected_.end() ? nullptr : &it->second;
    }

    std::vector<OpResult> workloadPass(Tracer &tr, TickLog *ticks);
    std::vector<OpResult> companionPass(Tracer &tr, TickLog *ticks);
    double fmStepNs() const;
    double setupSeconds(const Phase &plain) const;
    std::vector<Metric> layerMetrics(const Phase &plain, const Phase &traced,
                                     TickLog &ticks, const Phase &companion,
                                     TickLog &companionTicks) const;

    Options opt_;
    Inputs in_;
    bool spec_; //!< spec-coupled; otherwise smp-service
    std::map<std::string, Expected> expected_;
    bool corrupted_ = false;
};

/** One pass of the workload's own runner: coupled over the spec guests,
 *  or the service at tmThreads=1.  The first result of each guest becomes
 *  the expected triple of every later run of it. */
std::vector<OpResult>
Bench::workloadPass(Tracer &tr, TickLog *ticks)
{
    std::vector<OpResult> pass;
    if (spec_) {
        for (const Guest &g : in_.guests)
            pass.push_back(guarded(g.name, [&] {
                return runSpecGuest(g, false, tr, ticks);
            }));
    } else {
        pass.push_back(guarded(
            "service", [&] { return runSmp(in_.svc, 1, tr, ticks); }));
    }
    for (OpResult &op : pass) {
        expectFirst(op);
        checkOp(op, expectedFor(op.guest), spec_ ? SpecCycleBound
                                                 : SmpCycleBound,
                spec_ ? "first coupled run" : "first tmThreads=1 run");
    }
    return pass;
}

/**
 * One pass of the companion runner of the traced run, the mechanism the
 * workload's own runner bypasses: the FM/TM-parallel runner over the spec
 * guests, or the service at tmThreads=2 under the BSP scheduler.  Each
 * operation must reproduce the workload runner's triple, cycles included.
 */
std::vector<OpResult>
Bench::companionPass(Tracer &tr, TickLog *ticks)
{
    std::vector<OpResult> pass;
    if (spec_) {
        for (const Guest &g : in_.guests)
            pass.push_back(guarded(g.name, [&] {
                return runSpecGuest(g, true, tr, nullptr);
            }));
    } else {
        pass.push_back(guarded(
            "service", [&] { return runSmp(in_.svc, 2, tr, ticks); }));
    }
    for (OpResult &op : pass)
        checkOp(op, expectedFor(op.guest), spec_ ? SpecCycleBound
                                                 : SmpCycleBound,
                spec_ ? "coupled run" : "tmThreads=1 run");
    return pass;
}

/**
 * fm.step_ns: a standalone fm::FuncModel::step pass over each boot
 * image of the workload (architectural path only, committing as it
 * goes), up to the final halt or a step cap.
 */
double
Bench::fmStepNs() const
{
    constexpr std::uint64_t StepCap = 1'000'000;
    std::vector<kernel::BootImage> images;
    if (spec_)
        for (const Guest &g : in_.guests)
            images.push_back(kernel::buildBootImage(specBootOptions(g)));
    else
        images.push_back(
            kernel::buildBootImage(workloads::serviceBootOptions(in_.svc)));
    double ns = 0, steps = 0;
    for (const kernel::BootImage &img : images) {
        fm::FmConfig cfg;
        cfg.ramBytes = kernel::MemoryMap::RamBytes;
        fm::FuncModel m(cfg);
        kernel::loadAndReset(m, img);
        std::uint64_t ok = 0;
        const auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < StepCap; ++i) {
            const fm::StepResult r = m.step();
            if (r.kind == fm::StepResult::Kind::Ok) {
                if (++ok % 256 == 0)
                    m.commit(r.entry.in);
            } else if (m.halted() && !(m.state().flags & isa::FlagI)) {
                break; // final halt
            }
        }
        ns += std::chrono::duration<double, std::nano>(Clock::now() - t0)
                  .count();
        steps += ok;
    }
    return ratio(ns, steps);
}

/**
 * setup_s: per guest, the median set-up time over the guest's operations
 * plus ExtraSetUps set-up-only repetitions; summed over guests.
 */
double
Bench::setupSeconds(const Phase &plain) const
{
    constexpr int ExtraSetUps = 40;
    Passes samples = plain.passes;
    for (int k = 0; k < ExtraSetUps; ++k) {
        samples.emplace_back();
        if (spec_)
            for (const Guest &g : in_.guests)
                samples.back().push_back(setUpOnly(in_, &g));
        else
            samples.back().push_back(setUpOnly(in_, nullptr));
    }
    return perGuestMedianSum(samples,
                             [](const OpResult &o) { return o.setupS(); });
}

void
printPhase(const char *label, const Phase &ph)
{
    std::printf("\n%s: %zu pass(es), %llu op(s), %llu failed\n", label,
                ph.passes.size(),
                static_cast<unsigned long long>(ph.attempted),
                static_cast<unsigned long long>(ph.failed));
    std::printf("  %-4s %-12s %10s %10s %18s %9s %9s %9s\n", "pass", "guest",
                "insts", "cycles", "hash", "setup_ms", "run_s", "kips");
    for (std::size_t p = 0; p < ph.passes.size(); ++p)
        for (const OpResult &o : ph.passes[p])
            std::printf("  %-4zu %-12s %10llu %10llu %016llx %9.2f %9.3f "
                        "%9.1f%s\n",
                        p, o.guest.c_str(),
                        static_cast<unsigned long long>(o.insts),
                        static_cast<unsigned long long>(o.cycles),
                        static_cast<unsigned long long>(o.hash),
                        o.setupS() * 1e3, o.runS,
                        ratio(o.insts, o.runS) / 1e3,
                        o.failures.empty() ? "" : "  FAILED");
}

std::string
metricsJson(const std::vector<Metric> &ms)
{
    std::ostringstream os;
    os << "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
        os << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": "
           << buf << ", \"unit\": \"" << ms[i].unit << "\"}";
    }
    os << "}";
    return os.str();
}

void
printMetrics(const char *title, const std::vector<Metric> &ms)
{
    std::printf("\n%s\n", title);
    for (const Metric &m : ms)
        if (m.applies)
            std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        else
            std::printf("  %-36s %16s (layer not run; reported as 0)\n",
                        m.name.c_str(), "n/a");
}

int
Bench::run()
{
    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                opt_.workload.c_str(),
                static_cast<unsigned long long>(opt_.seed), opt_.seconds,
                opt_.trace ? 1 : 0);
    printHost();
    if (spec_) {
        std::printf("inputs:");
        for (const Guest &g : in_.guests)
            std::printf(" %s@%u", g.name.c_str(), g.scale);
        std::printf("\n");
    } else {
        std::printf("inputs: cores=%u generators=%u requests_per_gen=%u "
                    "server_work_iters=%u\n",
                    SmpCores, in_.svc.loadGenerators,
                    in_.svc.requestsPerGen, in_.svc.serverWorkIters);
    }
    std::fflush(stdout);

    Tracer off(false);
    // With --trace 1 the run splits its time between an untraced phase
    // (the base of trace.overhead_pct) and the traced phase.
    const double phaseSeconds = opt_.trace ? opt_.seconds / 2 : opt_.seconds;
    const Phase plain =
        measure([&] { return workloadPass(off, nullptr); }, phaseSeconds);
    printPhase("untraced phase", plain);

    std::uint64_t attempted = plain.attempted, failed = plain.failed;
    std::vector<Metric> metrics;

    if (!opt_.trace) {
        metrics = {
            {"kips", kips(plain.passes), "kinst/s"},
            {"kcycles_per_s", kcyclesPerS(plain.passes), "kcycle/s"},
            {"setup_s", setupSeconds(plain), "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
        };
        printMetrics("end-to-end metrics (tracing off)", metrics);
    } else {
        Tracer tr(true);
        TickLog ticks, companionTicks;
        const Phase traced =
            measure([&] { return workloadPass(tr, &ticks); }, phaseSeconds);
        printPhase("traced phase", traced);
        const Phase companion = measure(
            [&] { return companionPass(tr, &companionTicks); }, 0);
        printPhase(spec_ ? "companion pass (parallel runner, traced)"
                         : "companion pass (tmThreads=2, BSP, traced)",
                   companion);
        attempted += traced.attempted + companion.attempted;
        failed += traced.failed + companion.failed;
        metrics =
            layerMetrics(plain, traced, ticks, companion, companionTicks);
        tr.printSelfTimes();
        printMetrics("per-layer metrics", metrics);
        if (!opt_.spansPath.empty()) {
            if (tr.write(opt_.spansPath))
                std::printf("spans written to %s\n", opt_.spansPath.c_str());
            else
                std::printf("could not write spans to %s\n",
                            opt_.spansPath.c_str());
        }
    }

    std::printf("\nresult: seed=%llu attempted=%llu failed=%llu\n",
                static_cast<unsigned long long>(opt_.seed),
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                failed == 0 && attempted > 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                metricsJson(metrics).c_str());
    return 0;
}

std::vector<Metric>
Bench::layerMetrics(const Phase &plain, const Phase &traced, TickLog &ticks,
                    const Phase &companion, TickLog &companionTicks) const
{
    const Counters c = traced.firstPassCounters();
    const Counters cc = companion.firstPassCounters();
    auto from = [](const Counters &m, const char *k) {
        auto it = m.find(k);
        return it == m.end() ? 0.0 : it->second;
    };
    auto get = [&](const char *k) { return from(c, k); };
    auto comp = [&](const char *k) { return from(cc, k); };

    // Σ tick time of the first traced pass, whose counters these are: one
    // tick per target cycle, so its ticks are the first tm.cycles entries.
    const std::size_t firstPassTicks =
        std::min<std::size_t>(ticks.size(), get("tm.cycles"));
    double firstPassTickNs = 0;
    for (std::size_t i = 0; i < firstPassTicks; ++i)
        firstPassTickNs += ticks[i];
    const double tickP50 = percentile(ticks, 0.50); // reorders ticks
    const double tickP99 = percentile(ticks, 0.99);
    const double stepNs = fmStepNs();
    const double steps = get("fm.steps");
    const double committed = get("tm.committed_insts");
    const double fmShare = 100 * ratio(steps * stepNs, firstPassTickNs);
    std::printf("\nFM:TM split: fm.step_ns=%.1f beside fast.tick_ns "
                "p50=%.0f p99=%.0f -> FM share of tick time %.1f%% "
                "(estimate: fm.steps x fm.step_ns / sum of tick time)\n",
                stepNs, tickP50, tickP99, fmShare);

    if (spec_ && !traced.passes.empty()) {
        std::printf("\nper guest (first traced pass)\n");
        std::printf("  %-12s %10s %8s %12s %12s %10s\n", "guest", "fm.steps",
                    "useful", "rolled_back", "halted_cyc", "tm.cycles");
        for (const OpResult &o : traced.passes.front()) {
            auto g = [&o, &from](const char *k) { return from(o.counters, k); };
            std::printf("  %-12s %10.0f %8.3f %12.0f %12.0f %10.0f\n",
                        o.guest.c_str(), g("fm.steps"),
                        ratio(g("tm.committed_insts"), g("fm.steps")),
                        g("fm.rolled_back_insts"), g("fast.halted_cycles"),
                        g("tm.cycles"));
        }
    }

    // The companion runner against the workload runner's untraced phase,
    // with both bases printed.
    double vsCoupled = 0, vsSequential = 0;
    std::uint64_t mismatches = 0;
    if (spec_) {
        std::printf("\nfast.parallel.vs_coupled per guest\n");
        std::printf("  %-12s %14s %14s %8s\n", "guest", "parallel_kips",
                    "coupled_kips", "ratio");
        for (const Guest &g : in_.guests) {
            const double pk = guestKips(companion.passes, g.name);
            const double ck = guestKips(plain.passes, g.name);
            std::printf("  %-12s %14.1f %14.1f %8.3f\n", g.name.c_str(), pk,
                        ck, ratio(pk, ck));
        }
        const double pk = kips(companion.passes), ck = kips(plain.passes);
        vsCoupled = ratio(pk, ck);
        std::printf("  %-12s %14.1f %14.1f %8.3f\n", "all", pk, ck,
                    vsCoupled);
        for (const auto &p : companion.passes)
            for (const OpResult &o : p) {
                const Expected *e = expectedFor(o.guest);
                if (e && e->cycles != o.cycles)
                    ++mismatches;
            }
    } else {
        const double bk = kcyclesPerS(companion.passes);
        const double sk = kcyclesPerS(plain.passes);
        vsSequential = ratio(bk, sk);
        std::printf("\ntm.bsp.vs_sequential: tmThreads=2 %.1f kcycle/s over "
                    "tmThreads=1 %.1f kcycle/s = %.3f\n",
                    bk, sk, vsSequential);
    }
    const double parks =
        comp("fast.parallel.fm_parks") + comp("fast.parallel.tm_parks");

    const double plainKips = kips(plain.passes);
    const double tracedKips = kips(traced.passes);
    auto phaseMedian = [&traced](double OpResult::*f) {
        return perGuestMedianSum(traced.passes,
                                 [f](const OpResult &o) { return o.*f; });
    };
    const bool smp = !spec_;

    return {
        {"kernel.image_build_s", phaseMedian(&OpResult::imageS), "s"},
        {"fast.construct_s", phaseMedian(&OpResult::constructS), "s"},
        {"fast.boot_s", phaseMedian(&OpResult::bootS), "s"},
        {"fm.step_ns", stepNs, "ns"},
        {"fm.steps", steps, "count"},
        {"fm.wrong_path_insts", get("fm.wrong_path_insts"), "count"},
        {"fm.rolled_back_insts", get("fm.rolled_back_insts"), "count"},
        {"fm.rollbacks", get("fm.rollbacks"), "count"},
        {"fm.decode_hit_rate",
         ratio(get("fm.decode_hits"),
               get("fm.decode_hits") + get("fm.decode_misses")),
         "ratio"},
        {"fm.useful_ratio", ratio(committed, steps), "ratio"},
        {"fast.tick_ns.p50", tickP50, "ns"},
        {"fast.tick_ns.p99", tickP99, "ns"},
        {"fast.fm_share_est", fmShare, "%"},
        {"fast.halted_cycles", get("fast.halted_cycles"), "count"},
        {"fast.tb_full_stalls", get("fast.tb_full_stalls"), "count"},
        {"fast.resteers", get("fast.resteers"), "count"},
        {"fast.timer_interrupts", get("fast.timer_interrupts"), "count"},
        {"fast.disk_completions", get("fast.disk_completions"), "count"},
        {"tm.cycles", get("tm.cycles"), "count"},
        {"tm.committed_insts", committed, "count"},
        {"tm.ipc", ratio(committed, get("tm.cycles")), "inst/cycle"},
        {"tm.bp_accuracy", ratio(get("tm.bp_correct"), get("tm.bp_branches")),
         "ratio", spec_},
        {"tm.fetch_stall_starved", get("tm.fetch_stall_starved"), "count"},
        {"tm.drain_cycles", get("tm.drain_cycles"), "count"},
        {"tm.l1d_hit_rate",
         ratio(get("tm.l1d_hits"), get("tm.l1d_accesses")), "ratio"},
        {"tm.l2_hit_rate", ratio(get("tm.l2_hits"), get("tm.l2_accesses")),
         "ratio"},
        {"fast.parallel.run_s", comp("fast.parallel.run_s"), "s", spec_},
        {"fast.parallel.fm_parks", comp("fast.parallel.fm_parks"), "count",
         spec_},
        {"fast.parallel.tm_parks", comp("fast.parallel.tm_parks"), "count",
         spec_},
        {"fast.parallel.fm_wakes", comp("fast.parallel.fm_wakes"), "count",
         spec_},
        {"fast.parallel.tm_wakes", comp("fast.parallel.tm_wakes"), "count",
         spec_},
        {"fast.parallel.epoch_hold_ticks",
         comp("fast.parallel.epoch_hold_ticks"), "count", spec_},
        {"fast.parallel.cmd_commit_batches",
         comp("fast.parallel.cmd_commit_batches"), "count", spec_},
        {"fast.parallel.parks_per_kinst",
         ratio(parks, comp("tm.committed_insts") / 1e3), "1/kinst", spec_},
        {"fast.parallel.vs_coupled", vsCoupled, "ratio", spec_},
        {"fast.parallel.cycle_mismatches", double(mismatches), "count",
         spec_},
        {"tm.bsp.partitions", comp("tm.bsp.partitions"), "count", smp},
        {"tm.bsp.barriers", comp("tm.bsp.barriers"), "count", smp},
        {"tm.bsp.tick_ns.p50", percentile(companionTicks, 0.50), "ns", smp},
        {"tm.bsp.tick_ns.p99", percentile(companionTicks, 0.99), "ns", smp},
        {"tm.bsp.vs_sequential", vsSequential, "ratio", smp},
        {"tm.smp.l2_reads", get("tm.smp.l2_reads"), "count", smp},
        {"tm.smp.l2_snoops", get("tm.smp.l2_snoops"), "count", smp},
        {"tm.smp.l2_write_notices", get("tm.smp.l2_write_notices"), "count",
         smp},
        {"tm.smp.l2_dirty_services", get("tm.smp.l2_dirty_services"),
         "count", smp},
        {"fast.smp.wrong_path_suppressed",
         get("fast.smp.wrong_path_suppressed"), "count", smp},
        {"workloads.service.completed", get("workloads.service.completed"),
         "count", smp},
        {"workloads.service.p50_cycles",
         get("workloads.service.p50_cycles"), "cycles", smp},
        {"workloads.service.p99_cycles",
         get("workloads.service.p99_cycles"), "cycles", smp},
        {"trace.overhead_pct",
         100 * ratio(plainKips - tracedKips, plainKips), "%"},
    };
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload spec-coupled|smp-service\n"
                 "                 [--seed N] [--seconds S] [--trace 0|1] "
                 "[--spans PATH] [--corrupt-expected]\n");
}

} // namespace
} // namespace perfbench
} // namespace fastsim

int
main(int argc, char **argv)
{
    using namespace fastsim::perfbench;
    Options o;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw std::invalid_argument(a + " needs a value");
                return argv[++i];
            };
            if (a == "--workload")
                o.workload = next();
            else if (a == "--seed")
                o.seed = std::stoull(next());
            else if (a == "--seconds")
                o.seconds = std::stod(next());
            else if (a == "--trace")
                o.trace = std::stoi(next()) != 0;
            else if (a == "--spans")
                o.spansPath = next();
            else if (a == "--corrupt-expected")
                o.corruptExpected = true;
            else
                throw std::invalid_argument("unknown argument " + a);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        usage();
        return 2;
    }
    if (o.workload != "spec-coupled" && o.workload != "smp-service") {
        usage();
        return 2;
    }
    return Bench(std::move(o)).run();
}
