#include "workloads/service.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "base/logging.hh"
#include "fast/smp.hh"
#include "fm/trace_entry.hh"

namespace fastsim {
namespace workloads {

namespace {

using namespace isa;

constexpr std::int32_t ReqSeqOff = 0;
constexpr std::int32_t ReqPayloadOff = 4;
constexpr std::int32_t RespSeqOff = 8;
constexpr std::int32_t RespPayloadOff = 12;

/**
 * Server (core 0, user mode): poll every mailbox round-robin; a mailbox
 * with resp_seq < req_seq has an unanswered request — transform the
 * payload, publish it, then acknowledge by copying req_seq into
 * resp_seq.  Done when every mailbox's resp_seq has reached
 * requestsPerGen.
 *
 * Every comparison is deliberately monotone (<, >=) rather than an
 * equality test, and completion reads the mailboxes rather than counting
 * serve iterations in a register: an interrupt injection on core 0 rolls
 * the speculative FM back and re-executes the serve loop against fresher
 * mailbox state, which can merge two acknowledgements into one store
 * (resp_seq copies req_seq, so a re-executed ack simply jumps further).
 * Monotone tests converge to resp_seq == requestsPerGen either way; an
 * equality wait or an iteration counter would spin forever on a skipped
 * value.
 *
 * Registers: R1 mailbox, R2 req_seq, R3 resp_seq (reused for the exit
 * system call number afterwards), R4 payload.
 */
void
emitServer(Assembler &a, const ServiceConfig &cfg)
{
    Label poll = a.here();
    for (unsigned j = 0; j < cfg.loadGenerators; ++j) {
        Label idle = a.newLabel();
        a.movri(R1, SvcMailboxBase + j * SvcMailboxStride);
        a.ld(R2, R1, ReqSeqOff);
        a.ld(R3, R1, RespSeqOff);
        a.cmprr(R3, R2);
        a.jcc(CondGE, idle); // serve only when resp_seq < req_seq
        // Serve: dependent compute chain standing in for request work.
        a.ld(R4, R1, ReqPayloadOff);
        for (unsigned k = 0; k < cfg.serverWorkIters; ++k) {
            a.addrr(R4, R4);
            a.incr(R4);
        }
        a.st(R1, RespPayloadOff, R4);
        a.st(R1, RespSeqOff, R2); // acknowledge: resp_seq = req_seq
        a.bind(idle);
    }
    for (unsigned j = 0; j < cfg.loadGenerators; ++j) {
        a.movri(R1, SvcMailboxBase + j * SvcMailboxStride);
        a.ld(R3, R1, RespSeqOff);
        a.cmpri(R3, cfg.requestsPerGen);
        a.jcc(CondL, poll); // keep polling until resp_seq reaches the quota
    }
    a.movri(R3, kernel::SysExit);
    a.intn(VecSyscall);
}

/**
 * Load generator (cores 1..N-1, machine mode; R1 = core id at entry):
 * closed-loop — publish payload then req_seq, spin on resp_seq, repeat
 * requestsPerGen times, then fall through to the secondary stub's park.
 *
 * Registers: R1 core id (preserved), R2 mailbox, R3 sequence, R4 scratch.
 */
void
emitGenerator(Assembler &a, const ServiceConfig &cfg)
{
    a.movrr(R2, R1);
    a.movri(R0, 1);
    a.subrr(R2, R0); // generator index j = id - 1
    a.shli(R2, 6);   // * SvcMailboxStride
    a.movri(R0, SvcMailboxBase);
    a.addrr(R2, R0);
    a.movri(R3, 0);
    Label next = a.here();
    a.incr(R3);
    a.movrr(R4, R3);
    a.addrr(R4, R1); // payload = seq + core id
    a.st(R2, ReqPayloadOff, R4);
    a.st(R2, ReqSeqOff, R3); // publish: the host marks "issued" here
    Label wait = a.here();
    a.ld(R4, R2, RespSeqOff);
    a.cmprr(R4, R3);
    a.jcc(CondL, wait); // spin while resp_seq < seq (acks may batch up)
    a.cmpri(R3, cfg.requestsPerGen);
    a.jcc(CondL, next);
}

/** Nearest-rank percentile over the sorted latencies. */
Cycle
percentile(const std::vector<Cycle> &sorted, double p)
{
    if (sorted.empty())
        return 0;
    const std::size_t n = sorted.size();
    auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(n)));
    rank = std::min(std::max<std::size_t>(rank, 1), n);
    return sorted[rank - 1];
}

} // namespace

kernel::BuildOptions
serviceBootOptions(const ServiceConfig &cfg)
{
    if (cfg.loadGenerators < 1)
        fatal("service workload needs at least one load generator");
    if (cfg.requestsPerGen < 1)
        fatal("service workload needs at least one request per generator");
    kernel::BuildOptions opts;
    opts.smpCores = cfg.loadGenerators + 1;
    // Quiet timer: interrupt injections on the server core force FM
    // rollbacks that can merge acknowledgement stores (see emitServer),
    // making the host-observed response count undershoot the request
    // count.  The run completes correctly either way; a quiet timer just
    // keeps the measurement 1:1.  Callers wanting interrupt pressure can
    // lower the interval after the fact.
    opts.timerInterval = 100000000;
    opts.userProgram = [cfg](Assembler &a) { emitServer(a, cfg); };
    opts.secondaryProgram = [cfg](Assembler &a) { emitGenerator(a, cfg); };
    return opts;
}

ServiceMonitor::ServiceMonitor(const ServiceConfig &cfg,
                               fast::SmpSimulator &sim)
    : cfg_(cfg), sim_(sim)
{
    gens_.resize(cfg.loadGenerators);
    auto prev = std::move(sim.onCommitEntry);
    sim.onCommitEntry = [this, prev](unsigned core,
                                     const fm::TraceEntry &e) {
        if (prev)
            prev(core, e);
        if (e.isStore)
            onCommit(core, true, e.storePa, e.storeValue);
        if (e.isLoad)
            onCommit(core, false, e.loadPa, e.loadValue);
    };
}

void
ServiceMonitor::onCommit(unsigned core, bool is_store, PAddr pa,
                         std::uint32_t value)
{
    if (pa < SvcMailboxBase ||
        pa >= SvcMailboxBase + gens_.size() * SvcMailboxStride)
        return;
    const PAddr off = pa - SvcMailboxBase;
    const std::size_t j = off / SvcMailboxStride;
    const std::int32_t field = static_cast<std::int32_t>(
        off % SvcMailboxStride);
    if (core != j + 1)
        return; // only the owning generator's accesses are probes
    GenState &g = gens_[j];
    if (is_store && field == ReqSeqOff && value > g.reqHigh) {
        // Committed req_seq values are 1, 2, ... in order (the generator
        // stores each exactly once on its architectural path), but guard
        // with the high-water mark anyway.
        for (std::uint32_t seq = g.reqHigh + 1; seq <= value; ++seq) {
            ServiceSample s;
            s.generator = static_cast<unsigned>(j);
            s.seq = seq;
            s.issued = sim_.cycle();
            g.samples.push_back(s);
        }
        g.reqHigh = value;
    } else if (!is_store && field == RespSeqOff) {
        // The spin-loop load observed a (possibly batched) ack;
        // everything at or below the observed value is answered.  Settle
        // even when the high-water mark is unchanged: a request issued
        // *after* the mark reached its seq is answered by the first
        // committed re-observation, not only by a larger value.
        if (value > g.respHigh)
            g.respHigh = value;
        settle(g, sim_.cycle());
    }
}

void
ServiceMonitor::settle(GenState &g, Cycle now)
{
    while (g.answered < g.samples.size() &&
           g.samples[g.answered].seq <= g.respHigh) {
        ServiceSample &s = g.samples[g.answered];
        if (now < s.issued)
            ++latencyClamped_; // latency clamped at zero, and counted
        s.answered = std::max(now, s.issued);
        ++g.answered;
    }
}

ServiceReport
ServiceMonitor::report() const
{
    ServiceReport r;
    r.cores = cfg_.loadGenerators + 1;
    r.loadGenerators = cfg_.loadGenerators;
    r.totalRequests = static_cast<std::uint64_t>(cfg_.loadGenerators) *
                      cfg_.requestsPerGen;
    bool first = true;
    std::vector<Cycle> latencies;
    for (const GenState &g : gens_) {
        for (std::size_t i = 0; i < g.answered; ++i) {
            const ServiceSample &s = g.samples[i];
            r.samples.push_back(s);
            latencies.push_back(s.latency());
            if (first || s.issued < r.firstIssue)
                r.firstIssue = s.issued;
            if (first || s.answered > r.lastAnswer)
                r.lastAnswer = s.answered;
            first = false;
        }
    }
    r.completed = latencies.size();
    r.latencyClamped = latencyClamped_;
    std::sort(latencies.begin(), latencies.end());
    r.p50 = percentile(latencies, 0.50);
    r.p95 = percentile(latencies, 0.95);
    r.p99 = percentile(latencies, 0.99);
    if (r.completed > 0 && r.lastAnswer > r.firstIssue)
        r.requestsPerSec = static_cast<double>(r.completed) /
                           (static_cast<double>(r.lastAnswer - r.firstIssue) /
                            ServiceReport::TargetHz);
    return r;
}

std::string
ServiceReport::json() const
{
    std::ostringstream os;
    os << "{\"cores\":" << cores
       << ",\"load_generators\":" << loadGenerators
       << ",\"requests_total\":" << totalRequests
       << ",\"requests_completed\":" << completed
       << ",\"first_issue_cycle\":" << firstIssue
       << ",\"last_answer_cycle\":" << lastAnswer
       << ",\"latency_cycles\":{\"p50\":" << p50 << ",\"p95\":" << p95
       << ",\"p99\":" << p99 << "}"
       << ",\"latency_clamped\":" << latencyClamped
       << ",\"requests_per_sec\":" << requestsPerSec
       << ",\"target_hz\":" << ServiceReport::TargetHz << "}";
    return os.str();
}

} // namespace workloads
} // namespace fastsim
