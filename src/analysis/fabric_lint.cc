#include "analysis/fabric_lint.hh"

#include <algorithm>
#include <map>
#include <sstream>

namespace fastsim {
namespace analysis {

FabricGraph
FabricGraph::fromRegistry(const tm::ModuleRegistry &reg)
{
    FabricGraph g;

    // Edges first: every connector the fabric owner noted, then any the
    // modules' ports reference beyond those (so the graph is complete even
    // if a connector was never noted).
    std::map<const tm::ConnectorBase *, std::size_t> edgeIndex;
    auto edgeFor = [&g, &edgeIndex](const tm::ConnectorBase *c) {
        auto it = edgeIndex.find(c);
        if (it != edgeIndex.end())
            return it->second;
        FabricEdge e;
        e.name = c->name();
        e.params = c->params();
        g.edges.push_back(e);
        edgeIndex.emplace(c, g.edges.size() - 1);
        return g.edges.size() - 1;
    };
    for (const tm::ConnectorBase *c : reg.connectors())
        edgeFor(c);

    // Dense sync-domain ids in first-appearance (registration) order, so
    // equal graphs compare equal regardless of what the opaque keys were.
    std::map<const void *, int> domainIds;
    for (const tm::Module *m : reg.modules()) {
        FabricModule fm;
        fm.name = m->name();
        for (const auto &kv : m->stats().all())
            fm.statNames.push_back(kv.first);
        if (const void *d = m->syncDomain()) {
            auto [it, fresh] =
                domainIds.emplace(d, static_cast<int>(domainIds.size()));
            (void)fresh;
            fm.domain = it->second;
        }
        const int mi = static_cast<int>(g.modules.size());
        g.modules.push_back(std::move(fm));

        for (const tm::Port &p : m->ports()) {
            if (!p.connector)
                continue;
            FabricEdge &e = g.edges[edgeFor(p.connector)];
            if (p.dir == tm::PortDir::Out) {
                ++e.producerBindings;
                e.producer = mi;
            } else {
                ++e.consumerBindings;
                e.consumer = mi;
            }
        }
    }
    return g;
}

namespace {

/**
 * FAB001: find a cycle consisting solely of zero-latency edges.  A
 * zero-latency Connector makes its entries visible in the cycle they are
 * pushed; a cycle of such edges is a combinational loop — the hardware
 * analogue does not settle, and the software evaluation order silently
 * picks one of several fixpoints.
 */
void
findZeroLatencyCycles(const FabricGraph &g, Report &report)
{
    const std::size_t n = g.modules.size();
    // Adjacency over zero-latency, fully-bound edges.
    std::vector<std::vector<std::pair<int, const FabricEdge *>>> adj(n);
    for (const FabricEdge &e : g.edges) {
        if (e.params.minLatency != 0)
            continue;
        if (e.producer < 0 || e.consumer < 0)
            continue;
        adj[static_cast<std::size_t>(e.producer)].emplace_back(e.consumer,
                                                               &e);
    }

    // Iterative DFS with colors; on back edge, reconstruct the cycle path.
    enum : std::uint8_t { White, Grey, Black };
    std::vector<std::uint8_t> color(n, White);
    std::vector<int> parent(n, -1);
    std::vector<const FabricEdge *> parentEdge(n, nullptr);

    for (std::size_t root = 0; root < n; ++root) {
        if (color[root] != White)
            continue;
        // (node, next-neighbor-index) explicit stack.
        std::vector<std::pair<int, std::size_t>> stack;
        stack.emplace_back(static_cast<int>(root), 0);
        color[root] = Grey;
        while (!stack.empty()) {
            auto &[u, next] = stack.back();
            const auto &out = adj[static_cast<std::size_t>(u)];
            if (next >= out.size()) {
                color[static_cast<std::size_t>(u)] = Black;
                stack.pop_back();
                continue;
            }
            const auto [v, edge] = out[next++];
            const auto vi = static_cast<std::size_t>(v);
            if (color[vi] == Grey) {
                // Reconstruct u -> ... -> v -> u through parent links.
                std::vector<std::string> names{edge->name};
                for (int w = u; w != v && w >= 0; w = parent[w])
                    if (parentEdge[static_cast<std::size_t>(w)])
                        names.push_back(
                            parentEdge[static_cast<std::size_t>(w)]->name);
                std::reverse(names.begin(), names.end());
                std::ostringstream os;
                os << "zero-latency connector cycle: ";
                for (std::size_t i = 0; i < names.size(); ++i)
                    os << (i ? " -> " : "") << names[i];
                os << " (a combinational loop; give at least one edge "
                      "minLatency >= 1)";
                report.error("FAB001", g.modules[vi].name, os.str());
                continue;
            }
            if (color[vi] == White) {
                color[vi] = Grey;
                parent[vi] = u;
                parentEdge[vi] = edge;
                stack.emplace_back(v, 0);
            }
        }
    }
}

} // namespace

void
lintFabric(const FabricGraph &g, Report &report)
{
    findZeroLatencyCycles(g, report);

    for (const FabricEdge &e : g.edges) {
        // FAB002: an edge nobody produces into or consumes from is dead
        // hardware — and usually a forgotten ports() declaration.
        if (e.producerBindings == 0)
            report.error("FAB002", e.name,
                         "dangling connector: no module declares an Out "
                         "port for this edge");
        if (e.consumerBindings == 0)
            report.error("FAB002", e.name,
                         "dangling connector: no module declares an In "
                         "port for this edge");

        // FAB003: Connectors are point-to-point FIFOs; two producers (or
        // two consumers) on one edge would race on the queue.
        if (e.producerBindings > 1)
            report.error("FAB003", e.name,
                         "double-bound connector: " +
                             std::to_string(e.producerBindings) +
                             " modules declare Out ports for this edge");
        if (e.consumerBindings > 1)
            report.error("FAB003", e.name,
                         "double-bound connector: " +
                             std::to_string(e.consumerBindings) +
                             " modules declare In ports for this edge");

        // FAB004: throughput/capacity consistency for bounded buffers.
        const tm::ConnectorParams &p = e.params;
        if (p.maxTransactions != 0) {
            if (p.inputThroughput == 0) {
                report.error("FAB004", e.name,
                             "unlimited input throughput into a bounded "
                             "buffer (maxTransactions=" +
                                 std::to_string(p.maxTransactions) +
                                 "): the producer contract cannot be "
                                 "honored at full rate");
            } else {
                const std::uint64_t needed =
                    std::uint64_t(p.inputThroughput) *
                    std::max<std::uint64_t>(1, p.minLatency);
                if (p.maxTransactions < needed)
                    report.error(
                        "FAB004", e.name,
                        "capacity " + std::to_string(p.maxTransactions) +
                            " cannot cover latency " +
                            std::to_string(p.minLatency) +
                            " at input throughput " +
                            std::to_string(p.inputThroughput) +
                            " (needs >= " + std::to_string(needed) +
                            "): the buffer stalls before the first entry "
                            "becomes visible");
            }
        }
    }

    // FAB013: coherence edges — the per-core snoop Connectors and every
    // edge touching the shared L2 ("smp.l2") — must be latency >= 1 and
    // unbounded.  A zero-latency coherence edge would make a remote
    // core's invalidate visible in the cycle it was produced (an illegal
    // cross-partition cut, FAB011, but diagnosed here even on a
    // sequential run); a bounded one could drop an invalidate under
    // load, silently breaking the MESI-lite directory's only ordering
    // guarantee.  Vacuous on single-core fabrics (no such edges exist).
    for (const FabricEdge &e : g.edges) {
        const auto moduleName = [&g](int idx) -> const std::string * {
            if (idx < 0 || static_cast<std::size_t>(idx) >= g.modules.size())
                return nullptr;
            return &g.modules[static_cast<std::size_t>(idx)].name;
        };
        const std::string *prod = moduleName(e.producer);
        const std::string *cons = moduleName(e.consumer);
        const bool coherence =
            e.name.find("snoop") != std::string::npos ||
            (prod && *prod == "smp.l2") || (cons && *cons == "smp.l2");
        if (!coherence)
            continue;
        if (e.params.minLatency < 1)
            report.error("FAB013", e.name,
                         "coherence edge with minLatency 0: a remote "
                         "invalidate/fill would be visible in its push "
                         "cycle, before the BSP barrier publishes it "
                         "(give the edge minLatency >= 1)");
        if (e.params.maxTransactions != 0)
            report.error("FAB013", e.name,
                         "bounded coherence edge (maxTransactions=" +
                             std::to_string(e.params.maxTransactions) +
                             "): an invalidate dropped under load breaks "
                             "the directory's ordering guarantee (leave "
                             "coherence edges unbounded)");
    }

    // FAB005: counter names must be disjoint across modules — the
    // registry's aggregateStats() refreshes an aggregate view by plain
    // assignment, so a collision silently drops one module's counter.
    std::map<std::string, std::vector<std::string>> owners;
    for (const FabricModule &m : g.modules)
        for (const std::string &s : m.statNames)
            owners[s].push_back(m.name);
    for (const auto &kv : owners) {
        if (kv.second.size() < 2)
            continue;
        std::ostringstream os;
        os << "statistics counter '" << kv.first
           << "' defined by multiple modules:";
        for (const std::string &m : kv.second)
            os << " " << m;
        os << " (the aggregate roll-up would drop all but one)";
        report.error("FAB005", kv.first, os.str());
    }
}

void
lintConfig(const tm::CoreConfig &cfg, Report &report)
{
    // FAB007: a bounded memory-fabric edge must be able to buffer every
    // token its level's MSHR table allows in flight.  The request/fill
    // connectors carry one token per outstanding miss; if the edge's
    // maxTransactions is smaller than the effective MSHR depth of the
    // level that bounds that traffic — or the depth is 0 (unlimited) —
    // pushes get dropped under load and the fabric-visible traffic
    // record diverges from the timing computed by the fill walk.
    const tm::MemTopology mt = resolveMemTopology(cfg);
    const unsigned l1iDepth =
        tm::effectiveMshrDepth(cfg.caches.l1i, cfg.mem.l1iMshrs);
    const unsigned l1dDepth =
        tm::effectiveMshrDepth(cfg.caches.l1d, cfg.mem.l1dMshrs);
    const unsigned l2Depth =
        tm::effectiveMshrDepth(cfg.caches.l2, cfg.mem.l2Mshrs);
    const struct
    {
        const char *edge;
        const tm::ConnectorParams *params;
        const char *level;
        unsigned depth;
    } memEdges[] = {
        {"fetch_to_l1i", &mt.fetchToL1i, "l1i", l1iDepth},
        {"l1i_to_fetch", &mt.l1iToFetch, "l1i", l1iDepth},
        {"l1i_to_l2", &mt.l1iToL2, "l1i", l1iDepth},
        {"l2_to_l1i", &mt.l2ToL1i, "l1i", l1iDepth},
        {"issue_to_l1d", &mt.issueToL1d, "l1d", l1dDepth},
        {"l1d_to_issue", &mt.l1dToIssue, "l1d", l1dDepth},
        {"l1d_to_l2", &mt.l1dToL2, "l1d", l1dDepth},
        {"l2_to_l1d", &mt.l2ToL1d, "l1d", l1dDepth},
        {"l2_to_mem", &mt.l2ToMem, "l2", l2Depth},
        {"mem_to_l2", &mt.memToL2, "l2", l2Depth},
    };
    for (const auto &e : memEdges) {
        if (e.params->maxTransactions == 0)
            continue; // unbounded edge: MSHR depth is the only bound
        if (e.depth == 0) {
            report.error(
                "FAB007", e.edge,
                std::string("bounded connector (maxTransactions=") +
                    std::to_string(e.params->maxTransactions) +
                    ") fed by unlimited outstanding misses of " + e.level +
                    " (MSHR depth 0): in-flight tokens can exceed the "
                    "buffer and be dropped; bound the level's MSHR depth "
                    "at or below the edge capacity");
        } else if (e.depth > e.params->maxTransactions) {
            report.error(
                "FAB007", e.edge,
                std::string("capacity ") +
                    std::to_string(e.params->maxTransactions) +
                    " cannot buffer the " + std::to_string(e.depth) +
                    " outstanding misses " + e.level +
                    "'s MSHR table admits: tokens are dropped under load "
                    "(raise maxTransactions or lower the MSHR depth)");
        }
    }

    // FAB008: the writeback -> commit channel carries one completion per
    // in-flight µop, and the ROB bounds those at robEntries; a bounded
    // buffer smaller than that drops completions and wedges retirement.
    const tm::CoreTopology ct = resolveTopology(cfg);
    const tm::ConnectorParams &wb = ct.writebackToCommit;
    if (wb.maxTransactions != 0 && wb.maxTransactions < cfg.robEntries)
        report.error(
            "FAB008", "writeback_to_commit",
            "capacity " + std::to_string(wb.maxTransactions) +
                " is smaller than robEntries " +
                std::to_string(cfg.robEntries) +
                ": every in-flight µop can have a completion outstanding, "
                "so a smaller bounded buffer drops completions and wedges "
                "retirement");

    // FAB009: more issue slots than functional units can never all
    // launch in one cycle — the configuration claims bandwidth the
    // execution resources cannot provide.
    const unsigned units =
        cfg.numAlus + cfg.numBranchUnits + cfg.numLoadStoreUnits;
    if (cfg.issueWidth > units)
        report.error(
            "FAB009", "issue",
            "issueWidth " + std::to_string(cfg.issueWidth) +
                " exceeds the " + std::to_string(units) +
                " functional units (" + std::to_string(cfg.numAlus) +
                " ALU + " + std::to_string(cfg.numBranchUnits) +
                " branch + " + std::to_string(cfg.numLoadStoreUnits) +
                " load/store): the extra slots can never launch");
}

void
lintFabricCost(const tm::FpgaCost &cost, const fpga::Device &dev,
               Report &report)
{
    const fpga::Utilization u = fpga::utilization(cost, dev);
    if (u.fits)
        return;
    std::ostringstream os;
    os.precision(1);
    os << std::fixed << "estimated cost exceeds " << dev.name << ": "
       << cost.slices << " slices (" << u.userLogicFraction * 100.0
       << "% of " << dev.slices << "), " << cost.blockRams << " BRAMs ("
       << u.blockRamFraction * 100.0 << "% of " << dev.blockRams << ")";
    report.error("FAB006", dev.name, os.str());
}

} // namespace analysis
} // namespace fastsim
