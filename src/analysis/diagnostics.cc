#include "analysis/diagnostics.hh"

#include <cstdio>
#include <sstream>

namespace fastsim {
namespace analysis {

namespace {

const char *
severityName(Severity sev)
{
    return sev == Severity::Error ? "error" : "warning";
}

/** Minimal JSON string escaping (quotes, backslashes, control bytes). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

std::string
Report::text() const
{
    std::ostringstream os;
    for (const Diagnostic &d : diags_) {
        os << d.where << ": " << severityName(d.severity) << " [" << d.id
           << "] " << d.message << "\n";
    }
    os << errorCount() << " error(s), " << warningCount() << " warning(s)\n";
    return os.str();
}

std::string
Report::json() const
{
    std::ostringstream os;
    os << "{\"errors\":" << errorCount()
       << ",\"warnings\":" << warningCount() << ",\"diagnostics\":[";
    bool first = true;
    for (const Diagnostic &d : diags_) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"id\":\"" << jsonEscape(d.id) << "\",\"severity\":\""
           << severityName(d.severity) << "\",\"where\":\""
           << jsonEscape(d.where) << "\",\"message\":\""
           << jsonEscape(d.message) << "\"}";
    }
    os << "]}";
    return os.str();
}

const std::vector<CatalogEntry> &
diagnosticCatalog()
{
    static const std::vector<CatalogEntry> catalog = {
        {"FAB001", "zero-latency Connector cycle (combinational loop)"},
        {"FAB002", "dangling Connector endpoint (no producer or consumer)"},
        {"FAB003", "double-bound Connector endpoint"},
        {"FAB004", "Connector throughput/capacity inconsistency"},
        {"FAB005", "statistics counter name collision across modules"},
        {"FAB006", "aggregate FPGA cost exceeds the device budget"},
        {"FAB007",
         "bounded memory edge undersized for the level's MSHR depth"},
        {"FAB008", "writeback->commit capacity smaller than the ROB"},
        {"FAB009", "issueWidth exceeds the total functional units"},
        {"FAB011", "illegal BSP cut (zero-latency or bounded cross-partition "
                   "edge, or a sync domain split across partitions)"},
        {"FAB012", "BSP partition advisory (fabric collapsed below the "
                   "requested threads, or load-imbalanced partitions)"},
        {"FAB013", "coherence edge must be latency >= 1 and unbounded "
                   "(snoop / shared-L2 Connectors)"},
        {"COD001", "overlapping opcode encodings"},
        {"COD002", "opcode byte shadowed by a prefix/escape byte"},
        {"COD003", "encoding exceeds the 15-byte architectural limit"},
        {"COD004", "codec round-trip or decode-table mismatch"},
        {"COD005", "opcode table overflows a packing field"},
        {"COD006", "ExecClass / property-flag inconsistency"},
        {"COD007", "trace-visible field unreachable from any opcode"},
        {"DET001", "wall-clock or libc rand in model code (python linter)"},
        {"DET002", "iteration over an unordered container (python linter)"},
        {"DET003", "uninitialized scalar member in a trace/event struct "
                   "(python linter)"},
        {"DET004", "non-const function-local static (python linter)"},
        {"DET005",
         "discarded TraceBuffer rewind/commit result (python linter)"},
        {"DET006", "raw wall-clock call in model code outside src/host "
                   "(python linter)"},
        {"PROT001", "FM<->TM protocol model: reachable deadlock state "
                    "(no transition enabled)"},
        {"PROT002", "FM<->TM protocol model: quiesce unreachable from some "
                    "state (drain/checkpoint liveness)"},
        {"PROT003", "FM<->TM protocol model: command lost or duplicated "
                    "across the faulty link (exactly-once delivery)"},
        {"PROT004", "FM<->TM protocol model: trace-buffer rewind overtakes "
                    "an in-flight command (rewind safety)"},
    };
    return catalog;
}

bool
isKnownDiagnostic(const std::string &id)
{
    for (const CatalogEntry &e : diagnosticCatalog())
        if (id == e.id)
            return true;
    return false;
}

std::string
jsonDocument(const Report &report, const std::vector<PassRecord> &passes)
{
    std::ostringstream os;
    os << "{\"catalog_version\":" << kCatalogVersion << ",\"passes\":[";
    bool first = true;
    for (const PassRecord &p : passes) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"name\":\"" << jsonEscape(p.name)
           << "\",\"runtime_us\":" << p.runtimeUs
           << ",\"findings\":" << p.findings << "}";
    }
    // Tail shares the Report::json() shape so existing consumers keep
    // parsing errors/warnings/diagnostics from either document.
    const std::string tail = report.json();
    os << "]," << tail.substr(1);
    return os.str();
}

} // namespace analysis
} // namespace fastsim
