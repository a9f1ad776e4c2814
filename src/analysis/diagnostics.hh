/**
 * @file
 * Diagnostic collection for the static verification passes (fastlint).
 *
 * Every finding carries a stable identifier (FABnnn for fabric lint,
 * CODnnn for codec lint; the determinism linter's DETnnn IDs live in
 * tools/lint_determinism.py), a severity, the entity it is anchored to
 * (module, connector, opcode, ...) and a human-readable message.  The
 * Report renders either a compiler-style text listing or a JSON document
 * for tooling, and supports per-ID suppression so a known-benign finding
 * can be waived without losing the rest of a pass.
 */

#ifndef FASTSIM_ANALYSIS_DIAGNOSTICS_HH
#define FASTSIM_ANALYSIS_DIAGNOSTICS_HH

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace fastsim {
namespace analysis {

enum class Severity : std::uint8_t
{
    Warning, //!< suspicious but not provably wrong
    Error,   //!< the configuration is rejected
};

/** One finding of a verification pass. */
struct Diagnostic
{
    std::string id;       //!< stable identifier, e.g. "FAB001"
    Severity severity = Severity::Error;
    std::string where;    //!< entity the finding anchors to
    std::string message;
};

/**
 * Accumulates diagnostics across passes.
 *
 * Suppressions must be registered before the passes run; a suppressed ID
 * is dropped at add() time (it never reaches the listing or the error
 * count).
 */
class Report
{
  public:
    /** Waive every future finding with this ID. */
    void suppress(const std::string &id) { suppressed_.insert(id); }
    bool isSuppressed(const std::string &id) const
    {
        return suppressed_.count(id) > 0;
    }

    void
    add(std::string id, Severity sev, std::string where, std::string message)
    {
        if (isSuppressed(id))
            return;
        diags_.push_back(Diagnostic{std::move(id), sev, std::move(where),
                                    std::move(message)});
    }

    void
    error(std::string id, std::string where, std::string message)
    {
        add(std::move(id), Severity::Error, std::move(where),
            std::move(message));
    }

    void
    warning(std::string id, std::string where, std::string message)
    {
        add(std::move(id), Severity::Warning, std::move(where),
            std::move(message));
    }

    const std::vector<Diagnostic> &diagnostics() const { return diags_; }

    std::size_t
    count(Severity sev) const
    {
        std::size_t n = 0;
        for (const Diagnostic &d : diags_)
            if (d.severity == sev)
                ++n;
        return n;
    }
    std::size_t errorCount() const { return count(Severity::Error); }
    std::size_t warningCount() const { return count(Severity::Warning); }
    bool hasErrors() const { return errorCount() > 0; }

    /** True if any finding carries this ID (test convenience). */
    bool
    has(const std::string &id) const
    {
        for (const Diagnostic &d : diags_)
            if (d.id == id)
                return true;
        return false;
    }

    /** Number of findings carrying this ID. */
    std::size_t
    countOf(const std::string &id) const
    {
        std::size_t n = 0;
        for (const Diagnostic &d : diags_)
            if (d.id == id)
                ++n;
        return n;
    }

    /** Compiler-style listing, one finding per line. */
    std::string text() const;

    /** JSON document: {"errors":N,"warnings":N,"diagnostics":[...]}. */
    std::string json() const;

  private:
    std::vector<Diagnostic> diags_;
    std::set<std::string> suppressed_;
};

/** One catalog row: a stable diagnostic ID and its one-line summary. */
struct CatalogEntry
{
    const char *id;
    const char *summary;
};

/**
 * Catalog schema version.  Bumped whenever an ID is added or retired, or
 * when the jsonDocument() shape changes, so downstream tooling (the CI
 * model-check job, dashboards) can gate on the version instead of
 * sniffing fields.
 */
constexpr unsigned kCatalogVersion = 10;

/**
 * Every diagnostic ID the verification tooling can emit, in catalog
 * order: FAB (fabric/config/partition), COD (codec), DET (source-level
 * determinism, emitted by tools/lint_determinism.py), PROT (protocol
 * model checking).
 *
 * Retired IDs are never reused:
 *   FAB010 (catalog v10)  invalid parallel-runner tuning — the epoch
 *                         window, command batch and adaptive trace-ring
 *                         bounds it validated became fixed constants.
 */
const std::vector<CatalogEntry> &diagnosticCatalog();

/** True if `id` appears in the catalog (validates --suppress flags). */
bool isKnownDiagnostic(const std::string &id);

/** One timed verification pass, recorded for the JSON document. */
struct PassRecord
{
    std::string name;            //!< pass name, e.g. "fabric"
    std::uint64_t runtimeUs = 0; //!< wall-clock runtime in microseconds
    std::size_t findings = 0;    //!< diagnostics the pass contributed
};

/**
 * Stable machine-readable report.  Schema (append-only; breaking changes
 * bump kCatalogVersion):
 *
 *   {"catalog_version":10,
 *    "passes":[{"name":"fabric","runtime_us":N,"findings":N},...],
 *    "errors":N,"warnings":N,
 *    "diagnostics":[{"id","severity","where","message"},...]}
 */
std::string jsonDocument(const Report &report,
                         const std::vector<PassRecord> &passes);

} // namespace analysis
} // namespace fastsim

#endif // FASTSIM_ANALYSIS_DIAGNOSTICS_HH
