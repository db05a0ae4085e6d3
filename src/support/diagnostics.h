#ifndef MCHECK_SUPPORT_DIAGNOSTICS_H
#define MCHECK_SUPPORT_DIAGNOSTICS_H

#include "support/source_location.h"

#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

namespace mc::support {

class SourceManager;

/** How serious a reported finding is. */
enum class Severity
{
    /** A rule violation the checker believes is a real bug. */
    Error,
    /** A suspicious construct that may be benign. */
    Warning,
    /** Supplementary information attached to a prior finding. */
    Note,
};

/** Returns a short lowercase name ("error", "warning", "note"). */
const char* severityName(Severity sev);

/** Output encodings the sink can render findings in. */
enum class OutputFormat
{
    /** Human-readable "file:line:col: severity: ..." lines. */
    Text,
    /** A JSON object with a "diagnostics" array and severity counts. */
    Json,
    /** SARIF 2.1.0 (the subset CI result viewers consume). */
    Sarif,
};

/**
 * One SM transition (or rule firing) on the path that produced a
 * finding: the state before and after, the statement it happened at,
 * and a note naming the rule plus its rendered wildcard bindings.
 */
struct WitnessStep
{
    std::string from_state;
    std::string to_state;
    SourceLoc loc;
    /** "rule <id>, <wildcard> = <expr>, ..." — human-readable evidence. */
    std::string note;
};

/**
 * Bounded provenance for one finding: the ordered SM transition history
 * and the CFG block-path segment of the path that reached it. Capture is
 * capped at the configured `--witness-limit`; a capped witness carries
 * `truncated = true` rather than silently losing its tail.
 */
struct Witness
{
    std::vector<WitnessStep> steps;
    std::vector<int> blocks;
    bool truncated = false;

    bool empty() const { return steps.empty() && blocks.empty(); }
};

/**
 * One finding emitted by a checker.
 *
 * `checker` is the checker's stable name (Table 7 row), `rule` a short
 * machine-readable id for the specific violated rule, and `message` the
 * human-readable text. `trace` optionally carries an inter-procedural
 * back-trace (the lanes checker populates it, mirroring the paper's
 * "precise textual back traces"). `witness` carries the path-level
 * provenance captured under `--witness`: the SM transition history and
 * block path that produced the finding (empty when capture is off or
 * the finding has no path context).
 */
struct Diagnostic
{
    Severity severity = Severity::Error;
    SourceLoc loc;
    std::string checker;
    std::string rule;
    std::string message;
    std::vector<std::string> trace;
    Witness witness;
};

/**
 * Collects diagnostics from all checkers in one run.
 *
 * The sink deduplicates findings by (checker, rule, location): a
 * path-sensitive engine can reach the same bad statement along many paths,
 * but the paper's tables count distinct source-level errors.
 *
 * Thread-safety and determinism: `report`, the counting queries, and
 * `clear` take an internal mutex, so checker worker threads may share one
 * sink. Emission (`print` / `printJson` / `printSarif`) orders findings
 * by (file, line, column, checker, rule) — insertion order breaks ties —
 * so rendered output is byte-identical no matter how many threads (or
 * which interleaving) produced the findings. `diagnostics()` still
 * exposes raw insertion order and expects a quiesced sink.
 */
class DiagnosticSink
{
  public:
    /** Report a finding. Returns true if it was new (not a duplicate). */
    bool report(Diagnostic diag);

    /** Convenience for the common case. */
    bool
    error(const SourceLoc& loc, std::string checker, std::string rule,
          std::string message)
    {
        return report(Diagnostic{Severity::Error, loc, std::move(checker),
                                 std::move(rule), std::move(message), {},
                                 {}});
    }

    bool
    warning(const SourceLoc& loc, std::string checker, std::string rule,
            std::string message)
    {
        return report(Diagnostic{Severity::Warning, loc, std::move(checker),
                                 std::move(rule), std::move(message), {},
                                 {}});
    }

    const std::vector<Diagnostic>& diagnostics() const { return diags_; }

    /** Total findings with the given severity. */
    int count(Severity sev) const;

    /** Findings attributed to one checker (all severities). */
    int countForChecker(const std::string& checker) const;

    /** Findings for one (checker, severity) pair. */
    int countForChecker(const std::string& checker, Severity sev) const;

    /** Drop all collected diagnostics and duplicate-tracking state. */
    void clear();

    /**
     * Move out every finding in insertion order, leaving the sink as
     * clear() does.
     */
    std::vector<Diagnostic> take();

    /**
     * Print all findings (with source line excerpts when a SourceManager
     * is supplied) in "file:line:col: severity: [checker] message" form.
     */
    void print(std::ostream& os, const SourceManager* sm = nullptr) const;

    /**
     * Emit all findings as a JSON object:
     * {"tool": {...}, "counts": {"error": n, ...}, "diagnostics": [...]}.
     * Each diagnostic carries severity, file/line/column, checker, rule,
     * message, and the back-trace frames. File names resolve through `sm`
     * when provided; otherwise the numeric file id is used.
     */
    void printJson(std::ostream& os, const SourceManager* sm = nullptr) const;

    /**
     * Emit findings as SARIF 2.1.0 — the "lite" subset CI viewers need:
     * one run, tool.driver with a rule table, one result per finding with
     * a physical location, and inter-procedural back-traces rendered as a
     * SARIF stack.
     */
    void printSarif(std::ostream& os,
                    const SourceManager* sm = nullptr) const;

    /** Dispatch on `format` to print / printJson / printSarif. */
    void write(std::ostream& os, OutputFormat format,
               const SourceManager* sm = nullptr) const;

  private:
    /**
     * Structured dedup key. (Earlier versions concatenated the fields
     * into one delimited string, which let a checker or rule name
     * containing the delimiter collide with a different pair.)
     */
    using DedupKey = std::tuple<std::string, std::string, SourceLoc>;

    /** count(sev) with mu_ already held. */
    int countLocked(Severity sev) const;

    /**
     * Emission order: indices into diags_, stably sorted by
     * (location, checker, rule). Call with mu_ held.
     */
    std::vector<std::size_t> emissionOrder() const;

    mutable std::mutex mu_;
    std::vector<Diagnostic> diags_;
    std::map<DedupKey, int> seen_;
};

} // namespace mc::support

#endif // MCHECK_SUPPORT_DIAGNOSTICS_H
