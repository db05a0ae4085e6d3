#include "support/diagnostics.h"

#include "support/source_manager.h"
#include "support/text.h"
#include "support/version.h"
#include "support/witness.h"

#include <algorithm>
#include <charconv>
#include <ostream>
#include <set>

namespace mc::support {

const char*
severityName(Severity sev)
{
    switch (sev) {
      case Severity::Error: return "error";
      case Severity::Warning: return "warning";
      case Severity::Note: return "note";
    }
    return "unknown";
}

bool
DiagnosticSink::report(Diagnostic diag)
{
    // Attach path provenance at the moment of reporting: if the calling
    // thread is inside a walk with an active witness trail (installed by
    // the path walker), the finding inherits a snapshot of the path that
    // reached it. Findings that already carry a witness — cache replays,
    // unit-sink merges — keep theirs; the merge paths run with no trail
    // installed, so replayed provenance is never overwritten.
    if (diag.witness.empty()) {
        if (const WitnessTrail* trail = WitnessTrail::current();
            trail && trail->active()) {
            diag.witness = *trail->witness();
        } else if (diag.severity != Severity::Note && witnessEnabled()) {
            // Declaration-level findings (signature checks, parse
            // errors) are reported outside any walk, so no trail exists.
            // --witness still guarantees every finding carries
            // provenance: a single step naming the rule's evaluation
            // site, explicitly marked as having no path.
            WitnessStep step;
            step.from_state = "decl";
            step.to_state = "decl";
            step.loc = diag.loc;
            step.note = "rule " + diag.rule + ", structural (no path)";
            diag.witness.steps.push_back(std::move(step));
        }
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (diag.severity != Severity::Note) {
        auto [it, inserted] = seen_.emplace(
            DedupKey{diag.checker, diag.rule, diag.loc}, 1);
        if (!inserted) {
            ++it->second;
            return false;
        }
    }
    diags_.push_back(std::move(diag));
    return true;
}

int
DiagnosticSink::countLocked(Severity sev) const
{
    int n = 0;
    for (const auto& d : diags_)
        if (d.severity == sev)
            ++n;
    return n;
}

int
DiagnosticSink::count(Severity sev) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return countLocked(sev);
}

std::vector<std::size_t>
DiagnosticSink::emissionOrder() const
{
    std::vector<std::size_t> order(diags_.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                         const Diagnostic& da = diags_[a];
                         const Diagnostic& db = diags_[b];
                         if (!(da.loc == db.loc))
                             return da.loc < db.loc;
                         if (da.checker != db.checker)
                             return da.checker < db.checker;
                         return da.rule < db.rule;
                     });
    return order;
}

int
DiagnosticSink::countForChecker(const std::string& checker) const
{
    std::lock_guard<std::mutex> lock(mu_);
    int n = 0;
    for (const auto& d : diags_)
        if (d.checker == checker)
            ++n;
    return n;
}

int
DiagnosticSink::countForChecker(const std::string& checker,
                                Severity sev) const
{
    std::lock_guard<std::mutex> lock(mu_);
    int n = 0;
    for (const auto& d : diags_)
        if (d.checker == checker && d.severity == sev)
            ++n;
    return n;
}

void
DiagnosticSink::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    diags_.clear();
    seen_.clear();
}

std::vector<Diagnostic>
DiagnosticSink::take()
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Diagnostic> out = std::move(diags_);
    diags_.clear();
    seen_.clear();
    return out;
}

void
DiagnosticSink::print(std::ostream& os, const SourceManager* sm) const
{
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t idx : emissionOrder()) {
        const Diagnostic& d = diags_[idx];
        if (sm) {
            os << sm->describe(d.loc);
        } else {
            os << "file" << d.loc.file_id << ':' << d.loc.line << ':'
               << d.loc.column;
        }
        os << ": " << severityName(d.severity) << ": [" << d.checker << '.'
           << d.rule << "] " << d.message << '\n';
        if (sm && d.loc.isValid()) {
            auto text = sm->lineText(d.loc.file_id, d.loc.line);
            if (!text.empty())
                os << "    " << text << '\n';
        }
        for (const auto& frame : d.trace)
            os << "    at " << frame << '\n';
        if (!d.witness.empty()) {
            os << "    witness: blocks";
            if (d.witness.blocks.empty())
                os << " (none)";
            for (std::size_t i = 0; i < d.witness.blocks.size(); ++i)
                os << (i ? " -> " : " ") << d.witness.blocks[i];
            if (d.witness.truncated)
                os << " (truncated)";
            os << '\n';
            for (const WitnessStep& step : d.witness.steps) {
                os << "      step " << step.from_state << " => "
                   << step.to_state << " at ";
                if (sm) {
                    os << sm->describe(step.loc);
                } else {
                    os << "file" << step.loc.file_id << ':'
                       << step.loc.line << ':' << step.loc.column;
                }
                if (!step.note.empty())
                    os << " (" << step.note << ')';
                os << '\n';
            }
        }
    }
}

namespace {

/** File-name string for JSON emitters: resolved name or "file<id>". */
std::string
fileNameFor(const SourceLoc& loc, const SourceManager* sm)
{
    if (sm)
        return sm->fileName(loc.file_id);
    return "file" + std::to_string(loc.file_id);
}

/** SARIF `level` property for a severity. */
const char*
sarifLevel(Severity sev)
{
    switch (sev) {
      case Severity::Error: return "error";
      case Severity::Warning: return "warning";
      case Severity::Note: return "note";
    }
    return "none";
}

} // namespace

void
DiagnosticSink::printJson(std::ostream& os, const SourceManager* sm) const
{
    std::lock_guard<std::mutex> lock(mu_);
    // Rendered into one buffer and written once: a stream insertion per
    // field costs more than the bytes it writes.
    std::string out;
    out.reserve(256 * (diags_.size() + 1));
    auto num = [&out](long long v) {
        char digits[24];
        out.append(digits,
                   std::to_chars(digits, digits + sizeof digits, v).ptr);
    };
    auto str = [&out](std::string_view s) {
        out += '"';
        appendJsonEscaped(out, s);
        out += '"';
    };
    auto file = [&](const SourceLoc& loc) {
        if (sm)
            str(sm->fileName(loc.file_id));
        else
            str("file" + std::to_string(loc.file_id));
    };
    out += "{\n  \"tool\": {\"name\": \"";
    out += kToolName;
    out += "\", \"version\": \"";
    out += kToolVersion;
    out += "\"},\n  \"counts\": {\"error\": ";
    num(countLocked(Severity::Error));
    out += ", \"warning\": ";
    num(countLocked(Severity::Warning));
    out += ", \"note\": ";
    num(countLocked(Severity::Note));
    out += "},\n  \"diagnostics\": [";
    bool first = true;
    for (std::size_t idx : emissionOrder()) {
        const Diagnostic& d = diags_[idx];
        out += first ? "\n" : ",\n";
        out += "    {\"severity\": \"";
        out += severityName(d.severity);
        out += "\", \"file\": ";
        file(d.loc);
        out += ", \"line\": ";
        num(d.loc.line);
        out += ", \"column\": ";
        num(d.loc.column);
        out += ", \"checker\": ";
        str(d.checker);
        out += ", \"rule\": ";
        str(d.rule);
        out += ", \"message\": ";
        str(d.message);
        if (!d.trace.empty()) {
            out += ", \"trace\": [";
            for (std::size_t i = 0; i < d.trace.size(); ++i) {
                if (i)
                    out += ", ";
                str(d.trace[i]);
            }
            out += ']';
        }
        if (!d.witness.empty()) {
            out += ", \"witness\": {\"truncated\": ";
            out += d.witness.truncated ? "true" : "false";
            out += ", \"blocks\": [";
            for (std::size_t i = 0; i < d.witness.blocks.size(); ++i) {
                if (i)
                    out += ", ";
                num(d.witness.blocks[i]);
            }
            out += "], \"steps\": [";
            for (std::size_t i = 0; i < d.witness.steps.size(); ++i) {
                const WitnessStep& step = d.witness.steps[i];
                out += i ? ", {\"from\": " : "{\"from\": ";
                str(step.from_state);
                out += ", \"to\": ";
                str(step.to_state);
                out += ", \"file\": ";
                file(step.loc);
                out += ", \"line\": ";
                num(step.loc.line);
                out += ", \"column\": ";
                num(step.loc.column);
                out += ", \"note\": ";
                str(step.note);
                out += '}';
            }
            out += "]}";
        }
        out += '}';
        first = false;
    }
    out += first ? "]\n}\n" : "\n  ]\n}\n";
    os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

void
DiagnosticSink::printSarif(std::ostream& os, const SourceManager* sm) const
{
    std::lock_guard<std::mutex> lock(mu_);
    os << "{\n  \"$schema\": "
          "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
       << "  \"version\": \"2.1.0\",\n  \"runs\": [{\n"
       << "    \"tool\": {\"driver\": {\"name\": \"" << kToolName
       << "\", \"version\": \"" << kToolVersion
       << "\", \"informationUri\": "
          "\"https://doi.org/10.1145/378993.379232\", \"rules\": [";

    // One reportingDescriptor per distinct checker.rule id, sorted.
    std::set<std::string> rule_ids;
    for (const Diagnostic& d : diags_)
        rule_ids.insert(d.checker + "." + d.rule);
    bool first = true;
    for (const std::string& id : rule_ids) {
        os << (first ? "\n" : ",\n") << "      {\"id\": \""
           << jsonEscape(id) << "\"}";
        first = false;
    }
    os << (first ? "" : "\n    ") << "]}},\n    \"results\": [";

    first = true;
    for (std::size_t idx : emissionOrder()) {
        const Diagnostic& d = diags_[idx];
        os << (first ? "\n" : ",\n") << "      {\"ruleId\": \""
           << jsonEscape(d.checker + "." + d.rule) << "\", \"level\": \""
           << sarifLevel(d.severity) << "\", \"message\": {\"text\": \""
           << jsonEscape(d.message) << "\"},\n"
           << "       \"locations\": [{\"physicalLocation\": "
              "{\"artifactLocation\": {\"uri\": \""
           << jsonEscape(fileNameFor(d.loc, sm))
           << "\"}, \"region\": {\"startLine\": " << std::max(d.loc.line, 1)
           << ", \"startColumn\": " << std::max(d.loc.column, 1)
           << "}}}]";
        if (!d.trace.empty()) {
            // The lanes checker's inter-procedural back-trace, rendered as
            // a SARIF stack (innermost frame first, as collected).
            os << ",\n       \"stacks\": [{\"message\": {\"text\": "
                  "\"call path\"}, \"frames\": [";
            for (std::size_t i = 0; i < d.trace.size(); ++i)
                os << (i ? ", " : "")
                   << "{\"location\": {\"message\": {\"text\": \""
                   << jsonEscape(d.trace[i]) << "\"}}}";
            os << "]}]";
        }
        if (!d.witness.empty()) {
            // Path provenance as a real SARIF codeFlow: one
            // threadFlowLocation per SM transition step (or one for the
            // finding itself when the witness carries only a block
            // path), so SARIF viewers can step along the witness.
            std::string flow = "block path:";
            if (d.witness.blocks.empty())
                flow += " (none)";
            for (std::size_t i = 0; i < d.witness.blocks.size(); ++i)
                flow += (i ? " -> " : " ") +
                        std::to_string(d.witness.blocks[i]);
            if (d.witness.truncated)
                flow += " (truncated)";
            os << ",\n       \"codeFlows\": [{\"message\": {\"text\": \""
               << jsonEscape(flow)
               << "\"}, \"threadFlows\": [{\"locations\": [";
            auto step_location = [&](const SourceLoc& loc,
                                     const std::string& text, bool lead) {
                os << (lead ? "" : ", ")
                   << "{\"location\": {\"physicalLocation\": "
                      "{\"artifactLocation\": {\"uri\": \""
                   << jsonEscape(fileNameFor(loc, sm))
                   << "\"}, \"region\": {\"startLine\": "
                   << std::max(loc.line, 1)
                   << ", \"startColumn\": " << std::max(loc.column, 1)
                   << "}}, \"message\": {\"text\": \"" << jsonEscape(text)
                   << "\"}}}";
            };
            if (d.witness.steps.empty()) {
                step_location(d.loc, "finding (" + flow + ")", true);
            } else {
                for (std::size_t i = 0; i < d.witness.steps.size(); ++i) {
                    const WitnessStep& step = d.witness.steps[i];
                    std::string text =
                        step.from_state + " => " + step.to_state;
                    if (!step.note.empty())
                        text += ": " + step.note;
                    step_location(step.loc, text, i == 0);
                }
            }
            os << "]}]}]";
        }
        os << '}';
        first = false;
    }
    os << (first ? "" : "\n    ") << "]\n  }]\n}\n";
}

void
DiagnosticSink::write(std::ostream& os, OutputFormat format,
                      const SourceManager* sm) const
{
    switch (format) {
      case OutputFormat::Text: print(os, sm); break;
      case OutputFormat::Json: printJson(os, sm); break;
      case OutputFormat::Sarif: printSarif(os, sm); break;
    }
}

} // namespace mc::support
