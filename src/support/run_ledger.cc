#include "support/run_ledger.h"

#include "support/metrics.h"
#include "support/text.h"
#include "support/version.h"

#include <sstream>
#include <string_view>

namespace mc::support {

namespace {

thread_local LedgerUnitStats* t_unit_stats = nullptr;

std::string
quoted(const std::string& s)
{
    return "\"" + jsonEscape(s) + "\"";
}

const char*
boolName(bool b)
{
    return b ? "true" : "false";
}

} // namespace

LedgerUnitStats*
LedgerUnitStats::current()
{
    return t_unit_stats;
}

LedgerUnitScope::LedgerUnitScope(LedgerUnitStats* stats)
    : prev_(t_unit_stats)
{
    t_unit_stats = stats;
}

LedgerUnitScope::~LedgerUnitScope()
{
    t_unit_stats = prev_;
}

RunLedger&
RunLedger::global()
{
    static RunLedger ledger;
    return ledger;
}

bool
RunLedger::open(const std::string& path)
{
    std::lock_guard<std::mutex> lock(mu_);
    out_.open(path, std::ios::app);
    enabled_ = out_.good();
    return enabled_;
}

void
RunLedger::close()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (out_.is_open())
        out_.close();
    enabled_ = false;
}

void
RunLedger::emitLine(const std::string& line)
{
    out_ << line << '\n';
    MetricsRegistry& metrics = MetricsRegistry::global();
    if (metrics.enabled())
        metrics.counter("ledger.events").add();
}

void
RunLedger::runStart(const std::vector<std::string>& args, bool witness,
                    unsigned witness_limit, unsigned jobs)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!enabled_)
        return;
    std::ostringstream os;
    os << "{\"event\": \"run_start\", \"tool\": " << quoted(kToolName)
       << ", \"version\": " << quoted(kToolVersion) << ", \"args\": [";
    for (std::size_t i = 0; i < args.size(); ++i)
        os << (i ? ", " : "") << quoted(args[i]);
    os << "], \"witness\": " << boolName(witness)
       << ", \"witness_limit\": " << witness_limit
       << ", \"jobs\": " << jobs << "}";
    emitLine(os.str());
}

void
RunLedger::unit(const LedgerUnitEvent& event)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!enabled_)
        return;
    ++units_;
    unit_failures_ += event.failed ? 1 : 0;
    truncations_ += event.truncated ? 1 : 0;
    cache_hits_ += std::string_view(event.cache) == "hit" ? 1 : 0;
    cache_misses_ += std::string_view(event.cache) == "miss" ? 1 : 0;
    cache_resident_ += std::string_view(event.cache) == "resident" ? 1 : 0;
    total_visits_ += event.visits;
    std::ostringstream os;
    os.precision(3);
    os << std::fixed;
    os << "{\"event\": \"unit\", \"function\": " << quoted(event.function)
       << ", \"checker\": " << quoted(event.checker)
       << ", \"wall_ms\": " << event.wall_ms
       << ", \"visits\": " << event.visits
       << ", \"pruned_edges\": " << event.pruned_edges
       << ", \"prune_cache_hits\": " << event.prune_cache_hits
       << ", \"prune_skipped_nary\": " << event.prune_skipped_nary
       << ", \"cache\": \""
       << event.cache << "\", \"budget_stop\": \"" << event.budget_stop
       << "\", \"truncated\": " << boolName(event.truncated)
       << ", \"failed\": " << boolName(event.failed)
       << ", \"degraded_parse\": " << boolName(event.degraded_parse);
    if (event.worker >= 0)
        os << ", \"worker\": " << event.worker
           << ", \"attempts\": " << event.attempts;
    os << "}";
    emitLine(os.str());
}

void
RunLedger::worker(unsigned slot, const std::string& action,
                  std::uint64_t detail)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!enabled_)
        return;
    std::ostringstream os;
    os << "{\"event\": \"worker\", \"worker\": " << slot
       << ", \"action\": " << quoted(action)
       << ", \"detail\": " << detail << "}";
    emitLine(os.str());
}

void
RunLedger::request(const LedgerRequestEvent& event)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!enabled_)
        return;
    std::ostringstream os;
    os.precision(3);
    os << std::fixed;
    os << "{\"event\": \"request\", \"id\": " << event.id
       << ", \"method\": " << quoted(event.method)
       << ", \"status\": " << quoted(event.status)
       << ", \"exit_code\": " << event.exit_code
       << ", \"wall_ms\": " << event.wall_ms
       << ", \"units_total\": " << event.units_total
       << ", \"units_reused\": " << event.units_reused
       << ", \"files_reparsed\": " << event.files_reparsed
       << ", \"program_reused\": " << boolName(event.program_reused)
       << "}";
    emitLine(os.str());
}

void
RunLedger::runEnd(int exit_code, int errors, int warnings)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!enabled_)
        return;
    std::ostringstream os;
    os << "{\"event\": \"run_end\", \"exit_code\": " << exit_code
       << ", \"errors\": " << errors << ", \"warnings\": " << warnings
       << ", \"units\": " << units_
       << ", \"unit_failures\": " << unit_failures_
       << ", \"budget_truncations\": " << truncations_
       << ", \"cache_hits\": " << cache_hits_
       << ", \"cache_misses\": " << cache_misses_
       << ", \"cache_resident\": " << cache_resident_
       << ", \"total_visits\": " << total_visits_ << "}";
    emitLine(os.str());
    out_.close();
    enabled_ = false;
}

} // namespace mc::support
