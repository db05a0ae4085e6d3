#include "checkers/parallel.h"

#include "checkers/unit_guard.h"
#include "flash/protocol_spec.h"
#include "lang/fingerprint.h"
#include "support/fault_injection.h"
#include "support/hash.h"
#include "support/metrics.h"
#include "support/run_ledger.h"
#include "support/trace.h"
#include "support/version.h"
#include "support/witness.h"

#include <atomic>
#include <chrono>
#include <istream>
#include <set>
#include <sstream>
#include <streambuf>
#include <string_view>

namespace mc::checkers {

namespace {

/** Read-only stream buffer over borrowed bytes, re-pointed per unit. */
class ViewBuf : public std::streambuf
{
  public:
    void
    reset(std::string_view bytes)
    {
        char* p = const_cast<char*>(bytes.data());
        setg(p, p, p + bytes.size());
    }
};

/** loadState from `state` through this thread's reusable stream. */
bool
loadStateFrom(Checker& checker, std::string_view state)
{
    thread_local ViewBuf buf;
    thread_local std::istream in(&buf);
    buf.reset(state);
    in.clear();
    return checker.loadState(in);
}

} // namespace

support::Fnv1a
unitCacheKeyPrefix(const CheckerDef& def)
{
    const CheckerSetOptions& options = def.options();
    support::Fnv1a h;
    h.i64(cache::kCacheFormatVersion);
    h.str(support::kToolVersion);
    h.str(def.name());
    h.str(def.metalSource());
    h.u8(options.value_sensitive_frees ? 1 : 0);
    // PruneStrategy::Off encodes 0 — the byte the old boolean flag
    // wrote — so existing cache entries stay valid for unpruned runs.
    h.u8(static_cast<std::uint8_t>(options.prune_strategy));
    // Witness capture changes the bytes a unit produces (diagnostics
    // carry provenance), so witness-on and witness-off runs must never
    // share an entry — and neither may runs with different caps.
    h.u8(support::witnessEnabled() ? 1 : 0);
    h.u64(support::witnessLimit());
    return h;
}

std::unique_ptr<Checker>
replayUnit(const CheckerDef& def, const std::string& function,
           const cache::CachedUnit& unit,
           const std::map<std::string, std::int32_t>& file_ids,
           support::DiagnosticSink& sink)
{
    if (unit.checker != def.name() || unit.function != function)
        return nullptr;
    std::vector<support::Diagnostic> replayed(unit.diags.size());
    for (std::size_t i = 0; i < unit.diags.size(); ++i)
        if (!cache::AnalysisCache::fromCached(unit.diags[i], file_ids,
                                              replayed[i]))
            return nullptr;
    std::unique_ptr<Checker> rebuilt = def.instantiate();
    if (!loadStateFrom(*rebuilt, unit.state))
        return nullptr;
    for (support::Diagnostic& d : replayed)
        sink.report(std::move(d));
    return rebuilt;
}

std::vector<CheckerRunStats>
runCheckersParallel(const lang::Program& program,
                    const flash::ProtocolSpec& spec,
                    const std::vector<Checker*>& checkers,
                    support::DiagnosticSink& sink,
                    const ParallelRunOptions& options)
{
    // Any checker without a registered definition (a test double, say)
    // makes private instances impossible, which rules out the unit
    // machinery entirely. Every registered configuration — including
    // jobs == 1 — goes through the unit machinery, so fault containment
    // and cache replay behave identically at any job count.
    unsigned jobs = options.pool           ? options.pool->jobs()
                    : options.jobs != 0   ? options.jobs
                                           : support::ThreadPool::defaultJobs();
    std::vector<const CheckerDef*> defs;
    for (Checker* checker : checkers) {
        defs.push_back(checkerDef(checker->name(), options.checker_options));
        if (!defs.back())
            return runCheckers(program, spec, checkers, sink);
    }
    cache::AnalysisCache* cache = options.cache;

    support::ThreadPool local_pool(options.pool ? 1 : jobs);
    support::ThreadPool& pool = options.pool ? *options.pool : local_pool;

    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    support::TraceRecorder& tracer = support::TraceRecorder::global();
    using Clock = std::chrono::steady_clock;

    const std::vector<const lang::FunctionDecl*>& fns = program.functions();
    const std::size_t nfns = fns.size();
    const std::size_t ncheckers = checkers.size();
    const std::size_t nunits = nfns * ncheckers;

    std::vector<int> base_errors;
    std::vector<int> base_warnings;
    for (Checker* checker : checkers) {
        checker->reset();
        base_errors.push_back(sink.countForChecker(
            checker->name(), support::Severity::Error));
        base_warnings.push_back(sink.countForChecker(
            checker->name(), support::Severity::Warning));
    }

    if (metrics.enabled()) {
        metrics.gauge("parallel.jobs").observe(jobs);
        metrics.counter("parallel.work_units").add(nunits);
        // Pre-registered so "engine.unit_failures": 0 in a report is a
        // statement that every unit completed, not an omission — and so
        // the map nodes exist before phase 2 fans out, keeping first-use
        // registration off the worker threads entirely.
        metrics.counter("engine.unit_failures").add(0);
        metrics.counter("budget.truncations").add(0);
        metrics.counter("witness.steps").add(0);
        metrics.counter("witness.truncations").add(0);
        metrics.counter("ledger.events").add(0);
        metrics.counter("walker.infeasible_pruned").add(0);
        metrics.counter("walker.prune_cache_hits").add(0);
        metrics.counter("walker.prune_skipped_nary").add(0);
        metrics.counter("engine.table_memo_hits").add(0);
        metrics.counter("engine.table_memo_misses").add(0);
        if (options.cfg_cache)
            metrics.counter("parallel.cfg_reused").add(0);
        metrics.histogram("unit.wall_ns");
        metrics.histogram("unit.visits");
    }

    std::vector<std::unique_ptr<Checker>> unit_checkers(nunits);
    std::vector<support::DiagnosticSink> unit_sinks(nunits);
    std::vector<char> unit_hit(nunits, 0);
    std::vector<std::uint64_t> unit_keys(nunits, 0);

    // Phase 0 (cache only): look every unit up by content key. A usable
    // hit yields a reconstructed private checker (state replayed through
    // loadState) and a private sink refilled with the stored diagnostics
    // in their original order, so the merge below cannot tell a replayed
    // unit from a freshly checked one. Unresolvable file names or a
    // state blob loadState rejects demote the hit to a miss.
    if (cache) {
        support::TraceSpan span(tracer.enabled() ? &tracer : nullptr,
                                "cache.lookup", "cache");
        support::ScopedTimer timer(
            metrics.enabled() ? &metrics.timer("cache.lookup") : nullptr);
        std::map<std::string, std::uint64_t> fn_fps =
            lang::fingerprintFunctions(program);
        std::map<std::string, std::int32_t> file_ids =
            cache::AnalysisCache::fileIdsByName(program.sourceManager());
        std::uint64_t spec_fp = flash::specFingerprint(spec);
        std::vector<support::Fnv1a> key_prefixes;
        for (const CheckerDef* def : defs)
            key_prefixes.push_back(unitCacheKeyPrefix(*def));
        pool.parallelFor(nunits, [&](std::size_t u) {
            std::size_t f = u / ncheckers;
            std::size_t c = u % ncheckers;
            auto fp = fn_fps.find(fns[f]->name);
            if (fp == fn_fps.end())
                return;
            unit_keys[u] =
                unitCacheKey(key_prefixes[c], spec_fp, fp->second);
            std::shared_ptr<const cache::CachedUnit> unit =
                cache->lookup(unit_keys[u]);
            if (!unit)
                return;
            unit_checkers[u] = replayUnit(*defs[c], fns[f]->name, *unit,
                                          file_ids, unit_sinks[u]);
            unit_hit[u] = unit_checkers[u] != nullptr;
        });
    }

    // Phase 1: build every function's CFG concurrently, one builder per
    // function. backEdges() is warmed here, while each Cfg still has a
    // single owner — its lazily-filled mutable cache is not synchronized,
    // so it must never be computed from two phase-2 units at once.
    // Functions whose every unit replayed from cache skip the build —
    // that skipped path enumeration is the warm-run speedup.
    std::vector<char> need_cfg(nfns, cache ? 0 : 1);
    if (cache)
        for (std::size_t u = 0; u < nunits; ++u)
            if (!unit_hit[u])
                need_cfg[u / ncheckers] = 1;
    Clock::time_point cfg_t0 = Clock::now();
    std::vector<cfg::Cfg> cfgs(nfns);
    std::vector<const cfg::Cfg*> cfg_ptrs(nfns, nullptr);
    std::atomic<std::uint64_t> cfg_reused{0};
    pool.parallelFor(nfns, [&](std::size_t f) {
        if (!need_cfg[f])
            return;
        if (CfgCache* resident = options.cfg_cache) {
            {
                std::lock_guard<std::mutex> lock(resident->mu);
                auto it = resident->cfgs.find(fns[f]);
                if (it != resident->cfgs.end()) {
                    cfg_ptrs[f] = &it->second;
                    cfg_reused.fetch_add(1, std::memory_order_relaxed);
                    return;
                }
            }
            // Build (and warm backEdges) outside the lock, publish under
            // it. std::map nodes are address-stable, so the pointer stays
            // good as other functions insert.
            cfg::Cfg built = cfg::CfgBuilder::build(*fns[f]);
            built.backEdges();
            std::lock_guard<std::mutex> lock(resident->mu);
            cfg_ptrs[f] =
                &resident->cfgs.emplace(fns[f], std::move(built))
                     .first->second;
            return;
        }
        cfgs[f] = cfg::CfgBuilder::build(*fns[f]);
        cfgs[f].backEdges();
        cfg_ptrs[f] = &cfgs[f];
    });
    if (metrics.enabled()) {
        metrics.timer("parallel.cfg_build")
            .add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - cfg_t0));
        if (options.cfg_cache)
            metrics.counter("parallel.cfg_reused")
                .add(cfg_reused.load(std::memory_order_relaxed));
    }

    // Phase 2: (function x checker) units, each against a private checker
    // instance and private sink, each under a UnitGuard. Unit
    // u = f * ncheckers + c — the merge below walks u in order to
    // reproduce the sequential visit order. A unit that throws is
    // discarded wholesale (fresh instance, no partial findings) and
    // replaced by one "analysis incomplete" warning, so a crash stays
    // contained to its unit and the merged bytes stay deterministic.
    // Cache misses run live and (in read-write mode) store their outcome:
    // the private sink's diagnostics plus the instance's serialized
    // state. Failed units are never stored; neither are budget-truncated
    // ones, since budget limits are not part of the content key and a
    // partial result must not masquerade as a full one.
    std::vector<Clock::duration> unit_elapsed(nunits,
                                              Clock::duration::zero());
    std::vector<char> unit_failed(nunits, 0);
    std::vector<support::LedgerUnitStats> unit_walk_stats(nunits);
    std::vector<support::BudgetStop> unit_stop(
        nunits, support::BudgetStop::None);
    pool.parallelFor(nunits, [&](std::size_t u) {
        if (unit_hit[u])
            return;
        std::size_t f = u / ncheckers;
        std::size_t c = u % ncheckers;
        const std::string label =
            fns[f]->name + "/" + checkers[c]->name();
        unit_checkers[u] = defs[c]->instantiate();
        support::DiagnosticSink scratch;
        CheckContext uctx{program, spec, scratch};
        support::TraceSpan span(tracer.enabled() ? &tracer : nullptr,
                                checkers[c]->name(), "checker");
        if (tracer.enabled())
            span.arg("function", fns[f]->name);
        // Visit accumulator for the ledger: every walk this unit performs
        // publishes into it through the thread-local scope.
        support::LedgerUnitStats unit_stats;
        support::LedgerUnitScope stats_scope(&unit_stats);
        Clock::time_point t0 = Clock::now();
        UnitGuard guard(label, options.unit_budget, options.fail_fast);
        UnitOutcome outcome = guard.run([&] {
            // Keyed by the unit's identity: the same units fault no
            // matter how the pool schedules them across lanes.
            support::fault::probe("checker.unit", label);
            unit_checkers[u]->checkFunction(*fns[f], *cfg_ptrs[f], uctx);
        });
        unit_elapsed[u] = Clock::now() - t0;
        unit_walk_stats[u] = unit_stats;
        unit_stop[u] = outcome.budget_stop;
        if (outcome.failed) {
            unit_failed[u] = 1;
            unit_checkers[u] = defs[c]->instantiate();
            warnUnitFailed(unit_sinks[u], fns[f]->loc, checkers[c]->name(),
                           fns[f]->name, outcome.error);
            return;
        }
        for (const support::Diagnostic& d : scratch.diagnostics())
            unit_sinks[u].report(d);
        if (outcome.budget_stop != support::BudgetStop::None)
            warnUnitTruncated(unit_sinks[u], fns[f]->loc,
                              checkers[c]->name(), fns[f]->name,
                              outcome.budget_stop);
        if (cache && !cache->readonly() && unit_keys[u] != 0 &&
            outcome.budget_stop == support::BudgetStop::None) {
            cache::CachedUnit unit;
            unit.checker = checkers[c]->name();
            unit.function = fns[f]->name;
            std::ostringstream state;
            unit_checkers[u]->saveState(state);
            unit.state = state.str();
            for (const support::Diagnostic& d :
                 unit_sinks[u].diagnostics())
                unit.diags.push_back(cache::AnalysisCache::toCached(
                    d, program.sourceManager()));
            cache->store(unit_keys[u], unit);
        }
    });

    // Sequential merge, in exactly the sequential runner's visit order:
    // per-checker state absorbs into the masters and each unit's findings
    // replay through the shared sink (which re-runs the global dedup the
    // private sinks could not see).
    support::RunLedger& ledger = support::RunLedger::global();
    std::set<std::int32_t> degraded_files;
    if (ledger.enabled())
        for (const lang::TranslationUnit& tu : program.units())
            if (!tu.issues.empty())
                degraded_files.insert(tu.file_id);
    std::vector<Clock::duration> elapsed(ncheckers,
                                         Clock::duration::zero());
    std::uint64_t failures = 0;
    std::uint64_t truncations = 0;
    std::uint64_t witness_truncations = 0;
    for (std::size_t u = 0; u < nunits; ++u) {
        std::size_t f = u / ncheckers;
        std::size_t c = u % ncheckers;
        checkers[c]->absorb(*unit_checkers[u]);
        elapsed[c] += unit_elapsed[u];
        for (const support::Diagnostic& d : unit_sinks[u].diagnostics()) {
            witness_truncations += d.witness.truncated ? 1 : 0;
            sink.report(d);
        }
        failures += unit_failed[u] ? 1 : 0;
        truncations +=
            unit_stop[u] != support::BudgetStop::None ? 1 : 0;
        if (ledger.enabled()) {
            support::LedgerUnitEvent event;
            event.function = fns[f]->name;
            event.checker = checkers[c]->name();
            event.wall_ms = std::chrono::duration<double, std::milli>(
                                unit_elapsed[u])
                                .count();
            event.visits = unit_walk_stats[u].visits;
            event.pruned_edges = unit_walk_stats[u].pruned_edges;
            event.prune_cache_hits = unit_walk_stats[u].prune_cache_hits;
            event.prune_skipped_nary =
                unit_walk_stats[u].prune_skipped_nary;
            event.cache = !cache ? "off" : unit_hit[u] ? "hit" : "miss";
            event.budget_stop = support::budgetStopName(unit_stop[u]);
            event.truncated = unit_stop[u] != support::BudgetStop::None;
            event.failed = unit_failed[u] != 0;
            event.degraded_parse =
                degraded_files.count(fns[f]->loc.file_id) != 0;
            ledger.unit(event);
        }
        if (metrics.enabled() && !unit_hit[u]) {
            metrics.histogram("unit.wall_ns")
                .observe(static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        unit_elapsed[u])
                        .count()));
            metrics.histogram("unit.visits")
                .observe(unit_walk_stats[u].visits);
        }
    }
    if (options.health) {
        options.health->unit_failures += failures;
        options.health->budget_truncations += truncations;
    }
    if (metrics.enabled()) {
        metrics.counter("engine.unit_failures").add(failures);
        metrics.counter("budget.truncations").add(truncations);
        metrics.counter("witness.truncations").add(witness_truncations);
    }

    CheckContext ctx{program, spec, sink};
    for (std::size_t i = 0; i < ncheckers; ++i) {
        support::TraceSpan span(tracer.enabled() ? &tracer : nullptr,
                                checkers[i]->name() + ".program",
                                "checker");
        Clock::time_point t0 = Clock::now();
        checkers[i]->checkProgram(ctx);
        elapsed[i] += Clock::now() - t0;
    }

    std::vector<CheckerRunStats> stats;
    for (std::size_t i = 0; i < ncheckers; ++i) {
        CheckerRunStats s;
        s.checker = checkers[i]->name();
        s.errors = sink.countForChecker(s.checker,
                                        support::Severity::Error) -
                   base_errors[i];
        s.warnings = sink.countForChecker(s.checker,
                                          support::Severity::Warning) -
                     base_warnings[i];
        s.applied = checkers[i]->applied();
        s.wall_ms =
            std::chrono::duration<double, std::milli>(elapsed[i]).count();
        if (metrics.enabled()) {
            metrics.timer("checker." + s.checker)
                .add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                    elapsed[i]));
            metrics.counter("checker." + s.checker + ".errors")
                .add(static_cast<std::uint64_t>(s.errors));
            metrics.counter("checker." + s.checker + ".warnings")
                .add(static_cast<std::uint64_t>(s.warnings));
            metrics.counter("checker." + s.checker + ".applied")
                .add(static_cast<std::uint64_t>(s.applied));
        }
        stats.push_back(std::move(s));
    }
    return stats;
}

} // namespace mc::checkers
