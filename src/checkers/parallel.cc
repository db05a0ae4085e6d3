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
#include <stdexcept>
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
replayUnit(const CheckerDef& def, std::string_view function,
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

const cfg::Cfg&
CfgCache::get(const lang::FunctionDecl& fn, bool* reused)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = cfgs.find(&fn);
        if (it != cfgs.end()) {
            if (reused)
                *reused = true;
            return it->second;
        }
    }
    cfg::Cfg built = cfg::CfgBuilder::build(fn);
    built.backEdges();
    std::lock_guard<std::mutex> lock(mu);
    return cfgs.emplace(&fn, std::move(built)).first->second;
}

std::string
UnitPlan::label(std::size_t u) const
{
    return std::string(function(u).name) + "/" + def(u).name();
}

void
runUnit(const UnitPlan& plan, std::size_t u, UnitResult& out,
        const cfg::Cfg* cfg)
{
    const lang::FunctionDecl& fn = plan.function(u);
    const CheckerDef& def = plan.def(u);
    const std::string label = plan.label(u);
    support::TraceRecorder& tracer = support::TraceRecorder::global();
    support::TraceSpan span(tracer.enabled() ? &tracer : nullptr,
                            def.name(), "checker");
    if (tracer.enabled())
        span.arg("function", std::string(fn.name));
    out.checker = def.instantiate();
    CheckContext ctx{plan.program, plan.spec, out.sink};
    // Every walk the unit performs publishes its tallies here.
    support::LedgerUnitScope stats_scope(&out.stats);
    const auto t0 = std::chrono::steady_clock::now();
    UnitGuard guard(label, plan.budget, plan.fail_fast);
    UnitOutcome outcome = guard.run([&] {
        support::fault::probe("checker.unit", label);
        out.checker->checkFunction(fn, cfg ? *cfg : plan.cfgs->get(fn), ctx);
    });
    out.wall = std::chrono::steady_clock::now() - t0;
    out.budget_stop = outcome.budget_stop;
    if (outcome.failed)
        failUnit(plan, u, out, outcome.error);
    else if (outcome.budget_stop != support::BudgetStop::None)
        warnUnitTruncated(out.sink, fn.loc, def.name(),
                          std::string(fn.name), outcome.budget_stop);
}

void
failUnit(const UnitPlan& plan, std::size_t u, UnitResult& out,
         std::string error)
{
    const lang::FunctionDecl& fn = plan.function(u);
    out.failed = true;
    out.error = std::move(error);
    out.checker = plan.def(u).instantiate();
    out.sink.clear();
    warnUnitFailed(out.sink, fn.loc, plan.def(u).name(), std::string(fn.name),
                   out.error);
}

cache::CachedUnit
captureUnit(const UnitPlan& plan, std::size_t u, const UnitResult& result)
{
    cache::CachedUnit unit;
    unit.checker = plan.def(u).name();
    unit.function = plan.function(u).name;
    std::ostringstream state;
    result.checker->saveState(state);
    unit.state = state.str();
    for (const support::Diagnostic& d : result.sink.diagnostics())
        unit.diags.push_back(cache::AnalysisCache::toCached(
            d, plan.program.sourceManager()));
    return unit;
}

std::vector<CheckerRunStats>
runUnitPipeline(const UnitPlan& plan, const std::vector<Checker*>& masters,
                support::DiagnosticSink& sink, cache::AnalysisCache* cache,
                RunHealth* health, support::ThreadPool& pool,
                const UnitExecutor& execute)
{
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    support::TraceRecorder& tracer = support::TraceRecorder::global();
    support::RunLedger& ledger = support::RunLedger::global();
    using Clock = std::chrono::steady_clock;

    const std::size_t ncheckers = masters.size();
    const std::size_t nunits = plan.units();

    const RunBaseline base = beginRun(masters, sink);

    // Phase 0 (cache only): look every unit up by content key. A usable
    // hit yields a reconstructed checker (state replayed through
    // loadState) and a sink refilled with the stored diagnostics in
    // their original order, so the merge cannot tell a replayed unit
    // from a freshly checked one. Unresolvable file names, a state blob
    // loadState rejects, or an entry naming another unit (a key
    // collision) demote the hit to a miss.
    std::vector<UnitResult> results(nunits);
    std::vector<std::uint64_t> keys(nunits, 0);
    if (cache) {
        support::TraceSpan span(tracer.enabled() ? &tracer : nullptr,
                                "cache.lookup", "cache");
        support::ScopedTimer timer(
            metrics.enabled() ? &metrics.timer("cache.lookup") : nullptr);
        lang::FunctionFingerprints fn_fps =
            lang::fingerprintFunctions(plan.program);
        std::map<std::string, std::int32_t> file_ids =
            cache::AnalysisCache::fileIdsByName(plan.program.sourceManager());
        std::uint64_t spec_fp = flash::specFingerprint(plan.spec);
        std::vector<support::Fnv1a> key_prefixes;
        for (const CheckerDef* def : plan.defs)
            key_prefixes.push_back(unitCacheKeyPrefix(*def));
        pool.parallelFor(nunits, [&](std::size_t u) {
            UnitResult& r = results[u];
            r.cache = UnitCacheTag::Miss;
            std::string_view name = plan.function(u).name;
            auto fp = fn_fps.find(name);
            if (fp == fn_fps.end())
                return;
            keys[u] = unitCacheKey(key_prefixes[u % ncheckers], spec_fp,
                                   fp->second);
            std::shared_ptr<const cache::CachedUnit> unit =
                cache->lookup(keys[u]);
            if (!unit)
                return;
            r.checker = replayUnit(plan.def(u), name, *unit, file_ids,
                                   r.sink);
            if (r.checker)
                r.cache = UnitCacheTag::Hit;
        });
    }

    std::vector<std::size_t> todo;
    for (std::size_t u = 0; u < nunits; ++u)
        if (results[u].cache != UnitCacheTag::Hit)
            todo.push_back(u);
    // Misses store their outcome. Failed units never do; neither do
    // budget-truncated ones, since budget limits are not part of the
    // content key and a partial result must not masquerade as a full
    // one. A shard worker's result is stored as it arrived.
    const bool store = cache && !cache->readonly();
    execute(todo, results, [&](std::size_t u) {
        const UnitResult& r = results[u];
        if (!store || keys[u] == 0 || r.failed ||
            r.budget_stop != support::BudgetStop::None)
            return;
        cache->store(keys[u], r.wire ? *r.wire : captureUnit(plan, u, r));
    });

    std::set<std::int32_t> degraded_files;
    if (ledger.enabled())
        for (const lang::TranslationUnit& tu : plan.program.units())
            if (!tu.issues.empty())
                degraded_files.insert(tu.file_id);
    std::vector<Clock::duration> elapsed(ncheckers,
                                         Clock::duration::zero());
    std::uint64_t failures = 0;
    std::uint64_t truncations = 0;
    std::uint64_t witness_truncations = 0;
    for (std::size_t u = 0; u < nunits; ++u) {
        const std::size_t c = u % ncheckers;
        const lang::FunctionDecl& fn = plan.function(u);
        UnitResult& r = results[u];
        if (plan.fail_fast && r.failed)
            throw std::runtime_error("unit '" + plan.label(u) +
                                     "' failed: " + r.error);
        masters[c]->absorb(*r.checker);
        elapsed[c] += r.wall;
        for (const support::Diagnostic& d : r.sink.diagnostics()) {
            witness_truncations += d.witness.truncated ? 1 : 0;
            sink.report(d);
        }
        const bool truncated = r.budget_stop != support::BudgetStop::None;
        failures += r.failed ? 1 : 0;
        truncations += truncated ? 1 : 0;
        if (ledger.enabled()) {
            support::LedgerUnitEvent event;
            event.function = fn.name;
            event.checker = masters[c]->name();
            event.wall_ms =
                std::chrono::duration<double, std::milli>(r.wall).count();
            event.visits = r.stats.visits;
            event.pruned_edges = r.stats.pruned_edges;
            event.prune_cache_hits = r.stats.prune_cache_hits;
            event.prune_skipped_nary = r.stats.prune_skipped_nary;
            event.cache = r.cache == UnitCacheTag::Off   ? "off"
                          : r.cache == UnitCacheTag::Hit ? "hit"
                                                         : "miss";
            event.budget_stop = support::budgetStopName(r.budget_stop);
            event.truncated = truncated;
            event.failed = r.failed;
            event.degraded_parse =
                degraded_files.count(fn.loc.file_id) != 0;
            event.worker = r.worker;
            event.attempts = r.attempts;
            ledger.unit(event);
        }
        if (metrics.enabled() && r.cache != UnitCacheTag::Hit) {
            metrics.histogram("unit.wall_ns")
                .observe(static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        r.wall)
                        .count()));
            metrics.histogram("unit.visits").observe(r.stats.visits);
        }
    }
    if (health) {
        health->unit_failures += failures;
        health->budget_truncations += truncations;
    }
    if (metrics.enabled()) {
        metrics.counter("engine.unit_failures").add(failures);
        metrics.counter("budget.truncations").add(truncations);
        metrics.counter("witness.truncations").add(witness_truncations);
    }

    CheckContext ctx{plan.program, plan.spec, sink};
    for (std::size_t i = 0; i < ncheckers; ++i) {
        support::TraceSpan span(tracer.enabled() ? &tracer : nullptr,
                                masters[i]->name() + ".program",
                                "checker");
        Clock::time_point t0 = Clock::now();
        masters[i]->checkProgram(ctx);
        elapsed[i] += Clock::now() - t0;
    }
    return finishRun(masters, sink, base, elapsed);
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
    // pipeline entirely.
    std::vector<const CheckerDef*> defs;
    for (Checker* checker : checkers) {
        defs.push_back(checkerDef(checker->name(), options.checker_options));
        if (!defs.back())
            return runCheckers(program, spec, checkers, sink);
    }
    return runCheckersParallel(program, spec, checkers, defs, sink, options);
}

std::vector<CheckerRunStats>
runCheckersParallel(const lang::Program& program,
                    const flash::ProtocolSpec& spec,
                    const std::vector<Checker*>& checkers,
                    const std::vector<const CheckerDef*>& defs,
                    support::DiagnosticSink& sink,
                    const ParallelRunOptions& options)
{
    const unsigned jobs = options.jobs != 0
                              ? options.jobs
                              : support::ThreadPool::defaultJobs();
    support::ThreadPool pool(jobs);
    CfgCache local_cfgs;
    const UnitPlan plan{program, spec, defs, options.unit_budget,
                        options.fail_fast,
                        options.cfg_cache ? options.cfg_cache : &local_cfgs};

    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    if (metrics.enabled()) {
        metrics.gauge("parallel.jobs").observe(jobs);
        metrics.counter("parallel.work_units").add(plan.units());
        if (options.cfg_cache)
            metrics.counter("parallel.cfg_reused").add(0);
    }

    auto execute = [&](const std::vector<std::size_t>& todo,
                       std::vector<UnitResult>& results,
                       const std::function<void(std::size_t)>& done) {
        // Build every CFG a unit will walk first, one builder per
        // function: backEdges() is warmed while each Cfg still has a
        // single owner — its lazily-filled cache is not synchronized, so
        // it must never be computed from two units at once. Functions
        // whose every unit replayed from cache skip the build; that
        // skipped path enumeration is the warm-run speedup.
        const std::size_t nfns = program.functions().size();
        std::vector<char> need_cfg(nfns, 0);
        for (std::size_t u : todo)
            need_cfg[u / defs.size()] = 1;
        std::vector<const cfg::Cfg*> cfgs(nfns, nullptr);
        std::atomic<std::uint64_t> reused{0};
        support::ScopedTimer timer(
            metrics.enabled() ? &metrics.timer("parallel.cfg_build")
                              : nullptr);
        pool.parallelFor(nfns, [&](std::size_t f) {
            bool hit = false;
            if (need_cfg[f])
                cfgs[f] = &plan.cfgs->get(*program.functions()[f], &hit);
            if (hit)
                reused.fetch_add(1, std::memory_order_relaxed);
        });
        timer.stop();
        if (metrics.enabled() && options.cfg_cache)
            metrics.counter("parallel.cfg_reused")
                .add(reused.load(std::memory_order_relaxed));
        pool.parallelFor(todo.size(), [&](std::size_t i) {
            const std::size_t u = todo[i];
            runUnit(plan, u, results[u], cfgs[u / defs.size()]);
            done(u);
        });
    };
    return runUnitPipeline(plan, checkers, sink, options.cache,
                           options.health, pool, execute);
}

} // namespace mc::checkers
