#include "checkers/parallel.h"

#include "checkers/unit_guard.h"
#include "flash/protocol_spec.h"
#include "lang/fingerprint.h"
#include "support/fault_injection.h"
#include "support/hash.h"
#include "support/metrics.h"
#include "support/run_ledger.h"
#include "support/trace.h"
#include "support/witness.h"

#include <atomic>
#include <chrono>
#include <istream>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string_view>
#include <unordered_map>

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

/**
 * Take from `store` every unit the last run kept under the key `keys`
 * now gives it, and list the other units, ascending, in `pending`;
 * their slots are emptied for this run to fill. Returns the number
 * taken. When the grid changed size (functions were added or removed,
 * or another checker set ran) the kept units first move, by key, to the
 * slots of the new grid. An edit that adds and removes functions in
 * equal number keeps the size, so units it shifted re-run; in files
 * mode such an edit changes the spec, and so every key, anyway.
 */
std::uint64_t
takeResident(ResidentUnits& store, const std::vector<std::uint64_t>& keys,
             std::vector<std::size_t>& pending)
{
    const std::size_t nunits = keys.size();
    if (store.slots.size() != nunits) {
        std::unordered_map<std::uint64_t, std::size_t> kept;
        kept.reserve(store.slots.size());
        for (std::size_t s = 0; s < store.slots.size(); ++s)
            if (store.slots[s].checker)
                kept.emplace(store.slots[s].key, s);
        std::vector<ResidentUnits::Slot> relaid(nunits);
        for (std::size_t u = 0; u < nunits; ++u) {
            auto it = keys[u] != 0 ? kept.find(keys[u]) : kept.end();
            if (it == kept.end())
                continue;
            relaid[u] = std::move(store.slots[it->second]);
            kept.erase(it);
        }
        store.slots = std::move(relaid);
    }
    std::uint64_t taken = 0;
    for (std::size_t u = 0; u < nunits; ++u) {
        ResidentUnits::Slot& slot = store.slots[u];
        if (keys[u] != 0 && slot.key == keys[u] && slot.checker) {
            ++taken;
            continue;
        }
        slot = {};
        pending.push_back(u);
    }
    return taken;
}

/**
 * Key every unit of `plan` into `keys` (grid order). A unit whose
 * function has no fingerprint (its file needed parse recovery) keeps
 * key 0, which no store may serve or keep. With `last`, the record of
 * a resident store's previous run, only definitions with a new
 * declaration are fingerprinted again, and only their units are
 * re-keyed unless the function list, the spec or a key prefix changed;
 * `last` then describes this run. `keys` may be `last->keys`.
 */
void
keyUnits(const UnitPlan& plan, ResidentUnits::Keying* last,
         std::vector<std::uint64_t>& keys)
{
    const std::vector<const lang::FunctionDecl*>& fns =
        plan.program.functions();
    const std::size_t ncheckers = plan.defs.size();
    const std::uint64_t spec_fp = plan.spec_fingerprint != 0
                                      ? plan.spec_fingerprint
                                      : flash::specFingerprint(plan.spec);
    std::vector<support::Fnv1a> prefixes;
    std::vector<std::uint64_t> prefix_values;
    prefixes.reserve(ncheckers);
    prefix_values.reserve(ncheckers);
    for (const CheckerDef* def : plan.defs) {
        prefixes.push_back(unitCacheKeyPrefix(*def));
        prefix_values.push_back(prefixes.back().value());
    }
    auto keyFunction = [&](std::size_t f, std::uint64_t fn_fp) {
        for (std::size_t c = 0; c < ncheckers; ++c)
            keys[f * ncheckers + c] =
                fn_fp != 0 ? unitCacheKey(prefixes[c], spec_fp, fn_fp) : 0;
    };

    if (!last || last->functions.size() != fns.size()) {
        const std::vector<std::uint64_t> fn_fps =
            lang::fingerprintFunctions(plan.program);
        keys.assign(fns.size() * ncheckers, 0);
        for (std::size_t f = 0; f < fns.size(); ++f)
            keyFunction(f, fn_fps[f]);
        if (last) {
            last->functions = fns;
            last->fingerprints = fn_fps;
            last->prefixes = std::move(prefix_values);
            last->spec = spec_fp;
        }
        return;
    }

    const bool same_keys = last->spec == spec_fp &&
                           last->prefixes == prefix_values &&
                           keys.size() == fns.size() * ncheckers;
    if (!same_keys)
        keys.assign(fns.size() * ncheckers, 0);
    for (std::size_t f = 0; f < fns.size(); ++f) {
        const bool replaced = fns[f] != last->functions[f];
        if (replaced) {
            last->fingerprints[f] =
                lang::fingerprintFunction(plan.program, f);
            last->functions[f] = fns[f];
        }
        if (replaced || !same_keys)
            keyFunction(f, last->fingerprints[f]);
    }
    last->prefixes = std::move(prefix_values);
    last->spec = spec_fp;
}

} // namespace

support::Fnv1a
unitCacheKeyPrefix(const CheckerDef& def)
{
    support::Fnv1a h = def.keyPrefix();
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
    UnitGuard guard(fn.name, def.name(), plan.budget, plan.fail_fast);
    UnitOutcome outcome = guard.run([&] {
        if (support::fault::armed())
            support::fault::probe("checker.unit", plan.label(u));
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
                ResidentUnits* resident, RunHealth* health,
                support::ThreadPool& pool, const UnitExecutor& execute)
{
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    support::TraceRecorder& tracer = support::TraceRecorder::global();
    support::RunLedger& ledger = support::RunLedger::global();
    using Clock = std::chrono::steady_clock;

    const std::size_t ncheckers = masters.size();
    const std::size_t nunits = plan.units();

    const RunBaseline base = beginRun(masters, sink);

    // Phase 0 (with a store only): key every unit by content. A resident
    // store keeps the keys with the record of how they were made.
    std::vector<std::uint64_t> run_keys;
    std::vector<std::uint64_t>& keys =
        resident ? resident->keying.keys : run_keys;

    // The resident store first: a unit it keeps under the same key
    // merges from its slot. `pending` lists the other units, ascending.
    std::vector<std::size_t> pending;
    std::uint64_t resident_reused = 0;
    if (resident) {
        support::TraceSpan span(tracer.enabled() ? &tracer : nullptr,
                                "resident.lookup", "cache");
        support::ScopedTimer timer(
            metrics.enabled() ? &metrics.timer("resident.lookup") : nullptr);
        keyUnits(plan, &resident->keying, keys);
        resident_reused = takeResident(*resident, keys, pending);
    } else {
        pending.resize(nunits);
        std::iota(pending.begin(), pending.end(), std::size_t{0});
    }

    // Where the merge finds each unit's UnitResult; null for a unit the
    // resident store serves.
    std::vector<UnitResult*> result_of(nunits, nullptr);

    // Then the analysis cache. A usable hit yields a reconstructed
    // checker (state replayed through loadState) and a sink refilled
    // with the stored diagnostics in their original order, so the merge
    // cannot tell a replayed unit from a freshly checked one.
    // Unresolvable file names, a state blob loadState rejects, or an
    // entry naming another unit (a key collision) demote the hit to a
    // miss.
    std::vector<UnitResult> hits;
    if (cache) {
        support::TraceSpan span(tracer.enabled() ? &tracer : nullptr,
                                "cache.lookup", "cache");
        support::ScopedTimer timer(
            metrics.enabled() ? &metrics.timer("cache.lookup") : nullptr);
        if (!resident)
            keyUnits(plan, nullptr, keys);
        std::vector<std::shared_ptr<const cache::CachedUnit>> found(
            pending.size());
        pool.parallelFor(pending.size(), [&](std::size_t i) {
            if (keys[pending[i]] != 0)
                found[i] = cache->lookup(keys[pending[i]]);
        });
        std::vector<std::size_t> hit_units;
        std::vector<const cache::CachedUnit*> hit_entries;
        for (std::size_t i = 0; i < pending.size(); ++i) {
            if (found[i]) {
                hit_units.push_back(pending[i]);
                hit_entries.push_back(found[i].get());
            }
        }
        std::map<std::string, std::int32_t> file_ids =
            cache::AnalysisCache::fileIdsByName(plan.program.sourceManager());
        hits = std::vector<UnitResult>(hit_units.size());
        pool.parallelFor(hit_units.size(), [&](std::size_t h) {
            const std::size_t u = hit_units[h];
            UnitResult& r = hits[h];
            r.checker = replayUnit(plan.def(u), plan.function(u).name,
                                   *hit_entries[h], file_ids, r.sink);
            r.cache = UnitCacheTag::Hit;
        });
        for (std::size_t h = 0; h < hit_units.size(); ++h)
            if (hits[h].checker)
                result_of[hit_units[h]] = &hits[h];
    }

    std::vector<std::size_t> todo;
    todo.reserve(pending.size());
    for (std::size_t u : pending)
        if (!result_of[u])
            todo.push_back(u);
    const UnitCacheTag miss =
        resident || cache ? UnitCacheTag::Miss : UnitCacheTag::Off;
    std::vector<UnitResult> results(todo.size());
    for (std::size_t i = 0; i < todo.size(); ++i) {
        results[i].cache = miss;
        result_of[todo[i]] = &results[i];
    }
    // Misses store their outcome. Failed units never do; neither do
    // budget-truncated ones, since budget limits are not part of the
    // content key and a partial result must not masquerade as a full
    // one. A shard worker's result is stored as it arrived.
    const bool store = cache && !cache->readonly();
    auto completed = [&](const UnitResult& r) {
        return !r.failed && r.budget_stop == support::BudgetStop::None;
    };
    auto phaseTimer = [&metrics](const char* name) {
        return metrics.enabled() ? &metrics.timer(name) : nullptr;
    };
    support::ScopedTimer units_timer(phaseTimer("phase.units"));
    execute(todo, results, [&](std::size_t i) {
        const std::size_t u = todo[i];
        const UnitResult& r = results[i];
        if (!store || keys[u] == 0 || !completed(r))
            return;
        cache->store(keys[u], r.wire ? *r.wire : captureUnit(plan, u, r));
    });
    units_timer.stop();

    support::ScopedTimer merge_timer(phaseTimer("phase.merge"));

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
    // The tallies the merge reads for a unit its slot serves.
    UnitResult reused_unit;
    reused_unit.cache = UnitCacheTag::Resident;
    // The masters borrow from the instances they absorb, which die with
    // this run or with the store's next change: however the run ends,
    // they keep nothing of them.
    struct ReleaseAbsorbed
    {
        const std::vector<Checker*>& masters;
        ~ReleaseAbsorbed()
        {
            for (Checker* master : masters)
                master->releaseAbsorbed();
        }
    } release_absorbed{masters};
    // A reused unit without run state or findings adds only its applied
    // count, unless the ledger records every unit or a merge fault may
    // fire on it.
    const bool every_unit =
        ledger.enabled() || (plan.merge_fault_site && support::fault::armed());
    for (std::size_t u = 0; u < nunits; ++u) {
        const std::size_t c = u % ncheckers;
        UnitResult* ran = result_of[u];
        if (!ran && !every_unit) {
            const ResidentUnits::Slot& slot = resident->slots[u];
            if (!slot.stateful && slot.diags.empty()) {
                masters[c]->absorbApplied(slot.applied);
                continue;
            }
        }
        const lang::FunctionDecl& fn = plan.function(u);
        // Stands in for a reused unit the merge fault fires on.
        std::unique_ptr<UnitResult> merge_failed;
        if (plan.merge_fault_site && support::fault::armed()) {
            // Keyed by unit identity and contained as the standard unit
            // failure — the unit's findings are replaced, not appended
            // to — so injected merge faults stay byte-deterministic.
            try {
                support::fault::probe(plan.merge_fault_site, plan.label(u));
            } catch (const support::InjectedFault& e) {
                if (!ran) {
                    merge_failed = std::make_unique<UnitResult>();
                    ran = merge_failed.get();
                    ran->cache = UnitCacheTag::Miss;
                    resident->slots[u] = {};
                } else if (ran->cache == UnitCacheTag::Hit) {
                    ran->cache = UnitCacheTag::Miss;
                }
                failUnit(plan, u, *ran, e.what());
            }
        }
        const UnitResult& r = ran ? *ran : reused_unit;
        if (plan.fail_fast && r.failed)
            throw std::runtime_error("unit '" + plan.label(u) +
                                     "' failed: " + r.error);
        const ResidentUnits::Slot* slot = ran ? nullptr : &resident->slots[u];
        if (!slot)
            masters[c]->absorb(*r.checker);
        else if (slot->stateful)
            masters[c]->absorb(*slot->checker);
        else
            masters[c]->absorbApplied(slot->applied);
        elapsed[c] += r.wall;
        for (const support::Diagnostic& d :
             slot ? slot->diags : r.sink.diagnostics()) {
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
            event.cache = r.cache == UnitCacheTag::Off        ? "off"
                          : r.cache == UnitCacheTag::Hit      ? "hit"
                          : r.cache == UnitCacheTag::Resident ? "resident"
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
        if (metrics.enabled() && r.cache != UnitCacheTag::Hit &&
            r.cache != UnitCacheTag::Resident) {
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
        metrics.counter("resident.reused").add(resident_reused);
    }

    // Keep the completed units this run ran or replayed in their slots;
    // the slots of reused units are already what the next run needs.
    if (resident) {
        for (std::size_t u : pending) {
            UnitResult& r = *result_of[u];
            if (keys[u] == 0 || !completed(r))
                continue;
            ResidentUnits::Slot& slot = resident->slots[u];
            slot.key = keys[u];
            slot.applied = r.checker->applied();
            slot.stateful = r.checker->hasRunState();
            slot.checker = std::move(r.checker);
            slot.diags = r.sink.take();
        }
        resident->reused = resident_reused;
    }
    merge_timer.stop();

    support::ScopedTimer program_timer(phaseTimer("phase.program_pass"));
    CheckContext ctx{plan.program, plan.spec, sink};
    for (std::size_t i = 0; i < ncheckers; ++i) {
        support::TraceSpan span(tracer.enabled() ? &tracer : nullptr,
                                masters[i]->name() + ".program",
                                "checker");
        Clock::time_point t0 = Clock::now();
        masters[i]->checkProgram(ctx);
        elapsed[i] += Clock::now() - t0;
    }
    // The run's per-checker stats close the program-level stage.
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
    const UnitPlan plan{program,
                        spec,
                        defs,
                        options.unit_budget,
                        options.fail_fast,
                        options.cfg_cache ? options.cfg_cache : &local_cfgs,
                        /*merge_fault_site=*/nullptr,
                        options.spec_fingerprint};

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
        // function. Functions whose every unit replayed from cache skip
        // the build; that skipped path enumeration is the warm-run
        // speedup.
        std::vector<std::size_t> need_cfg;
        for (std::size_t u : todo)
            if (need_cfg.empty() || need_cfg.back() != u / defs.size())
                need_cfg.push_back(u / defs.size());
        std::vector<const cfg::Cfg*> cfgs(program.functions().size(),
                                          nullptr);
        std::atomic<std::uint64_t> reused{0};
        support::ScopedTimer timer(
            metrics.enabled() ? &metrics.timer("parallel.cfg_build")
                              : nullptr);
        pool.parallelFor(need_cfg.size(), [&](std::size_t i) {
            const std::size_t f = need_cfg[i];
            bool hit = false;
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
            runUnit(plan, u, results[i], cfgs[u / defs.size()]);
            done(i);
        });
    };
    return runUnitPipeline(plan, checkers, sink, options.cache,
                           options.resident, options.health, pool, execute);
}

} // namespace mc::checkers
