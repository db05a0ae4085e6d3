/**
 * @file
 * The unit pipeline under two executors: the thread pool
 * (runCheckersParallel) and an in-process "wire" executor that runs each
 * unit with runUnit and then sends its result through the shard
 * encoding — captureUnit, AnalysisCache::encodeUnit / decodeUnit,
 * replayUnit — exactly as the shard coordinator receives a worker's
 * result. Both must leave the same rendered bytes, per-checker stats and
 * containment tally: clean, under an injected unit fault, and with every
 * unit truncated by a one-step budget.
 */
#include "cache/analysis_cache.h"
#include "checkers/parallel.h"
#include "checkers/registry.h"
#include "corpus/generator.h"
#include "support/fault_injection.h"
#include "support/thread_pool.h"

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

namespace mc::checkers {
namespace {

struct Outcome
{
    std::string json;
    std::vector<CheckerRunStats> stats;
    RunHealth health;
};

std::string
render(const support::DiagnosticSink& sink,
       const corpus::LoadedProtocol& loaded)
{
    std::ostringstream json;
    sink.printJson(json, &loaded.program->sourceManager());
    return json.str();
}

Outcome
viaPool(const corpus::LoadedProtocol& loaded,
        const support::BudgetLimits& budget)
{
    CheckerSet set = makeAllCheckers();
    support::DiagnosticSink sink;
    Outcome out;
    ParallelRunOptions options;
    options.jobs = 2;
    options.unit_budget = budget;
    options.health = &out.health;
    out.stats = runCheckersParallel(*loaded.program, loaded.gen.spec,
                                    set.pointers(), sink, options);
    out.json = render(sink, loaded);
    return out;
}

Outcome
viaWire(const corpus::LoadedProtocol& loaded,
        const support::BudgetLimits& budget)
{
    CheckerSet set = makeAllCheckers();
    std::vector<const CheckerDef*> defs;
    for (Checker* checker : set.pointers())
        defs.push_back(checkerDef(checker->name()));
    CfgCache cfgs;
    const UnitPlan plan{*loaded.program, loaded.gen.spec, defs, budget,
                        /*fail_fast=*/false, &cfgs};
    const std::map<std::string, std::int32_t> file_ids =
        cache::AnalysisCache::fileIdsByName(
            loaded.program->sourceManager());

    auto execute = [&](const std::vector<std::size_t>& todo,
                       std::vector<UnitResult>& results,
                       const std::function<void(std::size_t)>& done) {
        for (std::size_t i = 0; i < todo.size(); ++i) {
            const std::size_t u = todo[i];
            // The worker's half: run the unit, encode its result.
            UnitResult ran;
            runUnit(plan, u, ran);
            const std::string wire =
                cache::AnalysisCache::encodeUnit(captureUnit(plan, u, ran));

            // The coordinator's half: decode and replay it.
            cache::CachedUnit unit;
            std::string error;
            ASSERT_TRUE(cache::AnalysisCache::decodeUnit(wire, unit, error))
                << plan.label(u) << ": " << error;
            UnitResult& r = results[i];
            r.failed = ran.failed;
            r.error = ran.error;
            r.budget_stop = ran.budget_stop;
            r.wall = ran.wall;
            r.stats = ran.stats;
            r.checker = replayUnit(plan.def(u), plan.function(u).name, unit,
                                   file_ids, r.sink);
            ASSERT_NE(r.checker, nullptr) << plan.label(u);
            r.wire = std::move(unit);
            done(i);
        }
    };
    support::DiagnosticSink sink;
    Outcome out;
    support::ThreadPool pool(1);
    out.stats = runUnitPipeline(plan, set.pointers(), sink, nullptr,
                                nullptr, &out.health, pool, execute);
    out.json = render(sink, loaded);
    return out;
}

void
expectSame(const Outcome& pool, const Outcome& wire)
{
    EXPECT_EQ(pool.json, wire.json);
    ASSERT_EQ(pool.stats.size(), wire.stats.size());
    for (std::size_t i = 0; i < pool.stats.size(); ++i) {
        const std::string& name = pool.stats[i].checker;
        EXPECT_EQ(name, wire.stats[i].checker);
        EXPECT_EQ(pool.stats[i].errors, wire.stats[i].errors) << name;
        EXPECT_EQ(pool.stats[i].warnings, wire.stats[i].warnings) << name;
        EXPECT_EQ(pool.stats[i].applied, wire.stats[i].applied) << name;
    }
    EXPECT_EQ(pool.health.unit_failures, wire.health.unit_failures);
    EXPECT_EQ(pool.health.budget_truncations,
              wire.health.budget_truncations);
}

const corpus::LoadedProtocol&
dynPtr()
{
    static const corpus::LoadedProtocol loaded =
        corpus::loadProtocol(corpus::profileByName("dyn_ptr"));
    return loaded;
}

TEST(UnitPipeline, WireExecutorMatchesThreadPool)
{
    Outcome pool = viaPool(dynPtr(), {});
    Outcome wire = viaWire(dynPtr(), {});
    ASSERT_NE(pool.json.find("\"diagnostics\""), std::string::npos);
    EXPECT_EQ(pool.health.unit_failures, 0u);
    EXPECT_EQ(pool.health.budget_truncations, 0u);
    expectSame(pool, wire);
}

#if defined(MCHECK_FAULT_INJECTION)
TEST(UnitPipeline, WireExecutorMatchesThreadPoolUnderUnitFaults)
{
    ASSERT_TRUE(support::fault::arm("checker.unit:5"));
    Outcome pool = viaPool(dynPtr(), {});
    Outcome wire = viaWire(dynPtr(), {});
    support::fault::disarm();
    EXPECT_GT(pool.health.unit_failures, 0u);
    EXPECT_NE(pool.json.find("unit-failure"), std::string::npos);
    expectSame(pool, wire);
}
#endif

TEST(UnitPipeline, WireExecutorMatchesThreadPoolUnderTruncation)
{
    support::BudgetLimits budget;
    budget.max_steps = 1;
    Outcome pool = viaPool(dynPtr(), budget);
    Outcome wire = viaWire(dynPtr(), budget);
    EXPECT_GT(pool.health.budget_truncations, 0u);
    EXPECT_EQ(pool.health.unit_failures, 0u);
    EXPECT_NE(pool.json.find("budget-exhausted"), std::string::npos);
    expectSame(pool, wire);
}

} // namespace
} // namespace mc::checkers
