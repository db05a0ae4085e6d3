/**
 * @file
 * Determinism tests for the parallel checking engine: for any job count,
 * runCheckersParallel must leave the sink byte-identical to the
 * sequential runner — same diagnostics, same rendered output, same
 * per-checker statistics, same merged metric sums.
 */
#include "checkers/checker.h"
#include "checkers/parallel.h"
#include "checkers/registry.h"
#include "corpus/generator.h"
#include "support/metrics.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace mc::checkers {
namespace {

struct RunResult
{
    std::string text;
    std::string json;
    std::string sarif;
    std::vector<CheckerRunStats> stats;
    /** checker.* counter values published while this run was active. */
    std::map<std::string, std::uint64_t> counters;
};

/** Check `loaded` with `jobs` lanes and capture everything observable. */
RunResult
runWith(const corpus::LoadedProtocol& loaded, unsigned jobs)
{
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    metrics.setEnabled(true);
    metrics.reset();

    auto set = makeAllCheckers();
    support::DiagnosticSink sink;
    RunResult out;
    if (jobs == 0) {
        out.stats = runCheckers(*loaded.program, loaded.gen.spec,
                                set.pointers(), sink);
    } else {
        ParallelRunOptions options;
        options.jobs = jobs;
        out.stats = runCheckersParallel(*loaded.program, loaded.gen.spec,
                                        set.pointers(), sink, options);
    }

    const support::SourceManager& sm = loaded.program->sourceManager();
    std::ostringstream text, json, sarif;
    sink.print(text, &sm);
    sink.printJson(json, &sm);
    sink.printSarif(sarif, &sm);
    out.text = text.str();
    out.json = json.str();
    out.sarif = sarif.str();
    for (const auto& [name, counter] : metrics.counters())
        if (name.rfind("checker.", 0) == 0 ||
            name.rfind("engine.", 0) == 0)
            out.counters[name] = counter.value();
    metrics.setEnabled(false);
    metrics.reset();
    return out;
}

void
expectSameResults(const RunResult& a, const RunResult& b,
                  const std::string& what)
{
    EXPECT_EQ(a.text, b.text) << what;
    EXPECT_EQ(a.json, b.json) << what;
    EXPECT_EQ(a.sarif, b.sarif) << what;
    ASSERT_EQ(a.stats.size(), b.stats.size()) << what;
    for (std::size_t i = 0; i < a.stats.size(); ++i) {
        EXPECT_EQ(a.stats[i].checker, b.stats[i].checker) << what;
        EXPECT_EQ(a.stats[i].errors, b.stats[i].errors)
            << what << " checker=" << a.stats[i].checker;
        EXPECT_EQ(a.stats[i].warnings, b.stats[i].warnings)
            << what << " checker=" << a.stats[i].checker;
        EXPECT_EQ(a.stats[i].applied, b.stats[i].applied)
            << what << " checker=" << a.stats[i].checker;
    }
    // Counter sums merge exactly: same applied/error counts and the same
    // engine work regardless of which thread performed it. (Timers and
    // gauges legitimately differ run to run.)
    EXPECT_EQ(a.counters, b.counters) << what;
}

TEST(ParallelCheckers, MatchesSequentialRunnerByteForByte)
{
    for (const char* name : {"bitvector", "sci"}) {
        corpus::LoadedProtocol loaded =
            corpus::loadProtocol(corpus::profileByName(name));
        RunResult sequential = runWith(loaded, 0);
        RunResult one_lane = runWith(loaded, 1);
        RunResult four_lanes = runWith(loaded, 4);
        ASSERT_FALSE(sequential.text.empty()) << name;
        expectSameResults(sequential, one_lane,
                          std::string(name) + " jobs=1");
        expectSameResults(sequential, four_lanes,
                          std::string(name) + " jobs=4");
    }
}

TEST(ParallelCheckers, RepeatedParallelRunsAreStable)
{
    corpus::LoadedProtocol loaded =
        corpus::loadProtocol(corpus::profileByName("dyn_ptr"));
    RunResult first = runWith(loaded, 4);
    RunResult second = runWith(loaded, 4);
    expectSameResults(first, second, "dyn_ptr repeat jobs=4");
}

TEST(ParallelCheckers, AbsorbMergesInterProceduralState)
{
    // The lanes checker is the inter-procedural one: its program pass
    // consumes per-function summaries. If absorb dropped or reordered
    // them, the parallel run's lanes errors would differ from the
    // sequential run's. rac exercises lanes findings.
    corpus::LoadedProtocol loaded =
        corpus::loadProtocol(corpus::profileByName("rac"));
    RunResult sequential = runWith(loaded, 0);
    RunResult parallel = runWith(loaded, 4);
    expectSameResults(sequential, parallel, "rac jobs=4");
}

TEST(ParallelCheckers, FallsBackWhenCheckerUnknownToFactory)
{
    /** A checker the registry factory cannot rebuild. */
    class LocalChecker : public Checker
    {
      public:
        std::string name() const override { return "local_test_checker"; }
    };

    corpus::LoadedProtocol loaded =
        corpus::loadProtocol(corpus::profileByName("bitvector"));
    LocalChecker local;
    auto set = makeAllCheckers();
    std::vector<Checker*> checkers = set.pointers();
    checkers.push_back(&local);

    support::DiagnosticSink seq_sink;
    auto seq_checkers = makeAllCheckers();
    std::vector<Checker*> seq_ptrs = seq_checkers.pointers();
    LocalChecker seq_local;
    seq_ptrs.push_back(&seq_local);
    auto seq_stats = runCheckers(*loaded.program, loaded.gen.spec,
                                 seq_ptrs, seq_sink);

    support::DiagnosticSink par_sink;
    ParallelRunOptions options;
    options.jobs = 4;
    auto par_stats = runCheckersParallel(*loaded.program, loaded.gen.spec,
                                         checkers, par_sink, options);

    ASSERT_EQ(seq_stats.size(), par_stats.size());
    for (std::size_t i = 0; i < seq_stats.size(); ++i) {
        EXPECT_EQ(seq_stats[i].checker, par_stats[i].checker);
        EXPECT_EQ(seq_stats[i].errors, par_stats[i].errors);
    }
    EXPECT_EQ(seq_sink.diagnostics().size(), par_sink.diagnostics().size());
}

} // namespace
} // namespace mc::checkers
