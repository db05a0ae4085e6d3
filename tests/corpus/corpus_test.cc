#include "corpus/generator.h"

#include "checkers/buffer_mgmt.h"
#include "checkers/exec_restrict.h"
#include "checkers/registry.h"
#include "cfg/path_stats.h"
#include "support/hash.h"

#include <gtest/gtest.h>

namespace mc::corpus {
namespace {

using checkers::CheckerSetOptions;
using checkers::makeAllCheckers;
using checkers::runCheckers;

/** Cache one loaded+checked protocol per profile across tests. */
struct CheckedProtocol
{
    LoadedProtocol loaded;
    support::DiagnosticSink sink;
    std::vector<checkers::CheckerRunStats> stats;
    checkers::CheckerSet set;

    explicit CheckedProtocol(const ProtocolProfile& profile)
        : loaded(loadProtocol(profile)), set(makeAllCheckers())
    {
        stats = runCheckers(*loaded.program, loaded.gen.spec,
                            set.pointers(), sink);
    }

    Reconciliation
    reconcile(const std::string& checker) const
    {
        return mc::corpus::reconcile(loaded.gen.ledger, sink.diagnostics(),
                                     loaded.file_function, checker);
    }
};

const CheckedProtocol&
checkedProtocol(const std::string& name)
{
    static std::map<std::string, std::unique_ptr<CheckedProtocol>> cache;
    auto it = cache.find(name);
    if (it == cache.end()) {
        it = cache
                 .emplace(name, std::make_unique<CheckedProtocol>(
                                    profileByName(name)))
                 .first;
    }
    return *it->second;
}

class CorpusProtocolTest : public ::testing::TestWithParam<const char*>
{
};

TEST_P(CorpusProtocolTest, GeneratesDeterministically)
{
    const ProtocolProfile& profile = profileByName(GetParam());
    GeneratedProtocol a = generateProtocol(profile);
    GeneratedProtocol b = generateProtocol(profile);
    ASSERT_EQ(a.files.size(), b.files.size());
    for (std::size_t i = 0; i < a.files.size(); ++i) {
        EXPECT_EQ(a.files[i].name, b.files[i].name);
        EXPECT_EQ(a.files[i].source, b.files[i].source);
    }
}

TEST_P(CorpusProtocolTest, ParsesCleanly)
{
    const CheckedProtocol& cp = checkedProtocol(GetParam());
    EXPECT_GT(cp.loaded.program->functions().size(), 10u);
}

TEST_P(CorpusProtocolTest, LocNearTable1Target)
{
    const ProtocolProfile& profile = profileByName(GetParam());
    const CheckedProtocol& cp = checkedProtocol(GetParam());
    int loc = cp.loaded.gen.totalLoc();
    EXPECT_GT(loc, profile.target_loc * 80 / 100)
        << "protocol " << profile.name;
    EXPECT_LT(loc, profile.target_loc * 120 / 100)
        << "protocol " << profile.name;
}

TEST_P(CorpusProtocolTest, EveryCheckerReconcilesExactly)
{
    const CheckedProtocol& cp = checkedProtocol(GetParam());
    for (const auto& meta : checkers::table7Meta()) {
        Reconciliation rec = cp.reconcile(meta.name);
        EXPECT_TRUE(rec.missed.empty())
            << meta.name << ": " << rec.missed.size()
            << " seeded sites not reported; first: "
            << (rec.missed.empty() ? ""
                                   : rec.missed[0]->handler + "/" +
                                         rec.missed[0]->rule);
        // Unexpected diagnostics = reports not traceable to a seeded
        // site. Warnings that are by-design side effects (deprecated
        // macros, etc.) are not seeded, so restrict to errors.
        int unexpected_errors = 0;
        std::string first;
        for (const support::Diagnostic* d : rec.unexpected) {
            if (d->severity == support::Severity::Error) {
                ++unexpected_errors;
                if (first.empty())
                    first = d->rule + ": " + d->message;
            }
        }
        EXPECT_EQ(unexpected_errors, 0)
            << meta.name << " unexpected: " << first;
    }
}

TEST_P(CorpusProtocolTest, ErrorAndFpCountsMatchPlan)
{
    const ProtocolProfile& profile = profileByName(GetParam());
    const CheckedProtocol& cp = checkedProtocol(GetParam());

    auto found = [&](const std::string& checker, SeedClass cls) {
        return cp.reconcile(checker).foundWithClass(cls);
    };

    EXPECT_EQ(found("wait_for_db", SeedClass::Error),
              profile.race_errors);
    EXPECT_EQ(found("wait_for_db", SeedClass::FalsePositive),
              profile.race_fps);
    EXPECT_EQ(found("msglen_check", SeedClass::Error),
              profile.msglen_errors);
    EXPECT_EQ(found("msglen_check", SeedClass::FalsePositive),
              profile.msglen_fp_pairs * 2);
    EXPECT_EQ(found("buffer_mgmt", SeedClass::Error),
              profile.bm_double_free + profile.bm_leak);
    EXPECT_EQ(found("buffer_mgmt", SeedClass::Minor), profile.bm_minor);
    EXPECT_EQ(found("lanes", SeedClass::Error), profile.lanes_errors);
    EXPECT_EQ(found("exec_restrict", SeedClass::Violation),
              profile.hooks_missing);
    EXPECT_EQ(found("exec_restrict", SeedClass::Minor),
              profile.hooks_minor);
    EXPECT_EQ(found("alloc_check", SeedClass::FalsePositive),
              profile.alloc_fps);
    EXPECT_EQ(found("dir_check", SeedClass::Error), profile.dir_errors);
    EXPECT_EQ(found("dir_check", SeedClass::FalsePositive),
              profile.dir_fp_subroutine + profile.dir_fp_speculative +
                  profile.dir_fp_abstraction);
    EXPECT_EQ(found("send_wait", SeedClass::FalsePositive),
              profile.sendwait_fps);
}

TEST_P(CorpusProtocolTest, AppliedCountsNearPaperTargets)
{
    const ProtocolProfile& profile = profileByName(GetParam());
    const CheckedProtocol& cp = checkedProtocol(GetParam());
    auto applied = [&](const std::string& checker) {
        for (const auto& s : cp.stats)
            if (s.checker == checker)
                return s.applied;
        return -1;
    };
    EXPECT_EQ(applied("wait_for_db"), profile.db_reads);
    EXPECT_GE(applied("alloc_check"), profile.alloc_sites);
    if (profile.dir_segments > 0)
        EXPECT_GE(applied("dir_check"), profile.dir_segments * 3);
    EXPECT_GE(applied("msglen_check"), profile.send_segments * 2);
}

TEST_P(CorpusProtocolTest, AnnotationEconomicsMatchPlan)
{
    const ProtocolProfile& profile = profileByName(GetParam());
    const CheckedProtocol& cp = checkedProtocol(GetParam());
    const Ledger& ledger = cp.loaded.gen.ledger;
    EXPECT_EQ(ledger.count("buffer_mgmt", SeedClass::UsefulAnnotation),
              profile.bm_useful_annotations);
    EXPECT_EQ(ledger.count("buffer_mgmt", SeedClass::UselessAnnotation),
              profile.bm_useless_annotations);
    // No annotation may be reported stale.
    auto* bm = cp.set.byName("buffer_mgmt");
    auto* checker = dynamic_cast<checkers::BufferMgmtChecker*>(bm);
    ASSERT_NE(checker, nullptr);
    EXPECT_EQ(checker->annotationsUnneeded(), 0);
}

TEST_P(CorpusProtocolTest, PathStatsComputable)
{
    const CheckedProtocol& cp = checkedProtocol(GetParam());
    cfg::ProtocolPathStats agg;
    for (const lang::FunctionDecl* fn : cp.loaded.program->functions()) {
        cfg::Cfg cfg = cfg::CfgBuilder::build(*fn);
        agg.add(cfg::computePathStats(cfg));
    }
    EXPECT_GT(agg.total_paths, 50u);
    EXPECT_GT(agg.avg_length_lines, 5.0);
    EXPECT_GT(agg.max_length_lines, 100u);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, CorpusProtocolTest,
                         ::testing::Values("bitvector", "dyn_ptr", "sci",
                                           "coma", "rac", "common"));

TEST(CorpusAblation, ValueSensitivityRemovesCascade)
{
    // Section 6.1: without the refinement, every MAYBE_FREE site
    // produces a small cascade of errors.
    const ProtocolProfile& profile = profileByName("dyn_ptr");
    LoadedProtocol loaded = loadProtocol(profile);

    CheckerSetOptions naive;
    naive.value_sensitive_frees = false;
    auto naive_set = makeAllCheckers(naive);
    support::DiagnosticSink naive_sink;
    runCheckers(*loaded.program, loaded.gen.spec, naive_set.pointers(),
                naive_sink);

    auto smart_set = makeAllCheckers();
    support::DiagnosticSink smart_sink;
    runCheckers(*loaded.program, loaded.gen.spec, smart_set.pointers(),
                smart_sink);

    int naive_bm =
        naive_sink.countForChecker("buffer_mgmt", support::Severity::Error);
    int smart_bm =
        smart_sink.countForChecker("buffer_mgmt", support::Severity::Error);
    EXPECT_GE(naive_bm - smart_bm, profile.maybe_free_sites);
}

TEST(CorpusLedger, TotalsMatchTable7)
{
    // 34 errors and 69 false positives across the five protocols and the
    // common code (Table 7).
    int errors = 0;
    int fps = 0;
    for (const ProtocolProfile& profile : paperProfiles()) {
        GeneratedProtocol gen = generateProtocol(profile);
        for (const SeededItem& item : gen.ledger.items()) {
            if (item.cls == SeedClass::Error)
                ++errors;
            else if (item.cls == SeedClass::FalsePositive)
                ++fps;
            else if (item.cls == SeedClass::UselessAnnotation)
                ++fps; // Table 7 folds useless annotations into FPs
        }
    }
    EXPECT_EQ(errors, 34);
    EXPECT_EQ(fps, 69);
}

/**
 * The generated bytes and the plan behind them, pinned to the values the
 * generator produced before its emission path was rewritten.
 * GeneratesDeterministically compares two runs of one binary, so it
 * cannot see output that depends on how a compiler orders the draws
 * from the Rng; a fixed digest can.
 */
TEST(Corpus, GeneratedBytesArePinned)
{
    support::Fnv1a sources;
    support::Fnv1a plan;
    std::size_t bytes = 0;
    for (const ProtocolProfile& profile : paperProfiles()) {
        GeneratedProtocol gen = generateProtocol(profile);
        for (const GeneratedFile& file : gen.files) {
            sources.str(file.name);
            sources.str(file.source);
            bytes += file.source.size();
        }
        for (const SeededItem& item : gen.ledger.items()) {
            plan.str(item.protocol)
                .str(item.handler)
                .str(item.checker)
                .str(item.rule)
                .u8(static_cast<std::uint8_t>(item.cls))
                .str(item.description);
        }
        for (const auto& [name, handler] : gen.spec.handlers()) {
            plan.str(name).u8(static_cast<std::uint8_t>(handler.kind));
            for (int allowance : handler.lane_allowance)
                plan.i64(allowance);
        }
    }
    EXPECT_EQ(bytes, 1716907u);
    EXPECT_EQ(support::hashHex(sources.value()), "1a5f39e1cc584e84");
    EXPECT_EQ(support::hashHex(plan.value()), "2fac245084205311");
}

} // namespace
} // namespace mc::corpus
