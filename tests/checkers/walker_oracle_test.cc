/**
 * @file
 * The metal send_wait and dir_check checkers against the hand-driven
 * walkers they replaced (walker_oracles.h). For every function of the
 * eight inputs the path enumerator runs on (the six paper programs, sci
 * at seed 1001 and coma at seed 1002) and under every --prune-paths
 * strategy, the shipped checker and its oracle must report the same
 * findings — location, rule, severity and message — and the same
 * applied count.
 */
#include "checkers/registry.h"
#include "corpus/generator.h"
#include "tests/checkers/walker_oracles.h"

#include <gtest/gtest.h>

#include <iostream>
#include <ostream>
#include <set>
#include <string>
#include <tuple>

namespace mc::checkers {
namespace {

using Finding =
    std::tuple<support::SourceLoc, std::string, int, std::string>;

std::set<Finding>
findings(const support::DiagnosticSink& sink)
{
    std::set<Finding> out;
    for (const support::Diagnostic& d : sink.diagnostics())
        out.emplace(d.loc, d.rule, static_cast<int>(d.severity),
                    d.message);
    return out;
}

struct Input
{
    const char* profile;
    std::uint64_t seed; // 0 = the paper profile's own seed
};

void
PrintTo(const Input& input, std::ostream* os)
{
    *os << input.profile;
    if (input.seed)
        *os << "_seed" << input.seed;
}

class WalkerOracle : public ::testing::TestWithParam<Input>
{
};

/** Run `checker` over `fn` alone; its findings land in `sink`. */
int
runOne(Checker& checker, const corpus::LoadedProtocol& loaded,
       const lang::FunctionDecl& fn, const cfg::Cfg& cfg,
       support::DiagnosticSink& sink)
{
    CheckContext ctx{*loaded.program, loaded.gen.spec, sink};
    checker.reset();
    checker.checkFunction(fn, cfg, ctx);
    return checker.applied();
}

TEST_P(WalkerOracle, MetalCheckerMatchesItsHandWalker)
{
    corpus::ProtocolProfile profile =
        corpus::profileByName(GetParam().profile);
    if (GetParam().seed)
        profile.seed = GetParam().seed;
    const corpus::LoadedProtocol loaded = corpus::loadProtocol(profile);

    std::size_t found = 0;
    int applied = 0;
    for (metal::PruneStrategy prune :
         {metal::PruneStrategy::Off, metal::PruneStrategy::Correlated,
          metal::PruneStrategy::Constraints}) {
        CheckerSetOptions options;
        options.prune_strategy = prune;
        oracle::SendWaitChecker send_wait(prune);
        oracle::DirectoryChecker dir_check(prune);
        for (Checker* hand : {static_cast<Checker*>(&send_wait),
                              static_cast<Checker*>(&dir_check)}) {
            std::unique_ptr<Checker> ported =
                makeChecker(hand->name(), options);
            for (const lang::FunctionDecl* fn :
                 loaded.program->functions()) {
                const cfg::Cfg cfg = cfg::CfgBuilder::build(*fn);
                support::DiagnosticSink hand_sink, ported_sink;
                const int hand_applied =
                    runOne(*hand, loaded, *fn, cfg, hand_sink);
                const int ported_applied =
                    runOne(*ported, loaded, *fn, cfg, ported_sink);
                const std::string where =
                    hand->name() + " in " + std::string(fn->name) + " " +
                    metal::pruneStrategyName(prune);
                ASSERT_EQ(findings(ported_sink), findings(hand_sink))
                    << where;
                ASSERT_EQ(ported_applied, hand_applied) << where;
                found += hand_sink.diagnostics().size();
                applied += hand_applied;
            }
        }
    }
    // Vacuity guards: the oracles report and apply on every input.
    EXPECT_GT(found, 0u);
    EXPECT_GT(applied, 0);
}

INSTANTIATE_TEST_SUITE_P(Programs, WalkerOracle,
                         ::testing::Values(Input{"bitvector", 0},
                                           Input{"dyn_ptr", 0},
                                           Input{"sci", 0},
                                           Input{"coma", 0},
                                           Input{"rac", 0},
                                           Input{"common", 0},
                                           Input{"sci", 1001},
                                           Input{"coma", 1002}));

} // namespace
} // namespace mc::checkers
