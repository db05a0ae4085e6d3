/**
 * @file
 * The metal engine against the memo-free path enumerator
 * (tests/metal/reference_sm.h). For every function of all six paper
 * programs, and of generator output at two other seeds, each of the
 * four shipped state machines runs twice: once through the production
 * engine and once down each explicitly listed path with a fresh state.
 * Both runs take the options the checker's definition binds for the
 * function (its call tests, its end-of-path exemption). Without pruning
 * the two must report the same findings and the same firings; under
 * either pruning strategy every production finding must be one the
 * enumerator reports, because pruning only removes paths. Functions over
 * the enumerator's path cap are skipped and counted.
 */
#include "cfg/cfg.h"
#include "checkers/registry.h"
#include "corpus/generator.h"
#include "metal/engine.h"
#include "metal/metal_parser.h"
#include "tests/metal/reference_sm.h"

#include <gtest/gtest.h>

#include <iostream>
#include <ostream>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

namespace mc::metal {
namespace {

using Finding = std::tuple<support::SourceLoc, std::string, std::string,
                           int, std::string>;

std::set<Finding>
findings(const support::DiagnosticSink& sink)
{
    std::set<Finding> out;
    for (const support::Diagnostic& d : sink.diagnostics())
        out.emplace(d.loc, d.checker, d.rule, static_cast<int>(d.severity),
                    d.message);
    return out;
}

/** A program to check: a paper profile, optionally at another seed. */
struct Input
{
    const char* profile;
    std::uint64_t seed; // 0 = the paper profile's own seed
};

std::string
inputName(const Input& input)
{
    std::string name = input.profile;
    if (input.seed)
        name += "_seed" + std::to_string(input.seed);
    return name;
}

void
PrintTo(const Input& input, std::ostream* os)
{
    *os << inputName(input);
}

class PathEnumerator : public ::testing::TestWithParam<Input>
{
};

TEST_P(PathEnumerator, EngineAgreesOnEveryFunctionUnderTheCap)
{
    corpus::ProtocolProfile profile =
        corpus::profileByName(GetParam().profile);
    if (GetParam().seed)
        profile.seed = GetParam().seed;
    const corpus::LoadedProtocol loaded = corpus::loadProtocol(profile);
    const std::vector<std::string> machines = {"wait_for_db", "msglen_check",
                                               "send_wait", "dir_check"};

    std::uint64_t functions = 0, paths = 0;
    std::map<std::string, std::uint64_t> covered, firings, applies;
    std::uint64_t found = 0;
    for (const lang::FunctionDecl* fn : loaded.program->functions()) {
        const cfg::Cfg cfg = cfg::CfgBuilder::build(*fn);
        ++functions;
        for (const std::string& name : machines) {
            const checkers::CheckerDef& def = *checkers::checkerDef(name);
            const StateMachine& sm = *def.metal()->sm;
            std::vector<CallTest> tests;
            const SmRunOptions bound =
                def.runOptions(cfg, loaded.gen.spec, tests);
            support::DiagnosticSink reference_sink;
            const reference::Result ref = reference::runEnumerated(
                sm, cfg, reference_sink, std::nullopt, bound);
            for (const cfg::CallRow& c : cfg::flatCfg(cfg).calls())
                applies[name] += def.appliedRule()(c) ? 1 : 0;
            if (!ref.covered)
                continue;
            ++covered[name];
            paths += ref.paths;
            const std::set<Finding> expected = findings(reference_sink);
            found += expected.size();
            for (const auto& [rule, n] : ref.firings)
                firings[name] += static_cast<std::uint64_t>(n);

            support::DiagnosticSink off_sink;
            const SmRunResult off = runStateMachine(sm, cfg, off_sink, bound);
            ASSERT_EQ(findings(off_sink), expected)
                << fn->name << " " << name << ": findings";
            ASSERT_EQ(off.firings, ref.firings)
                << fn->name << " " << name << ": firings";

            for (PruneStrategy prune :
                 {PruneStrategy::Correlated, PruneStrategy::Constraints}) {
                SmRunOptions options = bound;
                options.prune_strategy = prune;
                support::DiagnosticSink sink;
                const SmRunResult pruned =
                    runStateMachine(sm, cfg, sink, options);
                for (const Finding& f : findings(sink))
                    ASSERT_TRUE(expected.count(f))
                        << fn->name << " " << name << " "
                        << pruneStrategyName(prune)
                        << ": a finding no path reports";
                for (const auto& [rule, n] : pruned.firings)
                    ASSERT_LE(n, ref.firings.count(rule)
                                     ? ref.firings.at(rule)
                                     : 0)
                        << fn->name << " " << rule << " "
                        << pruneStrategyName(prune);
            }
        }
    }
    std::cout << "[ enumerator ] " << inputName(GetParam()) << ": "
              << functions << " CFGs; " << paths << " paths, " << found
              << " findings; under the cap:";
    for (const std::string& name : machines)
        std::cout << " " << name << " " << covered[name] << " ("
                  << firings[name] << " firings)";
    std::cout << "\n";
    // Vacuity guards, per machine: most functions are checked, and its
    // rules fire wherever the program holds a call its checker applies
    // to (common code holds no directory access).
    for (const std::string& name : machines) {
        EXPECT_GT(covered[name] * 2, functions) << name;
        if (applies[name] > 0) {
            EXPECT_GT(firings[name], 0u) << name;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Programs, PathEnumerator,
                         ::testing::Values(Input{"bitvector", 0},
                                           Input{"dyn_ptr", 0},
                                           Input{"sci", 0},
                                           Input{"coma", 0},
                                           Input{"rac", 0},
                                           Input{"common", 0},
                                           Input{"sci", 1001},
                                           Input{"coma", 1002}));

} // namespace
} // namespace mc::metal
