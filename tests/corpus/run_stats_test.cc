/**
 * Pins what a full checking run of every corpus program counts: per
 * checker errors, warnings and applied sites, plus the walker.visits and
 * engine.visits tallies per program. Any refactor of how checkers find
 * their events must leave every one of these numbers where it was.
 *
 * Regenerate after an intentional change with
 *     MCHECK_REGEN_GOLDENS=1 build/tests/test_run_stats
 * (tools/regen_goldens.sh does this) and review the diff.
 */
#include "checkers/registry.h"
#include "corpus/generator.h"
#include "corpus/profile.h"
#include "support/metrics.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

namespace mc::corpus {
namespace {

const char* const kGolden = MCHECK_GOLDEN_DIR "/run_stats.json";

/** One program's run, rendered as a JSON object (one line per checker). */
std::string
runStats(const ProtocolProfile& profile)
{
    LoadedProtocol loaded = loadProtocol(profile);
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    metrics.reset();
    metrics.setEnabled(true);
    checkers::CheckerSet set = checkers::makeAllCheckers();
    support::DiagnosticSink sink;
    std::vector<checkers::CheckerRunStats> stats = checkers::runCheckers(
        *loaded.program, loaded.gen.spec, set.pointers(), sink);
    metrics.setEnabled(false);

    std::ostringstream os;
    os << "    {\"program\": \"" << profile.name << "\", \"walker.visits\": "
       << metrics.counterValue("walker.visits")
       << ", \"engine.visits\": " << metrics.counterValue("engine.visits")
       << ", \"checkers\": [\n";
    for (std::size_t i = 0; i < stats.size(); ++i) {
        const checkers::CheckerRunStats& s = stats[i];
        os << "      {\"checker\": \"" << s.checker
           << "\", \"errors\": " << s.errors
           << ", \"warnings\": " << s.warnings
           << ", \"applied\": " << s.applied << "}"
           << (i + 1 < stats.size() ? ",\n" : "\n");
    }
    os << "    ]}";
    return os.str();
}

TEST(RunStats, EveryProgramAndCheckerMatchesGolden)
{
    std::ostringstream actual;
    actual << "{\"programs\": [\n";
    const std::vector<ProtocolProfile>& profiles = paperProfiles();
    for (std::size_t i = 0; i < profiles.size(); ++i)
        actual << runStats(profiles[i])
               << (i + 1 < profiles.size() ? ",\n" : "\n");
    actual << "]}\n";

    if (std::getenv("MCHECK_REGEN_GOLDENS")) {
        std::ofstream(kGolden) << actual.str();
        return;
    }
    std::ifstream in(kGolden);
    ASSERT_TRUE(in.good()) << "cannot open golden file " << kGolden;
    std::ostringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(actual.str(), expected.str())
        << "run stats moved — if the change is intentional, run "
           "tools/regen_goldens.sh and review the diff";
}

} // namespace
} // namespace mc::corpus
