/**
 * @file
 * Reproduces the Section 11 authoring-styles claim: the group first
 * wrote checkers as hand-rolled flow-graph searches (their magik-era
 * style), then as state machines, then in metal — each step shrinking
 * the code "by a factor of two (or more)" while checking the same rule.
 *
 * We implement the buffer race checker both ways and compare: source
 * size, and — crucially — identical findings over the whole corpus.
 * The send-wait and directory checkers were hand-driven C++ path
 * walkers before they became metal; their rows set each metal file
 * next to the size of the C++ walker it replaced (their findings are
 * held equal by the test-only oracles in tests/checkers/).
 */
#include "bench/bench_util.h"

#include "checkers/buffer_race_magik.h"
#include "checkers/registry.h"
#include "metal/metal_parser.h"

#include <iomanip>
#include <iostream>
#include <sstream>

#ifndef MCHECK_LOC_MAGIK
#define MCHECK_LOC_MAGIK 0
#endif

namespace {

/** Lines of the C++ PathWalker checkers the metal send_wait and
 *  dir_check replaced (send_wait.cc and directory.cc as last shipped). */
constexpr int kSendWaitWalkerLoc = 105;
constexpr int kDirectoryWalkerLoc = 125;

} // namespace

int
main()
{
    using namespace mc;
    bench::banner("Ablation: checker authoring styles",
                  "the Section 11 experience discussion");

    int metal_loc = metal::metalSourceLines(
        checkers::checkerDef("wait_for_db")->metalSource());
    int magik_loc = MCHECK_LOC_MAGIK;

    std::vector<std::vector<std::string>> rows;
    bool identical = true;
    for (const corpus::ProtocolProfile& profile : corpus::paperProfiles()) {
        corpus::LoadedProtocol loaded = corpus::loadProtocol(profile);

        auto metal_checker = checkers::makeChecker("wait_for_db");
        support::DiagnosticSink metal_sink;
        checkers::runCheckers(*loaded.program, loaded.gen.spec,
                              {metal_checker.get()}, metal_sink);

        checkers::BufferRaceMagikChecker magik_checker;
        support::DiagnosticSink magik_sink;
        checkers::runCheckers(*loaded.program, loaded.gen.spec,
                              {&magik_checker}, magik_sink);

        // Findings must agree site-for-site.
        std::set<std::string> metal_sites;
        for (const auto& d : metal_sink.diagnostics())
            metal_sites.insert(std::to_string(d.loc.file_id) + ":" +
                               std::to_string(d.loc.line));
        std::set<std::string> magik_sites;
        for (const auto& d : magik_sink.diagnostics())
            magik_sites.insert(std::to_string(d.loc.file_id) + ":" +
                               std::to_string(d.loc.line));
        bool same = metal_sites == magik_sites;
        identical &= same;
        rows.push_back(
            {profile.name,
             std::to_string(metal_sink.count(support::Severity::Error)),
             std::to_string(magik_sink.count(support::Severity::Error)),
             same ? "yes" : "NO"});
    }
    bench::printTable(
        {"Protocol", "metal findings", "magik-style findings",
         "site-identical"},
        rows);

    auto metalLines = [](const char* name) {
        return metal::metalSourceLines(
            checkers::checkerDef(name)->metalSource());
    };
    auto ratio = [](int cxx, int metal) {
        std::ostringstream os;
        os << std::fixed << std::setprecision(1)
           << static_cast<double>(cxx) / metal << "x";
        return os.str();
    };
    const int send_wait_loc = metalLines("send_wait");
    const int dir_check_loc = metalLines("dir_check");
    bench::printTable(
        {"Checker", "metal LOC", "C++ LOC", "C++ style", "ratio"},
        {{"wait_for_db", std::to_string(metal_loc),
          std::to_string(magik_loc), "flow-graph search",
          ratio(magik_loc, metal_loc)},
         {"send_wait", std::to_string(send_wait_loc),
          std::to_string(kSendWaitWalkerLoc), "PathWalker hooks",
          ratio(kSendWaitWalkerLoc, send_wait_loc)},
         {"dir_check", std::to_string(dir_check_loc),
          std::to_string(kDirectoryWalkerLoc), "PathWalker hooks",
          ratio(kDirectoryWalkerLoc, dir_check_loc)}});

    std::cout << "checker size: metal " << metal_loc
              << " lines vs hand-rolled flow-graph search " << magik_loc
              << " lines (" << (metal_loc ? magik_loc / metal_loc : 0)
              << "x) — the paper reports metal shrank its predecessors "
                 "2-4x.\n"
              << (identical ? "both styles report identical findings.\n"
                            : "MISMATCH between styles!\n");
    return identical ? 0 : 1;
}
