/**
 * @file
 * Reproduces Table 7: the summary over all checkers — checker size,
 * errors found (34), and false positives (69) across the five protocols
 * and common code.
 *
 * Checker sizes: the four metal checkers report lines of metal (as the
 * paper does); the C++ checkers report the lines of their core,
 * injected at build time (MCHECK_LOC_* definitions).
 */
#include "bench/bench_util.h"

#include "checkers/registry.h"
#include "metal/metal_parser.h"

#include <iostream>
#include <map>

#ifndef MCHECK_LOC_BUFFER_MGMT
#define MCHECK_LOC_BUFFER_MGMT 0
#endif
#ifndef MCHECK_LOC_LANES
#define MCHECK_LOC_LANES 0
#endif
#ifndef MCHECK_LOC_BUFFER_ALLOC
#define MCHECK_LOC_BUFFER_ALLOC 0
#endif
#ifndef MCHECK_LOC_EXEC_RESTRICT
#define MCHECK_LOC_EXEC_RESTRICT 0
#endif
#ifndef MCHECK_LOC_NO_FLOAT
#define MCHECK_LOC_NO_FLOAT 0
#endif

int
main()
{
    using namespace mc;
    bench::banner("Table 7: summary of all checkers", "Table 7");

    std::map<std::string, int> our_loc = {
        {"buffer_mgmt", MCHECK_LOC_BUFFER_MGMT},
        {"lanes", MCHECK_LOC_LANES},
        {"alloc_check", MCHECK_LOC_BUFFER_ALLOC},
        {"exec_restrict", MCHECK_LOC_EXEC_RESTRICT},
        {"no_float", MCHECK_LOC_NO_FLOAT},
    };
    for (const char* name :
         {"msglen_check", "wait_for_db", "dir_check", "send_wait"})
        our_loc[name] = metal::metalSourceLines(
            checkers::checkerDef(name)->metalSource());

    std::vector<std::vector<std::string>> rows;
    int total_errors = 0;
    int total_fps = 0;
    for (const checkers::CheckerMeta& meta : checkers::table7Meta()) {
        int errors = 0;
        int fps = 0;
        for (const auto& cp : bench::allCheckedProtocols()) {
            auto rec = cp->reconcile(meta.name);
            errors += rec.foundWithClass(corpus::SeedClass::Error);
            fps += rec.foundWithClass(corpus::SeedClass::FalsePositive);
            // Table 7 folds the buffer checker's useless annotations
            // into its false-positive column.
            if (meta.name == "buffer_mgmt")
                fps += cp->loaded.gen.ledger.count(
                    "buffer_mgmt", corpus::SeedClass::UselessAnnotation);
        }
        total_errors += errors;
        total_fps += fps;
        rows.push_back({meta.paper_label, std::to_string(our_loc[meta.name]),
                        std::to_string(meta.paper_loc),
                        std::to_string(errors),
                        std::to_string(meta.paper_errors),
                        std::to_string(fps),
                        std::to_string(meta.paper_false_pos)});
    }
    rows.push_back({"Total", "", "553", std::to_string(total_errors), "34",
                    std::to_string(total_fps), "69"});
    bench::printTable({"Checker", "LOC", "(paper)", "Err", "(paper)",
                       "FalsePos", "(paper)"},
                      rows);

    double total_ms = 0.0;
    for (const auto& cp : bench::allCheckedProtocols())
        total_ms += cp->check_millis;
    std::cout << "all nine checkers over all six protocols: " << total_ms
              << " ms of checking (vs years of FlashLite simulation that "
                 "still missed these bugs).\n";
    return 0;
}
