/**
 * @file
 * Reproduces Table 2: the buffer fill race-condition checker (Figure 2's
 * `wait_for_db` metal state machine) applied to the five protocols and
 * the common code.
 */
#include "bench/bench_util.h"

#include "checkers/registry.h"
#include "metal/metal_parser.h"

#include <iostream>

namespace {

struct PaperRow
{
    const char* protocol;
    int errors;
    int false_pos;
    int applied;
};

const PaperRow kPaper[] = {
    {"bitvector", 4, 0, 14}, {"dyn_ptr", 0, 0, 16}, {"sci", 0, 0, 2},
    {"coma", 0, 0, 0},       {"rac", 0, 0, 10},     {"common", 0, 1, 17},
};

const PaperRow*
paperRow(const std::string& name)
{
    for (const PaperRow& row : kPaper)
        if (name == row.protocol)
            return &row;
    return nullptr;
}

} // namespace

int
main()
{
    using namespace mc;
    bench::banner("Table 2: buffer race condition checker",
                  "Table 2 and Figure 2");

    const std::string& source =
        checkers::checkerDef("wait_for_db")->metalSource();
    std::cout << "checker source (" << metal::metalSourceLines(source)
              << " lines of metal):\n"
              << source << '\n';

    std::vector<std::vector<std::string>> rows;
    int errors = 0;
    int fps = 0;
    int applied = 0;
    for (const auto& cp : bench::allCheckedProtocols()) {
        auto rec = cp->reconcile("wait_for_db");
        int e = rec.foundWithClass(corpus::SeedClass::Error);
        int f = rec.foundWithClass(corpus::SeedClass::FalsePositive);
        int a = cp->applied("wait_for_db");
        errors += e;
        fps += f;
        applied += a;
        const PaperRow* paper = paperRow(cp->name());
        rows.push_back({cp->name(), std::to_string(e),
                        paper ? std::to_string(paper->errors) : "-",
                        std::to_string(f),
                        paper ? std::to_string(paper->false_pos) : "-",
                        std::to_string(a),
                        paper ? std::to_string(paper->applied) : "-"});
    }
    rows.push_back({"total", std::to_string(errors), "4",
                    std::to_string(fps), "1", std::to_string(applied),
                    "59"});
    bench::printTable({"Protocol", "Errors", "(paper)", "FalsePos",
                       "(paper)", "Applied", "(paper)"},
                      rows);
    return 0;
}
