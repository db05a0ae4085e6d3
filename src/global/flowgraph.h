#ifndef MCHECK_GLOBAL_FLOWGRAPH_H
#define MCHECK_GLOBAL_FLOWGRAPH_H

#include "cfg/cfg.h"
#include "support/source_location.h"

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

namespace mc::global {

/**
 * One client-relevant event inside a function summary.
 *
 * The paper's local pass "walks over every handler annotating each send
 * with the lane it uses" and emits the flow graph to a file; `Event` is
 * that client annotation. `Call` events record plain calls so the global
 * pass can traverse the call graph; `Send` carries a lane; `LaneWait`
 * marks an explicit space check that resets a lane budget.
 */
struct Event
{
    enum class Kind : std::uint8_t { Call, Send, LaneWait };

    Kind kind = Kind::Call;
    /** Callee name for Call events. */
    std::string callee;
    /** Lane index for Send / LaneWait events (-1 if unknown). */
    int lane = -1;
    support::SourceLoc loc;
};

/**
 * The reduced, client-annotated flow graph of one function: the CFG's
 * block structure with each block's statements replaced by the events
 * the client extracted from them.
 */
struct FunctionSummary
{
    std::string name;
    int entry = 0;
    int exit = 0;

    struct Block
    {
        std::vector<Event> events;
        std::vector<int> succs;
    };

    std::vector<Block> blocks;
};

/**
 * Build a summary from a CFG. `extract` is the client annotation hook:
 * it receives each statement with its FlatCfg row (cfg/flat_cfg.h) and
 * appends any events it derives to the output vector.
 */
FunctionSummary
summarize(const std::string& name, const cfg::Cfg& cfg,
          const std::function<void(const lang::Stmt&, std::uint32_t,
                                   std::vector<Event>&)>& extract);

/**
 * Serialize one summary to the textual flow-graph format:
 *
 *     fn <name> entry <id> exit <id> blocks <n>
 *     block <id> succs <k> <s0> <s1> ...
 *     call <callee> <file> <line> <col>
 *     send <lane> <file> <line> <col>
 *     lanewait <lane> <file> <line> <col>
 *     end
 *
 * This mirrors xg++'s emit-to-file / read-back interface so the global
 * pass can be run over summaries produced by separate local passes.
 */
void writeSummary(std::ostream& os, const FunctionSummary& fn);

/** Parse summaries written by writeSummary. Throws on bad input. */
std::vector<FunctionSummary> readSummaries(std::istream& is);

} // namespace mc::global

#endif // MCHECK_GLOBAL_FLOWGRAPH_H
