#ifndef MCHECK_GLOBAL_CALLGRAPH_H
#define MCHECK_GLOBAL_CALLGRAPH_H

#include "global/flowgraph.h"

#include <array>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace mc::global {

/** Number of lanes tracked by the lane analysis. */
inline constexpr int kLanes = 4;

/**
 * The linked global call graph: all function summaries of a protocol,
 * indexed by name. This is the paper's "second, global pass" input —
 * typically produced by reading back the files the local passes emitted.
 *
 * The graph indexes summaries it does not own: they must outlive it.
 * When two summaries share a name, the first one wins.
 */
class CallGraph
{
  public:
    /**
     * Index `summaries` and compute, in one scan of them plus one
     * propagation over the calls find() resolves, which call cones hold
     * a lane send (sendsOnLane).
     */
    explicit CallGraph(const std::vector<const FunctionSummary*>& summaries);

    /** Summary for `name`, or nullptr for external/unknown routines. */
    const FunctionSummary* find(std::string_view name) const;

    /**
     * Whether the call cone of `name` — its summary plus every summary
     * reachable from it through Call events find() resolves, cycles
     * included — holds a Send on a lane in [0, kLanes). False for
     * unknown names. Where it is false, analyzeLanes keeps every count
     * at zero, so it reports no violation and no recursion warning.
     */
    bool sendsOnLane(std::string_view name) const;

  private:
    /** Index into `summaries_`/`sends_on_lane_` per name (first wins). */
    std::unordered_map<std::string_view, std::size_t> by_name_;
    std::vector<const FunctionSummary*> summaries_;
    std::vector<bool> sends_on_lane_;
};

using LaneCounts = std::array<int, kLanes>;

/** One send that exceeded its handler's lane allowance. */
struct LaneViolation
{
    support::SourceLoc loc;
    int lane = -1;
    /** Sends on this lane at this point (allowance + overflow). */
    int count = 0;
    int allowance = 0;
    /**
     * Inter-procedural back-trace, outermost frame first: the handler,
     * each call site taken, then the offending send. The paper notes
     * "path length and branching complexity make this feature crucial".
     */
    std::vector<std::string> trace;
};

/** A cycle whose traversal sends messages (not a fixed point). */
struct LaneRecursionWarning
{
    std::string function;
    std::vector<std::string> trace;
};

struct LaneAnalysisResult
{
    std::vector<LaneViolation> violations;
    std::vector<LaneRecursionWarning> recursion_warnings;
    /** Max sends observed per lane across all paths. */
    LaneCounts max_sends{0, 0, 0, 0};
};

/** Renders a location inside a back-trace frame. */
using LocDescriber = std::function<std::string(const support::SourceLoc&)>;

/**
 * Analyze one handler's send behavior against its lane allowance.
 *
 * Depth-first traversal of the handler's summary, descending into callees
 * at Call events. Send events increment the per-lane count (a violation is
 * recorded when a count exceeds the allowance); LaneWait events reset
 * their lane (the handler suspends until space is available).
 *
 * Cycles use the paper's fixed-point rule: re-encountering a function that
 * is already active with the SAME lane counts is a fixed point and is
 * skipped; re-encountering it with different counts means the cycle sends,
 * which is reported as a recursion warning. This "completely eliminates
 * all recursion based false-positives".
 */
LaneAnalysisResult analyzeLanes(const CallGraph& graph,
                                const std::string& handler,
                                const LaneCounts& allowance,
                                const LocDescriber& describe = {});

} // namespace mc::global

#endif // MCHECK_GLOBAL_CALLGRAPH_H
