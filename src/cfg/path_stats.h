#ifndef MCHECK_CFG_PATH_STATS_H
#define MCHECK_CFG_PATH_STATS_H

#include "cfg/cfg.h"
#include "support/source_manager.h"

#include <cstdint>
#include <functional>
#include <vector>

namespace mc::cfg {

/**
 * Path statistics for one function, in the units of the paper's Table 1:
 * the number of unique exit paths from the beginning of the function to
 * all returns, and path lengths measured as lines of code.
 */
struct PathStats
{
    /** Unique entry-to-exit paths (back edges excluded, like the paper's
     *  acyclic path counts; saturates at kMaxPaths). */
    std::uint64_t path_count = 0;
    /** Average path length in source lines. */
    double avg_length_lines = 0.0;
    /** Longest path length in source lines. */
    std::uint64_t max_length_lines = 0;

    static constexpr std::uint64_t kMaxPaths = 1ull << 62;
};

/**
 * Compute PathStats with dynamic programming over the acyclic condensation
 * (back edges removed), so exponential path counts never require
 * exponential time. Block length is the number of distinct source lines
 * its statements span.
 */
PathStats computePathStats(const Cfg& cfg);

/** Aggregate of per-function stats for a whole protocol (Table 1 row). */
struct ProtocolPathStats
{
    std::uint64_t total_paths = 0;
    double avg_length_lines = 0.0;
    std::uint64_t max_length_lines = 0;

    /** Fold one function's stats into the aggregate. */
    void add(const PathStats& fn_stats);

  private:
    double weighted_length_sum_ = 0.0;
};

/**
 * Enumerate entry-to-exit paths by DFS, invoking `fn` with the block-id
 * sequence of each. A path takes each back edge (Cfg::backEdges) at most
 * `back_edge_takes` times; 0 gives the acyclic paths computePathStats
 * counts. `fn` sees at most `limit` paths: if the function has more,
 * enumeration stops and the call returns false.
 *
 * Intended for tests and small functions: it is the memo-free reference
 * the checking engine, which caches (block, state) pairs instead, is
 * compared against.
 */
bool enumeratePaths(const Cfg& cfg,
                    const std::function<void(const std::vector<int>&)>& fn,
                    std::uint64_t limit = 1ull << 20,
                    unsigned back_edge_takes = 0);

} // namespace mc::cfg

#endif // MCHECK_CFG_PATH_STATS_H
