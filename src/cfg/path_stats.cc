#include "cfg/path_stats.h"

#include "support/metrics.h"

#include <algorithm>
#include <set>

namespace mc::cfg {

namespace {

/** Number of distinct source lines spanned by a block's statements. */
std::uint64_t
blockLineCount(const BasicBlock& bb)
{
    std::set<std::pair<std::int32_t, std::int32_t>> lines;
    for (const lang::Stmt* stmt : bb.stmts)
        if (stmt->loc.isValid())
            lines.emplace(stmt->loc.file_id, stmt->loc.line);
    return lines.size();
}

/** Successor edges with back edges removed (acyclic view of the CFG). */
std::vector<std::vector<int>>
forwardSuccessors(const Cfg& cfg)
{
    std::set<std::pair<int, int>> back(cfg.backEdges().begin(),
                                       cfg.backEdges().end());
    std::vector<std::vector<int>> succs(
        static_cast<std::size_t>(cfg.blockCount()));
    for (const BasicBlock& bb : cfg.blocks())
        for (int s : bb.succs)
            if (!back.count({bb.id, s}))
                succs[static_cast<std::size_t>(bb.id)].push_back(s);
    return succs;
}

/** Topological order of the acyclic view, entry-reachable nodes only. */
std::vector<int>
topoOrder(const Cfg& cfg, const std::vector<std::vector<int>>& succs)
{
    std::vector<int> order;
    std::vector<int> state(static_cast<std::size_t>(cfg.blockCount()), 0);
    std::vector<std::pair<int, std::size_t>> stack;
    stack.emplace_back(cfg.entryId(), 0);
    state[static_cast<std::size_t>(cfg.entryId())] = 1;
    while (!stack.empty()) {
        auto& [node, edge] = stack.back();
        const auto& out = succs[static_cast<std::size_t>(node)];
        if (edge >= out.size()) {
            order.push_back(node);
            stack.pop_back();
            continue;
        }
        int next = out[edge++];
        if (state[static_cast<std::size_t>(next)] == 0) {
            state[static_cast<std::size_t>(next)] = 1;
            stack.emplace_back(next, 0);
        }
    }
    std::reverse(order.begin(), order.end());
    return order;
}

std::uint64_t
saturatingAdd(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t s = a + b;
    if (s < a || s > PathStats::kMaxPaths)
        return PathStats::kMaxPaths;
    return s;
}

} // namespace

PathStats
computePathStats(const Cfg& cfg)
{
    support::MetricsRegistry& metrics = support::MetricsRegistry::global();
    support::ScopedTimer timer(
        metrics.enabled() ? &metrics.timer("cfg.path_stats") : nullptr);

    auto succs = forwardSuccessors(cfg);
    auto order = topoOrder(cfg, succs);

    std::size_t n = static_cast<std::size_t>(cfg.blockCount());
    std::vector<std::uint64_t> lines(n);
    for (const BasicBlock& bb : cfg.blocks())
        lines[static_cast<std::size_t>(bb.id)] = blockLineCount(bb);

    // DP in topological order: for each block, the number of entry-to-here
    // paths, the summed length of those paths, and the max length, where a
    // path's length includes every block on it.
    std::vector<std::uint64_t> count(n, 0);
    std::vector<double> length_sum(n, 0.0);
    std::vector<std::uint64_t> max_len(n, 0);

    std::size_t entry = static_cast<std::size_t>(cfg.entryId());
    count[entry] = 1;
    length_sum[entry] = static_cast<double>(lines[entry]);
    max_len[entry] = lines[entry];

    for (int id : order) {
        std::size_t u = static_cast<std::size_t>(id);
        if (count[u] == 0)
            continue;
        for (int s : succs[u]) {
            std::size_t v = static_cast<std::size_t>(s);
            count[v] = saturatingAdd(count[v], count[u]);
            length_sum[v] += length_sum[u] + static_cast<double>(count[u]) *
                                                 static_cast<double>(lines[v]);
            max_len[v] =
                std::max(max_len[v], max_len[u] + lines[v]);
        }
    }

    std::size_t exit = static_cast<std::size_t>(cfg.exitId());
    PathStats stats;
    stats.path_count = count[exit];
    stats.max_length_lines = max_len[exit];
    stats.avg_length_lines =
        count[exit] > 0 ? length_sum[exit] / static_cast<double>(count[exit])
                        : 0.0;

    if (metrics.enabled()) {
        metrics.counter("cfg.path_stats.functions").add();
        metrics.counter("cfg.path_stats.blocks")
            .add(static_cast<std::uint64_t>(cfg.blockCount()));
        metrics.gauge("cfg.path_stats.max_paths")
            .observe(stats.path_count);
    }
    return stats;
}

void
ProtocolPathStats::add(const PathStats& fn_stats)
{
    total_paths = saturatingAdd(total_paths, fn_stats.path_count);
    weighted_length_sum_ += fn_stats.avg_length_lines *
                            static_cast<double>(fn_stats.path_count);
    max_length_lines = std::max(max_length_lines, fn_stats.max_length_lines);
    if (total_paths > 0)
        avg_length_lines =
            weighted_length_sum_ / static_cast<double>(total_paths);
}

bool
enumeratePaths(const Cfg& cfg,
               const std::function<void(const std::vector<int>&)>& fn,
               std::uint64_t limit, unsigned back_edge_takes)
{
    // Each block's out-edges as (successor, back-edge index or -1).
    const std::vector<std::pair<int, int>>& back = cfg.backEdges();
    std::vector<std::vector<std::pair<int, int>>> edges(
        static_cast<std::size_t>(cfg.blockCount()));
    for (const BasicBlock& bb : cfg.blocks())
        for (int s : bb.succs) {
            auto it = std::find(back.begin(), back.end(),
                                std::make_pair(bb.id, s));
            edges[static_cast<std::size_t>(bb.id)].emplace_back(
                s, it == back.end()
                       ? -1
                       : static_cast<int>(it - back.begin()));
        }
    std::vector<unsigned> takes(back.size(), 0);
    std::uint64_t emitted = 0;
    std::vector<int> path;
    // Recursive lambda DFS. Forward edges form a DAG and each back edge
    // is taken a bounded number of times, so the depth is bounded by
    // the block count times (back_edge_takes + 1).
    std::function<bool(int)> dfs = [&](int node) -> bool {
        path.push_back(node);
        bool more = true;
        if (node == cfg.exitId()) {
            more = emitted < limit;
            if (more) {
                fn(path);
                ++emitted;
            }
        } else {
            for (auto [succ, back_edge] : edges[static_cast<std::size_t>(
                     node)]) {
                if (back_edge >= 0) {
                    unsigned& taken =
                        takes[static_cast<std::size_t>(back_edge)];
                    if (taken == back_edge_takes)
                        continue;
                    ++taken;
                    more = dfs(succ);
                    --taken;
                } else {
                    more = dfs(succ);
                }
                if (!more)
                    break;
            }
        }
        path.pop_back();
        return more;
    };
    return dfs(cfg.entryId());
}

} // namespace mc::cfg
