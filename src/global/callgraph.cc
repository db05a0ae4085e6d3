#include "global/callgraph.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

namespace mc::global {

CallGraph::CallGraph(const std::vector<const FunctionSummary*>& summaries)
{
    by_name_.reserve(summaries.size());
    summaries_.reserve(summaries.size());
    for (const FunctionSummary* fn : summaries)
        if (by_name_.emplace(fn->name, summaries_.size()).second)
            summaries_.push_back(fn);

    // One scan: the functions that send on a lane themselves, and every
    // resolved call as a (callee, caller) pair.
    sends_on_lane_.assign(summaries_.size(), false);
    std::vector<std::size_t> work;
    std::vector<std::pair<std::size_t, std::size_t>> calls;
    for (std::size_t caller = 0; caller < summaries_.size(); ++caller) {
        for (const FunctionSummary::Block& bb : summaries_[caller]->blocks) {
            for (const Event& ev : bb.events) {
                if (ev.kind == Event::Kind::Send && ev.lane >= 0 &&
                    ev.lane < kLanes) {
                    sends_on_lane_[caller] = true;
                } else if (ev.kind == Event::Kind::Call) {
                    auto it = by_name_.find(ev.callee);
                    if (it != by_name_.end())
                        calls.emplace_back(it->second, caller);
                }
            }
        }
        if (sends_on_lane_[caller])
            work.push_back(caller);
    }

    // Then propagation: a caller of a function whose cone sends has a
    // cone that sends.
    std::sort(calls.begin(), calls.end());
    while (!work.empty()) {
        const std::size_t callee = work.back();
        work.pop_back();
        for (auto it = std::lower_bound(calls.begin(), calls.end(),
                                        std::make_pair(callee, std::size_t{0}));
             it != calls.end() && it->first == callee; ++it) {
            if (!sends_on_lane_[it->second]) {
                sends_on_lane_[it->second] = true;
                work.push_back(it->second);
            }
        }
    }
}

const FunctionSummary*
CallGraph::find(std::string_view name) const
{
    auto it = by_name_.find(name);
    return it == by_name_.end() ? nullptr : summaries_[it->second];
}

bool
CallGraph::sendsOnLane(std::string_view name) const
{
    auto it = by_name_.find(name);
    return it != by_name_.end() && sends_on_lane_[it->second];
}

namespace {

std::string
describeLoc(const support::SourceLoc& loc)
{
    std::ostringstream os;
    os << "file" << loc.file_id << ':' << loc.line << ':' << loc.column;
    return os.str();
}

/**
 * The lane-analysis DFS. Memoizes per (function, entry counts) the set of
 * possible exit counts, so shared helpers are analyzed once per distinct
 * calling context. Counts are clamped to allowance+1, which both bounds
 * the state space and keeps "already violating" saturated.
 */
class LaneDfs
{
  public:
    LaneDfs(const CallGraph& graph, const LaneCounts& allowance,
            LaneAnalysisResult& result, const LocDescriber& describe)
        : graph_(graph), allowance_(allowance), result_(result),
          describe_(describe ? describe : describeLoc)
    {}

    std::set<LaneCounts>
    runFunction(const std::string& name, const LaneCounts& entry)
    {
        const FunctionSummary* fn = graph_.find(name);
        if (!fn)
            return {entry}; // external routines are send-free

        auto memo_key = std::make_pair(name, entry);
        auto memo_it = memo_.find(memo_key);
        if (memo_it != memo_.end())
            return memo_it->second;

        // Fixed-point rule for cycles.
        for (const auto& [active_name, active_counts] : stack_) {
            if (active_name != name)
                continue;
            if (active_counts == entry)
                return {entry}; // fixed point: cycle cannot add sends
            LaneRecursionWarning warning;
            warning.function = name;
            warning.trace = currentTrace();
            result_.recursion_warnings.push_back(std::move(warning));
            return {entry};
        }

        stack_.emplace_back(name, entry);
        std::set<LaneCounts> exits = walkBlocks(*fn, entry);
        stack_.pop_back();
        memo_.emplace(std::move(memo_key), exits);
        return exits;
    }

    /** Record a frame for back traces: "<fn> at <loc>". */
    void
    pushFrame(const std::string& text)
    {
        frames_.push_back(text);
    }

    void popFrame() { frames_.pop_back(); }

  private:
    std::vector<std::string>
    currentTrace() const
    {
        return frames_;
    }

    std::set<LaneCounts>
    walkBlocks(const FunctionSummary& fn, const LaneCounts& entry)
    {
        std::set<LaneCounts> exits;
        std::set<std::pair<int, LaneCounts>> visited;
        std::vector<std::pair<int, LaneCounts>> work;
        work.emplace_back(fn.entry, entry);

        while (!work.empty()) {
            auto [block_id, counts] = work.back();
            work.pop_back();
            if (!visited.emplace(block_id, counts).second)
                continue;

            const FunctionSummary::Block& bb =
                fn.blocks[static_cast<std::size_t>(block_id)];

            // Apply the block's events in order. Calls can yield several
            // possible count vectors; track the frontier set.
            std::set<LaneCounts> frontier{counts};
            for (const Event& ev : bb.events) {
                std::set<LaneCounts> next;
                for (const LaneCounts& c : frontier)
                    applyEvent(fn.name, ev, c, next);
                frontier = std::move(next);
            }

            if (block_id == fn.exit) {
                for (const LaneCounts& c : frontier)
                    exits.insert(c);
                continue;
            }
            for (int succ : bb.succs)
                for (const LaneCounts& c : frontier)
                    work.emplace_back(succ, c);
        }

        if (exits.empty())
            exits.insert(entry); // e.g. all paths dead-end in recursion
        return exits;
    }

    void
    applyEvent(const std::string& fn_name, const Event& ev,
               LaneCounts counts, std::set<LaneCounts>& out)
    {
        switch (ev.kind) {
          case Event::Kind::Send: {
            if (ev.lane < 0 || ev.lane >= kLanes) {
                out.insert(counts);
                return;
            }
            int& c = counts[static_cast<std::size_t>(ev.lane)];
            ++c;
            int allowed = allowance_[static_cast<std::size_t>(ev.lane)];
            if (c > allowed) {
                c = allowed + 1; // saturate
                recordViolation(fn_name, ev, c, allowed);
            }
            result_.max_sends[static_cast<std::size_t>(ev.lane)] =
                std::max(result_.max_sends[static_cast<std::size_t>(
                             ev.lane)],
                         c);
            out.insert(counts);
            return;
          }
          case Event::Kind::LaneWait: {
            if (ev.lane >= 0 && ev.lane < kLanes)
                counts[static_cast<std::size_t>(ev.lane)] = 0;
            out.insert(counts);
            return;
          }
          case Event::Kind::Call: {
            pushFrame(ev.callee + " called at " + describe_(ev.loc));
            std::set<LaneCounts> exits = runFunction(ev.callee, counts);
            popFrame();
            for (const LaneCounts& c : exits)
                out.insert(c);
            return;
          }
        }
    }

    void
    recordViolation(const std::string& fn_name, const Event& ev, int count,
                    int allowed)
    {
        for (const LaneViolation& v : result_.violations)
            if (v.loc == ev.loc && v.lane == ev.lane)
                return; // already reported this send
        LaneViolation v;
        v.loc = ev.loc;
        v.lane = ev.lane;
        v.count = count;
        v.allowance = allowed;
        v.trace = currentTrace();
        v.trace.push_back("send in " + fn_name + " at " +
                          describe_(ev.loc));
        result_.violations.push_back(std::move(v));
    }

    const CallGraph& graph_;
    LaneCounts allowance_;
    LaneAnalysisResult& result_;
    LocDescriber describe_;
    std::vector<std::pair<std::string, LaneCounts>> stack_;
    std::vector<std::string> frames_;
    std::map<std::pair<std::string, LaneCounts>, std::set<LaneCounts>>
        memo_;
};

} // namespace

LaneAnalysisResult
analyzeLanes(const CallGraph& graph, const std::string& handler,
             const LaneCounts& allowance, const LocDescriber& describe)
{
    LaneAnalysisResult result;
    LaneDfs dfs(graph, allowance, result, describe);
    dfs.pushFrame("handler " + handler);
    dfs.runFunction(handler, LaneCounts{0, 0, 0, 0});
    dfs.popFrame();
    return result;
}

} // namespace mc::global
