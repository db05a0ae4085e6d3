#ifndef MCHECK_TESTS_METAL_REFERENCE_SM_H
#define MCHECK_TESTS_METAL_REFERENCE_SM_H

/**
 * @file
 * The memo-free reference the metal engine is tested against: list a
 * function's paths explicitly (cfg::enumeratePaths) and run a fresh
 * state machine down each one. It shares nothing with the engine's
 * walk — no PathWalker, no (block, state) visited set, no transition
 * table, mask index, skip bits or identifier prefilter — so a bug in
 * that machinery cannot hide by appearing on both sides of a
 * differential. Header-only, for tests and the engine benchmark.
 */
#include "cfg/cfg.h"
#include "cfg/path_stats.h"
#include "metal/state_machine.h"
#include "support/diagnostics.h"

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace mc::metal::reference {

/** Functions with more paths than this are skipped, not truncated. */
inline constexpr std::uint64_t kPathCap = 1u << 12;

/**
 * Number of distinct states `sm` names: start, stop, every state with
 * rules (`all` included) and every transition target. It bounds the
 * back-edge takes the enumerator needs: a (block, state) pair the
 * engine reaches also lies on a path that takes each back edge at
 * most once per non-stop state, plus once on its way to the exit.
 */
inline unsigned
stateCount(const StateMachine& sm)
{
    std::set<std::string> names{sm.startState(), StateMachine::kStop};
    for (const std::string& state : sm.states()) {
        names.insert(state);
        for (const StateMachine::Rule& rule : sm.rulesFor(state))
            if (!rule.next_state.empty())
                names.insert(rule.next_state);
    }
    return static_cast<unsigned>(names.size());
}

/** What enumerating one function's paths found. */
struct Result
{
    /** False when the function has more than kPathCap paths; nothing
     *  ran and nothing was reported. */
    bool covered = false;
    /** Entry-to-exit paths run. */
    std::uint64_t paths = 0;
    /** Distinct (rule id, statement) firings, counted per rule id —
     *  the same tally as SmRunResult::firings. */
    std::map<std::string, int> firings;
};

/**
 * Run `sm` down every entry-to-exit path of `cfg` that takes each back
 * edge at most `back_edge_takes` times (default: stateCount(sm)); the
 * override exists to show what a smaller bound misses. Along a path the current state's
 * rules, then the `all` rules, are tried in order on each statement
 * with Pattern::matchInStmt; the first match fires. Reaching `stop`
 * ends the path. A (rule id, statement) pair runs its action — and so
 * reports to `sink` — the first time any path fires it.
 */
inline Result
runEnumerated(const StateMachine& sm, const cfg::Cfg& cfg,
              support::DiagnosticSink& sink,
              std::optional<unsigned> back_edge_takes = std::nullopt)
{
    Result result;
    std::vector<std::vector<int>> paths;
    result.covered = cfg::enumeratePaths(
        cfg, [&](const std::vector<int>& path) { paths.push_back(path); },
        kPathCap, back_edge_takes.value_or(stateCount(sm)));
    if (!result.covered)
        return result;
    result.paths = paths.size();

    std::set<std::pair<std::string, support::SourceLoc>> fired;
    auto fire = [&](std::string& state, const lang::Stmt& stmt,
                    const std::vector<StateMachine::Rule>& rules) {
        for (const StateMachine::Rule& rule : rules) {
            std::optional<match::Bindings> bindings =
                rule.pattern.matchInStmt(stmt);
            if (!bindings)
                continue;
            if (fired.emplace(rule.id, stmt.loc).second) {
                ++result.firings[rule.id];
                if (rule.action)
                    rule.action(ActionContext(stmt, *bindings, sink,
                                              sm.name(), rule.id));
            }
            if (!rule.next_state.empty())
                state = rule.next_state;
            return true;
        }
        return false;
    };

    for (const std::vector<int>& path : paths) {
        std::string state = sm.startState();
        for (int block : path) {
            for (const lang::Stmt* stmt : cfg.block(block).stmts) {
                if (!fire(state, *stmt, sm.rulesFor(state)))
                    fire(state, *stmt, sm.allRules());
                if (state == StateMachine::kStop)
                    break;
            }
            if (state == StateMachine::kStop)
                break;
        }
    }
    return result;
}

} // namespace mc::metal::reference

#endif // MCHECK_TESTS_METAL_REFERENCE_SM_H
