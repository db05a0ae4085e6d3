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
#include "metal/engine.h"
#include "metal/state_machine.h"
#include "support/diagnostics.h"

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace mc::metal::reference {

/** Functions with more paths than this are skipped, not truncated. */
inline constexpr std::uint64_t kPathCap = 1u << 12;

/**
 * Number of distinct states `sm` names: start, stop, every state with
 * rules (`all` included) and every transition target.
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

/** The end-of-path rule a path ending in `state` fires (its own first,
 *  then `all`'s), or nullptr. */
inline const StateMachine::Rule*
endOfPathRule(const StateMachine& sm, const std::string& state)
{
    if (state.empty() || state == StateMachine::kStop)
        return nullptr;
    for (const std::vector<StateMachine::Rule>* rules :
         {&sm.rulesFor(state), &sm.allRules()})
        for (const StateMachine::Rule& rule : *rules)
            if (rule.end_of_path)
                return &rule;
    return nullptr;
}

/**
 * Where `rule` matches statement row `row` of `flat`, if it does, with
 * its bindings: at the first call its C++ call test accepts, at the
 * subexpression its pattern matched, or at the statement itself. A
 * call test with no binding in `call_tests` matches nothing, and an
 * end-of-path rule matches no statement.
 */
inline std::optional<std::pair<support::SourceLoc, match::Bindings>>
matchRow(const StateMachine::Rule& rule, const cfg::FlatCfg& flat,
         std::uint32_t row, std::span<const CallTest> call_tests)
{
    if (rule.end_of_path)
        return std::nullopt;
    if (rule.call_test >= 0) {
        const auto t = static_cast<std::size_t>(rule.call_test);
        for (const cfg::CallRow& call : flat.calls(row))
            if (t < call_tests.size() && call_tests[t](call))
                return std::pair{call.call->loc, match::Bindings()};
        return std::nullopt;
    }
    std::optional<match::Bindings> bindings =
        rule.pattern.matchInStmt(*flat.stmt(row));
    if (!bindings)
        return std::nullopt;
    const support::SourceLoc loc = bindings->matched
                                       ? bindings->matched->loc
                                       : flat.stmt(row)->loc;
    return std::pair{loc, std::move(*bindings)};
}

/**
 * How many values a path's machine state can take in `cfg`: `sm`'s
 * states, plus, for each state with an end-of-path rule, one per
 * location in `cfg` where a rule entering it matches. It bounds the
 * back-edge takes the enumerator needs: a (block, state, remembered
 * location) triple the engine reaches also lies on a path that takes
 * each back edge at most once per such value, plus once on its way to
 * the exit. Without end-of-path rules it is stateCount(sm).
 */
inline unsigned
stateValueCount(const StateMachine& sm, const cfg::Cfg& cfg,
                std::span<const CallTest> call_tests)
{
    std::set<std::string> remembering;
    for (const std::string& state : sm.states())
        for (const StateMachine::Rule& rule : sm.rulesFor(state))
            if (endOfPathRule(sm, rule.next_state))
                remembering.insert(rule.next_state);
    if (remembering.empty())
        return stateCount(sm);
    const cfg::FlatCfg& flat = cfg::flatCfg(cfg);
    std::set<support::SourceLoc> sites;
    for (std::uint32_t row = 0; row < flat.stmtCount(); ++row)
        for (const std::string& state : sm.states())
            for (const StateMachine::Rule& rule : sm.rulesFor(state))
                if (remembering.count(rule.next_state))
                    if (auto m = matchRow(rule, flat, row, call_tests))
                        sites.insert(m->first);
    return stateCount(sm) +
           static_cast<unsigned>(remembering.size() * sites.size());
}

/** What enumerating one function's paths found. */
struct Result
{
    /** False when the function has more than kPathCap paths; nothing
     *  ran and nothing was reported. */
    bool covered = false;
    /** Entry-to-exit paths run. */
    std::uint64_t paths = 0;
    /** Distinct (rule id, location) firings, counted per rule id —
     *  the same tally as SmRunResult::firings. */
    std::map<std::string, int> firings;
};

/**
 * Run `sm` down every entry-to-exit path of `cfg` that takes each back
 * edge at most `back_edge_takes` times (default: stateValueCount); the
 * override exists to show what a smaller bound misses. Along a path the
 * current state's rules, then the `all` rules, are tried in order on
 * each statement (matchRow); the first match fires. A rule that names
 * a target state remembers where it matched if the target has an
 * end-of-path rule, and forgets otherwise. Reaching `stop` ends the
 * path. Reaching the exit fires the state's end-of-path rule at the
 * remembered location (the function's, if none), unless
 * `options.end_of_path` is off. A (rule id, location) pair runs its
 * action — and so reports to `sink` — the first time any path fires
 * it. Of `options` only call_tests and end_of_path are read.
 */
inline Result
runEnumerated(const StateMachine& sm, const cfg::Cfg& cfg,
              support::DiagnosticSink& sink,
              std::optional<unsigned> back_edge_takes = std::nullopt,
              const SmRunOptions& options = SmRunOptions())
{
    Result result;
    std::vector<std::vector<int>> paths;
    result.covered = cfg::enumeratePaths(
        cfg, [&](const std::vector<int>& path) { paths.push_back(path); },
        kPathCap,
        back_edge_takes.value_or(
            stateValueCount(sm, cfg, options.call_tests)));
    if (!result.covered)
        return result;
    result.paths = paths.size();
    const cfg::FlatCfg& flat = cfg::flatCfg(cfg);

    std::set<std::pair<std::string, support::SourceLoc>> fired;
    auto fire = [&](const StateMachine::Rule& rule,
                    const support::SourceLoc& loc,
                    const match::Bindings& bindings) {
        if (!fired.emplace(rule.id, loc).second)
            return;
        ++result.firings[rule.id];
        if (rule.action)
            rule.action(
                ActionContext(loc, bindings, sink, sm.name(), rule.id));
    };
    struct PathState
    {
        std::string state;
        std::optional<support::SourceLoc> remembered;
    };
    auto step = [&](PathState& at, std::uint32_t row,
                    const std::vector<StateMachine::Rule>& rules) {
        for (const StateMachine::Rule& rule : rules) {
            auto m = matchRow(rule, flat, row, options.call_tests);
            if (!m)
                continue;
            fire(rule, m->first, m->second);
            if (!rule.next_state.empty()) {
                at.state = rule.next_state;
                at.remembered.reset();
                if (endOfPathRule(sm, at.state))
                    at.remembered = m->first;
            }
            return true;
        }
        return false;
    };

    const support::SourceLoc fn_loc =
        cfg.function ? cfg.function->loc : support::SourceLoc();
    for (const std::vector<int>& path : paths) {
        PathState at{sm.startState(), std::nullopt};
        for (int block : path) {
            for (std::uint32_t row = flat.stmtBegin(block);
                 row < flat.stmtEnd(block); ++row) {
                if (!step(at, row, sm.rulesFor(at.state)))
                    step(at, row, sm.allRules());
                if (at.state == StateMachine::kStop)
                    break;
            }
            if (at.state == StateMachine::kStop)
                break;
        }
        if (!options.end_of_path)
            continue;
        if (const StateMachine::Rule* rule = endOfPathRule(sm, at.state))
            fire(*rule, at.remembered.value_or(fn_loc), match::Bindings());
    }
    return result;
}

} // namespace mc::metal::reference

#endif // MCHECK_TESTS_METAL_REFERENCE_SM_H
