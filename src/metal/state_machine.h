#ifndef MCHECK_METAL_STATE_MACHINE_H
#define MCHECK_METAL_STATE_MACHINE_H

#include "cfg/flat_cfg.h"
#include "match/pattern.h"
#include "support/diagnostics.h"

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mc::metal {

class CompiledSm;

/**
 * Context handed to a rule action when it fires.
 *
 * Mirrors metal's action escapes: the wildcard bindings, and an `err()`
 * facility that reports through the run's DiagnosticSink at the rule's
 * location — the matched call or statement, or for an end-of-path rule
 * the location its path remembered.
 */
class ActionContext
{
  public:
    ActionContext(const support::SourceLoc& loc,
                  const match::Bindings& bindings,
                  support::DiagnosticSink& sink, std::string checker,
                  std::string rule_id)
        : loc_(loc), bindings_(bindings), sink_(sink),
          checker_(std::move(checker)), rule_id_(std::move(rule_id))
    {}

    const match::Bindings& bindings() const { return bindings_; }

    /** metal's err(): report an error at the rule's location. */
    void
    err(const std::string& message) const
    {
        sink_.error(loc_, checker_, rule_id_, message);
    }

    /** Report a warning instead of an error. */
    void
    warn(const std::string& message) const
    {
        sink_.warning(loc_, checker_, rule_id_, message);
    }

  private:
    support::SourceLoc loc_;
    const match::Bindings& bindings_;
    support::DiagnosticSink& sink_;
    std::string checker_;
    std::string rule_id_;
};

/**
 * A C++ test over one call site of a statement row, for what a pattern
 * cannot say: dir_check's NAK sends (an opcode prefix) and its calls to
 * the protocol spec's deferred routines. A metal program names its
 * tests with `extern`; each run binds them (SmRunOptions::call_tests).
 */
using CallTest = std::function<bool(const cfg::CallRow&)>;

/**
 * A metal state machine: named states, each with an ordered rule list.
 *
 * Semantics follow the paper:
 *  - execution starts in the first state defined;
 *  - on each statement, the current state's rules are tried in order and
 *    the first whose pattern matches fires (transition + action);
 *  - rules of the special `all` state are "implicitly applied to other
 *    states" — they are tried after the current state's own rules;
 *  - transitioning to the reserved `stop` state ends checking of the
 *    current path;
 *  - an end-of-path rule fires when a path reaches the function's exit
 *    in its state (own rules first, then `all`), and reports at the
 *    location the path remembered: a rule that names a target state
 *    with an end-of-path rule remembers where it matched, and one that
 *    names any other target forgets.
 */
class StateMachine
{
  public:
    /** Reserved state names. */
    static constexpr const char* kStop = "stop";
    static constexpr const char* kAll = "all";

    struct Rule
    {
        match::Pattern pattern;
        /**
         * Set when the rule's pattern is a C++ call test instead: its
         * index in the run's SmRunOptions::call_tests (dir_check's
         * `nak_send` and `deferred_modify`).
         */
        int call_test = -1;
        /**
         * The rule fires at the end of a path instead of on a statement
         * (send_wait's missing-wait, dir_check's missing-writeback).
         */
        bool end_of_path = false;
        /** Target state; empty string = stay in the current state. */
        std::string next_state;
        /** Optional action run on match. */
        std::function<void(const ActionContext&)> action;
        /** Stable id for deduplication and tests. */
        std::string id;
    };

    explicit StateMachine(std::string name);
    ~StateMachine();

    const std::string& name() const { return name_; }

    /**
     * Metrics timer name for this SM's engine runs ("engine.sm." + name),
     * pre-built here so runStateMachine does not concatenate it per call.
     */
    const std::string& timerName() const { return timer_name_; }

    /**
     * Add a rule under `state`. The first non-`all` state mentioned
     * becomes the start state.
     */
    void addRule(const std::string& state, Rule rule);

    /** Explicitly set the start state (otherwise first defined). */
    void setStartState(const std::string& state) { start_ = state; }

    const std::string& startState() const { return start_; }

    /** Rules for `state` (not including `all` rules). */
    const std::vector<Rule>& rulesFor(const std::string& state) const;

    /** Rules of the `all` state. */
    const std::vector<Rule>& allRules() const { return rulesFor(kAll); }

    /** All states that have rules (including `all` if used). */
    std::vector<std::string> states() const;

    int ruleCount() const;

    /**
     * The compiled (interned, flattened) view of this SM, built lazily on
     * first use and cached. Thread-safe: the engine shares one SM across
     * worker lanes read-only. Call only after rule construction is done —
     * the compiled view aliases the rule storage.
     */
    const CompiledSm& compiled() const;

  private:
    std::string name_;
    std::string timer_name_;
    std::string start_;
    std::map<std::string, std::vector<Rule>> rules_;
    mutable std::once_flag compiled_once_;
    mutable std::unique_ptr<CompiledSm> compiled_;
};

} // namespace mc::metal

#endif // MCHECK_METAL_STATE_MACHINE_H
