#ifndef MCHECK_CHECKERS_REGISTRY_H
#define MCHECK_CHECKERS_REGISTRY_H

#include "checkers/checker.h"
#include "metal/engine.h"
#include "metal/feasibility.h"
#include "metal/metal_parser.h"
#include "support/hash.h"

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mc::checkers {

/** An owned set of checkers plus the raw-pointer view runCheckers takes. */
struct CheckerSet
{
    std::vector<std::unique_ptr<Checker>> owned;

    std::vector<Checker*>
    pointers() const
    {
        std::vector<Checker*> out;
        for (const auto& c : owned)
            out.push_back(c.get());
        return out;
    }

    Checker* byName(const std::string& name) const;
};

/** Options applied when building the full checker set. */
struct CheckerSetOptions
{
    /** Section 6.1 value-sensitive frees refinement (ablation toggle). */
    bool value_sensitive_frees = true;
    /**
     * Path-feasibility pruning strategy (`--prune-paths`), applied
     * uniformly to every path-sensitive checker — the extension the
     * paper declined to build. Off matches the paper.
     */
    metal::PruneStrategy prune_strategy = metal::PruneStrategy::Off;
};

/**
 * The call rows a metal checker counts as applications of its check
 * (applied(), the Applied column of Tables 2, 3 and 6).
 */
using AppliedRule = bool (*)(const cfg::CallRow& call);

/**
 * A C++ call test that a metal checker's `extern` declaration names,
 * given the run's protocol spec: dir_check's NAK sends and spec-listed
 * deferred routines.
 */
using CallPredicate = bool (*)(const cfg::CallRow& call,
                               const flash::ProtocolSpec& spec);

/**
 * A function-wide fact that exempts a function from a metal checker's
 * end-of-path rules: dir_check's expects_dir_writeback() annotation.
 */
using EndOfPathExemption = bool (*)(const cfg::FlatCfg& flat);

/**
 * The immutable, process-shared half of one checker: its identity, the
 * options it runs under, and — for metal checkers — the metal source,
 * the program parsed from it, whose state machine is compiled exactly
 * once (one CompiledSm per definition), and the applied rule.
 *
 * A definition is compiled on first request per (name, options) and
 * lives for the rest of the process, so every unit of every run — live,
 * replayed from the analysis cache, or substituted for a failed unit —
 * instantiates from the same parsed program and never re-parses metal
 * or recompiles a machine. A definition is read-only after
 * construction and safe to share across threads.
 */
class CheckerDef
{
  public:
    const std::string& name() const { return name_; }
    const CheckerSetOptions& options() const { return options_; }

    /**
     * The metal source this checker compiles from, "" for hand-written
     * ones. Part of the analysis-cache key: editing a .metal file must
     * invalidate every result its checker produced.
     */
    const std::string& metalSource() const { return metal_source_; }

    /** The parsed metal program, or nullptr for hand-written checkers. */
    const metal::MetalProgram* metal() const
    {
        return metal_.sm ? &metal_ : nullptr;
    }

    /** The metal checker's applied rule; nullptr counts nothing. */
    AppliedRule appliedRule() const { return applied_rule_; }

    /**
     * The head of every unit key of this checker that depends on the
     * definition alone — cache format and tool version, name, metal
     * source, options — hashed once at construction.
     * unitCacheKeyPrefix appends the run's witness configuration to it.
     */
    const support::Fnv1a& keyPrefix() const { return key_prefix_; }

    /**
     * How this metal checker runs over one function of a run on
     * `spec`: under its prune strategy, with its `extern` call tests
     * bound to `spec` (stored in `tests`, which must outlive the run),
     * and with end-of-path rules off where its exemption holds.
     */
    metal::SmRunOptions runOptions(const cfg::Cfg& cfg,
                                   const flash::ProtocolSpec& spec,
                                   std::vector<metal::CallTest>& tests) const;

    /**
     * A fresh checker — zero applied count, empty summaries — that
     * executes this definition. Parses and compiles nothing.
     */
    std::unique_ptr<Checker> instantiate() const;

    /**
     * A one-off definition for a user-written metal checker (`mccheck
     * --metal`): `source` parsed (parse errors name `origin`) and
     * compiled, named "metal:<sm>", with no applied rule and no call
     * tests. Its instances run the state machine down every path of
     * each function. Not registered with checkerDef: the caller owns
     * it. Throws metal::MetalParseError on malformed source, including
     * an `extern` declaration.
     */
    static std::unique_ptr<const CheckerDef>
    fromMetal(std::string source, const std::string& origin,
              CheckerSetOptions options);

  private:
    friend const CheckerDef* checkerDef(const std::string&,
                                        const CheckerSetOptions&);

    /**
     * Compiles `metal`'s state machine, if any. `call_tests` names a
     * predicate for each of its `extern` call tests; a name it lacks
     * throws metal::MetalParseError.
     */
    CheckerDef(
        std::string name, CheckerSetOptions options,
        std::string metal_source, metal::MetalProgram metal,
        AppliedRule applied_rule,
        std::span<const std::pair<std::string_view, CallPredicate>>
            call_tests = {},
        EndOfPathExemption exemption = nullptr);

    std::string name_;
    CheckerSetOptions options_;
    std::string metal_source_;
    metal::MetalProgram metal_;
    AppliedRule applied_rule_ = nullptr;
    /** One predicate per metal_.call_tests name, in its order. */
    std::vector<CallPredicate> call_tests_;
    EndOfPathExemption exemption_ = nullptr;
    support::Fnv1a key_prefix_;
};

/**
 * A checker that is one metal state machine: it runs its definition's
 * compiled machine down every path of each function as
 * CheckerDef::runOptions says, and counts as applied the call rows the
 * definition's applied rule selects. The shipped wait_for_db (Figure 2),
 * msglen_check (Figure 3), send_wait and dir_check (Section 9) checkers
 * and every `--metal` checker are its instances.
 */
class MetalChecker : public Checker
{
  public:
    explicit MetalChecker(const CheckerDef& def) : def_(def) {}

    std::string name() const override { return def_.name(); }

    void checkFunction(const lang::FunctionDecl& fn, const cfg::Cfg& cfg,
                       CheckContext& ctx) override;

    /** The definition this checker executes. */
    const CheckerDef& def() const { return def_; }

  private:
    const CheckerDef& def_;
};

/**
 * The shared definition of checker `name` (a Table 7 row) under
 * `options`, compiled on first use; nullptr for unknown names.
 * Thread-safe; the returned pointer stays valid for the process
 * lifetime.
 */
const CheckerDef* checkerDef(
    const std::string& name,
    const CheckerSetOptions& options = CheckerSetOptions());

/**
 * Instantiate all nine checkers of the paper's Table 7:
 * buffer_mgmt, msglen_check, lanes, wait_for_db, alloc_check,
 * dir_check, send_wait, exec_restrict, no_float.
 */
CheckerSet makeAllCheckers(
    const CheckerSetOptions& options = CheckerSetOptions());

/**
 * Instantiate one checker by its stable name (a Table 7 row): a cheap
 * `checkerDef(name, options)->instantiate()`. Returns nullptr for
 * unknown names.
 */
std::unique_ptr<Checker> makeChecker(
    const std::string& name,
    const CheckerSetOptions& options = CheckerSetOptions());

/** The nine checker names in Table 7 (= makeAllCheckers) order. */
const std::vector<std::string>& allCheckerNames();

/** Static per-checker metadata for the Table 7 reproduction. */
struct CheckerMeta
{
    /** Our checker name (Checker::name()). */
    std::string name;
    /** Row label used in the paper's Table 7. */
    std::string paper_label;
    /** Checker size reported in Table 7 (lines of metal). */
    int paper_loc;
    /** Errors reported in Table 7. */
    int paper_errors;
    /** False positives reported in Table 7. */
    int paper_false_pos;
};

/** Table 7 rows, in the paper's order. */
const std::vector<CheckerMeta>& table7Meta();

} // namespace mc::checkers

#endif // MCHECK_CHECKERS_REGISTRY_H
