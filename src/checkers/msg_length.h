#ifndef MCHECK_CHECKERS_MSG_LENGTH_H
#define MCHECK_CHECKERS_MSG_LENGTH_H

#include "checkers/checker.h"
#include "metal/feasibility.h"
#include "metal/state_machine.h"

namespace mc::checkers {

class CheckerDef;

/**
 * Message length / has-data consistency checker (paper Section 5,
 * Figure 3).
 *
 * Tracks the last assignment to the header length field along every path
 * and flags sends whose has-data parameter disagrees with it: data sends
 * with a zero length, no-data sends with a non-zero length. Sends seen
 * before any assignment are ignored (the SM starts in `all`).
 *
 * This checker found the most bugs in FLASH code (18 of the paper's 34).
 *
 * `applied()` counts consistency-check applications: sends seen while the
 * length value was known, plus length assignments tracked (Table 3).
 */
class MsgLengthChecker : public Checker
{
  public:
    /**
     * @param prune_strategy Path-feasibility pruning — the analysis
     * that would have removed the paper's two coma false positives
     * (Section 5 notes "the checker could have statically pruned the
     * impossible execution paths with a more elaborate analysis, but
     * the effort seemed unjustified"). Off by default to match the
     * paper's checker.
     */
    explicit MsgLengthChecker(
        metal::PruneStrategy prune_strategy = metal::PruneStrategy::Off);

    /**
     * Run `def`'s shared, already-compiled state machine. The
     * constructor above binds to checkerDef() under its prune strategy.
     */
    explicit MsgLengthChecker(const CheckerDef& def);

    std::string name() const override { return "msglen_check"; }

    void checkFunction(const lang::FunctionDecl& fn, const cfg::Cfg& cfg,
                       CheckContext& ctx) override;

    /** The metal source this checker executes. */
    static const char* metalSource();

    /** The state machine this checker runs, shared by every instance
     *  of its definition. */
    const metal::StateMachine& stateMachine() const { return sm_; }

  private:
    const metal::StateMachine& sm_;
    metal::PruneStrategy prune_strategy_ = metal::PruneStrategy::Off;
};

} // namespace mc::checkers

#endif // MCHECK_CHECKERS_MSG_LENGTH_H
