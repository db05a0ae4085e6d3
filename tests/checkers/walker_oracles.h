#ifndef MCHECK_TESTS_CHECKERS_WALKER_ORACLES_H
#define MCHECK_TESTS_CHECKERS_WALKER_ORACLES_H

/**
 * @file
 * The hand-driven PathWalker versions of send_wait and dir_check, kept
 * as test-only oracles for the metal definitions that replaced them
 * (src/checkers/metal/send_wait.metal, dir_check.metal). They share the
 * walker with the engine but no transition table, pattern or rule, so
 * walker_oracle_test.cc can hold the port to the findings these classes
 * always gave. Scheduled for deletion once the port has shipped for a
 * release (ROADMAP.md).
 *
 * Two changes from the shipped walkers: the path's remembered location
 * (the pending send, the last modification) is part of the visited key
 * whenever an end-of-path report could read it, so the memo is exact;
 * and applied() counts distinct call sites, as Checker::applied
 * documents, where the shipped walkers counted one per visit, which
 * grew with the path facts under --prune-paths.
 */
#include "checkers/checker.h"
#include "metal/feasibility.h"

namespace mc::checkers::oracle {

/**
 * Send-wait pairing (paper Section 9, "Send-wait errors"): a send with
 * F_WAIT must be followed, on every path, by the wait on the same
 * interface, with no other send in between.
 */
class SendWaitChecker : public Checker
{
  public:
    explicit SendWaitChecker(
        metal::PruneStrategy prune_strategy = metal::PruneStrategy::Off)
        : prune_strategy_(prune_strategy)
    {}

    std::string name() const override { return "send_wait"; }

    void checkFunction(const lang::FunctionDecl& fn, const cfg::Cfg& cfg,
                       CheckContext& ctx) override;

  private:
    metal::PruneStrategy prune_strategy_ = metal::PruneStrategy::Off;
};

/**
 * Directory-entry management (paper Section 9, "Manual directory entry
 * updates"): load before use, write a modified entry back before the
 * handler exits, unless the path sent a NAK or the function carries the
 * expects_dir_writeback() annotation.
 */
class DirectoryChecker : public Checker
{
  public:
    explicit DirectoryChecker(
        metal::PruneStrategy prune_strategy = metal::PruneStrategy::Off)
        : prune_strategy_(prune_strategy)
    {}

    std::string name() const override { return "dir_check"; }

    void checkFunction(const lang::FunctionDecl& fn, const cfg::Cfg& cfg,
                       CheckContext& ctx) override;

  private:
    metal::PruneStrategy prune_strategy_ = metal::PruneStrategy::Off;
};

} // namespace mc::checkers::oracle

#endif // MCHECK_TESTS_CHECKERS_WALKER_ORACLES_H
