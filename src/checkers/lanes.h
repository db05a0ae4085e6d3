#ifndef MCHECK_CHECKERS_LANES_H
#define MCHECK_CHECKERS_LANES_H

#include "checkers/checker.h"
#include "global/flowgraph.h"

#include <memory>
#include <string>
#include <vector>

namespace mc::checkers {

/**
 * Network-lane deadlock-avoidance checker (paper Section 7) — the
 * inter-procedural one.
 *
 * FLASH only runs a handler when its statically-declared per-lane send
 * allowance is available; sending beyond the allowance without an
 * explicit WAIT_FOR_SPACE() can deadlock the machine.
 *
 * Two passes, exactly as in the paper: the local pass (checkFunction)
 * walks each function and emits a flow-graph summary annotating every
 * NI_SEND with its lane (from the protocol spec's opcode table) and every
 * WAIT_FOR_SPACE with the lane it drains; the global pass (checkProgram)
 * links the summaries into a call graph and, for every handler, computes
 * the maximum sends per lane any inter-procedural path can perform,
 * using the fixed-point rule for cycles. Sends exceeding the allowance
 * are reported with a full inter-procedural back-trace.
 *
 * The global pass analyzes only the handlers whose call cone holds a send
 * on a lane (global::CallGraph::sendsOnLane); in every other cone each
 * count stays zero, so the analysis provably finds nothing there. Files
 * mode has no opcode-to-lane table, so every send it summarizes has lane
 * -1 and the pass analyzes no handler at all.
 */
class LanesChecker : public Checker
{
  public:
    std::string name() const override { return "lanes"; }

    void checkFunction(const lang::FunctionDecl& fn, const cfg::Cfg& cfg,
                       CheckContext& ctx) override;

    void checkProgram(CheckContext& ctx) override;

    /**
     * The handlers checkProgram analyzes, in spec order: each hardware
     * or software handler of `spec` whose call cone over the emitted
     * summaries holds a lane send.
     */
    std::vector<std::string>
    analyzedHandlers(const flash::ProtocolSpec& spec) const;

    void
    reset() override
    {
        Checker::reset();
        summaries_.clear();
    }

    /**
     * Append `other`'s emitted summaries, preserving append order. The
     * summaries are shared and never written after they are emitted, so
     * absorbing a unit copies pointers, not flow graphs.
     */
    void
    absorb(const Checker& other) override
    {
        Checker::absorb(other);
        if (auto* o = dynamic_cast<const LanesChecker*>(&other))
            summaries_.insert(summaries_.end(), o->summaries_.begin(),
                              o->summaries_.end());
    }

    /**
     * Cache serialization: base state plus the emitted summaries in the
     * textual flow-graph format (the paper's emit-to-file pipeline doing
     * double duty as the cache encoding).
     */
    void saveState(std::ostream& os) const override;
    bool loadState(std::istream& is) override;

  private:
    /** Every emitted summary, in append order. */
    std::vector<const global::FunctionSummary*> linked() const;

    std::vector<std::shared_ptr<const global::FunctionSummary>> summaries_;
};

} // namespace mc::checkers

#endif // MCHECK_CHECKERS_LANES_H
