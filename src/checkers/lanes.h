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
 * -1 and the pass analyzes no handler at all: the checker tallies lane
 * sends as summaries arrive, and with none it returns before building
 * the call graph.
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
        owned_.clear();
        lane_sends_ = 0;
    }

    /**
     * Append `other`'s summaries, preserving append order. Summaries are
     * never written after they are emitted, so absorbing a unit copies
     * pointers, not flow graphs, and takes no ownership: the absorbed
     * instance must outlive every read of them, up to releaseAbsorbed
     * (the unit pipeline's units and resident slots outlive its run).
     */
    void
    absorb(const Checker& other) override
    {
        Checker::absorb(other);
        const auto& o = static_cast<const LanesChecker&>(other);
        for (const global::FunctionSummary* summary : o.summaries_)
            summaries_.push_back(summary);
        lane_sends_ += o.lane_sends_;
    }

    /** Drop the absorbed summaries; keep this instance's own. After a
     *  unit pipeline run the master therefore holds none. */
    void releaseAbsorbed() override;

    bool hasRunState() const override { return !summaries_.empty(); }

    /** Sends on a known lane across the summaries this instance holds;
     *  with none, checkProgram has no handler to analyze. */
    std::size_t laneSends() const { return lane_sends_; }

    /**
     * Cache serialization: base state plus the emitted summaries in the
     * textual flow-graph format (the paper's emit-to-file pipeline doing
     * double duty as the cache encoding).
     */
    void saveState(std::ostream& os) const override;
    bool loadState(std::istream& is) override;

  private:
    /** Keep `summary`, emitted or loaded by this instance. */
    void own(global::FunctionSummary summary);

    /** Every summary this instance holds, its own and absorbed ones, in
     *  append order. */
    std::vector<const global::FunctionSummary*> summaries_;
    /** The summaries this instance emitted or loaded. */
    std::vector<std::unique_ptr<const global::FunctionSummary>> owned_;
    std::size_t lane_sends_ = 0;
};

} // namespace mc::checkers

#endif // MCHECK_CHECKERS_LANES_H
