/**
 * @file
 * Witnesses that check themselves: a pure function over (CFG, witness)
 * that says whether a finding's recorded block path is a real path of
 * its function and its SM steps lie along it, run on every
 * witness-bearing finding of all six paper programs with the witness
 * cap at 1,048,576 so nothing is truncated.
 */
#include "cfg/cfg.h"
#include "checkers/parallel.h"
#include "checkers/registry.h"
#include "corpus/generator.h"
#include "lang/program.h"
#include "support/witness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace mc {
namespace {

/**
 * True if `loc` is a statement of block `b`, a call in one of them (a
 * rule reports at the call it matched), or the block's branch
 * condition.
 */
bool
inBlock(const cfg::Cfg& cfg, int b, const support::SourceLoc& loc)
{
    const cfg::BasicBlock& bb = cfg.block(b);
    if (bb.branch_cond && bb.branch_cond->loc == loc)
        return true;
    const cfg::FlatCfg& flat = cfg::flatCfg(cfg);
    for (std::uint32_t row = flat.stmtBegin(b); row < flat.stmtEnd(b);
         ++row) {
        if (flat.stmt(row)->loc == loc)
            return true;
        for (const cfg::CallRow& call : flat.calls(row))
            if (call.call->loc == loc)
                return true;
    }
    return false;
}

/** A pruned-edge note (path_walker.h), not a step of a state machine. */
bool
isPrunedNote(const support::WitnessStep& step)
{
    return step.from_state == "path" && step.to_state == "pruned";
}

/**
 * Why `witness` is not evidence for a finding at `finding` in `cfg`, or
 * "" if it is: its block list starts at the entry block, consecutive
 * blocks are joined by CFG edges, each step's location lies in a block
 * of the path at or after the previous step's, and the last SM step
 * (pruned-edge notes aside) is at the finding.
 */
std::string
checkWitness(const cfg::Cfg& cfg, const support::Witness& witness,
             const support::SourceLoc& finding)
{
    const std::vector<int>& blocks = witness.blocks;
    if (blocks.empty())
        return "no blocks";
    if (blocks.front() != cfg.entryId())
        return "starts at block " + std::to_string(blocks.front()) +
               ", not the entry block";
    for (int b : blocks)
        if (b < 0 || b >= cfg.blockCount())
            return "block " + std::to_string(b) + " is not in the CFG";
    for (std::size_t i = 1; i < blocks.size(); ++i) {
        const std::vector<int>& succs = cfg.block(blocks[i - 1]).succs;
        if (std::find(succs.begin(), succs.end(), blocks[i]) == succs.end())
            return "no edge " + std::to_string(blocks[i - 1]) + " -> " +
                   std::to_string(blocks[i]);
    }
    std::size_t at = 0;
    for (std::size_t s = 0; s < witness.steps.size(); ++s) {
        while (at < blocks.size() &&
               !inBlock(cfg, blocks[at], witness.steps[s].loc))
            ++at;
        if (at == blocks.size())
            return "step " + std::to_string(s) +
                   " is not in a block of the path after step " +
                   std::to_string(s) + "'s predecessor";
    }
    for (auto it = witness.steps.rbegin(); it != witness.steps.rend(); ++it)
        if (!isPrunedNote(*it))
            return it->loc == finding ? ""
                                      : "the last step is not at the finding";
    return "";
}

struct Built
{
    lang::Program program;
    cfg::Cfg cfg;
};

std::unique_ptr<Built>
build(const std::string& body)
{
    auto b = std::make_unique<Built>();
    b->program.addSource("t.c", "void f(void) {" + body + "}");
    b->cfg = cfg::CfgBuilder::build(*b->program.findFunction("f"));
    return b;
}

/** The location of the body's statement number `index` (entry block). */
support::SourceLoc
stmtLoc(const Built& b, std::size_t index)
{
    return b.program.findFunction("f")->body->stmts[index]->loc;
}

TEST(WitnessCheck, AcceptsAPathAndRejectsEachBrokenProperty)
{
    auto b = build("a(); if (c) { x(); } z();");
    const cfg::Cfg& cfg = b->cfg;
    // A real path: entry, then one arm of the branch, on to the exit.
    support::Witness good;
    int block = cfg.entryId();
    good.blocks.push_back(block);
    while (block != cfg.exitId()) {
        block = cfg.block(block).succs.front();
        good.blocks.push_back(block);
    }
    const support::SourceLoc first = stmtLoc(*b, 0);
    good.steps.push_back({"s", "s", first, "rule r"});
    EXPECT_EQ(checkWitness(cfg, good, first), "");

    support::Witness late_start = good;
    late_start.blocks.erase(late_start.blocks.begin());
    EXPECT_NE(checkWitness(cfg, late_start, first), "");

    support::Witness gap = good;
    ASSERT_GE(gap.blocks.size(), 2u);
    gap.blocks[1] = gap.blocks[0]; // the entry block has no self-edge
    EXPECT_NE(checkWitness(cfg, gap, first), "");

    support::Witness off_path = good;
    off_path.steps.front().loc.line += 100;
    EXPECT_NE(checkWitness(cfg, off_path, off_path.steps.front().loc), "");

    support::Witness out_of_order = good;
    const support::SourceLoc last = stmtLoc(*b, 2);
    out_of_order.steps.insert(out_of_order.steps.begin(),
                              {"s", "s", last, "rule r"});
    EXPECT_NE(checkWitness(cfg, out_of_order, first), "");

    EXPECT_NE(checkWitness(cfg, good, last), "");
}

class WitnessCheckProgram : public ::testing::TestWithParam<const char*>
{
  protected:
    void TearDown() override { support::setWitnessConfig(false, 0); }
};

TEST_P(WitnessCheckProgram, EveryWitnessIsAPathOfItsFunction)
{
    corpus::LoadedProtocol loaded =
        corpus::loadProtocol(corpus::profileByName(GetParam()));
    // A finding belongs to the last function that starts before it in
    // its file.
    const std::vector<const lang::FunctionDecl*>& functions =
        loaded.program->functions();
    std::vector<cfg::Cfg> cfgs;
    std::map<support::SourceLoc, std::size_t> starts;
    for (std::size_t i = 0; i < functions.size(); ++i) {
        cfgs.push_back(cfg::CfgBuilder::build(*functions[i]));
        starts.emplace(functions[i]->loc, i);
    }

    support::setWitnessConfig(true, 1u << 20);
    for (metal::PruneStrategy prune :
         {metal::PruneStrategy::Off, metal::PruneStrategy::Constraints}) {
        checkers::CheckerSetOptions set_options;
        set_options.prune_strategy = prune;
        auto set = checkers::makeAllCheckers(set_options);
        support::DiagnosticSink sink;
        checkers::runCheckersParallel(*loaded.program, loaded.gen.spec,
                                      set.pointers(), sink,
                                      checkers::ParallelRunOptions());
        std::size_t checked = 0;
        for (const support::Diagnostic& d : sink.diagnostics()) {
            const std::string where = d.checker + "/" + d.rule + " " +
                                      metal::pruneStrategyName(prune);
            EXPECT_FALSE(d.witness.truncated) << where;
            if (d.witness.blocks.empty()) {
                // Reported outside any walk: one structural step at the
                // finding stands in for the path.
                ASSERT_EQ(d.witness.steps.size(), 1u) << where;
                EXPECT_EQ(d.witness.steps[0].from_state, "decl") << where;
                EXPECT_TRUE(d.witness.steps[0].loc == d.loc) << where;
                continue;
            }
            auto it = starts.upper_bound(d.loc);
            ASSERT_NE(it, starts.begin()) << where;
            --it;
            ASSERT_EQ(it->first.file_id, d.loc.file_id)
                << where << ": the finding is in no function";
            EXPECT_EQ(checkWitness(cfgs[it->second], d.witness, d.loc), "")
                << where << " in " << functions[it->second]->name;
            // A metal finding's own firing is a step, so the last-step
            // property is never vacuous for it. For the two ported
            // checkers, whose end-of-path rules report at a remembered
            // location, the last step also names the reporting rule.
            if (d.checker == "wait_for_db" || d.checker == "msglen_check" ||
                d.checker == "send_wait" || d.checker == "dir_check") {
                EXPECT_FALSE(d.witness.steps.empty()) << where;
            }
            if (d.checker == "send_wait" || d.checker == "dir_check") {
                auto last = std::find_if(
                    d.witness.steps.rbegin(), d.witness.steps.rend(),
                    [](const support::WitnessStep& step) {
                        return !isPrunedNote(step);
                    });
                ASSERT_NE(last, d.witness.steps.rend()) << where;
                const std::string rule = "rule " + d.rule;
                EXPECT_TRUE(last->note == rule ||
                            last->note.rfind(rule + ",", 0) == 0)
                    << where << ": last step '" << last->note << "'";
            }
            ++checked;
        }
        // Vacuity guard: the programs' seeded findings carry paths.
        if (std::string(GetParam()) != "common") {
            EXPECT_GT(checked, 0u) << metal::pruneStrategyName(prune);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Programs, WitnessCheckProgram,
                         ::testing::Values("bitvector", "dyn_ptr", "sci",
                                           "coma", "rac", "common"));

} // namespace
} // namespace mc
