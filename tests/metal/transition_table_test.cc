/**
 * @file
 * CompiledSm / TransitionTable unit tests, the completeness properties
 * of its two prefilters (couldMatchIds and the block-skip bits) over
 * real corpus functions, and the engine built on the table against the
 * memo-free path enumerator on one protocol with these tests' own
 * machines (path_enumerator_test.cc runs the shipped ones everywhere).
 */
#include "metal/transition_table.h"

#include "cfg/cfg.h"
#include "cfg/flat_cfg.h"
#include "checkers/registry.h"
#include "corpus/generator.h"
#include "lang/program.h"
#include "metal/engine.h"
#include "metal/metal_parser.h"
#include "tests/metal/reference_sm.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

namespace mc::metal {
namespace {

const char* kWaitForDb = R"metal(
sm wait_for_db {
    decl { scalar } addr, buf;
    start:
        { WAIT_FOR_DB_FULL(addr); } ==> stop
      | { MISCBUS_READ_DB(addr, buf); } ==>
            { err("Buffer not synchronized"); }
      ;
}
)metal";

const char* kMsgLen = R"metal(
sm msglen_check {
    pat zero_assign = { len = LEN_NODATA } ;
    pat nonzero_assign = { len = LEN_WORD } | { len = LEN_CACHELINE } ;
    decl { unsigned } keep;
    pat send_data = { PI_SEND(F_DATA, keep) } ;
    pat send_nodata = { PI_SEND(F_NODATA, keep) } ;
    all:
        zero_assign ==> zero_len
      | nonzero_assign ==> nonzero_len
      ;
    zero_len:
        send_data ==> { err("data send, zero len"); } ;
    nonzero_len:
        send_nodata ==> { err("nodata send, nonzero len"); } ;
}
)metal";

TEST(CompiledSm, StateIndexingIsStartStopFirst)
{
    MetalProgram mp = parseMetal(kWaitForDb);
    const CompiledSm& csm = mp.sm->compiled();
    EXPECT_EQ(csm.stateName(csm.start()), mp.sm->startState());
    EXPECT_EQ(csm.stateName(csm.stop()), StateMachine::kStop);
    EXPECT_NE(csm.start(), csm.stop());
    EXPECT_GE(csm.stateCount(), 2u);
}

TEST(CompiledSm, CompiledIsCachedPerMachine)
{
    MetalProgram mp = parseMetal(kWaitForDb);
    EXPECT_EQ(&mp.sm->compiled(), &mp.sm->compiled());
}

TEST(CompiledSm, CandidatesPreserveFirstMatchOrder)
{
    MetalProgram mp = parseMetal(kMsgLen);
    const CompiledSm& csm = mp.sm->compiled();
    // Every non-stop state's candidate list is its own rules followed by
    // the `all` rules, so a state with own rules lists them first.
    for (StateIdx s = 0; s < csm.stateCount(); ++s) {
        if (s == csm.stop())
            continue;
        const auto& own = mp.sm->rulesFor(csm.stateName(s));
        const auto& cands = csm.candidatesFor(s);
        ASSERT_GE(cands.size(), own.size());
        for (std::size_t i = 0; i < own.size(); ++i)
            EXPECT_EQ(cands[i].rule, &own[i]);
    }
}

TEST(CompiledSm, SymMaskAssignsDistinctBits)
{
    MetalProgram mp = parseMetal(kMsgLen);
    const CompiledSm& csm = mp.sm->compiled();
    std::set<std::uint64_t> bits;
    std::vector<support::SymbolId> syms;
    for (StateIdx s = 0; s < csm.stateCount(); ++s)
        for (const CompiledSm::Candidate& cand : csm.candidatesFor(s)) {
            syms.clear();
            if (!cand.rule->pattern.requiredSyms(syms))
                continue;
            for (support::SymbolId sym : syms) {
                std::uint64_t bit = csm.symMask(sym);
                ASSERT_NE(bit, 0u);
                // Power of two, and the same sym always the same bit.
                EXPECT_EQ(bit & (bit - 1), 0u);
                bits.insert(bit);
                EXPECT_EQ(csm.symMask(sym), bit);
            }
            // req_mask covers exactly its alternatives' bits.
            std::uint64_t want = 0;
            for (support::SymbolId sym : syms)
                want |= csm.symMask(sym);
            EXPECT_EQ(cand.req_mask, want);
        }
    EXPECT_FALSE(bits.empty());
    EXPECT_EQ(csm.symMask(support::kInvalidSymbol), 0u);
}

TEST(TransitionTable, CellMatchesAndTransitions)
{
    MetalProgram mp = parseMetal(kWaitForDb);
    lang::Program program;
    program.addSource("t.c",
                      "void f(void) { x = 1; WAIT_FOR_DB_FULL(a); }");
    cfg::Cfg cfg = cfg::CfgBuilder::build(*program.findFunction("f"));
    const CompiledSm& csm = mp.sm->compiled();
    TransitionTable table(csm, cfg);

    // Find the row of the first of the block's two statements.
    const cfg::FlatCfg& flat = cfg::flatCfg(cfg);
    int block = -1;
    for (const cfg::BasicBlock& bb : cfg.blocks())
        if (flat.stmts(bb.id).size() == 2)
            block = bb.id;
    ASSERT_NE(block, -1);
    const std::uint32_t row = flat.stmtBegin(block);

    const TransitionTable::Cell& miss = table.cell(row, csm.start());
    EXPECT_EQ(miss.rule, nullptr);
    EXPECT_EQ(miss.next, csm.start());

    const TransitionTable::Cell& hit = table.cell(row + 1, csm.start());
    ASSERT_NE(hit.rule, nullptr);
    EXPECT_EQ(hit.next, csm.stop());
    // The wildcard `addr` bound to the call argument.
    EXPECT_NE(table.bindings(hit).lookup("addr"), nullptr);
    // Idempotent: the same cell comes back ready.
    EXPECT_EQ(&table.cell(row + 1, csm.start()), &hit);
}

TEST(TransitionTable, StopStateCellsAreInert)
{
    MetalProgram mp = parseMetal(kWaitForDb);
    lang::Program program;
    program.addSource("t.c", "void f(void) { MISCBUS_READ_DB(a, b); }");
    cfg::Cfg cfg = cfg::CfgBuilder::build(*program.findFunction("f"));
    const CompiledSm& csm = mp.sm->compiled();
    TransitionTable table(csm, cfg);
    for (std::uint32_t row = 0; row < cfg::flatCfg(cfg).stmtCount(); ++row) {
        const TransitionTable::Cell& cell = table.cell(row, csm.stop());
        EXPECT_EQ(cell.rule, nullptr);
        EXPECT_EQ(cell.next, csm.stop());
    }
}

/** All rule patterns of both paper checkers. */
std::vector<const match::Pattern*>
allPatterns(const StateMachine& sm)
{
    std::vector<const match::Pattern*> out;
    for (const std::string& state : sm.states())
        for (const StateMachine::Rule& rule : sm.rulesFor(state))
            out.push_back(&rule.pattern);
    return out;
}

/**
 * Property: the prefilter never rejects a statement the full match
 * accepts — for every (statement, pattern) pair over a real protocol,
 * matchInStmt() success implies couldMatchIds(ids). Also: FlatCfg's
 * ident span and Pattern::collectIdents, an independent walk of the
 * statement, agree through the interner.
 */
TEST(TransitionTable, PrefilterNeverRejectsAMatch)
{
    corpus::LoadedProtocol loaded =
        corpus::loadProtocol(corpus::profileByName("sci"));
    MetalProgram wait = parseMetal(kWaitForDb);
    MetalProgram msg = parseMetal(kMsgLen);
    std::vector<const match::Pattern*> patterns = allPatterns(*wait.sm);
    for (const match::Pattern* p : allPatterns(*msg.sm))
        patterns.push_back(p);
    ASSERT_FALSE(patterns.empty());

    auto& interner = support::SymbolInterner::global();
    std::uint64_t stmts = 0, matches = 0;
    for (const lang::FunctionDecl* fn : loaded.program->functions()) {
        cfg::Cfg cfg = cfg::CfgBuilder::build(*fn);
        const cfg::FlatCfg& flat = cfg::flatCfg(cfg);
        for (std::uint32_t row = 0; row < flat.stmtCount(); ++row) {
            const lang::Stmt* stmt = flat.stmt(row);
            ++stmts;
            std::set<std::string> idents;
            match::Pattern::collectIdents(*stmt, idents);
            std::vector<support::SymbolId> ids(
                flat.identBegin(row),
                flat.identBegin(row) + flat.identCount(row));
            // The two collections are the same set of names.
            ASSERT_EQ(ids.size(), idents.size());
            for (support::SymbolId id : ids)
                EXPECT_TRUE(idents.count(std::string(interner.name(id))));
            for (const match::Pattern* pattern : patterns) {
                if (!pattern->matchInStmt(*stmt))
                    continue;
                ++matches;
                EXPECT_TRUE(pattern->couldMatchIds(ids));
            }
        }
    }
    // The property is vacuous unless the corpus actually exercised it.
    EXPECT_GT(stmts, 1000u);
    EXPECT_GT(matches, 0u);
}

/**
 * Differential over the two ways an SM is applied down every path: the
 * table engine, which caches (block, state) pairs, and the memo-free
 * path enumerator (reference_sm.h). With the test's own machines on
 * every function of a real protocol, they fire the same rules and
 * report the same number of findings; with correlated pruning on, the
 * engine fires no rule more often than the enumerator does.
 */
TEST(TransitionTable, StrategiesAgreeOnEveryCorpusFunction)
{
    corpus::LoadedProtocol loaded =
        corpus::loadProtocol(corpus::profileByName("bitvector"));
    MetalProgram wait = parseMetal(kWaitForDb);
    MetalProgram msg = parseMetal(kMsgLen);
    std::uint64_t firings = 0;
    for (const lang::FunctionDecl* fn : loaded.program->functions()) {
        cfg::Cfg cfg = cfg::CfgBuilder::build(*fn);
        for (StateMachine* sm : {wait.sm.get(), msg.sm.get()}) {
            support::DiagnosticSink ref_sink;
            reference::Result ref =
                reference::runEnumerated(*sm, cfg, ref_sink);
            ASSERT_TRUE(ref.covered) << fn->name;
            for (bool prune : {false, true}) {
                SmRunOptions options;
                options.prune_strategy =
                    prune ? PruneStrategy::Correlated : PruneStrategy::Off;
                support::DiagnosticSink table_sink;
                SmRunResult table =
                    runStateMachine(*sm, cfg, table_sink, options);
                if (!prune) {
                    ASSERT_EQ(table.firings, ref.firings) << fn->name;
                    ASSERT_EQ(table_sink.diagnostics().size(),
                              ref_sink.diagnostics().size())
                        << fn->name;
                    continue;
                }
                for (const auto& [rule, n] : table.firings)
                    ASSERT_LE(n, ref.firings[rule]) << fn->name;
            }
            for (const auto& [rule, n] : ref.firings)
                firings += static_cast<std::uint64_t>(n);
        }
    }
    EXPECT_GT(firings, 0u);
}

TEST(TransitionTable, BlockSkipNeverRejectsAMatch)
{
    // The block-range prefilter's exactness property, stated directly:
    // whenever blockSkippable(block, state) says "skip", no candidate
    // rule of that state may match any statement of that block. One
    // false skip would silently drop a diagnostic, so this sweeps every
    // (function, machine, state, block) combination of a full protocol.
    corpus::LoadedProtocol loaded =
        corpus::loadProtocol(corpus::profileByName("sci"));
    MetalProgram wait = parseMetal(kWaitForDb);
    MetalProgram msg = parseMetal(kMsgLen);

    std::uint64_t skipped = 0, scanned = 0;
    for (const lang::FunctionDecl* fn : loaded.program->functions()) {
        cfg::Cfg cfg = cfg::CfgBuilder::build(*fn);
        for (StateMachine* sm : {wait.sm.get(), msg.sm.get()}) {
            const CompiledSm& csm = sm->compiled();
            TransitionTable table(csm, cfg);
            const std::vector<cfg::BasicBlock>& blocks = cfg.blocks();
            for (StateIdx s = 0; s < csm.stateCount(); ++s) {
                for (std::size_t b = 0; b < blocks.size(); ++b) {
                    if (!table.blockSkippable(static_cast<int>(b), s)) {
                        ++scanned;
                        continue;
                    }
                    ++skipped;
                    for (const lang::Stmt* stmt :
                         cfg::flatCfg(cfg).stmts(b))
                        for (const CompiledSm::Candidate& cand :
                             csm.candidatesFor(s))
                            EXPECT_FALSE(
                                cand.rule->pattern.matchInStmt(*stmt))
                                << fn->name << " block " << b
                                << " state " << csm.stateName(s);
                }
            }
        }
    }
    // Vacuity guards: the sweep must have exercised both outcomes.
    EXPECT_GT(skipped, 0u);
    EXPECT_GT(scanned, 0u);
}

TEST(TransitionTable, CallTestBitsNeverRejectAMatch)
{
    // The same property for the shipped dir_check, whose C++ call tests
    // own mask bits of their own: a skipped block holds no row where a
    // candidate of the state, pattern or call test, matches.
    corpus::LoadedProtocol loaded =
        corpus::loadProtocol(corpus::profileByName("dyn_ptr"));
    const checkers::CheckerDef& def = *checkers::checkerDef("dir_check");
    const CompiledSm& csm = def.metal()->sm->compiled();
    ASSERT_EQ(csm.callTestCount(), 2u);

    std::uint64_t skipped = 0, scanned = 0, tested = 0;
    for (const lang::FunctionDecl* fn : loaded.program->functions()) {
        cfg::Cfg cfg = cfg::CfgBuilder::build(*fn);
        const cfg::FlatCfg& flat = cfg::flatCfg(cfg);
        std::vector<CallTest> tests;
        def.runOptions(cfg, loaded.gen.spec, tests);
        TransitionTable table(csm, cfg, tests);
        for (StateIdx s = 0; s < csm.stateCount(); ++s) {
            for (std::uint32_t b = 0; b < flat.blockCount(); ++b) {
                const bool skip =
                    table.blockSkippable(static_cast<int>(b), s);
                (skip ? skipped : scanned) += 1;
                for (std::uint32_t row = flat.stmtBegin(b);
                     row < flat.stmtEnd(b); ++row)
                    for (const CompiledSm::Candidate& cand :
                         csm.candidatesFor(s)) {
                        if (!reference::matchRow(*cand.rule, flat, row,
                                                 tests))
                            continue;
                        tested += cand.rule->call_test >= 0 ? 1 : 0;
                        EXPECT_FALSE(skip)
                            << fn->name << " block " << b << " state "
                            << csm.stateName(s);
                    }
            }
        }
    }
    EXPECT_GT(skipped, 0u);
    EXPECT_GT(scanned, 0u);
    EXPECT_GT(tested, 0u);
}

} // namespace
} // namespace mc::metal
