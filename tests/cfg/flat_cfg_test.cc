#include "cfg/cfg.h"
#include "cfg/flat_cfg.h"
#include "checkers/metal_sources.h"
#include "corpus/generator.h"
#include "corpus/profile.h"
#include "lang/ast.h"
#include "lang/program.h"
#include "metal/metal_parser.h"
#include "metal/transition_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace mc::cfg {
namespace {

/**
 * Structural equality between the pointer CFG and its arena-flattened
 * view: same blocks in the same order, same statements in the same
 * order, and per-statement identifier spans identical to the AST scan.
 * This is the property the whole data-oriented core rests on — every
 * (block, pos) cell address and every mask bit is derived from this
 * layout, so any drift here silently corrupts prefiltering.
 */
void
expectFlatMatchesPointerCfg(const Cfg& cfg)
{
    const FlatCfg& flat = flatCfg(cfg);
    const std::vector<BasicBlock>& blocks = cfg.blocks();
    ASSERT_EQ(flat.blockCount(), blocks.size());

    std::uint32_t expect_row = 0;
    for (std::uint32_t b = 0; b < blocks.size(); ++b) {
        const BasicBlock& bb = blocks[b];
        // Row spans are exactly the prefix sums of block sizes, in
        // block order: no gaps, no overlap, no reordering.
        ASSERT_EQ(flat.stmtBegin(b), expect_row);
        ASSERT_EQ(flat.stmtEnd(b) - flat.stmtBegin(b), bb.stmts.size());
        expect_row = flat.stmtEnd(b);
        for (std::size_t pos = 0; pos < bb.stmts.size(); ++pos) {
            const std::uint32_t row =
                flat.stmtBegin(b) + static_cast<std::uint32_t>(pos);
            // Statement order round-trips pointer-identically.
            ASSERT_EQ(flat.stmt(row), bb.stmts[pos]);

            // The inline ident span equals a fresh AST scan (sorted
            // unique).
            std::vector<support::SymbolId> fresh;
            lang::collectStmtIdentIds(*bb.stmts[pos], fresh);
            std::vector<support::SymbolId> span(
                flat.identBegin(row),
                flat.identBegin(row) + flat.identCount(row));
            ASSERT_EQ(span, fresh);
            ASSERT_TRUE(std::is_sorted(span.begin(), span.end()));
            ASSERT_TRUE(std::adjacent_find(span.begin(), span.end()) ==
                        span.end());
        }
    }
    ASSERT_EQ(flat.stmtCount(), expect_row);
}

TEST(FlatCfgProperty, RoundTripsEveryFunctionOfTheFullCorpus)
{
    for (const corpus::ProtocolProfile& profile : corpus::paperProfiles()) {
        corpus::LoadedProtocol loaded = corpus::loadProtocol(profile);
        for (const lang::FunctionDecl* fn : loaded.program->functions()) {
            Cfg cfg = CfgBuilder::build(*fn);
            expectFlatMatchesPointerCfg(cfg);
        }
    }
}

TEST(FlatCfgProperty, RoundTripsAcrossGeneratorSeeds)
{
    // Property harness: re-seed the generator so the lowering pass sees
    // structurally different programs than the fixed paper corpus.
    corpus::ProtocolProfile profile = corpus::profileByName("bitvector");
    for (std::uint64_t seed : {7u, 1234u, 999983u}) {
        profile.seed = seed;
        corpus::LoadedProtocol loaded = corpus::loadProtocol(profile);
        for (const lang::FunctionDecl* fn : loaded.program->functions()) {
            Cfg cfg = CfgBuilder::build(*fn);
            expectFlatMatchesPointerCfg(cfg);
        }
    }
}

TEST(FlatCfgProperty, MaskIndexIsTheUnionHierarchyOfStatementMasks)
{
    metal::MetalProgram wait =
        metal::parseMetal(checkers::kWaitForDbMetal);
    const metal::CompiledSm& csm = wait.sm->compiled();
    const std::vector<support::SymbolId>& syms = csm.maskSyms();
    ASSERT_FALSE(syms.empty());

    corpus::LoadedProtocol loaded =
        corpus::loadProtocol(corpus::profileByName("sci"));
    for (const lang::FunctionDecl* fn : loaded.program->functions()) {
        Cfg cfg = CfgBuilder::build(*fn);
        const FlatCfg& flat = flatCfg(cfg);
        const FlatCfg::MaskIndex& index = flat.maskIndex(syms);
        ASSERT_EQ(index.stmt_mask.size(), flat.stmtCount());
        ASSERT_EQ(index.block_mask.size(), flat.blockCount());
        ASSERT_EQ(index.range_mask.size(), flat.rangeCount());

        // Statement masks: bit i set iff the row mentions syms[i].
        for (std::uint32_t row = 0; row < flat.stmtCount(); ++row) {
            std::set<support::SymbolId> mentioned(
                flat.identBegin(row),
                flat.identBegin(row) + flat.identCount(row));
            std::uint64_t expect = 0;
            for (std::size_t i = 0; i < syms.size(); ++i)
                if (mentioned.count(syms[i]))
                    expect |= std::uint64_t{1} << i;
            ASSERT_EQ(index.stmt_mask[row], expect);
        }
        // Block masks are pure ORs of their statements; range masks
        // pure ORs of their 64-block granule — never a heuristic.
        std::vector<std::uint64_t> range_expect(flat.rangeCount(), 0);
        for (std::uint32_t b = 0; b < flat.blockCount(); ++b) {
            std::uint64_t expect = 0;
            for (std::uint32_t row = flat.stmtBegin(b);
                 row < flat.stmtEnd(b); ++row)
                expect |= index.stmt_mask[row];
            ASSERT_EQ(index.block_mask[b], expect);
            range_expect[b >> FlatCfg::kRangeShift] |= expect;
        }
        for (std::uint32_t w = 0; w < flat.rangeCount(); ++w)
            ASSERT_EQ(index.range_mask[w], range_expect[w]);

        // The cache hands back the same index for the same symbol set.
        ASSERT_EQ(&flat.maskIndex(syms), &index);
    }
}

TEST(FlatCfgProperty, ArenaIdsAreProcessUniqueAndStable)
{
    corpus::LoadedProtocol loaded =
        corpus::loadProtocol(corpus::profileByName("bitvector"));
    std::vector<Cfg> cfgs;
    for (const lang::FunctionDecl* fn : loaded.program->functions())
        cfgs.push_back(CfgBuilder::build(*fn));
    ASSERT_GE(cfgs.size(), 2u);

    std::set<std::uint64_t> ids;
    for (const Cfg& cfg : cfgs) {
        const FlatCfg& flat = flatCfg(cfg);
        // Stable: the lazily installed arena is built once per Cfg.
        ASSERT_EQ(&flatCfg(cfg), &flat);
        ASSERT_EQ(flatCfg(cfg).id(), flat.id());
        ids.insert(flat.id());
    }
    // Unique: distinct arenas never share an id (the memo-key contract).
    ASSERT_EQ(ids.size(), cfgs.size());
}

} // namespace
} // namespace mc::cfg
