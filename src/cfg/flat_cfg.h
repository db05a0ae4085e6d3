#ifndef MCHECK_CFG_FLAT_CFG_H
#define MCHECK_CFG_FLAT_CFG_H

#include "lang/ast.h"
#include "support/interner.h"

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace mc::cfg {

/**
 * One call site of a statement row, lowered once per function so no
 * checker re-walks the AST to find it. Holds only syntax: what the
 * callee means (a FLASH macro, a protocol routine) is the reader's
 * business, so this layer stays free of any protocol vocabulary.
 */
struct CallRow
{
    /** `assign_target` value meaning "no target". */
    static constexpr std::uint32_t kNoTarget = 0x7FFFFFFFu;

    const lang::CallExpr* call = nullptr;
    /** Interned callee name; kInvalidSymbol when the callee is not a
     *  plain identifier. */
    support::SymbolId callee = support::kInvalidSymbol;
    /** The identifier a statement-level `x = call(...)` or a
     *  `T x = call(...)` declarator assigns (see target()). */
    std::uint32_t assign_target : 31 = kNoTarget;
    /** True when the call is the direct left operand of `=`
     *  (`HANDLER_GLOBALS(f) = v`). */
    std::uint32_t assign_lhs : 1 = 0;

    /** assign_target as a symbol, kInvalidSymbol when there is none. */
    support::SymbolId
    target() const
    {
        return assign_target == kNoTarget ? support::kInvalidSymbol
                                          : assign_target;
    }
};
static_assert(sizeof(CallRow) <= 16, "call rows stay two words");

/**
 * The statement rows of one Cfg: the lowering pass behind the
 * data-oriented engine core.
 *
 * CfgBuilder::build lowers each function's statements once, at the end
 * of the build, into contiguous POD arrays that the Cfg owns, so the
 * walker's hot loop never chases per-block vectors and no identifier
 * prefilter re-scans an AST subtree:
 *
 *   - `stmt_offsets_` — prefix sums over block statement counts, so a
 *     (block, pos) pair addresses a dense statement row without any
 *     per-block vector indirection; row order is block order.
 *   - `stmts_` — the statement pointers themselves, flat; a block's
 *     statements are the span stmts(b).
 *   - `ident_offsets_` / `ident_ids_` — each row's sorted-unique
 *     interned identifier ids stored inline as a span, so an
 *     identifier AST scan becomes a precomputed slice lookup.
 *   - `call_offsets_` / `calls_` — each row's call sites (CallRow) in
 *     the pre-order forEachTopLevelExpr/forEachSubExpr visit, built in
 *     the same pass as the ident spans. The hand-written checkers read
 *     their call events from these rows.
 *
 * A TransitionTable folds the ident spans into 64-bit prefilter masks
 * for one state machine's required identifiers (maskBits), block by
 * block as its walk reaches them.
 *
 * Immutable after construction, so it needs no lock and is safe to
 * share across checker lanes like the Cfg that owns it.
 */
class FlatCfg
{
  public:
    /** No blocks and no rows (a default-constructed Cfg's). */
    FlatCfg() = default;

    /**
     * Lower a function of `block_count` blocks from its (block,
     * statement) pairs in the order they were appended: blocks may
     * interleave, but each block's statements come in execution order.
     */
    FlatCfg(std::uint32_t block_count,
            std::span<const std::pair<std::uint32_t, const lang::Stmt*>>
                appended);

    std::uint32_t blockCount() const
    {
        return static_cast<std::uint32_t>(stmt_offsets_.size() - 1);
    }
    std::uint32_t stmtCount() const
    {
        return static_cast<std::uint32_t>(stmts_.size());
    }

    /** Row index of block `b`'s first statement. */
    std::uint32_t stmtBegin(std::uint32_t b) const
    {
        return stmt_offsets_[b];
    }
    /** One past block `b`'s last statement row. */
    std::uint32_t stmtEnd(std::uint32_t b) const
    {
        return stmt_offsets_[b + 1];
    }
    const lang::Stmt* stmt(std::uint32_t row) const { return stmts_[row]; }
    /** Block `b`'s statements, in execution order. */
    std::span<const lang::Stmt* const> stmts(std::uint32_t b) const
    {
        return {stmts_.data() + stmtBegin(b), stmts_.data() + stmtEnd(b)};
    }

    /** Row `row`'s sorted-unique interned identifier ids, inline. */
    const support::SymbolId* identBegin(std::uint32_t row) const
    {
        return ident_ids_.data() + ident_offsets_[row];
    }
    std::uint32_t identCount(std::uint32_t row) const
    {
        return ident_offsets_[row + 1] - ident_offsets_[row];
    }

    /** True if row `row`'s expressions mention identifier `sym`. */
    bool mentions(std::uint32_t row, support::SymbolId sym) const;

    /** Row `row`'s call sites, in pre-order. */
    std::span<const CallRow> calls(std::uint32_t row) const
    {
        return {calls_.data() + call_offsets_[row],
                calls_.data() + call_offsets_[row + 1]};
    }
    /** Every call site of the function, row by row. */
    std::span<const CallRow> calls() const { return calls_; }

    /** A symbol without a mask bit in a MaskBits table. */
    static constexpr std::uint8_t kNoMaskBit = 0xFF;

    /**
     * The mask bit of each symbol, indexed by SymbolId: bit i for
     * `sorted_syms[i]`, kNoMaskBit for every other id up to the largest
     * of them. Ids past the table's end have no bit either, so it is as
     * long as the largest id of the set, not the interner. A
     * TransitionTable folds each row's identifiers through it into the
     * row's prefilter mask.
     */
    static std::vector<std::uint8_t>
    maskBits(const std::vector<support::SymbolId>& sorted_syms);

  private:
    std::vector<std::uint32_t> stmt_offsets_ = {0};
    std::vector<const lang::Stmt*> stmts_;
    std::vector<std::uint32_t> ident_offsets_ = {0};
    std::vector<support::SymbolId> ident_ids_;
    std::vector<std::uint32_t> call_offsets_ = {0};
    std::vector<CallRow> calls_;
};

} // namespace mc::cfg

#endif // MCHECK_CFG_FLAT_CFG_H
