#include "cfg/flat_cfg.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace mc::cfg {

namespace {
/**
 * Lower one statement: append its identifier ids (unsorted) to `idents`
 * and its calls to `calls`, both in forEachTopLevelExpr/forEachSubExpr
 * pre-order. The assignment facts are pointer-exact: a call is the
 * direct lhs of `=` iff it is visited right after that `=` node, and a
 * target belongs only to the one call that is the whole right-hand side
 * of a statement-level `x = ...` or a declarator's initializer. Every
 * symbol comes from the AST, where the parser put it: lowering never
 * calls the interner.
 */
void
lowerStmt(const lang::Stmt& stmt, std::vector<support::SymbolId>& idents,
          std::vector<CallRow>& calls)
{
    using namespace lang;
    const Expr* assign_lhs = nullptr;
    const Expr* target_call = nullptr;
    support::SymbolId target = support::kInvalidSymbol;
    auto visit = [&](const Expr& e) {
        const Expr* lhs = std::exchange(assign_lhs, nullptr);
        if (e.ekind == ExprKind::Ident) {
            idents.push_back(identSymbol(static_cast<const IdentExpr&>(e)));
        } else if (e.ekind == ExprKind::Binary) {
            const auto& b = static_cast<const BinaryExpr&>(e);
            if (b.op == BinaryOp::Assign)
                assign_lhs = b.lhs;
        } else if (e.ekind == ExprKind::Call) {
            const auto& c = static_cast<const CallExpr&>(e);
            CallRow row;
            row.call = &c;
            if (c.callee && c.callee->ekind == ExprKind::Ident)
                row.callee =
                    identSymbol(static_cast<const IdentExpr&>(*c.callee));
            if (&e == target_call) {
                assert(target < CallRow::kNoTarget);
                row.assign_target = target;
            }
            row.assign_lhs = &e == lhs;
            calls.push_back(row);
        }
    };

    if (stmt.skind == StmtKind::Decl) {
        for (const VarDecl* v : static_cast<const DeclStmt&>(stmt).decls) {
            if (!v->init)
                continue;
            if (v->init->ekind == ExprKind::Call) {
                target_call = v->init;
                target = v->sym;
            }
            visitExprsFast(*v->init, visit);
        }
        return;
    }
    const Expr* e = stmt.skind == StmtKind::Expr
                        ? static_cast<const ExprStmt&>(stmt).expr
                        : nullptr;
    if (e && e->ekind == ExprKind::Binary) {
        const auto& b = static_cast<const BinaryExpr&>(*e);
        if (b.op == BinaryOp::Assign && b.lhs->ekind == ExprKind::Ident) {
            target_call = b.rhs;
            target = identSymbol(static_cast<const IdentExpr&>(*b.lhs));
        }
    }
    visitTopLevelExprsFast(
        stmt, [&](const Expr& top) { visitExprsFast(top, visit); });
}
} // namespace

FlatCfg::FlatCfg(
    std::uint32_t block_count,
    std::span<const std::pair<std::uint32_t, const lang::Stmt*>> appended)
{
    // A counting sort by block; stable, so each block keeps its
    // statements in append (= execution) order.
    stmt_offsets_.assign(block_count + 1, 0);
    for (const auto& [block, stmt] : appended)
        ++stmt_offsets_[block + 1];
    for (std::uint32_t b = 0; b < block_count; ++b)
        stmt_offsets_[b + 1] += stmt_offsets_[b];
    const std::uint32_t total = stmt_offsets_[block_count];
    stmts_.resize(total);
    std::vector<std::uint32_t> next(stmt_offsets_.begin(),
                                    stmt_offsets_.end() - 1);
    for (const auto& [block, stmt] : appended)
        stmts_[next[block]++] = stmt;

    // One pre-order pass per statement fills both of its spans: the
    // identifiers (appended, then made sorted unique in place) and the
    // calls.
    ident_offsets_.resize(total + 1);
    call_offsets_.resize(total + 1);
    for (std::uint32_t row = 0; row < total; ++row) {
        const std::size_t first = ident_ids_.size();
        ident_offsets_[row] = static_cast<std::uint32_t>(first);
        call_offsets_[row] = static_cast<std::uint32_t>(calls_.size());
        lowerStmt(*stmts_[row], ident_ids_, calls_);
        const auto span = ident_ids_.begin() +
                          static_cast<std::ptrdiff_t>(first);
        std::sort(span, ident_ids_.end());
        ident_ids_.erase(std::unique(span, ident_ids_.end()),
                         ident_ids_.end());
    }
    ident_offsets_[total] = static_cast<std::uint32_t>(ident_ids_.size());
    call_offsets_[total] = static_cast<std::uint32_t>(calls_.size());
}

bool
FlatCfg::mentions(std::uint32_t row, support::SymbolId sym) const
{
    const support::SymbolId* ids = identBegin(row);
    return std::binary_search(ids, ids + identCount(row), sym);
}

std::vector<std::uint8_t>
FlatCfg::maskBits(const std::vector<support::SymbolId>& sorted_syms)
{
    assert(sorted_syms.size() <= 64);
    std::vector<std::uint8_t> bits;
    if (sorted_syms.empty())
        return bits;
    bits.assign(std::size_t{sorted_syms.back()} + 1, kNoMaskBit);
    for (std::size_t i = 0; i < sorted_syms.size(); ++i)
        bits[sorted_syms[i]] = static_cast<std::uint8_t>(i);
    return bits;
}

} // namespace mc::cfg
