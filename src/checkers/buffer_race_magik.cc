#include "checkers/buffer_race_magik.h"

#include <set>

namespace mc::checkers {

using namespace mc::lang;

namespace {

/** Manually recognize a call to one of the interesting macros. */
enum class Op : std::uint8_t { None, Wait, Read };

Op
classify(const Expr& expr)
{
    if (expr.ekind != ExprKind::Call)
        return Op::None;
    const auto& call = static_cast<const CallExpr&>(expr);
    if (call.callee->ekind != ExprKind::Ident)
        return Op::None;
    std::string_view callee = static_cast<const IdentExpr*>(call.callee)->name;
    if (callee == "WAIT_FOR_DB_FULL")
        return Op::Wait;
    if (callee == "MISCBUS_READ_DB" || callee == "MISCBUS_READ_DB_OLD")
        return Op::Read;
    return Op::None;
}

/** Manual pre-order walk over an expression tree. */
void
walkExpr(const Expr& expr, std::vector<const Expr*>& out)
{
    out.push_back(&expr);
    forEachChildExpr(expr,
                     [&](const Expr& child) { walkExpr(child, out); });
}

/** All macro operations inside one statement, in evaluation order. */
std::vector<std::pair<Op, const Expr*>>
opsInStatement(const Stmt& stmt)
{
    std::vector<std::pair<Op, const Expr*>> ops;
    forEachTopLevelExpr(stmt, [&](const Expr& top) {
        std::vector<const Expr*> nodes;
        walkExpr(top, nodes);
        for (const Expr* node : nodes) {
            Op op = classify(*node);
            if (op != Op::None)
                ops.emplace_back(op, node);
        }
    });
    return ops;
}

/**
 * Recursive flow-graph search: from `block` with synchronization state
 * `synced`, flag every read reachable before a wait. The visited set is
 * on (block, synced) pairs, the hand-written analogue of the SM engine's
 * cache.
 */
void
search(const cfg::Cfg& cfg, int block_id, bool synced,
       std::set<std::pair<int, bool>>& visited, CheckContext& ctx,
       const std::string& checker_name)
{
    if (!visited.emplace(block_id, synced).second)
        return;
    const cfg::BasicBlock& bb = cfg.block(block_id);
    for (const Stmt* stmt : bb.stmts) {
        if (synced)
            break; // nothing further to check on this path
        for (const auto& [op, expr] : opsInStatement(*stmt)) {
            if (op == Op::Wait) {
                synced = true;
                break;
            }
            ctx.sink.error(stmt->loc, checker_name,
                           "buffer-not-synchronized",
                           "Buffer not synchronized");
        }
    }
    if (synced)
        return; // the metal `stop` state
    for (int succ : bb.succs)
        search(cfg, succ, synced, visited, ctx, checker_name);
}

} // namespace

void
BufferRaceMagikChecker::checkFunction(const FunctionDecl& fn,
                                      const cfg::Cfg& cfg,
                                      CheckContext& ctx)
{
    (void)fn;
    std::set<std::pair<int, bool>> visited;
    search(cfg, cfg.entryId(), false, visited, ctx, name());

    for (const cfg::BasicBlock& bb : cfg.blocks())
        for (const Stmt* stmt : bb.stmts)
            for (const auto& [op, expr] : opsInStatement(*stmt))
                if (op == Op::Read)
                    ++applied_;
}

} // namespace mc::checkers
