#include "checkers/buffer_alloc.h"

#include "flash/macros.h"
#include "metal/path_walker.h"

namespace mc::checkers {

using namespace mc::lang;
using flash::MacroKind;

namespace {

/** Walker state: the outstanding unchecked allocation variable, if any. */
struct AllocState
{
    std::string var;   // empty = nothing outstanding
    bool checked = true;

    std::string
    key() const
    {
        return var + (checked ? "#1" : "#0");
    }

    bool dead() const { return false; }
};

/** Name of the variable an `x = ALLOCATE_DB()` form assigns, or "". */
std::string_view
allocTarget(const Stmt& stmt)
{
    if (stmt.skind == StmtKind::Expr) {
        const Expr* e = static_cast<const ExprStmt&>(stmt).expr;
        if (e->ekind == ExprKind::Binary) {
            const auto& bin = static_cast<const BinaryExpr&>(*e);
            if (bin.op == BinaryOp::Assign &&
                bin.lhs->ekind == ExprKind::Ident &&
                flash::classifyCall(*bin.rhs) == MacroKind::AllocDb)
                return static_cast<const IdentExpr*>(bin.lhs)->name;
        }
    } else if (stmt.skind == StmtKind::Decl) {
        for (const VarDecl* v : static_cast<const DeclStmt&>(stmt).decls)
            if (v->init &&
                flash::classifyCall(*v->init) == MacroKind::AllocDb)
                return v->name;
    }
    return "";
}

/** True if `expr` mentions identifier `var` anywhere. */
bool
mentionsVar(const Expr& expr, const std::string& var)
{
    bool found = false;
    forEachSubExpr(expr, [&](const Expr& e) {
        if (e.ekind == ExprKind::Ident &&
            static_cast<const IdentExpr&>(e).name == var)
            found = true;
    });
    return found;
}

} // namespace

void
BufferAllocChecker::checkFunction(const FunctionDecl& fn,
                                  const cfg::Cfg& cfg, CheckContext& ctx)
{
    (void)fn;

    // Count allocation sites (Table 6's "Applied").
    for (const cfg::BasicBlock& bb : cfg.blocks()) {
        for (const Stmt* stmt : bb.stmts) {
            forEachTopLevelExpr(*stmt, [&](const Expr& top) {
                forEachSubExpr(top, [&](const Expr& e) {
                    if (flash::classifyCall(e) == MacroKind::AllocDb)
                        ++applied_;
                });
            });
        }
    }

    mc::metal::PathWalker<AllocState>::Hooks hooks;
    hooks.on_stmt = [&](AllocState& st, const Stmt& stmt) {
        std::string_view target = allocTarget(stmt);
        if (!target.empty()) {
            st.var = target;
            st.checked = false;
            return;
        }
        if (st.checked)
            return;

        // A branch condition mentioning the variable IS the failure
        // check; both edges count as checked (the walker's on_branch
        // hook fires after the whole block, so handle it here where the
        // branch statement is seen in order).
        switch (stmt.skind) {
          case StmtKind::If:
          case StmtKind::While:
          case StmtKind::DoWhile:
          case StmtKind::Switch:
          case StmtKind::For: {
            bool in_cond = false;
            forEachTopLevelExpr(stmt, [&](const Expr& e) {
                if (mentionsVar(e, st.var))
                    in_cond = true;
            });
            if (in_cond) {
                st.checked = true;
                return;
            }
            break;
          }
          default:
            break;
        }

        // Any use of the unchecked variable — including passing it to a
        // debug print — or any write into / send of the buffer is an
        // unchecked use.
        bool used = false;
        forEachTopLevelExpr(stmt, [&](const Expr& top) {
            if (mentionsVar(top, st.var))
                used = true;
            forEachSubExpr(top, [&](const Expr& e) {
                MacroKind kind = flash::classifyCall(e);
                if (kind == MacroKind::WriteDb || flash::isSend(kind))
                    used = true;
            });
        });
        if (used) {
            ctx.sink.error(stmt.loc, name(), "unchecked-alloc",
                           "buffer '" + st.var +
                               "' used before checking ALLOCATE_DB() "
                               "for failure");
            st.checked = true; // avoid cascading reports down this path
        }
    };
    hooks.on_branch = [](AllocState& st, const Expr& cond, std::size_t) {
        if (!st.checked && mentionsVar(cond, st.var))
            st.checked = true;
    };

    mc::metal::PathWalker<AllocState>::WalkOptions wopts;
    wopts.prune_strategy = prune_strategy_;
    mc::metal::PathWalker<AllocState> walker(std::move(hooks), wopts);
    walker.walk(cfg, AllocState{});
}

} // namespace mc::checkers
