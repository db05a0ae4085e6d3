#include "checkers/no_float.h"

namespace mc::checkers {

using namespace mc::lang;

void
NoFloatChecker::checkFunction(const FunctionDecl& fn, const cfg::Cfg& cfg,
                              CheckContext& ctx)
{
    (void)cfg;
    const TypeTable& types = ctx.program.ctx().types();

    auto check_expr = [&](const Expr& e) {
        ++applied_;
        bool floating = e.ekind == ExprKind::FloatLit ||
                        types.isFloating(e.type);
        if (floating) {
            ctx.sink.error(e.loc, name(), "float-op",
                           "floating point operation in protocol code: " +
                               exprToString(e));
        }
    };

    if (types.isFloating(fn.return_type))
        ctx.sink.error(fn.loc, name(), "float-return",
                       "handler returns a floating point value");
    for (const ParamDecl* p : fn.params)
        if (types.isFloating(p->type))
            ctx.sink.error(p->loc, name(), "float-param",
                           "floating point parameter '" +
                               std::string(p->name) + "'");

    visitStmtsFast(*fn.body, [&](const Stmt& stmt) {
        if (stmt.skind == StmtKind::Decl) {
            for (const VarDecl* v :
                 static_cast<const DeclStmt&>(stmt).decls) {
                if (types.isFloating(v->type))
                    ctx.sink.error(v->loc, name(), "float-var",
                                   "floating point variable '" +
                                       std::string(v->name) + "'");
            }
        }
        visitTopLevelExprsFast(stmt, [&](const Expr& top) {
            visitExprsFast(top, check_expr);
        });
    });
}

} // namespace mc::checkers
