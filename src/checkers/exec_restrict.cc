#include "checkers/exec_restrict.h"

#include "cfg/flat_cfg.h"
#include "flash/macros.h"

namespace mc::checkers {

using namespace mc::lang;
using flash::HandlerKind;
using flash::MacroKind;

namespace {

/** The macro kind of a statement that is exactly `MACRO();`. */
MacroKind
stmtMacroKind(const Stmt& stmt)
{
    const CallExpr* call = stmtAsCall(stmt);
    return call ? flash::classifyCall(*call) : MacroKind::None;
}

/** True if `stmt` is a call statement to a protocol-defined function. */
bool
isProtocolCallStmt(const Stmt& stmt, CheckContext& ctx)
{
    const CallExpr* call = stmtAsCall(stmt);
    if (!call || flash::classifyCall(*call) != MacroKind::None)
        return false;
    std::string_view name = call->calleeName();
    if (name.empty())
        return false;
    return ctx.program.findFunction(name) != nullptr ||
           ctx.spec.handler(name) != nullptr;
}

} // namespace

void
ExecRestrictChecker::checkSignature(const FunctionDecl& fn,
                                    CheckContext& ctx)
{
    const TypeTable& types = ctx.program.ctx().types();
    if (types.type(fn.return_type).kind != TypeKind::Void)
        ctx.sink.error(fn.loc, name(), "handler-returns-value",
                       "handler '" + std::string(fn.name) +
                           "' must have void return type");
    if (!fn.params.empty())
        ctx.sink.error(fn.loc, name(), "handler-takes-params",
                       "handler '" + std::string(fn.name) +
                           "' must take no parameters");
}

void
ExecRestrictChecker::checkHooks(const FunctionDecl& fn, CheckContext& ctx)
{
    HandlerKind kind = ctx.spec.kindOf(fn.name);

    // The paper's checker "automatically constructs a list of all
    // hardware handlers and software handlers by extracting the former
    // from the protocol specification and the latter from the protocol
    // code": a routine that opens with the software-handler hook is a
    // software handler even if the spec does not list it.
    if (kind == HandlerKind::Normal && !fn.body->stmts.empty() &&
        stmtMacroKind(*fn.body->stmts.front()) ==
            MacroKind::SwHandlerDefs)
        kind = HandlerKind::Software;

    // Collect leading statements, skipping the NO_STACK annotation which
    // may lawfully precede the hooks.
    std::vector<const Stmt*> lead;
    for (const Stmt* stmt : fn.body->stmts) {
        if (stmtMacroKind(*stmt) == MacroKind::NoStack)
            continue;
        lead.push_back(stmt);
        if (lead.size() >= 2)
            break;
    }

    auto leadKind = [&](std::size_t i) {
        return i < lead.size() ? stmtMacroKind(*lead[i]) : MacroKind::None;
    };

    switch (kind) {
      case HandlerKind::Hardware:
        if (leadKind(0) != MacroKind::HandlerDefs)
            ctx.sink.error(fn.loc, name(), "missing-hook",
                           "handler '" + std::string(fn.name) +
                               "' must begin with HANDLER_DEFS()");
        else if (leadKind(1) != MacroKind::HandlerPrologue)
            ctx.sink.error(fn.loc, name(), "missing-hook",
                           "handler '" + std::string(fn.name) +
                               "' must call HANDLER_PROLOGUE() second");
        break;
      case HandlerKind::Software:
        if (leadKind(0) != MacroKind::SwHandlerDefs)
            ctx.sink.error(fn.loc, name(), "missing-hook",
                           "software handler '" + std::string(fn.name) +
                               "' must begin with SWHANDLER_DEFS()");
        else if (leadKind(1) != MacroKind::SwHandlerPrologue)
            ctx.sink.error(fn.loc, name(), "missing-hook",
                           "software handler '" + std::string(fn.name) +
                               "' must call SWHANDLER_PROLOGUE() second");
        break;
      case HandlerKind::Normal:
        if (leadKind(0) != MacroKind::ProcHook)
            ctx.sink.error(fn.loc, name(), "missing-hook",
                           "routine '" + std::string(fn.name) +
                               "' must begin with PROC_HOOK()");
        break;
    }
}

void
ExecRestrictChecker::checkNoStack(const FunctionDecl& fn, CheckContext& ctx)
{
    const TypeTable& types = ctx.program.ctx().types();

    // Exactly one NO_STACK annotation, at the beginning (within the first
    // three statements, allowing the simulation hooks around it).
    int no_stack_count = 0;
    std::size_t index = 0;
    for (const Stmt* stmt : fn.body->stmts) {
        if (stmtMacroKind(*stmt) == MacroKind::NoStack) {
            ++no_stack_count;
            if (index >= 3)
                ctx.sink.error(stmt->loc, name(), "no-stack-misplaced",
                               "NO_STACK() must appear at the beginning "
                               "of the handler");
        }
        ++index;
    }
    if (no_stack_count == 0)
        ctx.sink.error(fn.loc, name(), "no-stack-missing",
                       "no-stack handler '" + std::string(fn.name) +
                           "' lacks its NO_STACK() annotation");
    else if (no_stack_count > 1)
        ctx.sink.error(fn.loc, name(), "no-stack-duplicate",
                       "handler '" + std::string(fn.name) +
                           "' has more than one NO_STACK() annotation");

    // Locals: count, size, arrays, address-taken.
    int locals = 0;
    forEachStmt(*fn.body, [&](const Stmt& stmt) {
        if (stmt.skind == StmtKind::Decl) {
            for (const VarDecl* v :
                 static_cast<const DeclStmt&>(stmt).decls) {
                ++locals;
                const Type& t = types.type(v->type);
                if (t.kind == TypeKind::Array)
                    ctx.sink.error(v->loc, name(), "no-stack-array",
                                   "no-stack handler declares array '" +
                                       std::string(v->name) + "'");
                else if (types.sizeInBits(v->type) > 64)
                    ctx.sink.error(v->loc, name(), "no-stack-large-var",
                                   "no-stack handler declares '" +
                                       std::string(v->name) +
                                       "' larger than 64 bits");
            }
        }
        forEachTopLevelExpr(stmt, [&](const Expr& top) {
            forEachSubExpr(top, [&](const Expr& e) {
                if (e.ekind != ExprKind::Unary)
                    return;
                const auto& u = static_cast<const UnaryExpr&>(e);
                if (u.op != UnaryOp::AddrOf)
                    return;
                if (u.operand->ekind != ExprKind::Ident)
                    return;
                const auto* ident =
                    static_cast<const IdentExpr*>(u.operand);
                if (ident->decl && (ident->decl->dkind == DeclKind::Var ||
                                    ident->decl->dkind == DeclKind::Param))
                    ctx.sink.error(e.loc, name(), "no-stack-addr-of",
                                   "no-stack handler takes the address of "
                                   "local '" +
                                       std::string(ident->name) + "'");
            });
        });
    });
    if (locals > kMaxNoStackLocals)
        ctx.sink.error(fn.loc, name(), "no-stack-too-many-locals",
                       "no-stack handler '" + std::string(fn.name) +
                           "' declares " + std::to_string(locals) +
                           " locals (max " +
                           std::to_string(kMaxNoStackLocals) + ")");

    // SET_STACKPTR pairing with calls, per compound statement sequence.
    forEachStmt(*fn.body, [&](const Stmt& stmt) {
        if (stmt.skind != StmtKind::Compound)
            return;
        const auto& block = static_cast<const CompoundStmt&>(stmt);
        for (std::size_t i = 0; i < block.stmts.size(); ++i) {
            const Stmt* s = block.stmts[i];
            if (stmtMacroKind(*s) == MacroKind::SetStackPtr) {
                bool followed =
                    i + 1 < block.stmts.size() &&
                    isProtocolCallStmt(*block.stmts[i + 1], ctx);
                if (!followed)
                    ctx.sink.error(s->loc, name(), "spurious-set-stackptr",
                                   "SET_STACKPTR() not followed by a "
                                   "call");
            } else if (isProtocolCallStmt(*s, ctx)) {
                bool preceded =
                    i > 0 && stmtMacroKind(*block.stmts[i - 1]) ==
                                 MacroKind::SetStackPtr;
                if (!preceded)
                    ctx.sink.error(s->loc, name(), "missing-set-stackptr",
                                   "call from no-stack handler without "
                                   "SET_STACKPTR()");
            }
        }
    });
}

void
ExecRestrictChecker::checkDeprecated(const cfg::Cfg& cfg, CheckContext& ctx)
{
    for (const cfg::CallRow& c : cfg::flatCfg(cfg).calls()) {
        const std::string_view callee = c.call->calleeName();
        if (flash::macroKind(c.callee) == MacroKind::ReadDbDeprecated ||
            ctx.spec.deprecated.count(callee) > 0)
            ctx.sink.warning(c.call->loc, name(), "deprecated-macro",
                             "use of deprecated macro '" +
                                 std::string(callee) + "'");
    }
}

void
ExecRestrictChecker::checkFunction(const FunctionDecl& fn,
                                   const cfg::Cfg& cfg, CheckContext& ctx)
{
    ++handlers_checked_;
    ++applied_;

    const flash::HandlerSpec* spec = ctx.spec.handler(fn.name);
    HandlerKind kind = ctx.spec.kindOf(fn.name);

    vars_checked_ += static_cast<int>(fn.params.size());
    visitStmtsFast(*fn.body, [&](const Stmt& stmt) {
        if (stmt.skind == StmtKind::Decl)
            vars_checked_ += static_cast<int>(
                static_cast<const DeclStmt&>(stmt).decls.size());
    });

    if (kind == HandlerKind::Hardware || kind == HandlerKind::Software)
        checkSignature(fn, ctx);
    checkHooks(fn, ctx);
    if (spec && spec->no_stack)
        checkNoStack(fn, ctx);
    checkDeprecated(cfg, ctx);
}

} // namespace mc::checkers
