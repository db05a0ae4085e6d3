#include "lang/sema.h"

#include <vector>

namespace mc::lang {

/**
 * Lexical scopes of one function over the program's globals. A
 * function declares a handful of locals, so they live in one flat
 * stack searched innermost (latest) first; a scope is a mark into it.
 * Names view arena-owned text, which outlives every scope.
 */
class Sema::ScopeStack
{
  public:
    explicit ScopeStack(const Scope& globals) : globals_(globals) {}

    void push() { marks_.push_back(locals_.size()); }

    void
    pop()
    {
        locals_.resize(marks_.back());
        marks_.pop_back();
    }

    void
    declare(std::string_view name, const Decl* decl)
    {
        locals_.emplace_back(name, decl);
    }

    const Decl*
    lookup(std::string_view name) const
    {
        for (auto it = locals_.rbegin(); it != locals_.rend(); ++it)
            if (it->first == name)
                return it->second;
        auto found = globals_.find(name);
        return found == globals_.end() ? nullptr : found->second;
    }

  private:
    const Scope& globals_;
    std::vector<std::pair<std::string_view, const Decl*>> locals_;
    std::vector<std::size_t> marks_;
};

namespace {

TypeId
declType(const Decl& decl, AstContext& ctx)
{
    switch (decl.dkind) {
      case DeclKind::Var:
        return static_cast<const VarDecl&>(decl).type;
      case DeclKind::Param:
        return static_cast<const ParamDecl&>(decl).type;
      case DeclKind::EnumConst:
        return ctx.types().builtin(TypeKind::Int);
      default:
        return kInvalidType;
    }
}

class FunctionAnalyzer
{
  public:
    FunctionAnalyzer(AstContext& ctx, Sema::ScopeStack& scopes)
        : ctx_(ctx), scopes_(scopes)
    {}

    void
    analyzeStmt(Stmt* stmt)
    {
        switch (stmt->skind) {
          case StmtKind::Expr:
            analyzeExpr(static_cast<ExprStmt*>(stmt)->expr);
            return;
          case StmtKind::Decl: {
            auto* s = static_cast<DeclStmt*>(stmt);
            for (VarDecl* v : s->decls) {
                if (v->init)
                    analyzeExpr(v->init);
                scopes_.declare(v->name, v);
            }
            return;
          }
          case StmtKind::Compound: {
            auto* s = static_cast<CompoundStmt*>(stmt);
            scopes_.push();
            for (Stmt* child : s->stmts)
                analyzeStmt(child);
            scopes_.pop();
            return;
          }
          case StmtKind::If: {
            auto* s = static_cast<IfStmt*>(stmt);
            analyzeExpr(s->cond);
            analyzeStmt(s->then_branch);
            if (s->else_branch)
                analyzeStmt(s->else_branch);
            return;
          }
          case StmtKind::While: {
            auto* s = static_cast<WhileStmt*>(stmt);
            analyzeExpr(s->cond);
            analyzeStmt(s->body);
            return;
          }
          case StmtKind::DoWhile: {
            auto* s = static_cast<DoWhileStmt*>(stmt);
            analyzeStmt(s->body);
            analyzeExpr(s->cond);
            return;
          }
          case StmtKind::For: {
            auto* s = static_cast<ForStmt*>(stmt);
            scopes_.push();
            if (s->init)
                analyzeStmt(s->init);
            if (s->cond)
                analyzeExpr(s->cond);
            if (s->step)
                analyzeExpr(s->step);
            analyzeStmt(s->body);
            scopes_.pop();
            return;
          }
          case StmtKind::Switch: {
            auto* s = static_cast<SwitchStmt*>(stmt);
            analyzeExpr(s->cond);
            analyzeStmt(s->body);
            return;
          }
          case StmtKind::Case:
            analyzeExpr(static_cast<CaseStmt*>(stmt)->value);
            return;
          case StmtKind::Return: {
            auto* s = static_cast<ReturnStmt*>(stmt);
            if (s->value)
                analyzeExpr(s->value);
            return;
          }
          default:
            return;
        }
    }

    void
    analyzeExpr(Expr* expr)
    {
        if (!expr)
            return;
        switch (expr->ekind) {
          case ExprKind::IntLit:
          case ExprKind::FloatLit:
          case ExprKind::CharLit:
          case ExprKind::StringLit:
            return; // typed at parse time
          case ExprKind::Ident: {
            auto* e = static_cast<IdentExpr*>(expr);
            e->decl = scopes_.lookup(e->name);
            if (e->decl)
                e->type = declType(*e->decl, ctx_);
            return;
          }
          case ExprKind::Unary: {
            auto* e = static_cast<UnaryExpr*>(expr);
            analyzeExpr(e->operand);
            switch (e->op) {
              case UnaryOp::Deref: {
                const Type& t = ctx_.types().type(e->operand->type);
                if (t.kind == TypeKind::Pointer ||
                    t.kind == TypeKind::Array)
                    e->type = t.base;
                return;
              }
              case UnaryOp::AddrOf:
                if (e->operand->type != kInvalidType)
                    e->type = ctx_.types().pointerTo(e->operand->type);
                return;
              case UnaryOp::Not:
                e->type = ctx_.types().builtin(TypeKind::Int);
                return;
              default:
                e->type = e->operand->type;
                return;
            }
          }
          case ExprKind::Binary: {
            auto* e = static_cast<BinaryExpr*>(expr);
            analyzeExpr(e->lhs);
            analyzeExpr(e->rhs);
            if (isAssignment(e->op)) {
                e->type = e->lhs->type;
                return;
            }
            switch (e->op) {
              case BinaryOp::Lt:
              case BinaryOp::Gt:
              case BinaryOp::Le:
              case BinaryOp::Ge:
              case BinaryOp::Eq:
              case BinaryOp::Ne:
              case BinaryOp::LogAnd:
              case BinaryOp::LogOr:
                e->type = ctx_.types().builtin(TypeKind::Int);
                return;
              case BinaryOp::Comma:
                e->type = e->rhs->type;
                return;
              default: {
                const TypeTable& types = ctx_.types();
                if (types.isFloating(e->lhs->type) ||
                    types.isFloating(e->rhs->type))
                    e->type = ctx_.types().builtin(TypeKind::Double);
                else if (e->lhs->type != kInvalidType)
                    e->type = e->lhs->type;
                else
                    e->type = e->rhs->type;
                return;
              }
            }
          }
          case ExprKind::Ternary: {
            auto* e = static_cast<TernaryExpr*>(expr);
            analyzeExpr(e->cond);
            analyzeExpr(e->then_expr);
            analyzeExpr(e->else_expr);
            e->type = e->then_expr->type != kInvalidType
                          ? e->then_expr->type
                          : e->else_expr->type;
            return;
          }
          case ExprKind::Call: {
            auto* e = static_cast<CallExpr*>(expr);
            if (e->callee->ekind == ExprKind::Ident) {
                auto* callee = static_cast<IdentExpr*>(e->callee);
                callee->decl = scopes_.lookup(callee->name);
                if (callee->decl &&
                    callee->decl->dkind == DeclKind::Function)
                    e->type = static_cast<const FunctionDecl*>(callee->decl)
                                  ->return_type;
            } else {
                analyzeExpr(e->callee);
            }
            for (Expr* arg : e->args)
                analyzeExpr(arg);
            return;
          }
          case ExprKind::Member: {
            auto* e = static_cast<MemberExpr*>(expr);
            analyzeExpr(e->base);
            return; // field types are not modeled
          }
          case ExprKind::Index: {
            auto* e = static_cast<IndexExpr*>(expr);
            analyzeExpr(e->base);
            analyzeExpr(e->index);
            const Type& t = ctx_.types().type(e->base->type);
            if (t.kind == TypeKind::Pointer || t.kind == TypeKind::Array)
                e->type = t.base;
            return;
          }
          case ExprKind::Cast: {
            auto* e = static_cast<CastExpr*>(expr);
            analyzeExpr(e->operand);
            e->type = e->target;
            return;
          }
          case ExprKind::Sizeof: {
            auto* e = static_cast<SizeofExpr*>(expr);
            if (e->operand)
                analyzeExpr(e->operand);
            e->type = ctx_.types().builtin(TypeKind::UInt);
            return;
          }
        }
    }

  private:
    AstContext& ctx_;
    Sema::ScopeStack& scopes_;
};

} // namespace

void
Sema::addGlobal(const Decl* decl)
{
    if (decl && !decl->name.empty())
        globals_.insert_or_assign(decl->name, decl);
}

void
Sema::analyzeFunction(FunctionDecl& fn)
{
    ScopeStack scopes(globals_);
    scopes.push();
    for (ParamDecl* p : fn.params)
        if (!p->name.empty())
            scopes.declare(p->name, p);
    FunctionAnalyzer analyzer(ctx_, scopes);
    if (fn.body)
        analyzer.analyzeStmt(fn.body);
    scopes.pop();
}

void
Sema::run(TranslationUnit& tu)
{
    // First pass: register globals, functions, and enum constants so uses
    // before definitions resolve.
    for (Decl* d : tu.decls) {
        switch (d->dkind) {
          case DeclKind::Var:
          case DeclKind::Function:
            addGlobal(d);
            break;
          case DeclKind::Enum:
            for (const EnumConstDecl* c :
                 static_cast<const EnumDecl*>(d)->constants)
                addGlobal(c);
            break;
          default:
            break;
        }
    }
    for (Decl* d : tu.decls) {
        if (d->dkind == DeclKind::Function) {
            auto* fn = static_cast<FunctionDecl*>(d);
            if (fn->body)
                analyzeFunction(*fn);
        }
    }
}

} // namespace mc::lang
