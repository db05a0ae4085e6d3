#include "lang/ast.h"

#include <algorithm>
#include <cstring>
#include <sstream>

namespace mc::lang {

std::string_view
AstContext::copyText(std::string_view text)
{
    if (text.empty())
        return {};
    auto* out = static_cast<char*>(allocate(text.size(), 1));
    std::memcpy(out, text.data(), text.size());
    return {out, text.size()};
}

void*
AstContext::allocateSlow(std::size_t bytes, std::size_t align)
{
    // A request over a quarter chunk gets a chunk of its own, and the
    // current chunk keeps serving small ones; so at most a quarter of
    // any chunk is left unused when a new one starts.
    std::size_t need = bytes + align - 1;
    if (need > kChunkBytes / 4) {
        chunks_.push_back(std::make_unique_for_overwrite<std::byte[]>(need));
        chunk_bytes_ += need;
        auto p = (reinterpret_cast<std::uintptr_t>(chunks_.back().get()) +
                  align - 1) & ~(align - 1);
        return reinterpret_cast<void*>(p);
    }
    chunks_.push_back(
        std::make_unique_for_overwrite<std::byte[]>(kChunkBytes));
    chunk_bytes_ += kChunkBytes;
    cur_ = chunks_.back().get();
    end_ = cur_ + kChunkBytes;
    return allocate(bytes, align);
}

bool
isAssignment(BinaryOp op)
{
    switch (op) {
      case BinaryOp::Assign:
      case BinaryOp::AddAssign:
      case BinaryOp::SubAssign:
      case BinaryOp::MulAssign:
      case BinaryOp::DivAssign:
      case BinaryOp::RemAssign:
      case BinaryOp::AndAssign:
      case BinaryOp::OrAssign:
      case BinaryOp::XorAssign:
      case BinaryOp::ShlAssign:
      case BinaryOp::ShrAssign:
        return true;
      default:
        return false;
    }
}

const char*
unaryOpSpelling(UnaryOp op)
{
    switch (op) {
      case UnaryOp::Plus: return "+";
      case UnaryOp::Neg: return "-";
      case UnaryOp::Not: return "!";
      case UnaryOp::BitNot: return "~";
      case UnaryOp::Deref: return "*";
      case UnaryOp::AddrOf: return "&";
      case UnaryOp::PreInc:
      case UnaryOp::PostInc: return "++";
      case UnaryOp::PreDec:
      case UnaryOp::PostDec: return "--";
    }
    return "?";
}

const char*
binaryOpSpelling(BinaryOp op)
{
    switch (op) {
      case BinaryOp::Add: return "+";
      case BinaryOp::Sub: return "-";
      case BinaryOp::Mul: return "*";
      case BinaryOp::Div: return "/";
      case BinaryOp::Rem: return "%";
      case BinaryOp::Shl: return "<<";
      case BinaryOp::Shr: return ">>";
      case BinaryOp::Lt: return "<";
      case BinaryOp::Gt: return ">";
      case BinaryOp::Le: return "<=";
      case BinaryOp::Ge: return ">=";
      case BinaryOp::Eq: return "==";
      case BinaryOp::Ne: return "!=";
      case BinaryOp::BitAnd: return "&";
      case BinaryOp::BitOr: return "|";
      case BinaryOp::BitXor: return "^";
      case BinaryOp::LogAnd: return "&&";
      case BinaryOp::LogOr: return "||";
      case BinaryOp::Comma: return ",";
      case BinaryOp::Assign: return "=";
      case BinaryOp::AddAssign: return "+=";
      case BinaryOp::SubAssign: return "-=";
      case BinaryOp::MulAssign: return "*=";
      case BinaryOp::DivAssign: return "/=";
      case BinaryOp::RemAssign: return "%=";
      case BinaryOp::AndAssign: return "&=";
      case BinaryOp::OrAssign: return "|=";
      case BinaryOp::XorAssign: return "^=";
      case BinaryOp::ShlAssign: return "<<=";
      case BinaryOp::ShrAssign: return ">>=";
    }
    return "?";
}

std::string_view
CallExpr::calleeName() const
{
    if (callee && callee->ekind == ExprKind::Ident)
        return static_cast<const IdentExpr*>(callee)->name;
    return {};
}

std::vector<const FunctionDecl*>
TranslationUnit::functionDefinitions() const
{
    std::vector<const FunctionDecl*> out;
    for (const Decl* d : decls) {
        if (d->dkind == DeclKind::Function) {
            const auto* fn = static_cast<const FunctionDecl*>(d);
            if (fn->isDefinition())
                out.push_back(fn);
        }
    }
    return out;
}

void
forEachChildExpr(const Expr& expr, const std::function<void(const Expr&)>& fn)
{
    switch (expr.ekind) {
      case ExprKind::IntLit:
      case ExprKind::FloatLit:
      case ExprKind::CharLit:
      case ExprKind::StringLit:
      case ExprKind::Ident:
        return;
      case ExprKind::Unary: {
        const auto& u = static_cast<const UnaryExpr&>(expr);
        if (u.operand) fn(*u.operand);
        return;
      }
      case ExprKind::Binary: {
        const auto& b = static_cast<const BinaryExpr&>(expr);
        if (b.lhs) fn(*b.lhs);
        if (b.rhs) fn(*b.rhs);
        return;
      }
      case ExprKind::Ternary: {
        const auto& t = static_cast<const TernaryExpr&>(expr);
        if (t.cond) fn(*t.cond);
        if (t.then_expr) fn(*t.then_expr);
        if (t.else_expr) fn(*t.else_expr);
        return;
      }
      case ExprKind::Call: {
        const auto& c = static_cast<const CallExpr&>(expr);
        if (c.callee) fn(*c.callee);
        for (const Expr* a : c.args)
            if (a) fn(*a);
        return;
      }
      case ExprKind::Member: {
        const auto& m = static_cast<const MemberExpr&>(expr);
        if (m.base) fn(*m.base);
        return;
      }
      case ExprKind::Index: {
        const auto& i = static_cast<const IndexExpr&>(expr);
        if (i.base) fn(*i.base);
        if (i.index) fn(*i.index);
        return;
      }
      case ExprKind::Cast: {
        const auto& c = static_cast<const CastExpr&>(expr);
        if (c.operand) fn(*c.operand);
        return;
      }
      case ExprKind::Sizeof: {
        const auto& s = static_cast<const SizeofExpr&>(expr);
        if (s.operand) fn(*s.operand);
        return;
      }
    }
}

void
forEachSubExpr(const Expr& expr, const std::function<void(const Expr&)>& fn)
{
    fn(expr);
    forEachChildExpr(expr,
                     [&](const Expr& child) { forEachSubExpr(child, fn); });
}

void
forEachTopLevelExpr(const Stmt& stmt,
                    const std::function<void(const Expr&)>& fn)
{
    switch (stmt.skind) {
      case StmtKind::Expr: {
        const auto& s = static_cast<const ExprStmt&>(stmt);
        if (s.expr) fn(*s.expr);
        return;
      }
      case StmtKind::Decl: {
        const auto& s = static_cast<const DeclStmt&>(stmt);
        for (const VarDecl* v : s.decls)
            if (v->init) fn(*v->init);
        return;
      }
      case StmtKind::If:
        if (const Expr* e = static_cast<const IfStmt&>(stmt).cond) fn(*e);
        return;
      case StmtKind::While:
        if (const Expr* e = static_cast<const WhileStmt&>(stmt).cond) fn(*e);
        return;
      case StmtKind::DoWhile:
        if (const Expr* e = static_cast<const DoWhileStmt&>(stmt).cond)
            fn(*e);
        return;
      case StmtKind::For: {
        const auto& s = static_cast<const ForStmt&>(stmt);
        if (s.cond) fn(*s.cond);
        if (s.step) fn(*s.step);
        return;
      }
      case StmtKind::Switch:
        if (const Expr* e = static_cast<const SwitchStmt&>(stmt).cond)
            fn(*e);
        return;
      case StmtKind::Case:
        if (const Expr* e = static_cast<const CaseStmt&>(stmt).value) fn(*e);
        return;
      case StmtKind::Return:
        if (const Expr* e = static_cast<const ReturnStmt&>(stmt).value)
            fn(*e);
        return;
      default:
        return;
    }
}

void
forEachIdent(const Stmt& stmt,
             const std::function<void(const IdentExpr&)>& fn)
{
    forEachTopLevelExpr(stmt, [&](const Expr& top) {
        forEachSubExpr(top, [&](const Expr& e) {
            if (e.ekind == ExprKind::Ident)
                fn(static_cast<const IdentExpr&>(e));
        });
    });
}

void
collectStmtIdentIds(const Stmt& stmt,
                    std::vector<support::SymbolId>& out)
{
    out.clear();
    visitIdentsFast(stmt, [&](const IdentExpr& e) {
        out.push_back(identSymbol(e));
    });
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
}

void
forEachStmt(const Stmt& stmt, const std::function<void(const Stmt&)>& fn)
{
    fn(stmt);
    switch (stmt.skind) {
      case StmtKind::Compound: {
        const auto& s = static_cast<const CompoundStmt&>(stmt);
        for (const Stmt* child : s.stmts)
            forEachStmt(*child, fn);
        return;
      }
      case StmtKind::If: {
        const auto& s = static_cast<const IfStmt&>(stmt);
        if (s.then_branch) forEachStmt(*s.then_branch, fn);
        if (s.else_branch) forEachStmt(*s.else_branch, fn);
        return;
      }
      case StmtKind::While:
        if (const Stmt* b = static_cast<const WhileStmt&>(stmt).body)
            forEachStmt(*b, fn);
        return;
      case StmtKind::DoWhile:
        if (const Stmt* b = static_cast<const DoWhileStmt&>(stmt).body)
            forEachStmt(*b, fn);
        return;
      case StmtKind::For: {
        const auto& s = static_cast<const ForStmt&>(stmt);
        if (s.init) forEachStmt(*s.init, fn);
        if (s.body) forEachStmt(*s.body, fn);
        return;
      }
      case StmtKind::Switch:
        if (const Stmt* b = static_cast<const SwitchStmt&>(stmt).body)
            forEachStmt(*b, fn);
        return;
      default:
        return;
    }
}

bool
exprEquals(const Expr& a, const Expr& b)
{
    if (a.ekind != b.ekind)
        return false;
    switch (a.ekind) {
      case ExprKind::IntLit:
        return static_cast<const IntLitExpr&>(a).value ==
               static_cast<const IntLitExpr&>(b).value;
      case ExprKind::FloatLit:
        return static_cast<const FloatLitExpr&>(a).value ==
               static_cast<const FloatLitExpr&>(b).value;
      case ExprKind::CharLit:
        return static_cast<const CharLitExpr&>(a).value ==
               static_cast<const CharLitExpr&>(b).value;
      case ExprKind::StringLit:
        return static_cast<const StringLitExpr&>(a).value ==
               static_cast<const StringLitExpr&>(b).value;
      case ExprKind::Ident:
        return static_cast<const IdentExpr&>(a).name ==
               static_cast<const IdentExpr&>(b).name;
      case ExprKind::Unary: {
        const auto& ua = static_cast<const UnaryExpr&>(a);
        const auto& ub = static_cast<const UnaryExpr&>(b);
        return ua.op == ub.op && exprEquals(*ua.operand, *ub.operand);
      }
      case ExprKind::Binary: {
        const auto& ba = static_cast<const BinaryExpr&>(a);
        const auto& bb = static_cast<const BinaryExpr&>(b);
        return ba.op == bb.op && exprEquals(*ba.lhs, *bb.lhs) &&
               exprEquals(*ba.rhs, *bb.rhs);
      }
      case ExprKind::Ternary: {
        const auto& ta = static_cast<const TernaryExpr&>(a);
        const auto& tb = static_cast<const TernaryExpr&>(b);
        return exprEquals(*ta.cond, *tb.cond) &&
               exprEquals(*ta.then_expr, *tb.then_expr) &&
               exprEquals(*ta.else_expr, *tb.else_expr);
      }
      case ExprKind::Call: {
        const auto& ca = static_cast<const CallExpr&>(a);
        const auto& cb = static_cast<const CallExpr&>(b);
        if (!exprEquals(*ca.callee, *cb.callee) ||
            ca.args.size() != cb.args.size())
            return false;
        for (std::size_t i = 0; i < ca.args.size(); ++i)
            if (!exprEquals(*ca.args[i], *cb.args[i]))
                return false;
        return true;
      }
      case ExprKind::Member: {
        const auto& ma = static_cast<const MemberExpr&>(a);
        const auto& mb = static_cast<const MemberExpr&>(b);
        return ma.member == mb.member && ma.is_arrow == mb.is_arrow &&
               exprEquals(*ma.base, *mb.base);
      }
      case ExprKind::Index: {
        const auto& ia = static_cast<const IndexExpr&>(a);
        const auto& ib = static_cast<const IndexExpr&>(b);
        return exprEquals(*ia.base, *ib.base) &&
               exprEquals(*ia.index, *ib.index);
      }
      case ExprKind::Cast: {
        const auto& ca = static_cast<const CastExpr&>(a);
        const auto& cb = static_cast<const CastExpr&>(b);
        // Target types may come from different TypeTables; compare
        // operands only. Checkers never rely on cast-type equality.
        return exprEquals(*ca.operand, *cb.operand);
      }
      case ExprKind::Sizeof: {
        const auto& sa = static_cast<const SizeofExpr&>(a);
        const auto& sb = static_cast<const SizeofExpr&>(b);
        if ((sa.operand == nullptr) != (sb.operand == nullptr))
            return false;
        if (sa.operand)
            return exprEquals(*sa.operand, *sb.operand);
        return true;
      }
    }
    return false;
}

namespace {

void
printExpr(std::ostream& os, const Expr& expr)
{
    switch (expr.ekind) {
      case ExprKind::IntLit: {
        const auto& e = static_cast<const IntLitExpr&>(expr);
        if (!e.spelling.empty())
            os << e.spelling;
        else
            os << e.value;
        return;
      }
      case ExprKind::FloatLit:
        os << static_cast<const FloatLitExpr&>(expr).value;
        return;
      case ExprKind::CharLit:
        os << '\'' << static_cast<char>(
                          static_cast<const CharLitExpr&>(expr).value)
           << '\'';
        return;
      case ExprKind::StringLit:
        os << static_cast<const StringLitExpr&>(expr).value;
        return;
      case ExprKind::Ident:
        os << static_cast<const IdentExpr&>(expr).name;
        return;
      case ExprKind::Unary: {
        const auto& u = static_cast<const UnaryExpr&>(expr);
        if (u.op == UnaryOp::PostInc || u.op == UnaryOp::PostDec) {
            printExpr(os, *u.operand);
            os << unaryOpSpelling(u.op);
            return;
        }
        os << unaryOpSpelling(u.op);
        // Parenthesize a nested prefix operand so `-(-x)` does not print
        // as `--x` (and `&(&x)` as `&&x`), which would re-lex as one
        // token.
        bool nested_prefix =
            u.operand->ekind == ExprKind::Unary &&
            static_cast<const UnaryExpr*>(u.operand)->op !=
                UnaryOp::PostInc &&
            static_cast<const UnaryExpr*>(u.operand)->op !=
                UnaryOp::PostDec;
        if (nested_prefix) {
            os << '(';
            printExpr(os, *u.operand);
            os << ')';
        } else {
            printExpr(os, *u.operand);
        }
        return;
      }
      case ExprKind::Binary: {
        const auto& b = static_cast<const BinaryExpr&>(expr);
        os << '(';
        printExpr(os, *b.lhs);
        os << ' ' << binaryOpSpelling(b.op) << ' ';
        printExpr(os, *b.rhs);
        os << ')';
        return;
      }
      case ExprKind::Ternary: {
        const auto& t = static_cast<const TernaryExpr&>(expr);
        os << '(';
        printExpr(os, *t.cond);
        os << " ? ";
        printExpr(os, *t.then_expr);
        os << " : ";
        printExpr(os, *t.else_expr);
        os << ')';
        return;
      }
      case ExprKind::Call: {
        const auto& c = static_cast<const CallExpr&>(expr);
        printExpr(os, *c.callee);
        os << '(';
        for (std::size_t i = 0; i < c.args.size(); ++i) {
            if (i) os << ", ";
            printExpr(os, *c.args[i]);
        }
        os << ')';
        return;
      }
      case ExprKind::Member: {
        const auto& m = static_cast<const MemberExpr&>(expr);
        printExpr(os, *m.base);
        os << (m.is_arrow ? "->" : ".") << m.member;
        return;
      }
      case ExprKind::Index: {
        const auto& i = static_cast<const IndexExpr&>(expr);
        printExpr(os, *i.base);
        os << '[';
        printExpr(os, *i.index);
        os << ']';
        return;
      }
      case ExprKind::Cast: {
        const auto& c = static_cast<const CastExpr&>(expr);
        os << "(cast)";
        printExpr(os, *c.operand);
        return;
      }
      case ExprKind::Sizeof: {
        const auto& s = static_cast<const SizeofExpr&>(expr);
        os << "sizeof(";
        if (s.operand)
            printExpr(os, *s.operand);
        else
            os << "type";
        os << ')';
        return;
      }
    }
}

} // namespace

std::string
exprToString(const Expr& expr)
{
    std::ostringstream os;
    printExpr(os, expr);
    return os.str();
}

std::string
stmtToString(const Stmt& stmt)
{
    std::ostringstream os;
    switch (stmt.skind) {
      case StmtKind::Expr:
        printExpr(os, *static_cast<const ExprStmt&>(stmt).expr);
        os << ';';
        break;
      case StmtKind::Decl: {
        const auto& s = static_cast<const DeclStmt&>(stmt);
        os << "decl";
        for (const VarDecl* v : s.decls)
            os << ' ' << v->name;
        os << ';';
        break;
      }
      case StmtKind::Compound: os << "{...}"; break;
      case StmtKind::If: {
        os << "if (";
        printExpr(os, *static_cast<const IfStmt&>(stmt).cond);
        os << ") ...";
        break;
      }
      case StmtKind::While: {
        os << "while (";
        printExpr(os, *static_cast<const WhileStmt&>(stmt).cond);
        os << ") ...";
        break;
      }
      case StmtKind::DoWhile: os << "do ... while (...)"; break;
      case StmtKind::For: os << "for (...) ..."; break;
      case StmtKind::Switch: {
        os << "switch (";
        printExpr(os, *static_cast<const SwitchStmt&>(stmt).cond);
        os << ") ...";
        break;
      }
      case StmtKind::Case: {
        os << "case ";
        printExpr(os, *static_cast<const CaseStmt&>(stmt).value);
        os << ':';
        break;
      }
      case StmtKind::Default: os << "default:"; break;
      case StmtKind::Break: os << "break;"; break;
      case StmtKind::Continue: os << "continue;"; break;
      case StmtKind::Return: {
        const auto& s = static_cast<const ReturnStmt&>(stmt);
        os << "return";
        if (s.value) {
            os << ' ';
            printExpr(os, *s.value);
        }
        os << ';';
        break;
      }
      case StmtKind::Goto:
        os << "goto " << static_cast<const GotoStmt&>(stmt).label << ';';
        break;
      case StmtKind::Label:
        os << static_cast<const LabelStmt&>(stmt).name << ':';
        break;
      case StmtKind::Empty: os << ';'; break;
    }
    return os.str();
}

const CallExpr*
asCall(const Expr& expr)
{
    if (expr.ekind == ExprKind::Call)
        return static_cast<const CallExpr*>(&expr);
    return nullptr;
}

const CallExpr*
stmtAsCall(const Stmt& stmt)
{
    if (stmt.skind != StmtKind::Expr)
        return nullptr;
    const Expr* e = static_cast<const ExprStmt&>(stmt).expr;
    if (!e)
        return nullptr;
    if (const CallExpr* call = asCall(*e))
        return call;
    if (e->ekind == ExprKind::Binary) {
        const auto& b = static_cast<const BinaryExpr&>(*e);
        if (isAssignment(b.op))
            return asCall(*b.rhs);
    }
    return nullptr;
}

} // namespace mc::lang
