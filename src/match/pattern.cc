#include "match/pattern.h"

#include "lang/lexer.h"

#include <algorithm>
#include <atomic>
#include <cassert>

namespace mc::match {

using namespace mc::lang;

std::optional<WildcardKind>
wildcardKindFromName(std::string_view name)
{
    if (name == "scalar")
        return WildcardKind::Scalar;
    if (name == "unsigned")
        return WildcardKind::Unsigned;
    if (name == "expr" || name == "any")
        return WildcardKind::AnyExpr;
    if (name == "ident")
        return WildcardKind::Ident;
    if (name == "constant" || name == "const")
        return WildcardKind::Constant;
    return std::nullopt;
}

const lang::Expr*
Bindings::lookup(const std::string& name) const
{
    auto sym = support::SymbolInterner::global().lookup(name);
    return sym ? lookupId(*sym) : nullptr;
}

Pattern
Pattern::compile(PatternContext& pc, const std::string& text,
                 std::vector<WildcardDecl> wildcards)
{
    // Atomic: patterns are compiled concurrently by per-worker checker
    // instances. The number only keeps buffer names unique within this
    // context's SourceManager; it never reaches diagnostics.
    static std::atomic<int> counter{0};
    std::string name =
        "<pattern#" +
        std::to_string(counter.fetch_add(1, std::memory_order_relaxed) + 1) +
        ">";
    std::int32_t id = pc.sourceManager().addFile(name, text);
    Lexer lexer(pc.sourceManager(), id, &pc.symbols().spellings);
    ParserOptions options;
    options.allow_missing_semicolon = true;
    Parser parser(pc.ctx(), lexer.source(), lexer.lexAll(), &pc.symbols(),
                  options);

    // The template is a braced block with exactly one statement inside
    // (metal's `{ ... }` pattern syntax).
    Stmt* stmt = parser.parseSingleStatement();
    if (stmt->skind != StmtKind::Compound)
        throw ParseError(stmt->loc, "pattern must be enclosed in braces");
    auto* block = static_cast<CompoundStmt*>(stmt);
    if (block->stmts.size() != 1)
        throw ParseError(stmt->loc,
                         "pattern must contain exactly one statement");

    Pattern pattern;
    pattern.wildcards_ = std::move(wildcards);
    for (WildcardDecl& wd : pattern.wildcards_)
        if (wd.sym == support::kInvalidSymbol)
            wd.sym = support::SymbolInterner::global().intern(wd.name);
    Alternative alt;
    Stmt* inner = block->stmts.front();
    if (inner->skind == StmtKind::Expr)
        alt.expr = static_cast<ExprStmt*>(inner)->expr;
    else
        alt.stmt = inner;
    pattern.computeRequiredIdent(alt);
    pattern.alternatives_.push_back(std::move(alt));
    return pattern;
}

void
Pattern::computeRequiredIdent(Alternative& alt) const
{
    std::string_view required;
    auto scan = [&](const Expr& root) {
        forEachSubExpr(root, [&](const Expr& e) {
            if (!required.empty())
                return;
            if (e.ekind != ExprKind::Ident)
                return;
            std::string_view name = static_cast<const IdentExpr&>(e).name;
            if (!findWildcard(name))
                required = name;
        });
    };
    if (alt.expr) {
        scan(*alt.expr);
    } else if (alt.stmt) {
        forEachTopLevelExpr(*alt.stmt,
                            [&](const Expr& top) { scan(top); });
    }
    if (!required.empty())
        alt.required_sym = support::SymbolInterner::global().intern(required);
}

bool
Pattern::couldMatchIds(const std::vector<support::SymbolId>& ids) const
{
    return couldMatchIds(ids.data(), ids.size());
}

bool
Pattern::couldMatchIds(const support::SymbolId* ids,
                       std::size_t count) const
{
    for (const Alternative& alt : alternatives_) {
        if (alt.required_sym == support::kInvalidSymbol)
            return true;
        if (std::binary_search(ids, ids + count, alt.required_sym))
            return true;
    }
    return false;
}

void
Pattern::collectIdents(const lang::Stmt& stmt, std::set<std::string>& out)
{
    forEachIdent(stmt, [&](const IdentExpr& e) { out.emplace(e.name); });
}

bool
Pattern::requiredSyms(std::vector<support::SymbolId>& out) const
{
    for (const Alternative& alt : alternatives_) {
        if (alt.required_sym == support::kInvalidSymbol)
            return false;
        out.push_back(alt.required_sym);
    }
    return !alternatives_.empty();
}

void
Pattern::addAlternatives(const Pattern& other)
{
    for (const Alternative& alt : other.alternatives_)
        alternatives_.push_back(alt);
    for (const WildcardDecl& wd : other.wildcards_) {
        bool known = false;
        for (const WildcardDecl& mine : wildcards_)
            if (mine.name == wd.name)
                known = true;
        if (!known)
            wildcards_.push_back(wd);
    }
}

const WildcardDecl*
Pattern::findWildcard(std::string_view name) const
{
    for (const WildcardDecl& wd : wildcards_)
        if (wd.name == name)
            return &wd;
    return nullptr;
}

bool
Pattern::bindWildcard(const WildcardDecl& wd, const Expr& cand,
                      Bindings& bindings) const
{
    // Kind constraints. Types are only partially known in the dialect, so
    // constraints are syntactic plus "definitely wrong" type rejections.
    switch (wd.kind) {
      case WildcardKind::Scalar:
      case WildcardKind::Unsigned:
        if (cand.ekind == ExprKind::FloatLit ||
            cand.ekind == ExprKind::StringLit)
            return false;
        break;
      case WildcardKind::AnyExpr:
        break;
      case WildcardKind::Ident:
        if (cand.ekind != ExprKind::Ident)
            return false;
        break;
      case WildcardKind::Constant:
        if (cand.ekind != ExprKind::IntLit &&
            cand.ekind != ExprKind::CharLit &&
            cand.ekind != ExprKind::Ident)
            return false;
        break;
    }

    // Consistent-binding rule: a wildcard appearing twice in one pattern
    // must match structurally equal expressions.
    if (const Expr* existing = bindings.lookupId(wd.sym))
        return exprEquals(*existing, cand);
    bindings.entries.emplace_back(wd.sym, &cand);
    return true;
}

bool
Pattern::unifyExpr(const Expr& pat, const Expr& cand,
                   Bindings& bindings) const
{
    if (pat.ekind == ExprKind::Ident) {
        const auto& ident = static_cast<const IdentExpr&>(pat);
        if (const WildcardDecl* wd = findWildcard(ident.name))
            return bindWildcard(*wd, cand, bindings);
    }

    if (pat.ekind != cand.ekind)
        return false;

    switch (pat.ekind) {
      case ExprKind::IntLit:
        return static_cast<const IntLitExpr&>(pat).value ==
               static_cast<const IntLitExpr&>(cand).value;
      case ExprKind::FloatLit:
        return static_cast<const FloatLitExpr&>(pat).value ==
               static_cast<const FloatLitExpr&>(cand).value;
      case ExprKind::CharLit:
        return static_cast<const CharLitExpr&>(pat).value ==
               static_cast<const CharLitExpr&>(cand).value;
      case ExprKind::StringLit:
        return static_cast<const StringLitExpr&>(pat).value ==
               static_cast<const StringLitExpr&>(cand).value;
      case ExprKind::Ident:
        return static_cast<const IdentExpr&>(pat).name ==
               static_cast<const IdentExpr&>(cand).name;
      case ExprKind::Unary: {
        const auto& p = static_cast<const UnaryExpr&>(pat);
        const auto& c = static_cast<const UnaryExpr&>(cand);
        return p.op == c.op && unifyExpr(*p.operand, *c.operand, bindings);
      }
      case ExprKind::Binary: {
        const auto& p = static_cast<const BinaryExpr&>(pat);
        const auto& c = static_cast<const BinaryExpr&>(cand);
        return p.op == c.op && unifyExpr(*p.lhs, *c.lhs, bindings) &&
               unifyExpr(*p.rhs, *c.rhs, bindings);
      }
      case ExprKind::Ternary: {
        const auto& p = static_cast<const TernaryExpr&>(pat);
        const auto& c = static_cast<const TernaryExpr&>(cand);
        return unifyExpr(*p.cond, *c.cond, bindings) &&
               unifyExpr(*p.then_expr, *c.then_expr, bindings) &&
               unifyExpr(*p.else_expr, *c.else_expr, bindings);
      }
      case ExprKind::Call: {
        const auto& p = static_cast<const CallExpr&>(pat);
        const auto& c = static_cast<const CallExpr&>(cand);
        if (p.args.size() != c.args.size())
            return false;
        if (!unifyExpr(*p.callee, *c.callee, bindings))
            return false;
        for (std::size_t i = 0; i < p.args.size(); ++i)
            if (!unifyExpr(*p.args[i], *c.args[i], bindings))
                return false;
        return true;
      }
      case ExprKind::Member: {
        const auto& p = static_cast<const MemberExpr&>(pat);
        const auto& c = static_cast<const MemberExpr&>(cand);
        return p.member == c.member && p.is_arrow == c.is_arrow &&
               unifyExpr(*p.base, *c.base, bindings);
      }
      case ExprKind::Index: {
        const auto& p = static_cast<const IndexExpr&>(pat);
        const auto& c = static_cast<const IndexExpr&>(cand);
        return unifyExpr(*p.base, *c.base, bindings) &&
               unifyExpr(*p.index, *c.index, bindings);
      }
      case ExprKind::Cast: {
        const auto& p = static_cast<const CastExpr&>(pat);
        const auto& c = static_cast<const CastExpr&>(cand);
        return unifyExpr(*p.operand, *c.operand, bindings);
      }
      case ExprKind::Sizeof: {
        const auto& p = static_cast<const SizeofExpr&>(pat);
        const auto& c = static_cast<const SizeofExpr&>(cand);
        if ((p.operand == nullptr) != (c.operand == nullptr))
            return false;
        return !p.operand || unifyExpr(*p.operand, *c.operand, bindings);
      }
    }
    return false;
}

bool
Pattern::unifyStmt(const Stmt& pat, const Stmt& cand,
                   Bindings& bindings) const
{
    if (pat.skind != cand.skind)
        return false;
    switch (pat.skind) {
      case StmtKind::Expr:
        return unifyExpr(*static_cast<const ExprStmt&>(pat).expr,
                         *static_cast<const ExprStmt&>(cand).expr, bindings);
      case StmtKind::Return: {
        const auto& p = static_cast<const ReturnStmt&>(pat);
        const auto& c = static_cast<const ReturnStmt&>(cand);
        if ((p.value == nullptr) != (c.value == nullptr))
            return false;
        return !p.value || unifyExpr(*p.value, *c.value, bindings);
      }
      case StmtKind::Break:
      case StmtKind::Continue:
      case StmtKind::Empty:
        return true;
      case StmtKind::Goto:
        return static_cast<const GotoStmt&>(pat).label ==
               static_cast<const GotoStmt&>(cand).label;
      default:
        return false;
    }
}

std::optional<Bindings>
Pattern::matchStmt(const Stmt& stmt) const
{
    for (const Alternative& alt : alternatives_) {
        Bindings bindings;
        if (alt.stmt) {
            if (unifyStmt(*alt.stmt, stmt, bindings))
                return bindings;
        } else if (alt.expr && stmt.skind == StmtKind::Expr) {
            if (unifyExpr(*alt.expr,
                          *static_cast<const ExprStmt&>(stmt).expr,
                          bindings))
                return bindings;
        }
    }
    return std::nullopt;
}

std::optional<Bindings>
Pattern::matchExpr(const Expr& expr) const
{
    for (const Alternative& alt : alternatives_) {
        if (!alt.expr)
            continue;
        Bindings bindings;
        if (unifyExpr(*alt.expr, expr, bindings))
            return bindings;
    }
    return std::nullopt;
}

std::optional<Bindings>
Pattern::matchInStmt(const Stmt& stmt) const
{
    if (auto whole = matchStmt(stmt))
        return whole;

    std::optional<Bindings> found;
    forEachTopLevelExpr(stmt, [&](const Expr& top) {
        if (found)
            return;
        forEachSubExpr(top, [&](const Expr& sub) {
            if (found)
                return;
            if (auto m = matchExpr(sub))
                found = std::move(m);
        });
    });
    return found;
}

} // namespace mc::match
