#include "lang/parser.h"

#include "support/fault_injection.h"

#include <cassert>
#include <sstream>

namespace mc::lang {

Parser::Parser(AstContext& ctx, const TokenSource& source,
               std::vector<Token> tokens, ParserSymbols* symbols,
               Options options)
    : ctx_(ctx), src_(source), tokens_(std::move(tokens)),
      symbols_(symbols ? symbols : &local_symbols_), options_(options)
{
    assert(!tokens_.empty() && tokens_.back().kind == TokKind::End);
}

const Token&
Parser::peek(int ahead) const
{
    std::size_t p = pos_ + static_cast<std::size_t>(ahead);
    if (p >= tokens_.size())
        return tokens_.back();
    return tokens_[p];
}

const Token&
Parser::advance()
{
    const Token& tok = tokens_[pos_];
    if (pos_ + 1 < tokens_.size())
        ++pos_;
    return tok;
}

bool
Parser::accept(TokKind kind)
{
    if (check(kind)) {
        advance();
        return true;
    }
    return false;
}

const Token&
Parser::expect(TokKind kind, const char* context)
{
    if (!check(kind)) {
        std::ostringstream os;
        os << "expected '" << tokKindName(kind) << "' " << context
           << ", found '" << tokKindName(peek().kind) << '\'';
        fail(os.str());
    }
    return advance();
}

void
Parser::fail(const std::string& message) const
{
    throw ParseError(locOf(peek()), message);
}

std::string_view
Parser::identName(const Token& tok) const
{
    return symbols_->spellings.name(tok.symbol());
}

void
Parser::nameDecl(Decl& decl, const Token& tok) const
{
    decl.name = identName(tok);
    decl.sym = tok.symbol();
}

// --------------------------------------------------------------------------
// Types
// --------------------------------------------------------------------------

bool
Parser::isTypeName(const Token& tok) const
{
    return symbols_->typedefs.find(tok.symbol()) != kInvalidType;
}

template <typename T>
std::span<T* const>
Parser::takeList(std::size_t mark)
{
    std::span<Node* const> items(list_scratch_);
    std::span<T* const> list = ctx_.copyList<T>(items.subspan(mark));
    list_scratch_.resize(mark);
    return list;
}

bool
Parser::atTypeStart() const
{
    TokKind k = peek().kind;
    if (isTypeKeyword(k) || k == TokKind::KwConst ||
        k == TokKind::KwVolatile || k == TokKind::KwStatic ||
        k == TokKind::KwExtern || k == TokKind::KwRegister ||
        k == TokKind::KwInline)
        return true;
    if (k == TokKind::Identifier && isTypeName(peek())) {
        // `T x`, `T *x`: a type name followed by something that can start
        // a declarator. `T = 3` is an expression.
        TokKind n = peek(1).kind;
        return n == TokKind::Identifier || n == TokKind::Star ||
               n == TokKind::RParen; // cast `(T)`
    }
    return false;
}

TypeId
Parser::parseTypeSpecifier()
{
    TypeTable& types = ctx_.types();

    // Skip qualifiers and storage classes that don't change the type.
    while (accept(TokKind::KwConst) || accept(TokKind::KwVolatile) ||
           accept(TokKind::KwRegister)) {
    }

    if (accept(TokKind::KwStruct)) {
        const Token& tag = expect(TokKind::Identifier, "after 'struct'");
        return types.named(TypeKind::Struct, tag.symbol());
    }
    if (accept(TokKind::KwUnion)) {
        const Token& tag = expect(TokKind::Identifier, "after 'union'");
        return types.named(TypeKind::Union, tag.symbol());
    }
    if (accept(TokKind::KwEnum)) {
        const Token& tag = expect(TokKind::Identifier, "after 'enum'");
        return types.named(TypeKind::Enum, tag.symbol());
    }

    bool is_unsigned = false;
    bool is_signed = false;
    int longs = 0;
    bool saw_base = false;
    TypeKind base = TypeKind::Int;

    while (true) {
        TokKind k = peek().kind;
        if (k == TokKind::KwUnsigned) {
            is_unsigned = true;
            advance();
        } else if (k == TokKind::KwSigned) {
            is_signed = true;
            advance();
        } else if (k == TokKind::KwLong) {
            ++longs;
            advance();
        } else if (k == TokKind::KwShort) {
            base = TypeKind::Short;
            saw_base = true;
            advance();
        } else if (k == TokKind::KwVoid) {
            base = TypeKind::Void;
            saw_base = true;
            advance();
        } else if (k == TokKind::KwChar) {
            base = TypeKind::Char;
            saw_base = true;
            advance();
        } else if (k == TokKind::KwInt) {
            base = TypeKind::Int;
            saw_base = true;
            advance();
        } else if (k == TokKind::KwFloat) {
            base = TypeKind::Float;
            saw_base = true;
            advance();
        } else if (k == TokKind::KwDouble) {
            base = TypeKind::Double;
            saw_base = true;
            advance();
        } else if (k == TokKind::KwConst || k == TokKind::KwVolatile) {
            advance();
        } else {
            break;
        }
    }

    if (!saw_base && !is_unsigned && !is_signed && longs == 0) {
        // Must be a typedef name.
        if (check(TokKind::Identifier)) {
            TypeId named = symbols_->typedefs.find(peek().symbol());
            if (named != kInvalidType) {
                advance();
                return named;
            }
        }
        fail("expected a type");
    }

    if (longs > 0 && base == TypeKind::Int)
        base = TypeKind::Long;
    if (is_unsigned) {
        switch (base) {
          case TypeKind::Char: base = TypeKind::UChar; break;
          case TypeKind::Short: base = TypeKind::UShort; break;
          case TypeKind::Long: base = TypeKind::ULong; break;
          default: base = TypeKind::UInt; break;
        }
    }
    return types.builtin(base);
}

TypeId
Parser::parseDeclaratorPointers(TypeId base)
{
    TypeId t = base;
    while (accept(TokKind::Star)) {
        while (accept(TokKind::KwConst) || accept(TokKind::KwVolatile)) {
        }
        t = ctx_.types().pointerTo(t);
    }
    return t;
}

// --------------------------------------------------------------------------
// Declarations
// --------------------------------------------------------------------------

TranslationUnit
Parser::parseTranslationUnit(std::int32_t file_id)
{
    TranslationUnit tu;
    tu.file_id = file_id;
    while (!check(TokKind::End)) {
        if (!options_.recover) {
            tu.decls.push_back(parseTopLevel());
            continue;
        }
        std::size_t start = pos_;
        support::SourceLoc start_loc = locOf(peek());
        try {
            support::fault::probe("parser.top_level");
            tu.decls.push_back(parseTopLevel());
        } catch (const ParseError& err) {
            list_scratch_.clear(); // lists the failed decl left open
            tu.decls.push_back(
                poisonAndSync(start, start_loc, err.loc(), err.what()));
        } catch (const support::InjectedFault& fault) {
            list_scratch_.clear();
            tu.decls.push_back(
                poisonAndSync(start, start_loc, start_loc, fault.what()));
        }
    }
    tu.issues = issues_;
    return tu;
}

/**
 * Panic-mode recovery: record the issue, then emit a PoisonedDecl
 * covering everything from the failed declaration's first token to the
 * resynchronization point.
 */
PoisonedDecl*
Parser::poisonAndSync(std::size_t start_pos, support::SourceLoc start_loc,
                      support::SourceLoc error_loc,
                      const std::string& message)
{
    issues_.push_back(ParseIssue{error_loc, message, "parse-error"});

    auto* decl = ctx_.make<PoisonedDecl>();
    decl->loc = start_loc;
    decl->error_loc = error_loc;
    decl->message = ctx_.copyText(message);
    if (const Token* name = guessDeclaratorName(start_pos))
        nameDecl(*decl, *name);

    synchronizeTopLevel(start_pos);
    decl->end_loc = locOf(peek());
    return decl;
}

/**
 * Skip tokens until a top-level boundary: a `;` at brace depth zero (a
 * malformed global or typedef) or the `}` that returns the depth to
 * zero (the end of a malformed function body). Depth is measured over
 * everything consumed since `start_pos`, so an error deep inside a body
 * still resynchronizes at that body's closing brace. Always consumes at
 * least one token (unless already at End) so recovery cannot loop.
 */
void
Parser::synchronizeTopLevel(std::size_t start_pos)
{
    int depth = 0;
    for (std::size_t i = start_pos; i < pos_; ++i) {
        if (tokens_[i].kind == TokKind::LBrace)
            ++depth;
        else if (tokens_[i].kind == TokKind::RBrace)
            --depth;
    }

    while (!check(TokKind::End)) {
        TokKind k = peek().kind;
        if (k == TokKind::LBrace) {
            ++depth;
        } else if (k == TokKind::RBrace) {
            --depth;
            if (depth <= 0) {
                advance();
                // A struct/enum definition's body ends `};` — eat the
                // semicolon so it isn't mistaken for a stray statement.
                accept(TokKind::Semicolon);
                return;
            }
        } else if (depth <= 0 && k == TokKind::Semicolon) {
            advance();
            return;
        }
        advance();
    }
}

/**
 * Best-effort name for the poisoned region: the identifier directly
 * before the first '(' (a function declarator), else the last
 * identifier before the error. Purely cosmetic — used in diagnostics.
 */
const Token*
Parser::guessDeclaratorName(std::size_t start_pos) const
{
    const Token* last_ident = nullptr;
    for (std::size_t i = start_pos; i < pos_ && i < tokens_.size(); ++i) {
        const Token& tok = tokens_[i];
        if (tok.kind == TokKind::LParen && last_ident)
            return last_ident;
        if (tok.kind == TokKind::Identifier)
            last_ident = &tok;
    }
    return last_ident;
}

Decl*
Parser::parseTopLevel()
{
    if (check(TokKind::KwTypedef))
        return parseTypedef();
    if ((check(TokKind::KwStruct) || check(TokKind::KwUnion)) &&
        peek(1).kind == TokKind::Identifier &&
        peek(2).kind == TokKind::LBrace)
        return parseRecordDefinition();
    if (check(TokKind::KwEnum) && peek(1).kind == TokKind::Identifier &&
        peek(2).kind == TokKind::LBrace)
        return parseEnumDefinition();
    return parseFunctionOrGlobal();
}

Decl*
Parser::parseTypedef()
{
    support::SourceLoc loc = locOf(peek());
    expect(TokKind::KwTypedef, "at typedef");
    TypeId base = parseTypeSpecifier();
    TypeId type = parseDeclaratorPointers(base);
    const Token& name = expect(TokKind::Identifier, "in typedef");
    expect(TokKind::Semicolon, "after typedef");

    auto* decl = ctx_.make<TypedefDecl>();
    decl->loc = loc;
    nameDecl(*decl, name);
    decl->type = type;
    symbols_->typedefs.set(name.symbol(), type);
    return decl;
}

RecordDecl*
Parser::parseRecordDefinition()
{
    support::SourceLoc loc = locOf(peek());
    bool is_union = check(TokKind::KwUnion);
    advance(); // struct / union
    const Token& tag = expect(TokKind::Identifier, "after struct/union");

    auto* decl = ctx_.make<RecordDecl>();
    decl->loc = loc;
    decl->is_union = is_union;
    nameDecl(*decl, tag);
    decl->type = ctx_.types().named(
        is_union ? TypeKind::Union : TypeKind::Struct, tag.symbol());

    expect(TokKind::LBrace, "to open struct body");
    std::vector<TypeId> field_types;
    std::size_t mark = list_scratch_.size();
    while (!check(TokKind::RBrace)) {
        TypeId base = parseTypeSpecifier();
        do {
            TypeId ft = parseDeclaratorPointers(base);
            const Token& fname =
                expect(TokKind::Identifier, "as field name");
            if (accept(TokKind::LBracket)) {
                const Token& size =
                    expect(TokKind::IntLiteral, "as array size");
                expect(TokKind::RBracket, "after array size");
                ft = ctx_.types().arrayOf(ft, src_.intValue(size));
            }
            auto* field = ctx_.make<VarDecl>();
            field->loc = locOf(fname);
            nameDecl(*field, fname);
            field->type = ft;
            list_scratch_.push_back(field);
            field_types.push_back(ft);
        } while (accept(TokKind::Comma));
        expect(TokKind::Semicolon, "after field");
    }
    expect(TokKind::RBrace, "to close struct body");
    expect(TokKind::Semicolon, "after struct definition");
    decl->fields = takeList<VarDecl>(mark);
    ctx_.types().defineRecord(decl->type, std::move(field_types));
    return decl;
}

EnumDecl*
Parser::parseEnumDefinition()
{
    support::SourceLoc loc = locOf(peek());
    expect(TokKind::KwEnum, "at enum");
    const Token& tag = expect(TokKind::Identifier, "after enum");

    auto* decl = ctx_.make<EnumDecl>();
    decl->loc = loc;
    nameDecl(*decl, tag);
    decl->type = ctx_.types().named(TypeKind::Enum, tag.symbol());

    expect(TokKind::LBrace, "to open enum body");
    std::size_t mark = list_scratch_.size();
    std::int64_t next_value = 0;
    while (!check(TokKind::RBrace)) {
        const Token& cname =
            expect(TokKind::Identifier, "as enum constant");
        auto* constant = ctx_.make<EnumConstDecl>();
        constant->loc = locOf(cname);
        nameDecl(*constant, cname);
        if (accept(TokKind::Assign)) {
            bool negative = accept(TokKind::Minus);
            const Token& value =
                expect(TokKind::IntLiteral, "as enum value");
            std::int64_t v = src_.intValue(value);
            constant->value = negative ? -v : v;
        } else {
            constant->value = next_value;
        }
        next_value = constant->value + 1;
        list_scratch_.push_back(constant);
        if (!accept(TokKind::Comma))
            break;
    }
    expect(TokKind::RBrace, "to close enum body");
    expect(TokKind::Semicolon, "after enum definition");
    decl->constants = takeList<EnumConstDecl>(mark);
    return decl;
}

Decl*
Parser::parseFunctionOrGlobal()
{
    support::SourceLoc loc = locOf(peek());
    bool is_static = false;
    bool is_inline = false;
    bool is_extern = false;
    while (true) {
        if (accept(TokKind::KwStatic)) {
            is_static = true;
        } else if (accept(TokKind::KwInline)) {
            is_inline = true;
        } else if (accept(TokKind::KwExtern)) {
            is_extern = true;
        } else {
            break;
        }
    }

    TypeId base = parseTypeSpecifier();
    TypeId type = parseDeclaratorPointers(base);
    const Token& name = expect(TokKind::Identifier, "as declarator name");

    if (check(TokKind::LParen))
        return parseFunctionRest(type, name, loc, is_static, is_inline);

    // Global variable(s).
    auto* first = ctx_.make<VarDecl>();
    first->loc = loc;
    nameDecl(*first, name);
    first->type = type;
    first->is_static = is_static;
    first->is_extern = is_extern;
    if (accept(TokKind::LBracket)) {
        const Token& size = expect(TokKind::IntLiteral, "as array size");
        expect(TokKind::RBracket, "after array size");
        first->type = ctx_.types().arrayOf(first->type, src_.intValue(size));
    }
    if (accept(TokKind::Assign))
        first->init = parseExpression(kPrecAssign);
    // Additional declarators share the base type; we return only the first
    // decl from the top level and attach the rest as separate decls is not
    // needed for the dialect — the corpus emits one global per statement.
    expect(TokKind::Semicolon, "after global variable");
    return first;
}

FunctionDecl*
Parser::parseFunctionRest(TypeId ret, const Token& name,
                          support::SourceLoc loc, bool is_static,
                          bool is_inline)
{
    auto* fn = ctx_.make<FunctionDecl>();
    fn->loc = loc;
    nameDecl(*fn, name);
    fn->return_type = ret;
    fn->is_static = is_static;
    fn->is_inline = is_inline;

    expect(TokKind::LParen, "to open parameter list");
    if (!check(TokKind::RParen)) {
        if (check(TokKind::KwVoid) && peek(1).kind == TokKind::RParen) {
            advance();
        } else {
            std::size_t mark = list_scratch_.size();
            do {
                TypeId base = parseTypeSpecifier();
                TypeId pt = parseDeclaratorPointers(base);
                auto* param = ctx_.make<ParamDecl>();
                param->loc = locOf(peek());
                param->type = pt;
                if (check(TokKind::Identifier))
                    nameDecl(*param, advance());
                list_scratch_.push_back(param);
            } while (accept(TokKind::Comma));
            fn->params = takeList<ParamDecl>(mark);
        }
    }
    expect(TokKind::RParen, "to close parameter list");

    if (accept(TokKind::Semicolon))
        return fn; // prototype

    fn->body = parseCompound();
    return fn;
}

DeclStmt*
Parser::parseLocalDecl()
{
    auto* stmt = ctx_.make<DeclStmt>();
    stmt->loc = locOf(peek());

    bool is_static = accept(TokKind::KwStatic);
    TypeId base = parseTypeSpecifier();
    std::size_t mark = list_scratch_.size();
    do {
        TypeId type = parseDeclaratorPointers(base);
        const Token& name = expect(TokKind::Identifier, "as variable name");
        auto* var = ctx_.make<VarDecl>();
        var->loc = locOf(name);
        nameDecl(*var, name);
        var->type = type;
        var->is_static = is_static;
        if (accept(TokKind::LBracket)) {
            const Token& size =
                expect(TokKind::IntLiteral, "as array size");
            expect(TokKind::RBracket, "after array size");
            var->type = ctx_.types().arrayOf(var->type, src_.intValue(size));
        }
        if (accept(TokKind::Assign))
            var->init = parseExpression(kPrecAssign);
        list_scratch_.push_back(var);
    } while (accept(TokKind::Comma));
    stmt->decls = takeList<VarDecl>(mark);
    expectStatementEnd();
    return stmt;
}

// --------------------------------------------------------------------------
// Statements
// --------------------------------------------------------------------------

void
Parser::expectStatementEnd()
{
    if (accept(TokKind::Semicolon))
        return;
    if (options_.allow_missing_semicolon &&
        (check(TokKind::RBrace) || check(TokKind::End)))
        return;
    fail("expected ';' to end statement");
}

Stmt*
Parser::parseSingleStatement()
{
    Stmt* stmt = parseStatement();
    if (!check(TokKind::End))
        fail("trailing tokens after statement");
    return stmt;
}

Expr*
Parser::parseSingleExpression()
{
    Expr* expr = parseExpression();
    if (!check(TokKind::End))
        fail("trailing tokens after expression");
    return expr;
}

Stmt*
Parser::parseStatement()
{
    support::SourceLoc loc = locOf(peek());
    switch (peek().kind) {
      case TokKind::LBrace:
        return parseCompound();
      case TokKind::KwIf:
        return parseIf();
      case TokKind::KwWhile:
        return parseWhile();
      case TokKind::KwDo:
        return parseDoWhile();
      case TokKind::KwFor:
        return parseFor();
      case TokKind::KwSwitch:
        return parseSwitch();
      case TokKind::KwCase: {
        advance();
        auto* stmt = ctx_.make<CaseStmt>();
        stmt->loc = loc;
        stmt->value = parseExpression(kPrecTernary);
        expect(TokKind::Colon, "after case value");
        return stmt;
      }
      case TokKind::KwDefault: {
        advance();
        expect(TokKind::Colon, "after 'default'");
        auto* stmt = ctx_.make<DefaultStmt>();
        stmt->loc = loc;
        return stmt;
      }
      case TokKind::KwBreak: {
        advance();
        expectStatementEnd();
        auto* stmt = ctx_.make<BreakStmt>();
        stmt->loc = loc;
        return stmt;
      }
      case TokKind::KwContinue: {
        advance();
        expectStatementEnd();
        auto* stmt = ctx_.make<ContinueStmt>();
        stmt->loc = loc;
        return stmt;
      }
      case TokKind::KwReturn: {
        advance();
        auto* stmt = ctx_.make<ReturnStmt>();
        stmt->loc = loc;
        if (!check(TokKind::Semicolon) && !check(TokKind::RBrace))
            stmt->value = parseExpression();
        expectStatementEnd();
        return stmt;
      }
      case TokKind::KwGoto: {
        advance();
        const Token& label = expect(TokKind::Identifier, "after 'goto'");
        expectStatementEnd();
        auto* stmt = ctx_.make<GotoStmt>();
        stmt->loc = loc;
        stmt->label = identName(label);
        return stmt;
      }
      case TokKind::Semicolon: {
        advance();
        auto* stmt = ctx_.make<EmptyStmt>();
        stmt->loc = loc;
        return stmt;
      }
      default:
        break;
    }

    // Label: `name ':'` (not followed by another ':' — no C++ scoping).
    if (check(TokKind::Identifier) && peek(1).kind == TokKind::Colon) {
        auto* stmt = ctx_.make<LabelStmt>();
        stmt->loc = loc;
        stmt->name = identName(advance());
        advance(); // ':'
        return stmt;
    }

    if (atTypeStart())
        return parseLocalDecl();

    auto* stmt = ctx_.make<ExprStmt>();
    stmt->loc = loc;
    stmt->expr = parseExpression();
    expectStatementEnd();
    return stmt;
}

CompoundStmt*
Parser::parseCompound()
{
    auto* block = ctx_.make<CompoundStmt>();
    block->loc = locOf(peek());
    expect(TokKind::LBrace, "to open block");
    std::size_t mark = list_scratch_.size();
    while (!check(TokKind::RBrace)) {
        if (check(TokKind::End))
            fail("unexpected end of file inside block");
        Stmt* stmt = parseStatement();
        list_scratch_.push_back(stmt);
    }
    expect(TokKind::RBrace, "to close block");
    block->stmts = takeList<Stmt>(mark);
    return block;
}

Stmt*
Parser::parseIf()
{
    auto* stmt = ctx_.make<IfStmt>();
    stmt->loc = locOf(peek());
    expect(TokKind::KwIf, "at if");
    expect(TokKind::LParen, "after 'if'");
    stmt->cond = parseExpression();
    expect(TokKind::RParen, "after if condition");
    stmt->then_branch = parseStatement();
    if (accept(TokKind::KwElse))
        stmt->else_branch = parseStatement();
    return stmt;
}

Stmt*
Parser::parseWhile()
{
    auto* stmt = ctx_.make<WhileStmt>();
    stmt->loc = locOf(peek());
    expect(TokKind::KwWhile, "at while");
    expect(TokKind::LParen, "after 'while'");
    stmt->cond = parseExpression();
    expect(TokKind::RParen, "after while condition");
    stmt->body = parseStatement();
    return stmt;
}

Stmt*
Parser::parseDoWhile()
{
    auto* stmt = ctx_.make<DoWhileStmt>();
    stmt->loc = locOf(peek());
    expect(TokKind::KwDo, "at do");
    stmt->body = parseStatement();
    expect(TokKind::KwWhile, "after do body");
    expect(TokKind::LParen, "after 'while'");
    stmt->cond = parseExpression();
    expect(TokKind::RParen, "after do-while condition");
    expectStatementEnd();
    return stmt;
}

Stmt*
Parser::parseFor()
{
    auto* stmt = ctx_.make<ForStmt>();
    stmt->loc = locOf(peek());
    expect(TokKind::KwFor, "at for");
    expect(TokKind::LParen, "after 'for'");
    if (!accept(TokKind::Semicolon)) {
        if (atTypeStart()) {
            stmt->init = parseLocalDecl();
        } else {
            auto* init = ctx_.make<ExprStmt>();
            init->loc = locOf(peek());
            init->expr = parseExpression();
            expect(TokKind::Semicolon, "after for initializer");
            stmt->init = init;
        }
    }
    if (!check(TokKind::Semicolon))
        stmt->cond = parseExpression();
    expect(TokKind::Semicolon, "after for condition");
    if (!check(TokKind::RParen))
        stmt->step = parseExpression();
    expect(TokKind::RParen, "after for step");
    stmt->body = parseStatement();
    return stmt;
}

Stmt*
Parser::parseSwitch()
{
    auto* stmt = ctx_.make<SwitchStmt>();
    stmt->loc = locOf(peek());
    expect(TokKind::KwSwitch, "at switch");
    expect(TokKind::LParen, "after 'switch'");
    stmt->cond = parseExpression();
    expect(TokKind::RParen, "after switch condition");
    stmt->body = parseStatement();
    return stmt;
}

// --------------------------------------------------------------------------
// Expressions
// --------------------------------------------------------------------------

/**
 * Precedence climbing over kInfixOps: one loop for every binary,
 * assignment, conditional and comma operator that binds at least as
 * tightly as `min_precedence`. A left-associative operator's right
 * operand binds one level tighter than the operator itself, a
 * right-associative one's at its own level. `c ? x : y` takes a whole
 * comma expression between '?' and ':', and an assignment expression
 * after ':'.
 */
Expr*
Parser::parseExpression(Precedence min_precedence)
{
    assert(min_precedence != kPrecNone);
    Expr* lhs = parseUnary();
    while (true) {
        const TokKind kind = peek().kind;
        const InfixOp& infix = kInfixOps[static_cast<std::size_t>(kind)];
        if (infix.precedence < min_precedence)
            return lhs;
        support::SourceLoc loc = locOf(advance());
        if (kind == TokKind::Question) {
            auto* ternary = ctx_.make<TernaryExpr>();
            ternary->loc = loc;
            ternary->cond = lhs;
            ternary->then_expr = parseExpression(kPrecComma);
            expect(TokKind::Colon, "in ternary expression");
            ternary->else_expr = parseExpression(kPrecAssign);
            lhs = ternary;
            continue;
        }
        auto* bin = ctx_.make<BinaryExpr>();
        bin->loc = loc;
        bin->op = infix.op;
        bin->lhs = lhs;
        bin->rhs = parseExpression(static_cast<Precedence>(
            infix.right_assoc ? infix.precedence : infix.precedence + 1));
        lhs = bin;
    }
}

bool
Parser::looksLikeCast() const
{
    if (!check(TokKind::LParen))
        return false;
    TokKind k = peek(1).kind;
    if (isTypeKeyword(k))
        return true;
    if (k == TokKind::Identifier && isTypeName(peek(1))) {
        TokKind after = peek(2).kind;
        return after == TokKind::RParen || after == TokKind::Star;
    }
    return false;
}

Expr*
Parser::parseUnary()
{
    const Token& start = peek();
    Expr* base = nullptr; // the operand of the postfix operators
    auto make_unary = [&](UnaryOp op) -> Expr* {
        advance();
        auto* u = ctx_.make<UnaryExpr>();
        u->loc = locOf(start);
        u->op = op;
        u->operand = parseUnary();
        return u;
    };

    // One dispatch on the first token: a prefix operator, a cast, or a
    // primary expression that postfix operators may follow.
    switch (start.kind) {
      case TokKind::Plus: return make_unary(UnaryOp::Plus);
      case TokKind::Minus: return make_unary(UnaryOp::Neg);
      case TokKind::Bang: return make_unary(UnaryOp::Not);
      case TokKind::Tilde: return make_unary(UnaryOp::BitNot);
      case TokKind::Star: return make_unary(UnaryOp::Deref);
      case TokKind::Amp: return make_unary(UnaryOp::AddrOf);
      case TokKind::PlusPlus: return make_unary(UnaryOp::PreInc);
      case TokKind::MinusMinus: return make_unary(UnaryOp::PreDec);
      case TokKind::KwSizeof: {
        advance();
        auto* s = ctx_.make<SizeofExpr>();
        s->loc = locOf(start);
        if (check(TokKind::LParen) &&
            (isTypeKeyword(peek(1).kind) ||
             (peek(1).kind == TokKind::Identifier &&
              isTypeName(peek(1))))) {
            advance();
            TypeId base = parseTypeSpecifier();
            s->type_operand = parseDeclaratorPointers(base);
            expect(TokKind::RParen, "after sizeof type");
        } else {
            s->operand = parseUnary();
        }
        return s;
      }
      case TokKind::LParen:
        if (looksLikeCast()) {
            advance();
            TypeId base = parseTypeSpecifier();
            TypeId target = parseDeclaratorPointers(base);
            expect(TokKind::RParen, "after cast type");
            auto* cast = ctx_.make<CastExpr>();
            cast->loc = locOf(start);
            cast->target = target;
            cast->operand = parseUnary();
            return cast;
        }
        advance();
        base = parseExpression();
        expect(TokKind::RParen, "to close parenthesized expression");
        break;
      case TokKind::IntLiteral: {
        advance();
        auto* lit = ctx_.make<IntLitExpr>();
        lit->loc = locOf(start);
        lit->value = src_.intValue(start);
        lit->spelling = ctx_.copyText(src_.spelling(start));
        lit->type = ctx_.types().builtin(TypeKind::Int);
        base = lit;
        break;
      }
      case TokKind::FloatLiteral: {
        advance();
        auto* lit = ctx_.make<FloatLitExpr>();
        lit->loc = locOf(start);
        lit->value = src_.floatValue(start);
        lit->type = ctx_.types().builtin(TypeKind::Double);
        base = lit;
        break;
      }
      case TokKind::CharLiteral: {
        advance();
        auto* lit = ctx_.make<CharLitExpr>();
        lit->loc = locOf(start);
        lit->value = src_.intValue(start);
        lit->type = ctx_.types().builtin(TypeKind::Char);
        base = lit;
        break;
      }
      case TokKind::StringLiteral: {
        advance();
        auto* lit = ctx_.make<StringLitExpr>();
        lit->loc = locOf(start);
        lit->value = ctx_.copyText(src_.spelling(start));
        base = lit;
        break;
      }
      case TokKind::Identifier: {
        advance();
        auto* ident = ctx_.make<IdentExpr>();
        ident->loc = locOf(start);
        ident->name = identName(start);
        ident->sym = start.symbol();
        base = ident;
        break;
      }
      default:
        fail(std::string("expected an expression, found '") +
             tokKindName(start.kind) + '\'');
    }
    return parsePostfix(base);
}

Expr*
Parser::parsePostfix(Expr* base)
{
    while (true) {
        const Token& op = peek();
        if (accept(TokKind::LParen)) {
            auto* call = ctx_.make<CallExpr>();
            call->loc = base->loc;
            call->callee = base;
            std::size_t mark = list_scratch_.size();
            if (!check(TokKind::RParen)) {
                do {
                    Expr* arg = parseExpression(kPrecAssign);
                    list_scratch_.push_back(arg);
                } while (accept(TokKind::Comma));
            }
            expect(TokKind::RParen, "to close call");
            call->args = takeList<Expr>(mark);
            base = call;
        } else if (accept(TokKind::LBracket)) {
            auto* index = ctx_.make<IndexExpr>();
            index->loc = locOf(op);
            index->base = base;
            index->index = parseExpression();
            expect(TokKind::RBracket, "to close index");
            base = index;
        } else if (check(TokKind::Dot) || check(TokKind::Arrow)) {
            bool arrow = advance().kind == TokKind::Arrow;
            const Token& member =
                expect(TokKind::Identifier, "as member name");
            auto* mem = ctx_.make<MemberExpr>();
            mem->loc = locOf(op);
            mem->base = base;
            mem->member = identName(member);
            mem->is_arrow = arrow;
            base = mem;
        } else if (check(TokKind::PlusPlus) || check(TokKind::MinusMinus)) {
            bool inc = advance().kind == TokKind::PlusPlus;
            auto* u = ctx_.make<UnaryExpr>();
            u->loc = locOf(op);
            u->op = inc ? UnaryOp::PostInc : UnaryOp::PostDec;
            u->operand = base;
            base = u;
        } else {
            return base;
        }
    }
}

TranslationUnit
parseSource(AstContext& ctx, support::SourceManager& sm, std::string name,
            std::string source, ParserSymbols* symbols)
{
    std::int32_t id = sm.addFile(std::move(name), std::move(source));
    ParserSymbols local;
    if (!symbols)
        symbols = &local;
    Lexer lexer(sm, id, &symbols->spellings);
    std::vector<Token> tokens = lexer.lexAll();
    Parser parser(ctx, lexer.source(), std::move(tokens), symbols);
    TranslationUnit tu = parser.parseTranslationUnit(id);
    tu.directives = lexer.directives();
    return tu;
}

} // namespace mc::lang
