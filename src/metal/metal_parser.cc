#include "metal/metal_parser.h"

#include "lang/lexer.h"
#include "lang/parser.h"
#include "support/text.h"

#include <fstream>
#include <sstream>

namespace mc::metal {

using lang::TokKind;
using lang::Token;

namespace {

/**
 * Splits off the optional `{ ... }` prelude from the head of a metal
 * file. Returns the prelude's inner text and sets `rest_begin` to the
 * offset where the `sm` definition starts.
 */
std::string
extractPrelude(const std::string& text, std::size_t& rest_begin)
{
    std::size_t i = 0;
    auto skip_trivia = [&]() {
        while (i < text.size()) {
            char c = text[i];
            if (std::isspace(static_cast<unsigned char>(c))) {
                ++i;
            } else if (c == '/' && i + 1 < text.size() &&
                       text[i + 1] == '/') {
                while (i < text.size() && text[i] != '\n')
                    ++i;
            } else if (c == '/' && i + 1 < text.size() &&
                       text[i + 1] == '*') {
                i += 2;
                while (i + 1 < text.size() &&
                       !(text[i] == '*' && text[i + 1] == '/'))
                    ++i;
                i += 2;
            } else {
                return;
            }
        }
    };

    skip_trivia();
    rest_begin = i;
    if (i >= text.size() || text[i] != '{')
        return "";

    std::size_t open = i;
    int depth = 0;
    for (; i < text.size(); ++i) {
        if (text[i] == '{')
            ++depth;
        else if (text[i] == '}' && --depth == 0)
            break;
    }
    if (depth != 0)
        throw MetalParseError("unterminated prelude block");
    std::string prelude = text.substr(open + 1, i - open - 1);
    rest_begin = i + 1;
    return std::string(support::trim(prelude));
}

class MetalParser
{
  public:
    MetalParser(const std::string& body, const std::string& origin)
        : origin_(origin)
    {
        file_id_ = sm_src_.addFile(origin, body);
        body_ = sm_src_.fileContents(file_id_);
        lang::Lexer lexer(sm_src_, file_id_);
        tokens_ = lexer.lexAll();
        src_ = lexer.source();
    }

    MetalProgram
    parse()
    {
        MetalProgram program;
        program.patterns = std::make_shared<match::PatternContext>();
        pc_ = program.patterns.get();
        program_ = &program;

        expectIdent("sm");
        program.name = std::string(
            spell(expectKind(TokKind::Identifier, "state machine name")));
        program.sm = std::make_shared<StateMachine>(program.name);
        sm_out_ = program.sm.get();

        expectKind(TokKind::LBrace, "to open sm body");
        while (!check(TokKind::RBrace)) {
            if (check(TokKind::End))
                fail("unexpected end of file in sm body");
            parseItem();
        }
        expectKind(TokKind::RBrace, "to close sm body");
        return program;
    }

  private:
    const Token& peek(int ahead = 0) const
    {
        std::size_t p = pos_ + static_cast<std::size_t>(ahead);
        return p < tokens_.size() ? tokens_[p] : tokens_.back();
    }

    const Token& advance()
    {
        const Token& tok = tokens_[pos_];
        if (pos_ + 1 < tokens_.size())
            ++pos_;
        return tok;
    }

    bool check(TokKind kind) const { return peek().kind == kind; }

    bool checkIdent(std::string_view text) const
    {
        return peek().kind == TokKind::Identifier && spell(peek()) == text;
    }

    bool accept(TokKind kind)
    {
        if (check(kind)) {
            advance();
            return true;
        }
        return false;
    }

    const Token&
    expectKind(TokKind kind, const char* what)
    {
        if (!check(kind)) {
            std::ostringstream os;
            os << "expected " << what << " ('" << lang::tokKindName(kind)
               << "'), found '" << lang::tokKindName(peek().kind) << '\'';
            fail(os.str());
        }
        return advance();
    }

    void
    expectIdent(std::string_view text)
    {
        if (!checkIdent(text))
            fail("expected '" + std::string(text) + "'");
        advance();
    }

    [[noreturn]] void
    fail(const std::string& message) const
    {
        std::ostringstream os;
        os << origin_ << ':' << peek().line << ": " << message;
        throw MetalParseError(os.str());
    }

    std::string_view
    spell(const Token& tok) const
    {
        return src_.spelling(tok);
    }

    /** Raw text of a brace-balanced `{...}` starting at the current '{'. */
    std::string
    takeBracedText()
    {
        const Token& open = peek();
        if (!check(TokKind::LBrace))
            fail("expected '{' to open pattern");
        int depth = 0;
        std::size_t start = open.offset;
        while (true) {
            if (check(TokKind::End))
                fail("unterminated '{' in pattern");
            const Token& tok = advance();
            if (tok.kind == TokKind::LBrace) {
                ++depth;
            } else if (tok.kind == TokKind::RBrace && --depth == 0) {
                std::size_t end = std::size_t{tok.offset} + tok.length;
                return std::string(body_.substr(start, end - start));
            }
        }
    }

    /** `==>` is lexed as `==` `>`; both tokens must be present. */
    void
    expectArrow()
    {
        if (!check(TokKind::EqEq) || peek(1).kind != TokKind::Gt)
            fail("expected '==>'");
        advance();
        advance();
    }

    bool
    atArrow() const
    {
        return check(TokKind::EqEq) && peek(1).kind == TokKind::Gt;
    }

    void
    parseItem()
    {
        if (checkIdent("decl")) {
            parseDecl();
        } else if (checkIdent("pat")) {
            parseNamedPattern();
        } else if (check(TokKind::KwExtern)) {
            parseExtern();
        } else if (check(TokKind::Identifier) &&
                   peek(1).kind == TokKind::Colon) {
            parseStateDef();
        } else {
            fail("expected 'decl', 'pat', 'extern', or a state "
                 "definition");
        }
    }

    void
    parseDecl()
    {
        advance(); // decl
        expectKind(TokKind::LBrace, "to open wildcard kind");
        const Token& kind_tok = advance();
        auto kind = match::wildcardKindFromName(spell(kind_tok));
        if (!kind)
            fail("unknown wildcard kind '" + std::string(spell(kind_tok)) +
                 "'");
        expectKind(TokKind::RBrace, "to close wildcard kind");
        do {
            const Token& name =
                expectKind(TokKind::Identifier, "wildcard name");
            wildcards_.push_back(
                match::WildcardDecl{std::string(spell(name)), *kind});
        } while (accept(TokKind::Comma));
        expectKind(TokKind::Semicolon, "after decl");
    }

    /** `extern name, ...;`: declare C++ call tests (dir_check's). */
    void
    parseExtern()
    {
        advance(); // extern
        do {
            std::string name(
                spell(expectKind(TokKind::Identifier, "call test name")));
            if (name == kEndOfPath || named_.count(name) ||
                callTestIndex(name) >= 0)
                fail("'" + name + "' is already defined");
            program_->call_tests.push_back(std::move(name));
        } while (accept(TokKind::Comma));
        expectKind(TokKind::Semicolon, "after extern");
    }

    /** Index of call test `name` in the program's extern list, or -1. */
    int
    callTestIndex(std::string_view name) const
    {
        const std::vector<std::string>& tests = program_->call_tests;
        for (std::size_t i = 0; i < tests.size(); ++i)
            if (tests[i] == name)
                return static_cast<int>(i);
        return -1;
    }

    /** One pattern atom: a braced template or a named-pattern reference. */
    match::Pattern
    parsePatternAtom()
    {
        if (check(TokKind::LBrace)) {
            std::string text = takeBracedText();
            // The template compiles through the dialect parser, whose
            // ParseError/LexError must not escape parseMetal's contract:
            // everything malformed surfaces as MetalParseError.
            try {
                return match::Pattern::compile(*pc_, text, wildcards_);
            } catch (const lang::ParseError& e) {
                fail("malformed pattern template: " +
                     std::string(e.what()));
            } catch (const lang::LexError& e) {
                fail("malformed pattern template: " +
                     std::string(e.what()));
            }
        }
        if (check(TokKind::Identifier)) {
            std::string name(spell(peek()));
            if (name == kEndOfPath || callTestIndex(name) >= 0)
                fail("'" + name + "' can only be a whole rule's pattern");
            advance();
            auto it = named_.find(name);
            if (it == named_.end())
                fail("unknown pattern name '" + name + "'");
            return it->second;
        }
        fail("expected a pattern");
    }

    void
    parseNamedPattern()
    {
        advance(); // pat
        const Token& name = expectKind(TokKind::Identifier, "pattern name");
        if (spell(name) == kEndOfPath || callTestIndex(spell(name)) >= 0)
            fail("'" + std::string(spell(name)) + "' is already defined");
        expectKind(TokKind::Assign, "after pattern name");
        match::Pattern pattern = parsePatternAtom();
        while (accept(TokKind::Pipe))
            pattern.addAlternatives(parsePatternAtom());
        expectKind(TokKind::Semicolon, "after pattern definition");
        named_.emplace(std::string(spell(name)), std::move(pattern));
    }

    /** Stable rule id from an error message: "data send, zero len" ->
     *  "data-send-zero-len". */
    static std::string
    slugify(const std::string& message)
    {
        std::string slug;
        for (char c : message) {
            if (std::isalnum(static_cast<unsigned char>(c)))
                slug += static_cast<char>(
                    std::tolower(static_cast<unsigned char>(c)));
            else if (!slug.empty() && slug.back() != '-')
                slug += '-';
        }
        while (!slug.empty() && slug.back() == '-')
            slug.pop_back();
        return slug;
    }

    /** Parse `{ err("..."); }` (or warn) into `rule`: sets the action and
     *  derives the rule's stable id from the message, unless the action
     *  names it first: `err("rule-id", "...")`. */
    void
    parseActionBlock(StateMachine::Rule& rule)
    {
        expectKind(TokKind::LBrace, "to open action");
        bool is_warning = false;
        if (checkIdent("err")) {
            advance();
        } else if (checkIdent("warn")) {
            is_warning = true;
            advance();
        } else {
            fail("expected 'err' or 'warn' in action");
        }
        expectKind(TokKind::LParen, "after err");
        std::string text = takeString("error message");
        if (accept(TokKind::Comma)) {
            rule.id = std::move(text);
            if (rule.id.empty())
                fail("empty rule id");
            text = takeString("error message");
        } else {
            rule.id = slugify(text);
        }
        expectKind(TokKind::RParen, "after error message");
        accept(TokKind::Semicolon);
        expectKind(TokKind::RBrace, "to close action");

        if (is_warning) {
            rule.action = [text](const ActionContext& action) {
                action.warn(text);
            };
        } else {
            rule.action = [text](const ActionContext& action) {
                action.err(text);
            };
        }
    }

    /** A string literal's text, without its quotes. */
    std::string
    takeString(const char* what)
    {
        std::string_view lit =
            spell(expectKind(TokKind::StringLiteral, what));
        return std::string(lit.substr(1, lit.size() - 2));
    }

    void
    parseStateDef()
    {
        std::string state(spell(advance()));
        advance(); // ':'
        do {
            StateMachine::Rule rule;
            if (checkIdent(kEndOfPath)) {
                advance();
                rule.end_of_path = true;
            } else if (check(TokKind::Identifier) &&
                       callTestIndex(spell(peek())) >= 0) {
                rule.call_test = callTestIndex(spell(advance()));
            } else {
                rule.pattern = parsePatternAtom();
            }
            expectArrow();
            if (check(TokKind::Identifier)) {
                if (rule.end_of_path)
                    fail("an end_of_path rule takes an action, not a "
                         "target state");
                rule.next_state = std::string(spell(advance()));
                if (check(TokKind::LBrace))
                    parseActionBlock(rule);
            } else if (check(TokKind::LBrace)) {
                parseActionBlock(rule);
            } else {
                fail("expected a target state or an action after '==>'");
            }
            sm_out_->addRule(state, std::move(rule));
        } while (accept(TokKind::Pipe));
        expectKind(TokKind::Semicolon, "after state definition");
    }

    std::string origin_;
    support::SourceManager sm_src_;
    std::int32_t file_id_ = 0;
    std::string_view body_;
    std::vector<Token> tokens_;
    lang::TokenSource src_;
    std::size_t pos_ = 0;

    /** The pattern that fires where a path leaves the function. */
    static constexpr std::string_view kEndOfPath = "end_of_path";

    match::PatternContext* pc_ = nullptr;
    MetalProgram* program_ = nullptr;
    StateMachine* sm_out_ = nullptr;
    std::vector<match::WildcardDecl> wildcards_;
    std::map<std::string, match::Pattern> named_;
};

} // namespace

MetalProgram
parseMetal(const std::string& source, const std::string& origin)
{
    std::size_t rest = 0;
    std::string prelude = extractPrelude(source, rest);
    MetalParser parser(source.substr(rest), origin);
    MetalProgram program = parser.parse();
    program.prelude = std::move(prelude);
    return program;
}

MetalProgram
loadMetalFile(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        throw MetalParseError("cannot open metal file: " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parseMetal(buffer.str(), path);
}

int
metalSourceLines(const std::string& source)
{
    int lines = 0;
    bool in_block_comment = false;
    for (const std::string& raw : support::split(source, '\n')) {
        std::string_view line = support::trim(raw);
        if (in_block_comment) {
            auto close = line.find("*/");
            if (close == std::string_view::npos)
                continue;
            line = support::trim(line.substr(close + 2));
            in_block_comment = false;
        }
        // Strip line comments and block comments opened on this line.
        std::string effective;
        for (std::size_t i = 0; i < line.size(); ++i) {
            if (line[i] == '/' && i + 1 < line.size()) {
                if (line[i + 1] == '/')
                    break;
                if (line[i + 1] == '*') {
                    auto close = line.find("*/", i + 2);
                    if (close == std::string_view::npos) {
                        in_block_comment = true;
                        break;
                    }
                    i = close + 1;
                    continue;
                }
            }
            effective += line[i];
        }
        if (!support::trim(effective).empty())
            ++lines;
    }
    return lines;
}

} // namespace mc::metal
