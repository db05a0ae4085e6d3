#include "lang/token.h"

namespace mc::lang {

const char*
tokKindName(TokKind kind)
{
    switch (kind) {
      case TokKind::End: return "<eof>";
      case TokKind::Identifier: return "identifier";
      case TokKind::IntLiteral: return "integer literal";
      case TokKind::FloatLiteral: return "float literal";
      case TokKind::CharLiteral: return "char literal";
      case TokKind::StringLiteral: return "string literal";
      case TokKind::KwVoid: return "void";
      case TokKind::KwChar: return "char";
      case TokKind::KwShort: return "short";
      case TokKind::KwInt: return "int";
      case TokKind::KwLong: return "long";
      case TokKind::KwUnsigned: return "unsigned";
      case TokKind::KwSigned: return "signed";
      case TokKind::KwFloat: return "float";
      case TokKind::KwDouble: return "double";
      case TokKind::KwStruct: return "struct";
      case TokKind::KwUnion: return "union";
      case TokKind::KwEnum: return "enum";
      case TokKind::KwTypedef: return "typedef";
      case TokKind::KwStatic: return "static";
      case TokKind::KwExtern: return "extern";
      case TokKind::KwConst: return "const";
      case TokKind::KwVolatile: return "volatile";
      case TokKind::KwInline: return "inline";
      case TokKind::KwRegister: return "register";
      case TokKind::KwIf: return "if";
      case TokKind::KwElse: return "else";
      case TokKind::KwWhile: return "while";
      case TokKind::KwFor: return "for";
      case TokKind::KwDo: return "do";
      case TokKind::KwSwitch: return "switch";
      case TokKind::KwCase: return "case";
      case TokKind::KwDefault: return "default";
      case TokKind::KwBreak: return "break";
      case TokKind::KwContinue: return "continue";
      case TokKind::KwReturn: return "return";
      case TokKind::KwGoto: return "goto";
      case TokKind::KwSizeof: return "sizeof";
      case TokKind::LParen: return "(";
      case TokKind::RParen: return ")";
      case TokKind::LBrace: return "{";
      case TokKind::RBrace: return "}";
      case TokKind::LBracket: return "[";
      case TokKind::RBracket: return "]";
      case TokKind::Semicolon: return ";";
      case TokKind::Comma: return ",";
      case TokKind::Colon: return ":";
      case TokKind::Question: return "?";
      case TokKind::Ellipsis: return "...";
      case TokKind::Dot: return ".";
      case TokKind::Arrow: return "->";
      case TokKind::Plus: return "+";
      case TokKind::Minus: return "-";
      case TokKind::Star: return "*";
      case TokKind::Slash: return "/";
      case TokKind::Percent: return "%";
      case TokKind::Amp: return "&";
      case TokKind::Pipe: return "|";
      case TokKind::Caret: return "^";
      case TokKind::Tilde: return "~";
      case TokKind::Bang: return "!";
      case TokKind::Shl: return "<<";
      case TokKind::Shr: return ">>";
      case TokKind::Lt: return "<";
      case TokKind::Gt: return ">";
      case TokKind::Le: return "<=";
      case TokKind::Ge: return ">=";
      case TokKind::EqEq: return "==";
      case TokKind::NotEq: return "!=";
      case TokKind::AmpAmp: return "&&";
      case TokKind::PipePipe: return "||";
      case TokKind::PlusPlus: return "++";
      case TokKind::MinusMinus: return "--";
      case TokKind::Assign: return "=";
      case TokKind::PlusAssign: return "+=";
      case TokKind::MinusAssign: return "-=";
      case TokKind::StarAssign: return "*=";
      case TokKind::SlashAssign: return "/=";
      case TokKind::PercentAssign: return "%=";
      case TokKind::AmpAssign: return "&=";
      case TokKind::PipeAssign: return "|=";
      case TokKind::CaretAssign: return "^=";
      case TokKind::ShlAssign: return "<<=";
      case TokKind::ShrAssign: return ">>=";
    }
    return "<bad token>";
}

TokKind
keywordKind(std::string_view text)
{
    // Dispatch on length, then first byte, then one compare: no hashing
    // on the lexer's per-identifier path.
    auto is = [&](const char* kw, TokKind kind) {
        return text == kw ? kind : TokKind::Identifier;
    };
    switch (text.size()) {
      case 2:
        switch (text[0]) {
          case 'i': return is("if", TokKind::KwIf);
          case 'd': return is("do", TokKind::KwDo);
        }
        break;
      case 3:
        switch (text[0]) {
          case 'i': return is("int", TokKind::KwInt);
          case 'f': return is("for", TokKind::KwFor);
        }
        break;
      case 4:
        switch (text[0]) {
          case 'v': return is("void", TokKind::KwVoid);
          case 'c':
            return text[1] == 'h' ? is("char", TokKind::KwChar)
                                  : is("case", TokKind::KwCase);
          case 'l': return is("long", TokKind::KwLong);
          case 'e':
            return text[1] == 'n' ? is("enum", TokKind::KwEnum)
                                  : is("else", TokKind::KwElse);
          case 'g': return is("goto", TokKind::KwGoto);
        }
        break;
      case 5:
        switch (text[0]) {
          case 's': return is("short", TokKind::KwShort);
          case 'f': return is("float", TokKind::KwFloat);
          case 'u': return is("union", TokKind::KwUnion);
          case 'c': return is("const", TokKind::KwConst);
          case 'w': return is("while", TokKind::KwWhile);
          case 'b': return is("break", TokKind::KwBreak);
        }
        break;
      case 6:
        switch (text[0]) {
          case 's':
            switch (text[1]) {
              case 'i':
                return text[2] == 'g' ? is("signed", TokKind::KwSigned)
                                      : is("sizeof", TokKind::KwSizeof);
              case 't':
                return text[2] == 'r' ? is("struct", TokKind::KwStruct)
                                      : is("static", TokKind::KwStatic);
              case 'w': return is("switch", TokKind::KwSwitch);
            }
            break;
          case 'd': return is("double", TokKind::KwDouble);
          case 'e': return is("extern", TokKind::KwExtern);
          case 'i': return is("inline", TokKind::KwInline);
          case 'r': return is("return", TokKind::KwReturn);
        }
        break;
      case 7:
        switch (text[0]) {
          case 't': return is("typedef", TokKind::KwTypedef);
          case 'd': return is("default", TokKind::KwDefault);
        }
        break;
      case 8:
        switch (text[0]) {
          case 'u': return is("unsigned", TokKind::KwUnsigned);
          case 'v': return is("volatile", TokKind::KwVolatile);
          case 'r': return is("register", TokKind::KwRegister);
          case 'c': return is("continue", TokKind::KwContinue);
        }
        break;
    }
    return TokKind::Identifier;
}

bool
isTypeKeyword(TokKind kind)
{
    switch (kind) {
      case TokKind::KwVoid:
      case TokKind::KwChar:
      case TokKind::KwShort:
      case TokKind::KwInt:
      case TokKind::KwLong:
      case TokKind::KwUnsigned:
      case TokKind::KwSigned:
      case TokKind::KwFloat:
      case TokKind::KwDouble:
      case TokKind::KwStruct:
      case TokKind::KwUnion:
      case TokKind::KwEnum:
        return true;
      default:
        return false;
    }
}

bool
isAssignOp(TokKind kind)
{
    switch (kind) {
      case TokKind::Assign:
      case TokKind::PlusAssign:
      case TokKind::MinusAssign:
      case TokKind::StarAssign:
      case TokKind::SlashAssign:
      case TokKind::PercentAssign:
      case TokKind::AmpAssign:
      case TokKind::PipeAssign:
      case TokKind::CaretAssign:
      case TokKind::ShlAssign:
      case TokKind::ShrAssign:
        return true;
      default:
        return false;
    }
}

} // namespace mc::lang
