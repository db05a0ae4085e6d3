#include "sim/interp.h"

#include "flash/macros.h"

#include <cassert>

namespace mc::sim {

using namespace mc::lang;

/** Scoped variable environment. Assignment to unknown names creates a
 *  binding in the innermost scope (the dialect leaves protocol globals
 *  undeclared). */
class Interpreter::Env
{
  public:
    Env() { scopes_.emplace_back(); }

    void push() { scopes_.emplace_back(); }
    void pop() { scopes_.pop_back(); }

    std::int64_t*
    find(std::string_view name)
    {
        for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
            auto found = it->find(name);
            if (found != it->end())
                return &found->second;
        }
        return nullptr;
    }

    void
    declare(std::string_view name, std::int64_t value)
    {
        scopes_.back()[name] = value;
    }

    void
    set(std::string_view name, std::int64_t value)
    {
        if (std::int64_t* slot = find(name))
            *slot = value;
        else
            scopes_.back()[name] = value;
    }

  private:
    // Names view the AST, which outlives every interpreter run.
    std::vector<std::map<std::string_view, std::int64_t>> scopes_;
};

Interpreter::Interpreter(const Program& program,
                         const flash::ProtocolSpec& spec, MagicNode& node,
                         Options options)
    : program_(program), spec_(spec), node_(node), options_(options)
{
    constants_ = {
        {"F_DATA", 1},      {"F_NODATA", 0},   {"F_WAIT", 1},
        {"F_NOWAIT", 0},    {"F_KEEP", 0},     {"F_SWAP", 0},
        {"F_DEC", 0},       {"F_NULL", 0},     {"LEN_NODATA", kLenNoData},
        {"LEN_WORD", kLenWord},                {"LEN_CACHELINE",
                                                kLenCacheline},
        {"DIRTY", 1},       {"CLEAN", 0},      {"PENDING", 2},
        {"DIR_BASE", 4096},
    };
    int opcode_value = 16;
    for (const auto& [opcode, lane] : spec.opcodeLanes())
        constants_[opcode] = opcode_value++;
}

std::int64_t
Interpreter::constantValue(std::string_view name) const
{
    auto it = constants_.find(name);
    return it == constants_.end() ? 0 : it->second;
}

void
Interpreter::runFunction(const FunctionDecl& fn)
{
    if (!fn.body || depth_ >= options_.max_depth)
        return;
    if (depth_ == 0) {
        // The statement budget is per handler invocation.
        total_steps_ += steps_;
        steps_ = 0;
    }
    ++depth_;
    Env env;
    execStmt(*fn.body, env);
    --depth_;
}

Interpreter::Flow
Interpreter::execStmt(const Stmt& stmt, Env& env)
{
    if (++steps_ > options_.max_steps)
        return Flow::Return;
    node_.tick();

    switch (stmt.skind) {
      case StmtKind::Compound: {
        const auto& block = static_cast<const CompoundStmt&>(stmt);
        env.push();
        Flow flow = Flow::Normal;
        for (const Stmt* child : block.stmts) {
            flow = execStmt(*child, env);
            if (flow != Flow::Normal)
                break;
        }
        env.pop();
        return flow;
      }
      case StmtKind::Expr:
        eval(*static_cast<const ExprStmt&>(stmt).expr, env);
        return Flow::Normal;
      case StmtKind::Decl: {
        const auto& decl = static_cast<const DeclStmt&>(stmt);
        for (const VarDecl* var : decl.decls) {
            std::int64_t value = var->init ? eval(*var->init, env) : 0;
            env.declare(var->name, value);
        }
        return Flow::Normal;
      }
      case StmtKind::If: {
        const auto& s = static_cast<const IfStmt&>(stmt);
        if (eval(*s.cond, env) != 0)
            return execStmt(*s.then_branch, env);
        if (s.else_branch)
            return execStmt(*s.else_branch, env);
        return Flow::Normal;
      }
      case StmtKind::While: {
        const auto& s = static_cast<const WhileStmt&>(stmt);
        while (eval(*s.cond, env) != 0) {
            Flow flow = execStmt(*s.body, env);
            if (flow == Flow::Break)
                break;
            if (flow == Flow::Return)
                return flow;
            if (steps_ > options_.max_steps)
                return Flow::Return;
        }
        return Flow::Normal;
      }
      case StmtKind::DoWhile: {
        const auto& s = static_cast<const DoWhileStmt&>(stmt);
        do {
            Flow flow = execStmt(*s.body, env);
            if (flow == Flow::Break)
                break;
            if (flow == Flow::Return)
                return flow;
            if (steps_ > options_.max_steps)
                return Flow::Return;
        } while (eval(*s.cond, env) != 0);
        return Flow::Normal;
      }
      case StmtKind::For: {
        const auto& s = static_cast<const ForStmt&>(stmt);
        env.push();
        if (s.init)
            execStmt(*s.init, env);
        while (!s.cond || eval(*s.cond, env) != 0) {
            Flow flow = execStmt(*s.body, env);
            if (flow == Flow::Break)
                break;
            if (flow == Flow::Return) {
                env.pop();
                return flow;
            }
            if (s.step)
                eval(*s.step, env);
            if (steps_ > options_.max_steps)
                break;
        }
        env.pop();
        return Flow::Normal;
      }
      case StmtKind::Switch:
        return execSwitch(static_cast<const SwitchStmt&>(stmt), env);
      case StmtKind::Break:
        return Flow::Break;
      case StmtKind::Continue:
        return Flow::Continue;
      case StmtKind::Return: {
        const auto& s = static_cast<const ReturnStmt&>(stmt);
        if (s.value)
            eval(*s.value, env);
        return Flow::Return;
      }
      case StmtKind::Goto:
      case StmtKind::Label:
        // The corpus does not emit gotos; treat a stray one as a no-op
        // label / fallthrough for robustness.
        return Flow::Normal;
      case StmtKind::Case:
      case StmtKind::Default:
      case StmtKind::Empty:
        return Flow::Normal;
    }
    return Flow::Normal;
}

Interpreter::Flow
Interpreter::execSwitch(const SwitchStmt& stmt, Env& env)
{
    std::int64_t selector = eval(*stmt.cond, env);
    if (!stmt.body || stmt.body->skind != StmtKind::Compound)
        return Flow::Normal;
    const auto& body = static_cast<const CompoundStmt&>(*stmt.body);

    // Find the matching case (or default) index, then execute with
    // fallthrough until break.
    std::size_t start = body.stmts.size();
    std::size_t default_at = body.stmts.size();
    for (std::size_t i = 0; i < body.stmts.size(); ++i) {
        const Stmt* child = body.stmts[i];
        if (child->skind == StmtKind::Case) {
            std::int64_t value =
                eval(*static_cast<const CaseStmt*>(child)->value, env);
            if (value == selector && start == body.stmts.size())
                start = i;
        } else if (child->skind == StmtKind::Default) {
            default_at = i;
        }
    }
    if (start == body.stmts.size())
        start = default_at;

    env.push();
    Flow flow = Flow::Normal;
    for (std::size_t i = start; i < body.stmts.size(); ++i) {
        flow = execStmt(*body.stmts[i], env);
        if (flow == Flow::Break) {
            flow = Flow::Normal;
            break;
        }
        if (flow == Flow::Return || flow == Flow::Continue)
            break;
    }
    env.pop();
    return flow;
}

void
Interpreter::assign(const Expr& lhs, std::int64_t value, Env& env)
{
    if (lhs.ekind == ExprKind::Ident) {
        env.set(static_cast<const IdentExpr&>(lhs).name, value);
        return;
    }
    // HANDLER_GLOBALS(header.nh.len) = LEN_x;
    if (const CallExpr* call = asCall(lhs)) {
        if (flash::classifyMacro(call->calleeName()) ==
            flash::MacroKind::HandlerGlobals) {
            node_.setHeaderLength(value);
            return;
        }
    }
    // Member/index stores have no modeled backing memory; drop them.
}

std::int64_t
Interpreter::eval(const Expr& expr, Env& env)
{
    switch (expr.ekind) {
      case ExprKind::IntLit:
        return static_cast<const IntLitExpr&>(expr).value;
      case ExprKind::FloatLit:
        return static_cast<std::int64_t>(
            static_cast<const FloatLitExpr&>(expr).value);
      case ExprKind::CharLit:
        return static_cast<const CharLitExpr&>(expr).value;
      case ExprKind::StringLit:
        return 1;
      case ExprKind::Ident: {
        const auto& ident = static_cast<const IdentExpr&>(expr);
        if (std::int64_t* slot = env.find(ident.name))
            return *slot;
        return constantValue(ident.name);
      }
      case ExprKind::Unary: {
        const auto& u = static_cast<const UnaryExpr&>(expr);
        switch (u.op) {
          case UnaryOp::Plus: return eval(*u.operand, env);
          case UnaryOp::Neg: return -eval(*u.operand, env);
          case UnaryOp::Not: return eval(*u.operand, env) == 0 ? 1 : 0;
          case UnaryOp::BitNot: return ~eval(*u.operand, env);
          case UnaryOp::Deref: return eval(*u.operand, env);
          case UnaryOp::AddrOf: return eval(*u.operand, env);
          case UnaryOp::PreInc:
          case UnaryOp::PostInc: {
            std::int64_t old = eval(*u.operand, env);
            assign(*u.operand, old + 1, env);
            return u.op == UnaryOp::PreInc ? old + 1 : old;
          }
          case UnaryOp::PreDec:
          case UnaryOp::PostDec: {
            std::int64_t old = eval(*u.operand, env);
            assign(*u.operand, old - 1, env);
            return u.op == UnaryOp::PreDec ? old - 1 : old;
          }
        }
        return 0;
      }
      case ExprKind::Binary: {
        const auto& b = static_cast<const BinaryExpr&>(expr);
        if (isAssignment(b.op)) {
            std::int64_t rhs = eval(*b.rhs, env);
            std::int64_t result = rhs;
            if (b.op != BinaryOp::Assign) {
                std::int64_t lhs = eval(*b.lhs, env);
                switch (b.op) {
                  case BinaryOp::AddAssign: result = lhs + rhs; break;
                  case BinaryOp::SubAssign: result = lhs - rhs; break;
                  case BinaryOp::MulAssign: result = lhs * rhs; break;
                  case BinaryOp::DivAssign:
                    result = rhs != 0 ? lhs / rhs : 0;
                    break;
                  case BinaryOp::RemAssign:
                    result = rhs != 0 ? lhs % rhs : 0;
                    break;
                  case BinaryOp::AndAssign: result = lhs & rhs; break;
                  case BinaryOp::OrAssign: result = lhs | rhs; break;
                  case BinaryOp::XorAssign: result = lhs ^ rhs; break;
                  case BinaryOp::ShlAssign:
                    result = lhs << (rhs & 63);
                    break;
                  case BinaryOp::ShrAssign:
                    result = lhs >> (rhs & 63);
                    break;
                  default: break;
                }
            }
            assign(*b.lhs, result, env);
            return result;
        }
        if (b.op == BinaryOp::LogAnd)
            return eval(*b.lhs, env) != 0 && eval(*b.rhs, env) != 0 ? 1
                                                                    : 0;
        if (b.op == BinaryOp::LogOr)
            return eval(*b.lhs, env) != 0 || eval(*b.rhs, env) != 0 ? 1
                                                                    : 0;
        if (b.op == BinaryOp::Comma) {
            eval(*b.lhs, env);
            return eval(*b.rhs, env);
        }
        std::int64_t lhs = eval(*b.lhs, env);
        std::int64_t rhs = eval(*b.rhs, env);
        switch (b.op) {
          case BinaryOp::Add: return lhs + rhs;
          case BinaryOp::Sub: return lhs - rhs;
          case BinaryOp::Mul: return lhs * rhs;
          case BinaryOp::Div: return rhs != 0 ? lhs / rhs : 0;
          case BinaryOp::Rem: return rhs != 0 ? lhs % rhs : 0;
          case BinaryOp::Shl: return lhs << (rhs & 63);
          case BinaryOp::Shr: return lhs >> (rhs & 63);
          case BinaryOp::Lt: return lhs < rhs;
          case BinaryOp::Gt: return lhs > rhs;
          case BinaryOp::Le: return lhs <= rhs;
          case BinaryOp::Ge: return lhs >= rhs;
          case BinaryOp::Eq: return lhs == rhs;
          case BinaryOp::Ne: return lhs != rhs;
          case BinaryOp::BitAnd: return lhs & rhs;
          case BinaryOp::BitOr: return lhs | rhs;
          case BinaryOp::BitXor: return lhs ^ rhs;
          default: return 0;
        }
      }
      case ExprKind::Ternary: {
        const auto& t = static_cast<const TernaryExpr&>(expr);
        return eval(*t.cond, env) != 0 ? eval(*t.then_expr, env)
                                       : eval(*t.else_expr, env);
      }
      case ExprKind::Call:
        return evalCall(static_cast<const CallExpr&>(expr), env);
      case ExprKind::Member:
      case ExprKind::Index:
        return 0; // no modeled memory behind aggregates
      case ExprKind::Cast:
        return eval(*static_cast<const CastExpr&>(expr).operand, env);
      case ExprKind::Sizeof:
        return 8;
    }
    return 0;
}

std::int64_t
Interpreter::evalCall(const CallExpr& call, Env& env)
{
    std::string callee(call.calleeName());
    flash::MacroKind kind = flash::classifyMacro(callee);

    auto arg = [&](std::size_t i) -> std::int64_t {
        return i < call.args.size() ? eval(*call.args[i], env) : 0;
    };
    auto arg_lane = [&](std::size_t i) -> int {
        if (i >= call.args.size() ||
            call.args[i]->ekind != ExprKind::Ident)
            return -1;
        return spec_.laneOf(
            static_cast<const IdentExpr*>(call.args[i])->name);
    };

    switch (kind) {
      case flash::MacroKind::SendPi:
        node_.send('P', arg(0) != 0, arg(3) != 0, -1);
        return 0;
      case flash::MacroKind::SendIo:
        node_.send('I', arg(0) != 0, arg(3) != 0, -1);
        return 0;
      case flash::MacroKind::SendNi:
        node_.send('N', arg(1) != 0, arg(3) != 0, arg_lane(0));
        return 0;
      case flash::MacroKind::WaitDbFull:
        node_.waitForFill();
        return 0;
      case flash::MacroKind::ReadDb:
      case flash::MacroKind::ReadDbDeprecated:
        return node_.readBuffer();
      case flash::MacroKind::WriteDb:
        node_.writeBuffer(arg(1));
        return 0;
      case flash::MacroKind::AllocDb:
        return node_.allocateBuffer();
      case flash::MacroKind::FreeDb:
        node_.freeCurrentBuffer();
        return 0;
      case flash::MacroKind::MaybeFreeDb:
        return node_.maybeFreeBuffer(
            callee.back() - 'A'); // MAYBE_FREE_DB_A..D
      case flash::MacroKind::RefcntIncr:
        return 0;
      case flash::MacroKind::DirLoad:
        node_.dirLoad();
        return 0;
      case flash::MacroKind::DirRead:
        return node_.dirRead();
      case flash::MacroKind::DirWrite:
        node_.dirWrite(arg(1));
        return 0;
      case flash::MacroKind::DirWriteback:
        node_.dirWriteback();
        return 0;
      case flash::MacroKind::WaitPiReply:
        node_.waitForReply('P');
        return 0;
      case flash::MacroKind::WaitIoReply:
        node_.waitForReply('I');
        return 0;
      case flash::MacroKind::WaitForSpace:
        node_.waitForSpace(arg_lane(0));
        return 0;
      case flash::MacroKind::AnnotNoFreeNeeded:
        node_.markHandoff();
        return 0;
      case flash::MacroKind::AnnotHasBuffer:
      case flash::MacroKind::AnnotExpectsDirWriteback:
      case flash::MacroKind::HandlerDefs:
      case flash::MacroKind::HandlerPrologue:
      case flash::MacroKind::SwHandlerDefs:
      case flash::MacroKind::SwHandlerPrologue:
      case flash::MacroKind::ProcHook:
      case flash::MacroKind::NoStack:
      case flash::MacroKind::SetStackPtr:
      case flash::MacroKind::HandlerGlobals:
        return 0;
      case flash::MacroKind::None:
        break;
    }

    // Simulator intrinsics outside the checker vocabulary.
    if (callee == "MSG_WORD0")
        return node_.payload();
    if (callee == "URGENCY_LEVEL")
        return node_.urgencyLevel();
    if (callee == "RETRY_NEEDED")
        return node_.retryNeeded();
    if (callee == "PI_STATUS_REG")
        return node_.pollStatus('P');
    if (callee == "IO_STATUS_REG")
        return node_.pollStatus('I');
    if (callee == "FATAL_ERROR") {
        node_.fatalError();
        return 0;
    }
    if (callee == "DEBUG_PRINT" || callee == "PASSTHRU_FORWARD")
        return 0;

    // Protocol-defined functions are interpreted recursively.
    if (const FunctionDecl* fn = program_.findFunction(callee)) {
        runFunction(*fn);
        return 0;
    }
    return 0;
}

} // namespace mc::sim
