#ifndef MCHECK_SIM_INTERP_H
#define MCHECK_SIM_INTERP_H

#include "flash/protocol_spec.h"
#include "lang/program.h"
#include "sim/machine.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mc::sim {

/**
 * Direct AST interpreter for the FLASH dialect.
 *
 * Executes handler bodies against a MagicNode: FLASH macros become node
 * operations (sends, buffer ops, directory ops), calls to functions
 * defined in the program are interpreted recursively, and the protocol
 * constants (F_DATA, LEN_*, MSG_*, ...) evaluate to their hardware
 * values. This is the FlashLite role: the same protocol sources the
 * static checkers analyze also *run*.
 */
struct InterpreterOptions
{
    /** Statement budget per handler invocation (loop guard). */
    std::uint64_t max_steps = 200000;
    /** Call-depth budget (recursion guard). */
    int max_depth = 64;
};

class Interpreter
{
  public:
    using Options = InterpreterOptions;

    Interpreter(const lang::Program& program,
                const flash::ProtocolSpec& spec, MagicNode& node,
                Options options = InterpreterOptions());

    /** Run a handler (a void, zero-parameter function definition). */
    void runFunction(const lang::FunctionDecl& fn);

    /** Total statements executed across all runs. */
    std::uint64_t stepsExecuted() const { return total_steps_ + steps_; }

  private:
    class Env;
    enum class Flow : std::uint8_t { Normal, Break, Continue, Return };

    Flow execStmt(const lang::Stmt& stmt, Env& env);
    Flow execSwitch(const lang::SwitchStmt& stmt, Env& env);
    std::int64_t eval(const lang::Expr& expr, Env& env);
    std::int64_t evalCall(const lang::CallExpr& call, Env& env);
    std::int64_t constantValue(std::string_view name) const;
    void assign(const lang::Expr& lhs, std::int64_t value, Env& env);

    const lang::Program& program_;
    const flash::ProtocolSpec& spec_;
    MagicNode& node_;
    Options options_;
    /** Steps in the current top-level invocation (budget-limited). */
    std::uint64_t steps_ = 0;
    /** Steps from completed invocations. */
    std::uint64_t total_steps_ = 0;
    int depth_ = 0;
    std::map<std::string, std::int64_t, std::less<>> constants_;
};

} // namespace mc::sim

#endif // MCHECK_SIM_INTERP_H
