#ifndef MCHECK_METAL_METAL_PARSER_H
#define MCHECK_METAL_METAL_PARSER_H

#include "metal/state_machine.h"

#include <memory>
#include <string>
#include <vector>

namespace mc::metal {

/**
 * A checker loaded from textual metal source: the compiled state machine
 * plus the arena its patterns live in.
 */
struct MetalProgram
{
    std::string name;
    /** Raw text of the optional `{ #include ... }` prelude. */
    std::string prelude;
    std::shared_ptr<match::PatternContext> patterns;
    std::shared_ptr<StateMachine> sm;
    /**
     * The C++ call tests the program declares with `extern`, in
     * declaration order: a rule's Rule::call_test indexes this list,
     * and whoever runs the machine binds a test to each name.
     */
    std::vector<std::string> call_tests;
};

/** Thrown on malformed metal source. */
class MetalParseError : public std::runtime_error
{
  public:
    explicit MetalParseError(const std::string& message)
        : std::runtime_error(message)
    {}
};

/**
 * Parse a metal checker in the dialect of the paper's Figures 2 and 3:
 *
 *     { #include "flash-includes.h" }       // optional prelude
 *     sm wait_for_db {
 *         decl { scalar } addr, buf;        // wildcard declarations
 *         pat send_data = { PI_SEND(...) }  // named patterns, with
 *                       | { IO_SEND(...) }; //   `|` alternation
 *         start:                            // first state = start state
 *             { WAIT_FOR_DB_FULL(addr); } ==> stop
 *           | { MISCBUS_READ_DB(addr, buf); } ==>
 *                 { err("Buffer not synchronized"); }
 *           ;
 *     }
 *
 * Rules take the form `pattern ==> state`, `pattern ==> { err("..."); }`,
 * or `pattern ==> state { err("..."); }`. Named patterns may be used
 * wherever a braced pattern may. The `all` and `stop` states have the
 * semantics described in StateMachine.
 *
 * Three additions serve the ported send_wait and dir_check checkers
 * (docs/metal.md): `err("rule-id", "message")` names a rule's id apart
 * from its message; `end_of_path ==> { err(...); }` fires where a path
 * leaves the function; and `extern name, ...;` declares C++ call tests
 * that rules may use as whole patterns.
 *
 * @param source Full text of the .metal file.
 * @param origin Name used in error messages.
 */
MetalProgram parseMetal(const std::string& source,
                        const std::string& origin = "<metal>");

/** Convenience: read `path` from disk and parse it. */
MetalProgram loadMetalFile(const std::string& path);

/**
 * Count the non-blank, non-comment source lines of a metal checker —
 * the "LOC" metric of the paper's Table 7.
 */
int metalSourceLines(const std::string& source);

} // namespace mc::metal

#endif // MCHECK_METAL_METAL_PARSER_H
