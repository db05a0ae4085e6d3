#include "metal/metal_parser.h"

#include <gtest/gtest.h>

namespace mc::metal {
namespace {

// The paper's Figure 2 checker, essentially verbatim.
const char* kFigure2 = R"metal(
{ #include "flash-includes.h" }
sm wait_for_db {
    /* Declare two variables 'addr' and 'buf' that can
     * match any integer expression. */
    decl { scalar } addr, buf;

    start:
        { WAIT_FOR_DB_FULL(addr); } ==> stop
      | { MISCBUS_READ_DB(addr, buf); } ==>
            { err("Buffer not synchronized"); }
      ;
}
)metal";

// The paper's Figure 3 checker, essentially verbatim.
const char* kFigure3 = R"metal(
{ #include "flash-includes.h" }
sm msglen_check {
    pat zero_assign =
        { HANDLER_GLOBALS(header.nh.len) = LEN_NODATA } ;
    pat nonzero_assign =
        { HANDLER_GLOBALS(header.nh.len) = LEN_WORD }
      | { HANDLER_GLOBALS(header.nh.len) = LEN_CACHELINE } ;

    decl { unsigned } keep, swap, wait, dec, null, type;
    pat send_data =
        { PI_SEND(F_DATA, keep, swap, wait, dec, null) }
      | { IO_SEND(F_DATA, keep, swap, wait, dec, null) }
      | { NI_SEND(type, F_DATA, keep, wait, dec, null) } ;
    pat send_nodata =
        { PI_SEND(F_NODATA, keep, swap, wait, dec, null) }
      | { IO_SEND(F_NODATA, keep, swap, wait, dec, null) }
      | { NI_SEND(type, F_NODATA, keep, wait, dec, null) } ;

    all:
        zero_assign ==> zero_len
      | nonzero_assign ==> nonzero_len
      ;

    zero_len:
        send_data ==> { err("data send, zero len"); } ;

    nonzero_len:
        send_nodata ==> { err("nodata send, nonzero len"); } ;
}
)metal";

TEST(MetalParser, Figure2Parses)
{
    MetalProgram p = parseMetal(kFigure2, "figure2.metal");
    EXPECT_EQ(p.name, "wait_for_db");
    EXPECT_EQ(p.prelude, "#include \"flash-includes.h\"");
    EXPECT_EQ(p.sm->startState(), "start");
    ASSERT_EQ(p.sm->rulesFor("start").size(), 2u);
    EXPECT_EQ(p.sm->rulesFor("start")[0].next_state, "stop");
    EXPECT_TRUE(p.sm->rulesFor("start")[0].action == nullptr);
    EXPECT_TRUE(p.sm->rulesFor("start")[1].next_state.empty());
    EXPECT_TRUE(p.sm->rulesFor("start")[1].action != nullptr);
}

TEST(MetalParser, Figure3Parses)
{
    MetalProgram p = parseMetal(kFigure3, "figure3.metal");
    EXPECT_EQ(p.name, "msglen_check");
    // Figure 3 "starts in the special state all that does not warn about
    // any message sends" — the first state defined is the start state.
    EXPECT_EQ(p.sm->startState(), "all");
    EXPECT_EQ(p.sm->allRules().size(), 2u);
    EXPECT_EQ(p.sm->rulesFor("zero_len").size(), 1u);
    EXPECT_EQ(p.sm->rulesFor("nonzero_len").size(), 1u);
    // Named patterns expanded to all alternatives.
    EXPECT_EQ(p.sm->rulesFor("zero_len")[0].pattern.alternativeCount(), 3u);
}

TEST(MetalParser, PreludeOptional)
{
    MetalProgram p = parseMetal("sm tiny { s: { f(); } ==> stop ; }");
    EXPECT_EQ(p.name, "tiny");
    EXPECT_TRUE(p.prelude.empty());
}

TEST(MetalParser, StateAndActionTogether)
{
    MetalProgram p = parseMetal(
        "sm t { s: { f(); } ==> next { err(\"boom\"); } ; "
        "next: { g(); } ==> stop ; }");
    ASSERT_EQ(p.sm->rulesFor("s").size(), 1u);
    EXPECT_EQ(p.sm->rulesFor("s")[0].next_state, "next");
    EXPECT_TRUE(p.sm->rulesFor("s")[0].action != nullptr);
}

TEST(MetalParser, WarnAction)
{
    MetalProgram p = parseMetal(
        "sm t { s: { f(); } ==> { warn(\"sus\"); } ; }");
    EXPECT_TRUE(p.sm->rulesFor("s")[0].action != nullptr);
}

TEST(MetalParser, NamedPatternComposesNamedPattern)
{
    MetalProgram p = parseMetal(
        "sm t {\n"
        "  pat a = { f(); } ;\n"
        "  pat b = a | { g(); } ;\n"
        "  s: b ==> stop ;\n"
        "}");
    EXPECT_EQ(p.sm->rulesFor("s")[0].pattern.alternativeCount(), 2u);
}

TEST(MetalParser, RuleIdsDeriveFromMessages)
{
    MetalProgram p = parseMetal(
        "sm t { s: { f(); } ==> { err(\"Data Send, zero len!\"); } ; }");
    EXPECT_EQ(p.sm->rulesFor("s")[0].id, "data-send-zero-len");
}

TEST(MetalParser, ActionMayNameItsRuleId)
{
    MetalProgram p = parseMetal(
        "sm t { s: { f(); } ==> { warn(\"f-seen\", \"f was called\"); }"
        " ; }");
    EXPECT_EQ(p.sm->rulesFor("s")[0].id, "f-seen");
    EXPECT_THROW(parseMetal("sm t { s: { f(); } ==> { err(\"\", \"m\"); }"
                            " ; }"),
                 MetalParseError);
}

TEST(MetalParser, EndOfPathRuleTakesAnActionOnly)
{
    MetalProgram p = parseMetal(
        "sm t { s: { f(); } ==> w ; w: end_of_path ==> { err(\"open\"); }"
        " ; }");
    ASSERT_EQ(p.sm->rulesFor("w").size(), 1u);
    EXPECT_TRUE(p.sm->rulesFor("w")[0].end_of_path);
    EXPECT_FALSE(p.sm->rulesFor("s")[0].end_of_path);
    EXPECT_THROW(parseMetal("sm t { s: end_of_path ==> stop ; }"),
                 MetalParseError);
    EXPECT_THROW(parseMetal("sm t { pat p = end_of_path ; s: p ==> stop ; }"),
                 MetalParseError);
}

TEST(MetalParser, ExternDeclaresCallTests)
{
    MetalProgram p = parseMetal("sm t { extern a, b; s: b ==> stop"
                                " | { f(); } ==> stop ; }");
    EXPECT_EQ(p.call_tests, (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(p.sm->rulesFor("s")[0].call_test, 1);
    EXPECT_EQ(p.sm->rulesFor("s")[1].call_test, -1);
    // A call test is a whole rule's pattern, and its name is taken.
    EXPECT_THROW(parseMetal("sm t { extern a; pat p = a ; s: p ==> stop ; }"),
                 MetalParseError);
    EXPECT_THROW(parseMetal("sm t { extern a, a; s: a ==> stop ; }"),
                 MetalParseError);
    EXPECT_THROW(
        parseMetal("sm t { extern a; pat a = { f(); } ; s: a ==> stop ; }"),
        MetalParseError);
}

TEST(MetalParser, UnknownPatternNameFails)
{
    EXPECT_THROW(parseMetal("sm t { s: nope ==> stop ; }"),
                 MetalParseError);
}

TEST(MetalParser, UnknownWildcardKindFails)
{
    EXPECT_THROW(
        parseMetal("sm t { decl { quux } v; s: { f(v); } ==> stop ; }"),
        MetalParseError);
}

TEST(MetalParser, MissingArrowFails)
{
    EXPECT_THROW(parseMetal("sm t { s: { f(); } stop ; }"),
                 MetalParseError);
}

TEST(MetalParser, UnterminatedPreludeFails)
{
    EXPECT_THROW(parseMetal("{ #include \"x.h\" sm t { }"),
                 MetalParseError);
}

TEST(MetalParser, SourceLineCounting)
{
    EXPECT_EQ(metalSourceLines("a\n\nb\n// comment\n/* c */\nd"), 3);
    EXPECT_EQ(metalSourceLines("/* multi\nline\ncomment */ x"), 1);
    EXPECT_EQ(metalSourceLines(""), 0);
}

TEST(MetalParser, Figure2Within20Lines)
{
    // Table 7 reports the buffer race checker at 12 lines; ours must stay
    // in the same ballpark (under 20).
    EXPECT_LE(metalSourceLines(
                  "sm wait_for_db {\n"
                  "  decl { scalar } addr, buf;\n"
                  "  start:\n"
                  "    { WAIT_FOR_DB_FULL(addr); } ==> stop\n"
                  "  | { MISCBUS_READ_DB(addr, buf); } ==>\n"
                  "      { err(\"Buffer not synchronized\"); }\n"
                  "  ;\n"
                  "}\n"),
              20);
}

} // namespace
} // namespace mc::metal
