#include "checkers/buffer_race_magik.h"
#include "checkers/registry.h"
#include "tests/checkers/harness.h"

#include <gtest/gtest.h>

namespace mc::checkers {
namespace {

using flash::HandlerKind;
using testing::Harness;

TEST(BufferRace, CleanHandlerPasses)
{
    Harness h;
    h.addHandler("PILocalGet", HandlerKind::Hardware,
                 "WAIT_FOR_DB_FULL(addr);"
                 "MISCBUS_READ_DB(addr, word0);");
    auto checker = makeChecker("wait_for_db");
    auto stats = h.run(*checker);
    EXPECT_EQ(h.errors(), 0);
    EXPECT_EQ(stats[0].applied, 1);
}

TEST(BufferRace, ReadWithoutWaitFlagged)
{
    Harness h;
    h.addHandler("PILocalGet", HandlerKind::Hardware,
                 "MISCBUS_READ_DB(addr, word0);");
    auto checker = makeChecker("wait_for_db");
    h.run(*checker);
    EXPECT_EQ(h.errors(), 1);
}

TEST(BufferRace, OldStyleMacroAlsoChecked)
{
    Harness h;
    h.addHandler("NIRemotePut", HandlerKind::Hardware,
                 "MISCBUS_READ_DB_OLD(addr);");
    auto checker = makeChecker("wait_for_db");
    auto stats = h.run(*checker);
    EXPECT_EQ(h.errors(), 1);
    EXPECT_EQ(stats[0].applied, 1);
}

TEST(BufferRace, WaitOnOnePathOnly)
{
    // The paper's rare-corner-case shape: only one branch synchronizes.
    Harness h;
    h.addHandler("NILocalGet", HandlerKind::Hardware,
                 "if (cached) { WAIT_FOR_DB_FULL(addr); }"
                 "MISCBUS_READ_DB(addr, b);");
    auto checker = makeChecker("wait_for_db");
    h.run(*checker);
    EXPECT_EQ(h.errors(), 1);
}

TEST(BufferRace, WaitAsLateAsPossibleStillClean)
{
    // WAIT_FOR_DB_FULL is "called as late as possible" on paths that
    // need it; reads on other paths don't exist, so no error.
    Harness h;
    h.addHandler("H", HandlerKind::Hardware,
                 "if (need_data) {"
                 "  setup();"
                 "  WAIT_FOR_DB_FULL(addr);"
                 "  MISCBUS_READ_DB(addr, b);"
                 "} else {"
                 "  no_data_path();"
                 "}");
    auto checker = makeChecker("wait_for_db");
    h.run(*checker);
    EXPECT_EQ(h.errors(), 0);
}

TEST(BufferRace, FirstByteOnlyReadStillRace)
{
    // "in a couple of cases only the first byte of the buffer was read
    // without explicit synchronization" — still flagged.
    Harness h;
    h.addHandler("H", HandlerKind::Hardware,
                 "MISCBUS_READ_DB(addr, byte0);"
                 "WAIT_FOR_DB_FULL(addr);"
                 "MISCBUS_READ_DB(addr, rest);");
    auto checker = makeChecker("wait_for_db");
    h.run(*checker);
    EXPECT_EQ(h.errors(), 1);
}

TEST(BufferRace, MultipleFunctionsIndependent)
{
    Harness h;
    h.addHandler("Good", HandlerKind::Hardware,
                 "WAIT_FOR_DB_FULL(a); MISCBUS_READ_DB(a, b);");
    h.addHandler("Bad", HandlerKind::Hardware, "MISCBUS_READ_DB(a, b);");
    auto checker = makeChecker("wait_for_db");
    auto stats = h.run(*checker);
    EXPECT_EQ(h.errors(), 1);
    EXPECT_EQ(stats[0].applied, 2);
}

TEST(BufferRace, MagikStyleCheckerAgreesSiteForSite)
{
    // The Section 11 predecessor style must report exactly the same
    // sites as the metal version on tricky shapes.
    const char* bodies[] = {
        "MISCBUS_READ_DB(a, b);",
        "WAIT_FOR_DB_FULL(a); MISCBUS_READ_DB(a, b);",
        "if (c) { WAIT_FOR_DB_FULL(a); } MISCBUS_READ_DB(a, b);",
        "while (c) { MISCBUS_READ_DB(a, b); }",
        "if (MISCBUS_READ_DB(a, b)) { x = 1; }",
        "MISCBUS_READ_DB_OLD(a); WAIT_FOR_DB_FULL(a);"
        "MISCBUS_READ_DB(a, b);",
    };
    for (const char* body : bodies) {
        Harness metal_h;
        metal_h.addHandler("H", HandlerKind::Hardware, body);
        auto metal_checker = makeChecker("wait_for_db");
        metal_h.run(*metal_checker);

        Harness magik_h;
        magik_h.addHandler("H", HandlerKind::Hardware, body);
        BufferRaceMagikChecker magik_checker;
        magik_h.run(magik_checker);

        EXPECT_EQ(metal_h.errors(), magik_h.errors()) << body;
        ASSERT_EQ(metal_h.sink.diagnostics().size(),
                  magik_h.sink.diagnostics().size());
        for (std::size_t i = 0; i < metal_h.sink.diagnostics().size();
             ++i)
            EXPECT_EQ(metal_h.sink.diagnostics()[i].loc.line,
                      magik_h.sink.diagnostics()[i].loc.line)
                << body;
    }
}

TEST(BufferRace, DebugReadIntentionalViolationStillFlagged)
{
    // The paper's single false positive: debugging code that reads the
    // buffer on purpose. The checker must still flag it (triage marks it
    // FP, not the tool).
    Harness h;
    h.addHandler("DebugDump", HandlerKind::Normal,
                 "MISCBUS_READ_DB(addr, dump_word);");
    auto checker = makeChecker("wait_for_db");
    h.run(*checker);
    EXPECT_EQ(h.errors(), 1);
}

} // namespace
} // namespace mc::checkers
