#include "checkers/buffer_alloc.h"
#include "checkers/exec_restrict.h"
#include "checkers/no_float.h"
#include "checkers/registry.h"
#include "tests/checkers/harness.h"

#include <gtest/gtest.h>

namespace mc::checkers {
namespace {

using flash::HandlerKind;
using testing::Harness;

// ---------------------------------------------------------------------
// Buffer allocation failure checks (Section 9)
// ---------------------------------------------------------------------

TEST(BufferAlloc, CheckedAllocationClean)
{
    Harness h;
    h.addHandler("H", HandlerKind::Software,
                 "buf = ALLOCATE_DB();"
                 "if (buf == 0) { return; }"
                 "MISCBUS_WRITE_DB(a, v);");
    BufferAllocChecker checker;
    auto stats = h.run(checker);
    EXPECT_EQ(h.errors(), 0);
    EXPECT_EQ(stats[0].applied, 1);
}

TEST(BufferAlloc, UncheckedWriteFlagged)
{
    Harness h;
    h.addHandler("H", HandlerKind::Software,
                 "buf = ALLOCATE_DB();"
                 "MISCBUS_WRITE_DB(a, v);");
    BufferAllocChecker checker;
    h.run(checker);
    EXPECT_EQ(h.errors(), 1);
}

TEST(BufferAlloc, UncheckedSendFlagged)
{
    Harness h;
    h.addHandler("H", HandlerKind::Software,
                 "buf = ALLOCATE_DB();"
                 "NI_SEND(MSG_PUT, F_DATA, k, w, d, n);");
    BufferAllocChecker checker;
    h.run(checker);
    EXPECT_EQ(h.errors(), 1);
}

TEST(BufferAlloc, NegationCheckAccepted)
{
    Harness h;
    h.addHandler("H", HandlerKind::Software,
                 "buf = ALLOCATE_DB();"
                 "if (!buf) { return; }"
                 "MISCBUS_WRITE_DB(a, v);");
    BufferAllocChecker checker;
    h.run(checker);
    EXPECT_EQ(h.errors(), 0);
}

TEST(BufferAlloc, DeclInitFormTracked)
{
    Harness h;
    h.addHandler("H", HandlerKind::Software,
                 "int buf = ALLOCATE_DB();"
                 "MISCBUS_WRITE_DB(a, v);");
    BufferAllocChecker checker;
    h.run(checker);
    EXPECT_EQ(h.errors(), 1);
}

TEST(BufferAlloc, DebugPrintBeforeCheckIsTheKnownFalsePositive)
{
    // The paper's 2 FPs: debugging code printed the value before the
    // check. The tool flags it; triage calls it an FP.
    Harness h;
    h.addHandler("H", HandlerKind::Software,
                 "buf = ALLOCATE_DB();"
                 "DEBUG_PRINT(buf);"
                 "if (buf == 0) { return; }"
                 "MISCBUS_WRITE_DB(a, v);");
    BufferAllocChecker checker;
    h.run(checker);
    EXPECT_EQ(h.errors(), 1);
}

TEST(BufferAlloc, CheckOnOnlyOnePathFlagged)
{
    Harness h;
    h.addHandler("H", HandlerKind::Software,
                 "buf = ALLOCATE_DB();"
                 "if (mode) { if (buf == 0) { return; } }"
                 "MISCBUS_WRITE_DB(a, v);");
    BufferAllocChecker checker;
    h.run(checker);
    EXPECT_EQ(h.errors(), 1);
}

// ---------------------------------------------------------------------
// Send-wait checks (Section 9)
// ---------------------------------------------------------------------

TEST(SendWait, PairedSendWaitClean)
{
    Harness h;
    h.addHandler("H", HandlerKind::Hardware,
                 "PI_SEND(F_NODATA, k, s, F_WAIT, d, n);"
                 "WAIT_FOR_PI_REPLY();");
    h.run(*makeChecker("send_wait"));
    EXPECT_EQ(h.errors(), 0);
}

TEST(SendWait, MissingWaitFlagged)
{
    Harness h;
    h.addHandler("H", HandlerKind::Hardware,
                 "PI_SEND(F_NODATA, k, s, F_WAIT, d, n);");
    h.run(*makeChecker("send_wait"));
    EXPECT_TRUE(h.hasErrorRule("missing-wait"));
}

TEST(SendWait, WrongInterfaceFlagged)
{
    Harness h;
    h.addHandler("H", HandlerKind::Hardware,
                 "IO_SEND(F_NODATA, k, s, F_WAIT, d, n);"
                 "WAIT_FOR_PI_REPLY();");
    h.run(*makeChecker("send_wait"));
    EXPECT_TRUE(h.hasErrorRule("wait-wrong-interface"));
}

TEST(SendWait, SecondSendBeforeWaitFlagged)
{
    Harness h;
    h.addHandler("H", HandlerKind::Hardware,
                 "PI_SEND(F_NODATA, k, s, F_WAIT, d, n);"
                 "NI_SEND(MSG_ACK, F_NODATA, k, F_NOWAIT, d, n);"
                 "WAIT_FOR_PI_REPLY();");
    h.run(*makeChecker("send_wait"));
    EXPECT_TRUE(h.hasErrorRule("send-while-waiting"));
}

TEST(SendWait, NoWaitSendNeedsNoWait)
{
    Harness h;
    h.addHandler("H", HandlerKind::Hardware,
                 "PI_SEND(F_NODATA, k, s, F_NOWAIT, d, n);");
    h.run(*makeChecker("send_wait"));
    EXPECT_EQ(h.errors(), 0);
}

TEST(SendWait, WaitOnOnlyOnePathFlagged)
{
    // Intervention-handler shape: wait happens in one branch only.
    Harness h;
    h.addHandler("H", HandlerKind::Hardware,
                 "PI_SEND(F_NODATA, k, s, F_WAIT, d, n);"
                 "if (c) { WAIT_FOR_PI_REPLY(); }");
    h.run(*makeChecker("send_wait"));
    EXPECT_TRUE(h.hasErrorRule("missing-wait"));
}

TEST(SendWait, AbstractionBreakingRawWaitIsFalsePositive)
{
    // The paper's 8 FPs: a raw poll loop replaces the macro; the checker
    // cannot see it and reports a missing wait.
    Harness h;
    h.addHandler("H", HandlerKind::Hardware,
                 "PI_SEND(F_NODATA, k, s, F_WAIT, d, n);"
                 "while (!PI_STATUS_REG()) { spin(); }");
    h.run(*makeChecker("send_wait"));
    EXPECT_TRUE(h.hasErrorRule("missing-wait"));
}

TEST(SendWait, WaitWithoutSendWarned)
{
    Harness h;
    h.addHandler("H", HandlerKind::Hardware, "WAIT_FOR_PI_REPLY();");
    h.run(*makeChecker("send_wait"));
    EXPECT_TRUE(h.hasWarningRule("wait-without-send"));
}

// ---------------------------------------------------------------------
// Directory entry checks (Section 9)
// ---------------------------------------------------------------------

TEST(Directory, LoadModifyWritebackClean)
{
    Harness h;
    h.addHandler("H", HandlerKind::Hardware,
                 "DIR_LOAD();"
                 "DIR_WRITE(state, DIRTY);"
                 "DIR_WRITEBACK();");
    h.run(*makeChecker("dir_check"));
    EXPECT_EQ(h.errors(), 0);
}

TEST(Directory, UseBeforeLoadFlagged)
{
    Harness h;
    h.addHandler("H", HandlerKind::Hardware, "DIR_WRITE(state, DIRTY);");
    h.run(*makeChecker("dir_check"));
    EXPECT_TRUE(h.hasErrorRule("use-before-load"));
}

TEST(Directory, ReadBeforeLoadFlagged)
{
    Harness h;
    h.addHandler("H", HandlerKind::Hardware, "x = DIR_READ(state);");
    h.run(*makeChecker("dir_check"));
    EXPECT_TRUE(h.hasErrorRule("use-before-load"));
}

TEST(Directory, MissingWritebackFlagged)
{
    Harness h;
    h.addHandler("H", HandlerKind::Hardware,
                 "DIR_LOAD(); DIR_WRITE(state, DIRTY);");
    h.run(*makeChecker("dir_check"));
    EXPECT_TRUE(h.hasErrorRule("missing-writeback"));
}

TEST(Directory, SpeculativeNakPathSuppressed)
{
    // Speculative handlers modify in anticipation and intentionally drop
    // the change when they NAK.
    Harness h;
    h.addHandler("H", HandlerKind::Hardware,
                 "DIR_LOAD();"
                 "DIR_WRITE(state, PENDING);"
                 "if (conflict) {"
                 "  NI_SEND(MSG_NAK, F_NODATA, k, w, d, n);"
                 "  return;"
                 "}"
                 "DIR_WRITEBACK();");
    h.run(*makeChecker("dir_check"));
    EXPECT_EQ(h.errors(), 0);
}

TEST(Directory, BackoutWithoutNakFlagged)
{
    // "some handlers back out of a speculatively modified directory entry
    // without sending a NAK" — those remain reported (counted FP in the
    // paper's triage).
    Harness h;
    h.addHandler("H", HandlerKind::Hardware,
                 "DIR_LOAD();"
                 "DIR_WRITE(state, PENDING);"
                 "if (conflict) { return; }"
                 "DIR_WRITEBACK();");
    h.run(*makeChecker("dir_check"));
    EXPECT_TRUE(h.hasErrorRule("missing-writeback"));
}

TEST(Directory, DeferredSubroutineMarksCallerModified)
{
    Harness h;
    h.spec.dir_deferred_routines.insert("update_sharers");
    h.addHandler("H", HandlerKind::Hardware,
                 "DIR_LOAD();"
                 "update_sharers();");
    h.run(*makeChecker("dir_check"));
    EXPECT_TRUE(h.hasErrorRule("missing-writeback"));
}

TEST(Directory, AnnotatedSubroutineExemptItself)
{
    Harness h;
    h.addSource("helper.c",
                "void update_sharers(void) {"
                "  expects_dir_writeback();"
                "  DIR_LOAD();"
                "  DIR_WRITE(sharers, v);"
                "}");
    h.run(*makeChecker("dir_check"));
    EXPECT_EQ(h.errors(), 0);
}

TEST(Directory, WritebackWithoutLoadWarned)
{
    Harness h;
    h.addHandler("H", HandlerKind::Hardware, "DIR_WRITEBACK();");
    h.run(*makeChecker("dir_check"));
    EXPECT_TRUE(h.hasWarningRule("writeback-without-load"));
}

// ---------------------------------------------------------------------
// Execution restrictions (Section 8)
// ---------------------------------------------------------------------

TEST(ExecRestrict, WellFormedHardwareHandlerClean)
{
    Harness h;
    h.addHandler("H", HandlerKind::Hardware,
                 "HANDLER_DEFS(); HANDLER_PROLOGUE(); work();");
    ExecRestrictChecker checker;
    h.run(checker);
    EXPECT_EQ(h.errors(), 0);
    EXPECT_EQ(checker.handlersChecked(), 1);
}

TEST(ExecRestrict, HandlerWithParamsFlagged)
{
    Harness h;
    flash::HandlerSpec hs;
    hs.name = "H";
    hs.kind = HandlerKind::Hardware;
    h.spec.addHandler(hs);
    h.addSource("h.c", "void H(int x) { HANDLER_DEFS(); "
                       "HANDLER_PROLOGUE(); }");
    ExecRestrictChecker checker;
    h.run(checker);
    EXPECT_TRUE(h.hasErrorRule("handler-takes-params"));
}

TEST(ExecRestrict, HandlerReturningValueFlagged)
{
    Harness h;
    flash::HandlerSpec hs;
    hs.name = "H";
    hs.kind = HandlerKind::Hardware;
    h.spec.addHandler(hs);
    h.addSource("h.c", "int H(void) { HANDLER_DEFS(); HANDLER_PROLOGUE(); "
                       "return 0; }");
    ExecRestrictChecker checker;
    h.run(checker);
    EXPECT_TRUE(h.hasErrorRule("handler-returns-value"));
}

TEST(ExecRestrict, MissingHookFlagged)
{
    Harness h;
    h.addHandler("H", HandlerKind::Hardware, "work();");
    ExecRestrictChecker checker;
    h.run(checker);
    EXPECT_TRUE(h.hasErrorRule("missing-hook"));
}

TEST(ExecRestrict, SecondHookMissingFlagged)
{
    Harness h;
    h.addHandler("H", HandlerKind::Hardware, "HANDLER_DEFS(); work();");
    ExecRestrictChecker checker;
    h.run(checker);
    EXPECT_TRUE(h.hasErrorRule("missing-hook"));
}

TEST(ExecRestrict, SoftwareHandlerUsesSwHooks)
{
    Harness h;
    h.addHandler("S", HandlerKind::Software,
                 "SWHANDLER_DEFS(); SWHANDLER_PROLOGUE(); work();");
    h.addHandler("Wrong", HandlerKind::Software,
                 "HANDLER_DEFS(); HANDLER_PROLOGUE(); work();");
    ExecRestrictChecker checker;
    h.run(checker);
    EXPECT_EQ(h.errors(), 1);
}

TEST(ExecRestrict, SoftwareHandlerExtractedFromCode)
{
    // Not in the spec, but opens with SWHANDLER_DEFS: the checker
    // classifies it from the code and demands the second hook.
    Harness h;
    h.addSource("sw.c", "void unlisted(void) { SWHANDLER_DEFS(); "
                        "work(); }");
    ExecRestrictChecker checker;
    h.run(checker);
    EXPECT_TRUE(h.hasErrorRule("missing-hook"));

    Harness ok;
    ok.addSource("sw.c", "void unlisted(void) { SWHANDLER_DEFS(); "
                         "SWHANDLER_PROLOGUE(); work(); }");
    ExecRestrictChecker checker2;
    ok.run(checker2);
    EXPECT_EQ(ok.errors(), 0);
}

TEST(ExecRestrict, NormalRoutineNeedsProcHook)
{
    Harness h;
    h.addSource("u.c", "void util(void) { work(); }");
    ExecRestrictChecker checker;
    h.run(checker);
    EXPECT_TRUE(h.hasErrorRule("missing-hook"));
}

TEST(ExecRestrict, NoStackHandlerRules)
{
    Harness h;
    h.addHandler("H", HandlerKind::Hardware,
                 "NO_STACK(); HANDLER_DEFS(); HANDLER_PROLOGUE();"
                 "int small;"
                 "small = 1;",
                 /*no_stack=*/true);
    ExecRestrictChecker checker;
    h.run(checker);
    EXPECT_EQ(h.errors(), 0);
}

TEST(ExecRestrict, NoStackMissingAnnotation)
{
    Harness h;
    h.addHandler("H", HandlerKind::Hardware,
                 "HANDLER_DEFS(); HANDLER_PROLOGUE();",
                 /*no_stack=*/true);
    ExecRestrictChecker checker;
    h.run(checker);
    EXPECT_TRUE(h.hasErrorRule("no-stack-missing"));
}

TEST(ExecRestrict, NoStackAddressOfLocalFlagged)
{
    Harness h;
    h.addHandler("H", HandlerKind::Hardware,
                 "NO_STACK(); HANDLER_DEFS(); HANDLER_PROLOGUE();"
                 "int v;"
                 "use(&v);",
                 /*no_stack=*/true);
    ExecRestrictChecker checker;
    h.run(checker);
    EXPECT_TRUE(h.hasErrorRule("no-stack-addr-of"));
}

TEST(ExecRestrict, NoStackArrayFlagged)
{
    Harness h;
    h.addHandler("H", HandlerKind::Hardware,
                 "NO_STACK(); HANDLER_DEFS(); HANDLER_PROLOGUE();"
                 "int arr[4];",
                 /*no_stack=*/true);
    ExecRestrictChecker checker;
    h.run(checker);
    EXPECT_TRUE(h.hasErrorRule("no-stack-array"));
}

TEST(ExecRestrict, NoStackTooManyLocalsFlagged)
{
    std::string body = "NO_STACK(); HANDLER_DEFS(); HANDLER_PROLOGUE();";
    for (int i = 0; i < 20; ++i)
        body += "int v" + std::to_string(i) + ";";
    Harness h;
    h.addHandler("H", HandlerKind::Hardware, body, /*no_stack=*/true);
    ExecRestrictChecker checker;
    h.run(checker);
    EXPECT_TRUE(h.hasErrorRule("no-stack-too-many-locals"));
}

TEST(ExecRestrict, SetStackPtrPairing)
{
    Harness h;
    h.addSource("callee.c", "void callee(void) { PROC_HOOK(); }");
    h.addHandler("H", HandlerKind::Hardware,
                 "NO_STACK(); HANDLER_DEFS(); HANDLER_PROLOGUE();"
                 "SET_STACKPTR();"
                 "callee();",
                 /*no_stack=*/true);
    ExecRestrictChecker checker;
    h.run(checker);
    EXPECT_EQ(h.errors(), 0);
}

TEST(ExecRestrict, CallWithoutSetStackPtrFlagged)
{
    Harness h;
    h.addSource("callee.c", "void callee(void) { PROC_HOOK(); }");
    h.addHandler("H", HandlerKind::Hardware,
                 "NO_STACK(); HANDLER_DEFS(); HANDLER_PROLOGUE();"
                 "callee();",
                 /*no_stack=*/true);
    ExecRestrictChecker checker;
    h.run(checker);
    EXPECT_TRUE(h.hasErrorRule("missing-set-stackptr"));
}

TEST(ExecRestrict, SpuriousSetStackPtrFlagged)
{
    Harness h;
    h.addHandler("H", HandlerKind::Hardware,
                 "NO_STACK(); HANDLER_DEFS(); HANDLER_PROLOGUE();"
                 "SET_STACKPTR();"
                 "x = 1;",
                 /*no_stack=*/true);
    ExecRestrictChecker checker;
    h.run(checker);
    EXPECT_TRUE(h.hasErrorRule("spurious-set-stackptr"));
}

TEST(ExecRestrict, DeprecatedMacroWarned)
{
    Harness h;
    h.spec.deprecated.insert("LEGACY_SEND");
    h.addHandler("H", HandlerKind::Hardware,
                 "HANDLER_DEFS(); HANDLER_PROLOGUE();"
                 "LEGACY_SEND(x);");
    ExecRestrictChecker checker;
    h.run(checker);
    EXPECT_TRUE(h.hasWarningRule("deprecated-macro"));
}

TEST(ExecRestrict, VarsCountedForTable5)
{
    Harness h;
    h.addHandler("H", HandlerKind::Hardware,
                 "HANDLER_DEFS(); HANDLER_PROLOGUE();"
                 "int a; int b; int c;");
    ExecRestrictChecker checker;
    h.run(checker);
    EXPECT_EQ(checker.varsChecked(), 3);
}

// ---------------------------------------------------------------------
// No-float (Section 8)
// ---------------------------------------------------------------------

TEST(NoFloat, IntegerCodeClean)
{
    Harness h;
    h.addHandler("H", HandlerKind::Hardware, "x = a + b * 3;");
    NoFloatChecker checker;
    h.run(checker);
    EXPECT_EQ(h.errors(), 0);
}

TEST(NoFloat, FloatLiteralFlagged)
{
    Harness h;
    h.addHandler("H", HandlerKind::Hardware, "x = 1.5;");
    NoFloatChecker checker;
    h.run(checker);
    EXPECT_GE(h.errors(), 1);
}

TEST(NoFloat, FloatVariableFlagged)
{
    Harness h;
    h.addHandler("H", HandlerKind::Hardware, "float f;");
    NoFloatChecker checker;
    h.run(checker);
    EXPECT_GE(h.errors(), 1);
}

TEST(NoFloat, FloatPropagationThroughArithmetic)
{
    Harness h;
    h.addHandler("H", HandlerKind::Hardware,
                 "double r;"
                 "y = r + 1;");
    NoFloatChecker checker;
    h.run(checker);
    EXPECT_GE(h.errors(), 2); // the decl and the float-typed expression
}

TEST(NoFloat, FloatReturnAndParamFlagged)
{
    Harness h;
    h.addSource("f.c", "float scale(float v) { PROC_HOOK(); return v; }");
    NoFloatChecker checker;
    h.run(checker);
    EXPECT_GE(h.errors(), 2);
}

} // namespace
} // namespace mc::checkers
