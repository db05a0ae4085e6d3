#include "flash/macros.h"
#include "flash/protocol_spec.h"

#include "lang/program.h"

#include <gtest/gtest.h>

namespace mc::flash {
namespace {

const lang::CallExpr*
parseCall(lang::Program& program, const std::string& call_text)
{
    static int n = 0;
    program.addSource("m" + std::to_string(++n) + ".c",
                      "void f(void) { " + call_text + "; }");
    return lang::stmtAsCall(*program.functions().back()->body->stmts[0]);
}

TEST(Macros, Classification)
{
    EXPECT_EQ(classifyMacro("PI_SEND"), MacroKind::SendPi);
    EXPECT_EQ(classifyMacro("IO_SEND"), MacroKind::SendIo);
    EXPECT_EQ(classifyMacro("NI_SEND"), MacroKind::SendNi);
    EXPECT_EQ(classifyMacro("WAIT_FOR_DB_FULL"), MacroKind::WaitDbFull);
    EXPECT_EQ(classifyMacro("MISCBUS_READ_DB"), MacroKind::ReadDb);
    EXPECT_EQ(classifyMacro("MISCBUS_READ_DB_OLD"),
              MacroKind::ReadDbDeprecated);
    EXPECT_EQ(classifyMacro("ALLOCATE_DB"), MacroKind::AllocDb);
    EXPECT_EQ(classifyMacro("FREE_DB"), MacroKind::FreeDb);
    EXPECT_EQ(classifyMacro("MAYBE_FREE_DB_C"), MacroKind::MaybeFreeDb);
    EXPECT_EQ(classifyMacro("DIR_WRITEBACK"), MacroKind::DirWriteback);
    EXPECT_EQ(classifyMacro("has_buffer"), MacroKind::AnnotHasBuffer);
    EXPECT_EQ(classifyMacro("NOT_A_MACRO"), MacroKind::None);
    EXPECT_EQ(classifyMacro(""), MacroKind::None);
}

TEST(Macros, SendPredicates)
{
    EXPECT_TRUE(isSend(MacroKind::SendPi));
    EXPECT_TRUE(isSend(MacroKind::SendNi));
    EXPECT_FALSE(isSend(MacroKind::FreeDb));
    EXPECT_TRUE(isAnnotation(MacroKind::AnnotNoFreeNeeded));
    EXPECT_FALSE(isAnnotation(MacroKind::SendPi));
}

TEST(Macros, HasDataArgExtraction)
{
    lang::Program p;
    auto* pi = parseCall(p, "PI_SEND(F_DATA, k, s, w, d, n)");
    EXPECT_EQ(sendHasDataArg(*pi), "F_DATA");

    auto* ni = parseCall(p, "NI_SEND(MSG_PUT, F_NODATA, k, w, d, n)");
    EXPECT_EQ(sendHasDataArg(*ni), "F_NODATA");
}

TEST(Macros, RuntimeHasDataArgIsNullopt)
{
    lang::Program p;
    auto* call = parseCall(p, "PI_SEND(mode_flag, k, s, w, d, n)");
    EXPECT_TRUE(sendHasDataArg(*call).empty());
}

TEST(Macros, WaitArgExtraction)
{
    lang::Program p;
    auto* call = parseCall(p, "IO_SEND(F_NODATA, k, s, F_WAIT, d, n)");
    EXPECT_EQ(sendWaitArg(*call), "F_WAIT");
    auto* ni = parseCall(p, "NI_SEND(MSG_GET, F_DATA, k, F_NOWAIT, d, n)");
    EXPECT_EQ(sendWaitArg(*ni), "F_NOWAIT");
}

TEST(Macros, OpcodeExtraction)
{
    lang::Program p;
    auto* ni = parseCall(p, "NI_SEND(MSG_INVAL, F_NODATA, k, w, d, n)");
    EXPECT_EQ(niSendOpcode(*ni), "MSG_INVAL");
    auto* wait = parseCall(p, "WAIT_FOR_SPACE(MSG_GET)");
    EXPECT_EQ(waitForSpaceOpcode(*wait), "MSG_GET");
    auto* pi = parseCall(p, "PI_SEND(F_DATA, k, s, w, d, n)");
    EXPECT_TRUE(niSendOpcode(*pi).empty());
}

TEST(Macros, TooFewArgsIsSafe)
{
    lang::Program p;
    auto* call = parseCall(p, "NI_SEND()");
    EXPECT_TRUE(sendHasDataArg(*call).empty());
    EXPECT_TRUE(sendWaitArg(*call).empty());
    EXPECT_TRUE(niSendOpcode(*call).empty());
}

TEST(Macros, InterfaceOf)
{
    EXPECT_EQ(interfaceOf(MacroKind::SendPi), Interface::Pi);
    EXPECT_EQ(interfaceOf(MacroKind::WaitIoReply), Interface::Io);
    EXPECT_EQ(interfaceOf(MacroKind::SendNi), Interface::Ni);
    EXPECT_EQ(interfaceOf(MacroKind::FreeDb), Interface::None);
}

TEST(ProtocolSpec, HandlerRegistrationAndKinds)
{
    ProtocolSpec spec;
    HandlerSpec h;
    h.name = "H";
    h.kind = HandlerKind::Hardware;
    spec.addHandler(h);
    HandlerSpec s;
    s.name = "S";
    s.kind = HandlerKind::Software;
    spec.addHandler(s);

    EXPECT_EQ(spec.kindOf("H"), HandlerKind::Hardware);
    EXPECT_EQ(spec.kindOf("S"), HandlerKind::Software);
    EXPECT_EQ(spec.kindOf("unknown"), HandlerKind::Normal);
    EXPECT_TRUE(spec.isHandler("H"));
    EXPECT_TRUE(spec.isHandler("S"));
    EXPECT_FALSE(spec.isHandler("unknown"));
    EXPECT_NE(spec.handler("H"), nullptr);
    EXPECT_EQ(spec.handler("nope"), nullptr);
}

TEST(ProtocolSpec, LaneMapping)
{
    ProtocolSpec spec;
    spec.setLane("MSG_GET", 0);
    spec.setLane("MSG_PUT", 3);
    EXPECT_EQ(spec.laneOf("MSG_GET"), 0);
    EXPECT_EQ(spec.laneOf("MSG_PUT"), 3);
    EXPECT_EQ(spec.laneOf("MSG_UNKNOWN"), -1);
    spec.setLane("MSG_GET", 2); // reassignment wins
    EXPECT_EQ(spec.laneOf("MSG_GET"), 2);
}

TEST(ProtocolSpec, DefaultAllowanceIsOnePerLane)
{
    HandlerSpec h;
    for (int lane = 0; lane < kLaneCount; ++lane)
        EXPECT_EQ(h.lane_allowance[static_cast<std::size_t>(lane)], 1);
}

TEST(ProtocolSpec, HandlerKindNames)
{
    EXPECT_STREQ(handlerKindName(HandlerKind::Hardware), "hardware");
    EXPECT_STREQ(handlerKindName(HandlerKind::Software), "software");
    EXPECT_STREQ(handlerKindName(HandlerKind::Normal), "normal");
}

} // namespace
} // namespace mc::flash
