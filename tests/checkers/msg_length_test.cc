#include "checkers/registry.h"
#include "tests/checkers/harness.h"

#include <gtest/gtest.h>

namespace mc::checkers {
namespace {

using flash::HandlerKind;
using testing::Harness;

TEST(MsgLength, ConsistentDataSendClean)
{
    Harness h;
    h.addHandler("H", HandlerKind::Hardware,
                 "HANDLER_GLOBALS(header.nh.len) = LEN_CACHELINE;"
                 "NI_SEND(MSG_PUT, F_DATA, keep, wait, dec, null);");
    auto checker = makeChecker("msglen_check");
    h.run(*checker);
    EXPECT_EQ(h.errors(), 0);
}

TEST(MsgLength, DataSendWithZeroLenFlagged)
{
    Harness h;
    h.addHandler("H", HandlerKind::Hardware,
                 "HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;"
                 "PI_SEND(F_DATA, keep, swap, wait, dec, null);");
    auto checker = makeChecker("msglen_check");
    h.run(*checker);
    ASSERT_EQ(h.errors(), 1);
    EXPECT_EQ(h.sink.diagnostics()[0].message, "data send, zero len");
}

TEST(MsgLength, NodataSendWithNonzeroLenFlagged)
{
    Harness h;
    h.addHandler("H", HandlerKind::Hardware,
                 "HANDLER_GLOBALS(header.nh.len) = LEN_WORD;"
                 "IO_SEND(F_NODATA, keep, swap, wait, dec, null);");
    auto checker = makeChecker("msglen_check");
    h.run(*checker);
    ASSERT_EQ(h.errors(), 1);
    EXPECT_EQ(h.sink.diagnostics()[0].message, "nodata send, nonzero len");
}

TEST(MsgLength, SendBeforeAnyAssignmentIgnored)
{
    // Handlers often inherit the incoming message's length; the checker
    // deliberately does not warn when the initial value is unknown.
    Harness h;
    h.addHandler("H", HandlerKind::Hardware,
                 "NI_SEND(MSG_ACK, F_NODATA, keep, wait, dec, null);");
    auto checker = makeChecker("msglen_check");
    h.run(*checker);
    EXPECT_EQ(h.errors(), 0);
}

TEST(MsgLength, AssignmentHundredsOfLinesBeforeSend)
{
    // "It is not unusual for a length assignment to be hundreds of lines
    // away from the message send that uses it."
    std::string filler;
    for (int i = 0; i < 120; ++i)
        filler += "pad" + std::to_string(i) + " = " + std::to_string(i) +
                  ";\n";
    Harness h;
    h.addHandler("H", HandlerKind::Hardware,
                 "HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;\n" + filler +
                     "NI_SEND(MSG_PUT, F_DATA, keep, wait, dec, null);");
    auto checker = makeChecker("msglen_check");
    h.run(*checker);
    EXPECT_EQ(h.errors(), 1);
}

TEST(MsgLength, ReassignmentChangesState)
{
    Harness h;
    h.addHandler("H", HandlerKind::Hardware,
                 "HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;"
                 "NI_SEND(MSG_ACK, F_NODATA, keep, wait, dec, null);"
                 "HANDLER_GLOBALS(header.nh.len) = LEN_CACHELINE;"
                 "NI_SEND(MSG_PUT, F_DATA, keep, wait, dec, null);");
    auto checker = makeChecker("msglen_check");
    h.run(*checker);
    EXPECT_EQ(h.errors(), 0);
}

TEST(MsgLength, BadPathThroughBranchFlagged)
{
    // Error only on the else path; path-sensitivity required.
    Harness h;
    h.addHandler("H", HandlerKind::Hardware,
                 "if (have_data) {"
                 "  HANDLER_GLOBALS(header.nh.len) = LEN_CACHELINE;"
                 "} else {"
                 "  HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;"
                 "}"
                 "NI_SEND(MSG_PUT, F_DATA, keep, wait, dec, null);");
    auto checker = makeChecker("msglen_check");
    h.run(*checker);
    EXPECT_EQ(h.errors(), 1);
}

TEST(MsgLength, RuntimeParameterNotMatched)
{
    // The coma false-positive shape: the has-data parameter is a run-time
    // variable. The figure's patterns only match literal F_DATA/F_NODATA,
    // so this send is not checked at all (the FPs in the paper came from
    // the checker pruning too little, not from this pattern).
    Harness h;
    h.addHandler("H", HandlerKind::Hardware,
                 "HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;"
                 "PI_SEND(data_flag, keep, swap, wait, dec, null);");
    auto checker = makeChecker("msglen_check");
    h.run(*checker);
    EXPECT_EQ(h.errors(), 0);
}

TEST(MsgLength, AppliedCountsSendsAndAssignments)
{
    Harness h;
    h.addHandler("H", HandlerKind::Hardware,
                 "HANDLER_GLOBALS(header.nh.len) = LEN_WORD;"
                 "PI_SEND(F_DATA, keep, swap, wait, dec, null);"
                 "NI_SEND(MSG_PUT, F_DATA, keep, wait, dec, null);");
    auto checker = makeChecker("msglen_check");
    auto stats = h.run(*checker);
    EXPECT_EQ(stats[0].applied, 3);
}

TEST(MsgLength, UncachedReadHandlerShape)
{
    // The dyn_ptr/rac bug shape from the paper: uncached-read handlers
    // forget the length was set to a data length upstream and send nodata.
    Harness h;
    h.addHandler("PIUncachedRead", HandlerKind::Hardware,
                 "HANDLER_GLOBALS(header.nh.len) = LEN_WORD;"
                 "if (queue_full) {"
                 "  NI_SEND(MSG_NAK, F_NODATA, keep, wait, dec, null);"
                 "  return;"
                 "}"
                 "PI_SEND(F_DATA, keep, swap, wait, dec, null);");
    auto checker = makeChecker("msglen_check");
    h.run(*checker);
    EXPECT_EQ(h.errors(), 1);
}

} // namespace
} // namespace mc::checkers
