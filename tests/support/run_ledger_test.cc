/**
 * @file
 * Unit tests for the --ledger JSONL stream: event shapes, run_end
 * tallies, the thread-local per-unit visit accumulator, and the
 * disabled-by-default no-op path.
 */
#include "support/run_ledger.h"

#include "json_test_util.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace mc::support {
namespace {

std::string
tempLedgerPath(const char* tag)
{
    return std::string(::testing::TempDir()) + "/mccheck_ledger_" + tag +
           ".jsonl";
}

std::vector<std::string>
readLines(const std::string& path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

TEST(RunLedger, DisabledLedgerEmitsNothing)
{
    // The global ledger starts closed; unit/runEnd must be no-ops.
    RunLedger& ledger = RunLedger::global();
    EXPECT_FALSE(ledger.enabled());
    LedgerUnitEvent event;
    event.function = "f";
    event.checker = "c";
    ledger.unit(event);     // must not crash
    ledger.runEnd(0, 0, 0); // must not crash
}

TEST(RunLedger, EmitsValidJsonlWithRunEndTallies)
{
    const std::string path = tempLedgerPath("roundtrip");
    std::remove(path.c_str());
    {
        RunLedger ledger;
        ASSERT_TRUE(ledger.open(path));
        ledger.runStart({"--protocol", "sci", "--witness"}, true, 16, 4);

        LedgerUnitEvent hit;
        hit.function = "PILocalGet";
        hit.checker = "wait_for_db";
        hit.wall_ms = 1.25;
        hit.visits = 0;
        hit.cache = "hit";
        ledger.unit(hit);

        LedgerUnitEvent miss;
        miss.function = "NILocalPut";
        miss.checker = "wait_for_db";
        miss.wall_ms = 3.5;
        miss.visits = 42;
        miss.cache = "miss";
        miss.budget_stop = "steps";
        miss.truncated = true;
        miss.degraded_parse = true;
        ledger.unit(miss);

        LedgerUnitEvent failed;
        failed.function = "weird \"name\"";
        failed.checker = "lanes";
        failed.failed = true;
        ledger.unit(failed);

        ledger.runEnd(2, 1, 3);
    }

    std::vector<std::string> lines = readLines(path);
    ASSERT_EQ(lines.size(), 5u);

    std::vector<testjson::Value> events;
    for (const std::string& line : lines) {
        testjson::Value v;
        ASSERT_NO_THROW(v = testjson::parse(line)) << line;
        events.push_back(std::move(v));
    }

    EXPECT_EQ(events[0].at("event").string, "run_start");
    EXPECT_TRUE(events[0].at("witness").boolean);
    EXPECT_EQ(events[0].at("witness_limit").number, 16.0);
    EXPECT_EQ(events[0].at("jobs").number, 4.0);
    ASSERT_EQ(events[0].at("args").array.size(), 3u);
    EXPECT_EQ(events[0].at("args").array[2].string, "--witness");

    EXPECT_EQ(events[1].at("event").string, "unit");
    EXPECT_EQ(events[1].at("cache").string, "hit");
    EXPECT_EQ(events[2].at("visits").number, 42.0);
    EXPECT_EQ(events[2].at("budget_stop").string, "steps");
    EXPECT_TRUE(events[2].at("truncated").boolean);
    EXPECT_TRUE(events[2].at("degraded_parse").boolean);
    EXPECT_EQ(events[3].at("function").string, "weird \"name\"");
    EXPECT_TRUE(events[3].at("failed").boolean);

    const testjson::Value& end = events[4];
    EXPECT_EQ(end.at("event").string, "run_end");
    EXPECT_EQ(end.at("exit_code").number, 2.0);
    EXPECT_EQ(end.at("errors").number, 1.0);
    EXPECT_EQ(end.at("warnings").number, 3.0);
    EXPECT_EQ(end.at("units").number, 3.0);
    EXPECT_EQ(end.at("unit_failures").number, 1.0);
    EXPECT_EQ(end.at("budget_truncations").number, 1.0);
    EXPECT_EQ(end.at("cache_hits").number, 1.0);
    EXPECT_EQ(end.at("cache_misses").number, 1.0);
    EXPECT_EQ(end.at("cache_resident").number, 0.0);
    EXPECT_EQ(end.at("total_visits").number, 42.0);

    std::remove(path.c_str());
}

TEST(RunLedger, TalliesResidentUnitsApartFromCacheHits)
{
    const std::string path = tempLedgerPath("resident");
    std::remove(path.c_str());
    {
        RunLedger ledger;
        ASSERT_TRUE(ledger.open(path));
        LedgerUnitEvent event;
        event.function = "PILocalGet";
        event.checker = "lanes";
        event.cache = "resident";
        ledger.unit(event);
        ledger.unit(event);
        event.cache = "miss";
        ledger.unit(event);
        ledger.runEnd(0, 0, 0);
    }
    std::vector<std::string> lines = readLines(path);
    ASSERT_EQ(lines.size(), 4u);
    testjson::Value unit = testjson::parse(lines[0]);
    EXPECT_EQ(unit.at("cache").string, "resident");
    testjson::Value end = testjson::parse(lines[3]);
    EXPECT_EQ(end.at("units").number, 3.0);
    EXPECT_EQ(end.at("cache_resident").number, 2.0);
    EXPECT_EQ(end.at("cache_hits").number, 0.0);
    EXPECT_EQ(end.at("cache_misses").number, 1.0);
    std::remove(path.c_str());
}

TEST(RunLedger, AppendsAcrossOpens)
{
    const std::string path = tempLedgerPath("append");
    std::remove(path.c_str());
    {
        RunLedger ledger;
        ASSERT_TRUE(ledger.open(path));
        ledger.runEnd(0, 0, 0);
    }
    {
        RunLedger ledger;
        ASSERT_TRUE(ledger.open(path));
        ledger.runEnd(1, 2, 0);
    }
    std::vector<std::string> lines = readLines(path);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[0], lines[1]);
    std::remove(path.c_str());
}

TEST(RunLedger, RunEndClosesTheStream)
{
    const std::string path = tempLedgerPath("closed");
    std::remove(path.c_str());
    RunLedger ledger;
    ASSERT_TRUE(ledger.open(path));
    ledger.runEnd(0, 0, 0);
    EXPECT_FALSE(ledger.enabled());
    LedgerUnitEvent event;
    ledger.unit(event); // after runEnd: dropped, not appended
    EXPECT_EQ(readLines(path).size(), 1u);
    std::remove(path.c_str());
}

TEST(LedgerUnitStats, ScopeInstallsAndRestoresThreadLocal)
{
    EXPECT_EQ(LedgerUnitStats::current(), nullptr);
    LedgerUnitStats outer;
    {
        LedgerUnitScope outer_scope(&outer);
        EXPECT_EQ(LedgerUnitStats::current(), &outer);
        LedgerUnitStats inner;
        {
            LedgerUnitScope inner_scope(&inner);
            EXPECT_EQ(LedgerUnitStats::current(), &inner);
            LedgerUnitStats::current()->visits += 7;
        }
        EXPECT_EQ(LedgerUnitStats::current(), &outer);
        LedgerUnitStats::current()->visits += 1;
        EXPECT_EQ(inner.visits, 7u);
    }
    EXPECT_EQ(LedgerUnitStats::current(), nullptr);
    EXPECT_EQ(outer.visits, 1u);
}

} // namespace
} // namespace mc::support
