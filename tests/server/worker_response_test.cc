/**
 * @file
 * The shard coordinator's worker-response decoder: a well-formed
 * `check_units` reply fills exactly its batch's result slots, and every
 * malformed reply — an error response, a batch not covered unit for
 * unit, a negative count, an out-of-range wall time, undecodable data —
 * is rejected with std::runtime_error. fuzz_worker_response drives the
 * same decoder with arbitrary bytes.
 */
#include "server/sharded_check.h"

#include "server/json.h"
#include "tests/cache/unit_fixtures.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace mc::server {
namespace {

JsonValue
entry(std::int64_t unit)
{
    JsonValue e = JsonValue::object();
    e.set("unit", JsonValue::number(unit));
    e.set("failed", JsonValue::boolean(false));
    e.set("error", JsonValue::string(""));
    e.set("budget_stop", JsonValue::string("steps"));
    e.set("wall_ms", JsonValue::number(1.5));
    e.set("visits", JsonValue::number(std::int64_t{7}));
    e.set("data", JsonValue::string(cache::AnalysisCache::encodeUnit(
                      cache::testing::sampleUnit())));
    return e;
}

std::string
reply(std::vector<JsonValue> entries)
{
    JsonValue list = JsonValue::array();
    for (JsonValue& e : entries)
        list.push(std::move(e));
    JsonValue result = JsonValue::object();
    result.set("units", std::move(list));
    JsonValue line = JsonValue::object();
    line.set("id", JsonValue::number(std::int64_t{1}));
    line.set("result", std::move(result));
    return line.dump();
}

void
decode(const std::string& line, std::vector<checkers::UnitResult>& results)
{
    absorbWorkerResponse({2, 0}, line, /*slot=*/3, {1, 4}, {0, 1, 2},
                         results);
}

TEST(WorkerResponse, AReplyFillsExactlyItsBatch)
{
    std::vector<checkers::UnitResult> results(3);
    decode(reply({entry(2), entry(0)}), results);
    for (std::size_t u : {0, 2}) {
        ASSERT_TRUE(results[u].wire.has_value());
        cache::testing::expectSameUnit(cache::testing::sampleUnit(),
                                       *results[u].wire);
        EXPECT_EQ(results[u].worker, 3);
        EXPECT_EQ(results[u].stats.visits, 7u);
        EXPECT_EQ(results[u].budget_stop, support::BudgetStop::Steps);
        EXPECT_GT(results[u].wall.count(), 0);
    }
    EXPECT_EQ(results[2].attempts, 1u);
    EXPECT_EQ(results[0].attempts, 4u);
    EXPECT_FALSE(results[1].wire.has_value());
    EXPECT_EQ(results[1].worker, -1);
}

TEST(WorkerResponse, MalformedRepliesAreRejected)
{
    JsonValue negative = entry(0);
    negative.set("visits", JsonValue::number(std::int64_t{-1}));
    JsonValue huge_wall = entry(0);
    huge_wall.set("wall_ms", JsonValue::number(1e308));
    JsonValue negative_wall = entry(0);
    negative_wall.set("wall_ms", JsonValue::number(-2.0));
    JsonValue bad_data = entry(0);
    bad_data.set("data", JsonValue::string("mccheck-cache 2\nsum 0\n"));
    const std::string good = reply({entry(2), entry(0)});
    const std::vector<std::string> lines = {
        R"({"id": 1, "error": {"code": -32603, "message": "boom"}})",
        reply({entry(0), entry(2)}),
        reply({entry(2)}),
        reply({entry(2), negative}),
        reply({entry(2), huge_wall}),
        reply({entry(2), negative_wall}),
        reply({entry(2), bad_data}),
        good.substr(0, good.size() / 2),
        "[]",
    };
    for (const std::string& line : lines) {
        std::vector<checkers::UnitResult> results(3);
        EXPECT_THROW(decode(line, results), std::runtime_error) << line;
    }
}

} // namespace
} // namespace mc::server
