/**
 * @file
 * The request-option table against its three codecs: mccheck's argv
 * parser, the daemon's `check` params decoder and the shard
 * coordinator's `check_units` encoder. For every row and the values 0,
 * 1, max, max+1, -1 and junk, argv and JSON must accept the same set;
 * every accepted request must survive argv -> CheckRequest ->
 * check_units line -> CheckRequest unchanged; and the frozen protocol
 * schema must describe exactly the rows.
 */
#include "metal/feasibility.h"
#include "server/check_request.h"
#include "server/json.h"
#include "server/protocol.h"
#include "server/sharded_check.h"
#include "support/diagnostics.h"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace mc::server {
namespace {

using Kind = RequestOption::Kind;

/** argv through the rows, the way mccheck reads it (bare words are
 *  files). False with `error` on a usage error. */
bool
parseArgv(const std::vector<std::string>& args, CheckRequest& out,
          std::string& error)
{
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (!parseRequestArg(args, i, out, error))
            out.files.push_back(args[i]);
        if (!error.empty())
            return false;
    }
    return true;
}

/** One `check` params object, decoded from JSON text. */
bool
parseParams(const std::string& json, CheckRequest& out, std::string& error)
{
    JsonValue params;
    if (!JsonValue::parse(json, params, error))
        return false;
    return parseCheckParams(&params, 0, out, error);
}

/** Equal in everything a row, the target or the files can set. */
void
expectSameRequest(const CheckRequest& a, const CheckRequest& b,
                  const std::string& what)
{
    EXPECT_EQ(a.mode, b.mode) << what;
    EXPECT_EQ(a.files, b.files) << what;
    for (const RequestOption& row : requestOptions()) {
        if (row.text) {
            EXPECT_EQ(a.*(row.text), b.*(row.text)) << what << " " << row.flag;
        } else {
            EXPECT_EQ(row.get(a), row.get(b)) << what << " " << row.flag;
        }
    }
}

/** argv -> CheckRequest -> check_units line -> CheckRequest. */
void
expectWireRoundTrip(const CheckRequest& request, const std::string& what)
{
    const std::string line = makeCheckUnitsRequest(request, {0, 5}, 1);
    JsonValue parsed;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(line, parsed, error)) << line;
    CheckRequest back;
    std::vector<std::uint64_t> units;
    ASSERT_TRUE(parseCheckUnitsParams(parsed.get("params"), 0, back, units,
                                      error))
        << what << ": " << error << "\n" << line;
    EXPECT_EQ(units, (std::vector<std::uint64_t>{0, 5})) << what;
    // CLI-only rows stay with the coordinator.
    for (const RequestOption& row : requestOptions())
        if (!row.key)
            row.set(back, row.get(request));
    expectSameRequest(request, back, what + " via " + line);
}

/** One value of one row, spelled for each front end. */
struct Candidate
{
    /** argv tokens after the flag (empty for a bare Bool flag). */
    std::vector<std::string> argv;
    /** The JSON value text. */
    std::string json;
    /** Whether the row must accept it. */
    bool valid;
};

std::vector<Candidate>
candidates(const RequestOption& row)
{
    switch (row.kind) {
      case Kind::Count: {
        const std::string max = std::to_string(row.max);
        const std::string over = std::to_string(row.max + 1);
        return {{{"0"}, "0", false},       {{"1"}, "1", true},
                {{max}, max, true},        {{over}, over, false},
                {{"-1"}, "-1", false},     {{"junk"}, "\"junk\"", false}};
      }
      case Kind::Bool:
        return {{{}, "true", true}};
      case Kind::Enum: {
        std::vector<Candidate> out;
        for (const char* c : row.choices)
            out.push_back({{c}, "\"" + std::string(c) + "\"", true});
        out.push_back({{"junk"}, "\"junk\"", false});
        out.push_back({{""}, "\"\"", false});
        return out;
      }
      case Kind::String:
        return {{{"sci"}, "\"sci\"", true}};
    }
    return {};
}

TEST(RequestOptions, CountParserIsStrict)
{
    EXPECT_EQ(parseCount("1", 10), 1u);
    EXPECT_EQ(parseCount("10", 10), 10u);
    EXPECT_EQ(parseCount("007", 10), 7u);
    EXPECT_EQ(parseCount("18446744073709551615", ~0ull), ~0ull);
    for (const char* bad :
         {"", "0", "11", "-1", "+5", " 5", "5 ", "5x", "0x5", "1e3",
          "18446744073709551616", "99999999999999999999999"})
        EXPECT_FALSE(parseCount(bad, 10).has_value()) << "'" << bad << "'";
    EXPECT_FALSE(parseCount("18446744073709551616", ~0ull).has_value());
}

TEST(RequestOptions, FlagsAndKeysAreUnique)
{
    std::set<std::string> flags;
    std::set<std::string> keys{kFilesKey};
    for (const RequestOption& row : requestOptions()) {
        EXPECT_TRUE(flags.insert(row.flag).second) << row.flag;
        if (row.key) {
            EXPECT_TRUE(keys.insert(row.key).second) << row.key;
        }
        EXPECT_EQ(row.kind == Kind::String, row.text != nullptr) << row.flag;
        EXPECT_EQ(row.kind != Kind::String, row.get && row.set) << row.flag;
    }
}

/** Each spelling selects the enum value it names; the prune strategies
 *  read back through metal::pruneStrategyName. */
TEST(RequestOptions, EnumSpellingsSelectTheirValues)
{
    std::string error;
    for (auto [name, format] :
         {std::pair{"text", support::OutputFormat::Text},
          std::pair{"json", support::OutputFormat::Json},
          std::pair{"sarif", support::OutputFormat::Sarif}}) {
        CheckRequest request;
        ASSERT_TRUE(parseArgv({"--format", name}, request, error)) << error;
        EXPECT_EQ(request.format, format) << name;
    }
    for (metal::PruneStrategy strategy :
         {metal::PruneStrategy::Off, metal::PruneStrategy::Correlated,
          metal::PruneStrategy::Constraints}) {
        const std::string name = metal::pruneStrategyName(strategy);
        CheckRequest request;
        ASSERT_TRUE(parseArgv({"--prune-paths", name}, request, error))
            << error;
        EXPECT_EQ(request.prune_strategy, strategy) << name;
    }
}

TEST(RequestOptions, ArgvAndParamsAcceptTheSameValues)
{
    for (const RequestOption& row : requestOptions()) {
        // Every check needs a target: rows other than the targets ride
        // on a protocol check, and metal needs files.
        std::vector<std::string> base_argv;
        std::string base_json;
        if (row.kind != Kind::String) {
            base_argv = {"--protocol", "sci"};
            base_json = "\"protocol\": \"sci\", ";
        } else if (row.mode == CheckRequest::Mode::Metal) {
            base_argv = {"a.c"};
            base_json = "\"files\": [\"a.c\"], ";
        }
        for (const Candidate& c : candidates(row)) {
            std::vector<std::string> argv = base_argv;
            argv.push_back(row.flag);
            argv.insert(argv.end(), c.argv.begin(), c.argv.end());
            const std::string what =
                std::string(row.flag) + " " +
                (c.argv.empty() ? std::string() : c.argv[0]);

            CheckRequest from_argv;
            std::string argv_error;
            const bool argv_ok = parseArgv(argv, from_argv, argv_error);
            EXPECT_EQ(argv_ok, c.valid) << what << ": " << argv_error;
            if (!argv_ok) {
                EXPECT_NE(argv_error.find(row.flag), std::string::npos)
                    << what << ": " << argv_error;
            }

            if (row.key) {
                CheckRequest from_json;
                std::string json_error;
                const std::string json = "{" + base_json + "\"" + row.key +
                                         "\": " + c.json + "}";
                const bool json_ok = parseParams(json, from_json, json_error);
                EXPECT_EQ(json_ok, argv_ok)
                    << what << " vs " << json << ": " << json_error;
                if (json_ok && argv_ok)
                    expectSameRequest(from_argv, from_json, what);
            }
            if (argv_ok)
                expectWireRoundTrip(from_argv, what);
        }
    }
}

TEST(RequestOptions, WholeRequestsSurviveTheWire)
{
    const std::vector<std::vector<std::string>> argvs = {
        {"--protocol", "sci", "--format", "json", "--jobs", "3",
         "--prune-paths", "constraints", "--witness", "--witness-limit",
         "5", "--unit-timeout-ms", "100", "--unit-max-steps", "1000",
         "--fail-fast", "--shards", "2", "--shard-batch-units", "8"},
        {"a.c", "b.c", "--format", "sarif", "--fail-fast", "--keep-going"},
        {"--metal", "m.metal", "a.c", "--prune-paths", "correlated"},
    };
    for (const std::vector<std::string>& argv : argvs) {
        CheckRequest request;
        std::string error;
        ASSERT_TRUE(parseArgv(argv, request, error)) << error;
        expectWireRoundTrip(request, argv.front());
    }
}

/** The frozen wire schema describes exactly the rows: same keys, same
 *  types, ranges and spellings. */
TEST(RequestOptions, SchemaMatchesTheRows)
{
    std::ifstream in(MCHECK_PROTOCOL_SCHEMA);
    ASSERT_TRUE(in.good()) << MCHECK_PROTOCOL_SCHEMA;
    std::ostringstream text;
    text << in.rdbuf();
    JsonValue schema;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(text.str(), schema, error)) << error;
    const JsonValue* definitions = schema.get("definitions");
    ASSERT_NE(definitions, nullptr);

    for (const char* def : {"check_params", "check_units_params"}) {
        const JsonValue* props =
            definitions->get(def) ? definitions->get(def)->get("properties")
                                  : nullptr;
        ASSERT_NE(props, nullptr) << def;
        std::set<std::string> keys{kFilesKey};
        if (std::string(def) == "check_units_params")
            keys.insert("units");
        for (const RequestOption& row : requestOptions()) {
            if (!row.key)
                continue;
            keys.insert(row.key);
            const JsonValue* p = props->get(row.key);
            ASSERT_NE(p, nullptr) << def << " lacks " << row.key;
            const std::string type =
                p->get("type") ? p->get("type")->asString() : "";
            switch (row.kind) {
              case Kind::Count:
                EXPECT_EQ(type, "integer") << row.key;
                ASSERT_TRUE(p->get("minimum") && p->get("maximum"))
                    << def << " " << row.key;
                EXPECT_EQ(p->get("minimum")->asInt(), 1) << row.key;
                EXPECT_EQ(static_cast<std::uint64_t>(
                              p->get("maximum")->asInt()),
                          row.max)
                    << def << " " << row.key;
                break;
              case Kind::Bool:
                EXPECT_EQ(type, "boolean") << row.key;
                break;
              case Kind::Enum: {
                EXPECT_EQ(type, "string") << row.key;
                ASSERT_NE(p->get("enum"), nullptr) << row.key;
                std::vector<std::string> spelled;
                for (const JsonValue& v : p->get("enum")->items())
                    spelled.push_back(v.asString());
                EXPECT_EQ(spelled, std::vector<std::string>(
                                       row.choices.begin(), row.choices.end()))
                    << row.key;
                break;
              }
              case Kind::String:
                EXPECT_EQ(type, "string") << row.key;
                break;
            }
        }
        std::set<std::string> schema_keys;
        for (const auto& [key, value] : props->members())
            schema_keys.insert(key);
        EXPECT_EQ(schema_keys, keys) << def;
    }
}

} // namespace
} // namespace mc::server
