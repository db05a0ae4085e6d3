#include "server/protocol.h"

namespace mc::server {

JsonValue
makeErrorResponse(bool has_id, std::int64_t id, int code,
                  const std::string& message)
{
    JsonValue error = JsonValue::object();
    error.set("code", JsonValue::number(static_cast<std::int64_t>(code)));
    error.set("message", JsonValue::string(message));
    JsonValue response = JsonValue::object();
    response.set("id", has_id ? JsonValue::number(id) : JsonValue());
    response.set("error", std::move(error));
    return response;
}

JsonValue
makeResultResponse(std::int64_t id, JsonValue result)
{
    JsonValue response = JsonValue::object();
    response.set("id", JsonValue::number(id));
    response.set("result", std::move(result));
    return response;
}

namespace {

bool
failParam(std::string& error, const std::string& what)
{
    error = what;
    return false;
}

/**
 * Decode one row's param `v` into `out`. Counts go through the command
 * line's parser (on the number's decimal form), so both front ends
 * accept the same values.
 */
bool
decodeParam(const RequestOption& row, const JsonValue& v, CheckRequest& out)
{
    switch (row.kind) {
      case RequestOption::Kind::Bool:
        if (v.isBool())
            row.set(out, v.asBool());
        return v.isBool();
      case RequestOption::Kind::Count:
        return v.isIntegral() &&
               applyRequestValue(row, std::to_string(v.asInt()), out);
      case RequestOption::Kind::Enum:
      case RequestOption::Kind::String:
        break;
    }
    return v.isString() && applyRequestValue(row, v.asString(), out);
}

/** What a row's param must be, for the InvalidParams message. */
std::string
paramNeeds(const RequestOption& row)
{
    switch (row.kind) {
      case RequestOption::Kind::Count:
        return "an integer in 1.." + std::to_string(row.max);
      case RequestOption::Kind::Bool:
        return "a boolean";
      case RequestOption::Kind::Enum:
        return "one of " + choiceList(row);
      case RequestOption::Kind::String:
        break;
    }
    return "a string";
}

/**
 * parseCheckParams, moving the `files` paths out of `owned` when given
 * (`owned` is then `params`).
 */
bool
decodeCheckParams(const JsonValue* params, JsonValue* owned,
                  unsigned default_jobs, CheckRequest& out,
                  std::string& error)
{
    if (!params || !params->isObject())
        return failParam(error, "'check' needs a params object");

    out.mode = CheckRequest::Mode::Files;
    out.jobs = default_jobs;
    const JsonValue* files = nullptr;
    // The String row given (protocol or metal) names the target.
    const RequestOption* target = nullptr;
    for (const auto& [key, value] : params->members()) {
        if (key == kFilesKey) {
            files = &value;
            continue;
        }
        const RequestOption* row = nullptr;
        for (const RequestOption& r : requestOptions())
            if (r.key && key == r.key)
                row = &r;
        // Strictness keeps the wire honest: a typo'd key is an error the
        // client sees, not an option silently ignored — and the
        // request-options test keeps the rows and
        // tools/daemon_protocol_schema.json in sync.
        if (!row)
            return failParam(error, "unknown check param '" + key + "'");
        if (!decodeParam(*row, value, out))
            return failParam(error,
                             "'" + key + "' must be " + paramNeeds(*row));
        if (row->kind != RequestOption::Kind::String)
            continue;
        if (target)
            return failParam(error, "'" + std::string(target->key) +
                                        "' excludes '" + key + "'");
        target = row;
    }

    if (files) {
        if (!files->isArray())
            return failParam(error, "'files' must be an array of paths");
        std::vector<JsonValue>* taken =
            owned ? &owned->get(kFilesKey)->items() : nullptr;
        out.files.reserve(files->items().size());
        for (std::size_t i = 0; i < files->items().size(); ++i) {
            const JsonValue& f = files->items()[i];
            if (!f.isString())
                return failParam(error,
                                 "'files' must be an array of paths");
            if (taken)
                out.files.push_back((*taken)[i].takeString());
            else
                out.files.push_back(f.asString());
        }
    }
    if (!target && !files) {
        std::string targets;
        for (const RequestOption& row : requestOptions())
            if (row.key && row.kind == RequestOption::Kind::String)
                targets += "'" + std::string(row.key) + "', ";
        return failParam(error, "check needs " + targets + "or 'files'");
    }
    if (out.mode == CheckRequest::Mode::Protocol && files)
        return failParam(error, "'" + std::string(target->key) +
                                    "' excludes 'files'");
    if (out.mode != CheckRequest::Mode::Protocol && out.files.empty())
        return failParam(error, target ? "'" + std::string(target->key) +
                                             "' needs source files to check"
                                       : std::string("no input files"));
    return true;
}

} // namespace

bool
parseCheckParams(const JsonValue* params, unsigned default_jobs,
                 CheckRequest& out, std::string& error)
{
    return decodeCheckParams(params, nullptr, default_jobs, out, error);
}

bool
takeCheckParams(JsonValue* params, unsigned default_jobs, CheckRequest& out,
                std::string& error)
{
    return decodeCheckParams(params, params, default_jobs, out, error);
}

JsonValue
encodeCheckParams(const CheckRequest& request)
{
    const CheckRequest defaults;
    JsonValue params = JsonValue::object();
    for (const RequestOption& row : requestOptions()) {
        if (!row.key)
            continue;
        if (row.kind == RequestOption::Kind::String) {
            if (request.mode == row.mode)
                params.set(row.key, JsonValue::string(request.*(row.text)));
            continue;
        }
        const std::uint64_t value = row.get(request);
        if (value == row.get(defaults))
            continue;
        switch (row.kind) {
          case RequestOption::Kind::Count:
            params.set(row.key, JsonValue::number(value));
            break;
          case RequestOption::Kind::Bool:
            params.set(row.key, JsonValue::boolean(value != 0));
            break;
          case RequestOption::Kind::Enum:
            params.set(row.key, JsonValue::string(row.choices[value]));
            break;
          case RequestOption::Kind::String:
            break;
        }
    }
    if (request.mode != CheckRequest::Mode::Protocol) {
        JsonValue files = JsonValue::array();
        for (const std::string& f : request.files)
            files.push(JsonValue::string(f));
        params.set(kFilesKey, std::move(files));
    }
    return params;
}

bool
parseCheckUnitsParams(const JsonValue* params, unsigned default_jobs,
                      CheckRequest& out,
                      std::vector<std::uint64_t>& units,
                      std::string& error)
{
    if (!params || !params->isObject())
        return failParam(error, "'check_units' needs a params object");
    const JsonValue* list = params->get("units");
    if (!list || !list->isArray())
        return failParam(error, "'units' must be an array of unit ids");
    for (const JsonValue& v : list->items()) {
        bool ok = false;
        std::int64_t n = v.asInt(0, &ok);
        if (!ok || n < 0)
            return failParam(
                error, "'units' must be an array of non-negative unit ids");
        units.push_back(static_cast<std::uint64_t>(n));
    }
    if (units.empty())
        return failParam(error, "'units' must name at least one unit");
    // Everything else is the `check` vocabulary, decoded by the same
    // strict parser so the two methods can never drift apart.
    JsonValue rest = JsonValue::object();
    for (const auto& [key, value] : params->members())
        if (key != "units")
            rest.set(key, value);
    return parseCheckParams(&rest, default_jobs, out, error);
}

} // namespace mc::server
