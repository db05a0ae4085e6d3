/**
 * @file
 * Fuzz target: the daemon's request line.
 *
 * Properties: JsonValue::parse never throws or crashes on arbitrary
 * bytes, and whatever it accepts goes through both strict parameter
 * decoders (parseCheckParams for `check`, parseCheckUnitsParams for
 * `check_units`), which must answer true or false with a message — a
 * rejection always names its reason, and nothing escapes.
 */
#include "server/json.h"
#include "server/protocol.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size)
{
    const std::string_view line(reinterpret_cast<const char*>(data), size);
    mc::server::JsonValue request;
    std::string error;
    if (!mc::server::JsonValue::parse(line, request, error))
        return 0;
    // A well-formed request carries its arguments under "params"; a bare
    // value is decoded as the params object itself.
    const mc::server::JsonValue* params =
        request.isObject() && request.get("params") ? request.get("params")
                                                    : &request;

    mc::server::CheckRequest check;
    std::string check_error;
    if (!mc::server::parseCheckParams(params, 4, check, check_error) &&
        check_error.empty())
        __builtin_trap();

    mc::server::CheckRequest units_request;
    std::vector<std::uint64_t> units;
    std::string units_error;
    if (!mc::server::parseCheckUnitsParams(params, 4, units_request, units,
                                           units_error) &&
        units_error.empty())
        __builtin_trap();
    return 0;
}

#include "replay_main.h"
