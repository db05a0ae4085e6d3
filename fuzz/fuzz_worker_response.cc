/**
 * @file
 * Fuzz target: a shard worker's `check_units` response line, as the
 * coordinator decodes it.
 *
 * Properties: absorbWorkerResponse either fills every slot of the batch
 * it was sent — each with a decoded payload, the worker's slot and its
 * dispatch attempts — or throws std::runtime_error; nothing else
 * escapes, and no slot outside the batch is touched.
 */
#include "server/sharded_check.h"

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size)
{
    const std::string line(reinterpret_cast<const char*>(data), size);
    // Every seed answers this batch: units 0 and 1 of a three-unit plan.
    const std::vector<std::uint64_t> units = {0, 1};
    const std::vector<unsigned> attempts = {1, 2};
    std::vector<mc::checkers::UnitResult> results(3);
    try {
        mc::server::absorbWorkerResponse(units, line, /*slot=*/1, attempts,
                                         results);
    } catch (const std::runtime_error&) {
        return 0;
    }
    for (std::size_t i = 0; i < units.size(); ++i) {
        const mc::checkers::UnitResult& r = results[units[i]];
        if (!r.wire || r.worker != 1 || r.attempts != attempts[i])
            __builtin_trap();
    }
    if (results[2].wire || results[2].worker != -1)
        __builtin_trap();
    return 0;
}

#include "replay_main.h"
