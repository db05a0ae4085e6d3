#ifndef MCHECK_SERVER_CHECK_UNITS_H
#define MCHECK_SERVER_CHECK_UNITS_H

#include "corpus/generator.h"
#include "flash/protocol_spec.h"
#include "lang/program.h"
#include "server/check_request.h"
#include "server/json.h"
#include "server/resident.h"

#include <cstdint>
#include <string>
#include <vector>

namespace mc::server {

/**
 * The synthetic handler-classification spec Files mode checks against:
 * CamelCase names are handlers (Sw* software, the rest hardware),
 * lower-case names are ordinary functions. Shared between the batch
 * Files pipeline and the shard worker so both classify identically.
 */
flash::ProtocolSpec cliFilesSpec(const lang::Program& program);

/**
 * The program and spec a request checks: a generated protocol, or the
 * request's files — classified by cliFilesSpec, or under an empty spec
 * in metal mode (so a metal unit's cache key depends only on its own
 * function). Shared by `check` and the shard worker's `check_units`, so
 * both check the same program.
 */
struct CheckTarget
{
    const lang::Program* program = nullptr;
    const flash::ProtocolSpec* spec = nullptr;
    /** Resident CFGs for the program; null for one-shot runs. */
    checkers::CfgCache* cfgs = nullptr;
    /** Resident unit results for the program; null for one-shot runs. */
    checkers::ResidentUnits* units = nullptr;
    /** The fingerprint of `spec` its resident owner keeps, or 0. */
    std::uint64_t spec_fingerprint = 0;
    std::uint64_t files_reparsed = 0;
    /** A resident snapshot served the program. */
    bool reused = false;

    /** Owned state behind the pointers above (one-shot runs). */
    corpus::LoadedProtocol protocol;
    PreparedProgram files;
    flash::ProtocolSpec files_spec;
};

/**
 * Load `request`'s target, from and into `resident` when given. Returns
 * "" or the files-mode error ("cannot open <path>"); throws
 * std::out_of_range for unknown protocol names.
 */
std::string loadTarget(const CheckRequest& request, ResidentState* resident,
                       CheckTarget& target);

/**
 * Execute one `check_units` worker request: run exactly the requested
 * unit ids of the UnitPlan over program.functions() x makeAllCheckers
 * order, each through checkers::runUnit with the request's budget,
 * always keep-going (fail-fast is the coordinator's business), and
 * return a result object:
 *
 *     {"units": [{"unit": u, "failed": b, "error": s,
 *                 "budget_stop": s, "wall_ms": n, "visits": n,
 *                 "pruned_edges": n, "prune_cache_hits": n,
 *                 "prune_skipped_nary": n, "data": s}, ...],
 *      "units_total": n}
 *
 * `data` is the unit's result in the cache encoding (captureUnit, then
 * AnalysisCache::encodeUnit) — the same checksummed representation warm
 * cache runs replay, so the coordinator's merge cannot tell a worker
 * result from a cache hit. A failed unit carries a fresh instance's
 * state and the single "analysis incomplete" warning, as runUnit leaves
 * it in every substrate.
 *
 * Protocol and Files modes only. Throws on malformed requests (unknown
 * protocol, unreadable files, out-of-range unit ids); the daemon turns
 * that into a structured error response.
 */
JsonValue runCheckUnits(const CheckRequest& request,
                        const std::vector<std::uint64_t>& units,
                        ResidentState* resident);

} // namespace mc::server

#endif // MCHECK_SERVER_CHECK_UNITS_H
