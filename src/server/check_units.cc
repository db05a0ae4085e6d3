/**
 * @file
 * The shard worker's half of sharded checking.
 *
 * A worker is an `mccheck --shard-worker` process holding a Daemon;
 * `check_units` requests name explicit unit ids instead of "everything",
 * and the response carries each unit's outcome in the analysis cache's
 * encoded form. Determinism rests on three properties: unit ids index
 * the same UnitPlan grid the coordinator enumerates, each unit runs
 * through checkers::runUnit — the one unit body every substrate shares
 * (same guard, same probes, same containment warnings) — and results
 * travel in the cache encoding whose replay path is already proven
 * byte-neutral by the warm/cold differential suite.
 */
#include "server/check_units.h"

#include "checkers/parallel.h"
#include "checkers/registry.h"
#include "corpus/generator.h"
#include "server/resident.h"
#include "support/fault_injection.h"
#include "support/text.h"
#include "support/witness.h"

#include <cctype>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>

namespace mc::server {

flash::ProtocolSpec
cliFilesSpec(const lang::Program& program)
{
    flash::ProtocolSpec spec;
    spec.name = "<cli>";
    for (const lang::FunctionDecl* fn : program.functions()) {
        flash::HandlerSpec hs;
        hs.name = fn->name;
        bool camel_case =
            !fn->name.empty() &&
            std::isupper(static_cast<unsigned char>(fn->name[0]));
        if (!camel_case)
            hs.kind = flash::HandlerKind::Normal;
        else if (support::startsWith(fn->name, "Sw"))
            hs.kind = flash::HandlerKind::Software;
        else
            hs.kind = flash::HandlerKind::Hardware;
        spec.addHandler(hs);
    }
    return spec;
}

std::string
loadTarget(const CheckRequest& request, ResidentState* resident,
           CheckTarget& target)
{
    if (request.mode == CheckRequest::Mode::Protocol) {
        corpus::LoadedProtocol* loaded = &target.protocol;
        if (resident)
            loaded = &resident->protocolSnapshot(
                request.protocol, target.cfgs, target.units, target.reused);
        else
            target.protocol =
                corpus::loadProtocol(corpus::profileByName(request.protocol));
        target.program = loaded->program.get();
        target.spec = &loaded->gen.spec;
        target.files_reparsed = target.reused ? 0 : loaded->gen.files.size();
        return "";
    }
    const FileReader reader =
        request.read_file ? request.read_file : FileReader(readDiskFile);
    target.files = resident ? resident->prepareFiles(request.files, reader)
                            : buildProgramOneShot(request.files, reader);
    if (!target.files.ok)
        return target.files.error;
    target.program = target.files.program;
    target.cfgs = target.files.cfg_cache;
    target.units = target.files.units;
    target.files_reparsed = target.files.files_reparsed;
    target.reused = target.files.reused;
    target.spec = &target.files_spec;
    if (request.mode == CheckRequest::Mode::Files) {
        if (target.files.files_spec)
            target.spec = target.files.files_spec;
        else
            target.files_spec = cliFilesSpec(*target.program);
    }
    return "";
}

JsonValue
runCheckUnits(const CheckRequest& request,
              const std::vector<std::uint64_t>& units,
              ResidentState* resident)
{
    // Process-global per-run configuration, exactly as runCheckRequest
    // installs it — the daemon's execution mutex serializes requests,
    // so the global cannot leak across concurrent batches.
    support::setWitnessConfig(request.witness, request.witness_limit);

    if (request.mode == CheckRequest::Mode::Metal)
        throw std::runtime_error(
            "check_units supports protocol and files modes only");
    CheckTarget target;
    const std::string error = loadTarget(request, resident, target);
    if (!error.empty())
        throw std::runtime_error(error);
    checkers::CfgCache local_cfgs;

    checkers::CheckerSetOptions copts;
    copts.prune_strategy = request.prune_strategy;
    std::vector<const checkers::CheckerDef*> defs;
    for (const std::string& name : checkers::allCheckerNames())
        defs.push_back(checkers::checkerDef(name, copts));
    // Workers always contain failures: fail-fast is the coordinator's
    // business, enforced at merge.
    const checkers::UnitPlan plan{
        *target.program, *target.spec, defs, unitBudget(request),
        /*fail_fast=*/false, target.cfgs ? target.cfgs : &local_cfgs};
    const std::size_t nunits = plan.units();

    JsonValue entries = JsonValue::array();
    for (std::uint64_t u : units) {
        if (u >= nunits)
            throw std::runtime_error("unit id out of range: " +
                                     std::to_string(u));
        // Worker-process fault sites. Unlike checker.unit these are NOT
        // contained: they simulate the worker dying mid-batch (_Exit,
        // as an OOM kill or segfault would look from outside) or
        // wedging (an infinite stall under a live heartbeat thread).
        // Keyed by unit identity so the same units misbehave at any
        // shard count.
        if (support::fault::armed()) {
            const std::string label = plan.label(u);
            try {
                support::fault::probe("worker.request", label);
            } catch (const support::InjectedFault&) {
                std::_Exit(9);
            }
            try {
                support::fault::probe("worker.hang", label);
            } catch (const support::InjectedFault&) {
                for (;;)
                    std::this_thread::sleep_for(std::chrono::hours(1));
            }
        }

        checkers::UnitResult r;
        checkers::runUnit(plan, u, r);
        JsonValue entry = JsonValue::object();
        entry.set("unit", JsonValue::number(u));
        entry.set("failed", JsonValue::boolean(r.failed));
        entry.set("error", JsonValue::string(r.error));
        entry.set("budget_stop",
                  JsonValue::string(support::budgetStopName(r.budget_stop)));
        entry.set("wall_ms",
                  JsonValue::number(
                      std::chrono::duration<double, std::milli>(r.wall)
                          .count()));
        entry.set("visits", JsonValue::number(r.stats.visits));
        entry.set("pruned_edges", JsonValue::number(r.stats.pruned_edges));
        entry.set("prune_cache_hits",
                  JsonValue::number(r.stats.prune_cache_hits));
        entry.set("prune_skipped_nary",
                  JsonValue::number(r.stats.prune_skipped_nary));
        entry.set("data", JsonValue::string(cache::AnalysisCache::encodeUnit(
                              checkers::captureUnit(plan, u, r))));
        entries.push(std::move(entry));
    }

    JsonValue result = JsonValue::object();
    result.set("units", std::move(entries));
    result.set("units_total",
               JsonValue::number(static_cast<std::uint64_t>(nunits)));
    return result;
}

} // namespace mc::server
