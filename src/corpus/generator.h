#ifndef MCHECK_CORPUS_GENERATOR_H
#define MCHECK_CORPUS_GENERATOR_H

#include "corpus/ledger.h"
#include "corpus/profile.h"
#include "flash/protocol_spec.h"
#include "lang/program.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace mc::corpus {

/** One generated source file (one function per file). */
struct GeneratedFile
{
    /** File name, e.g. "bitvector/PILocalGet.c". */
    std::string name;
    std::string source;
    /** The function the file defines. */
    std::string function;
};

/** A fully generated protocol: sources, spec, and the seeding ledger. */
struct GeneratedProtocol
{
    std::string name;
    std::vector<GeneratedFile> files;
    flash::ProtocolSpec spec;
    Ledger ledger;

    /** Total source lines across all files (Table 1's LOC metric). */
    int totalLoc() const;
};

/**
 * Generate a protocol from a profile. Deterministic: the same profile
 * (including its seed) yields byte-identical sources, ledger and spec on
 * every conforming compiler, because every draw from the profile's Rng is
 * sequenced.
 */
GeneratedProtocol generateProtocol(const ProtocolProfile& profile);

/** A generated protocol parsed into an analyzable Program. */
struct LoadedProtocol
{
    GeneratedProtocol gen;
    std::unique_ptr<lang::Program> program;
    /** file_id -> defining function, for diagnostic reconciliation. */
    std::map<std::int32_t, std::string> file_function;
};

/** Generate and parse a protocol in one step. */
LoadedProtocol loadProtocol(const ProtocolProfile& profile);

} // namespace mc::corpus

#endif // MCHECK_CORPUS_GENERATOR_H
