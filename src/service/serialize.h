/**
 * @file
 * On-disk and on-wire representation of a compiled kernel: the compile
 * service's disk cache persists entries as s-expression text
 * (support/sexpr.h), and diosd sends the same entry text in its
 * compile responses.
 *
 * An entry stores exactly what a warm process needs to *serve* the
 * kernel without re-running saturation: the emitted machine program
 * (instruction by instruction, floats as exact hexfloat atoms), the
 * constant pool, the generated C source (quoted-string atom), and the
 * persisted rows of the original CompileReport (compiler/report_fields.h;
 * per-run telemetry such as rule_stats and every wall-clock time stays
 * behind, so the text depends on the kernel and its options alone, on
 * disk and on the wire alike). The optimized DSL term is deliberately NOT
 * persisted: printed as a tree it can be exponentially larger than its
 * DAG, and nothing downstream of emission needs it. When a kernel is
 * reconstructed from disk, its `extracted` field aliases the (re-lifted)
 * padded spec as a placeholder.
 *
 * No Sexpr tree is built on either side: write_entry appends tokens to a
 * SexprWriter, and read_entry walks a SexprCursor once, checking each
 * value as it goes (DESIGN.md §5e). tests/golden/format.golden pins the
 * bytes of envelopes and payloads.
 *
 * Round-trip contract: encode(decode(x)) == x byte-for-byte,
 * and a decoded program disassembles identically to the original —
 * that is what makes warm-cache outputs byte-identical to cold ones.
 */
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "compiler/driver.h"
#include "machine/program.h"
#include "service/cache_key.h"
#include "support/sexpr.h"

namespace diospyros::service {

/** One persisted compile result (see file header). */
struct CachedEntry {
    std::uint64_t rule_set_version = kRuleSetVersion;
    CacheKey key;
    std::string kernel_name;
    int vector_width = 4;
    /**
     * Saturation wall-clock budget the entry was produced under. Not part
     * of the key; the service consults it when deciding whether a
     * time-bound entry may serve a request with a larger budget.
     */
    double time_limit_seconds = 0.0;
    /** report.fallback_level; the entry text holds it once, in the report. */
    int fallback_level = 0;
    CompileReport report;
    std::string c_source;
    std::vector<float> pool;
    Program machine;
};

/** Appends the entry's `(dios-cache-entry ...)` list to `w`. */
void write_entry(SexprWriter& w, const CachedEntry& entry);

/**
 * Reads the `(dios-cache-entry ...)` element at `c`; raises UserError on
 * malformed input, naming the field, instruction or pool value at fault.
 */
CachedEntry read_entry(SexprCursor& c);

/** The entry's canonical text. */
std::string encode_entry(const CachedEntry& entry);

/** Parses the text of one entry; raises UserError on malformed input. */
CachedEntry decode_entry(std::string_view text);

/**
 * Version of the on-disk *envelope* format (distinct from
 * kRuleSetVersion, which versions the artifact semantics). Bump when
 * the envelope layout itself changes. Entries from an *older* format
 * are ordinary misses — stale, not suspect — while entries claiming a
 * version this build has never heard of are quarantined.
 *
 * History: 1–2 fixed-width lane tables (6 + kMaxVectorWidth slots per
 * instruction); 3 explicit per-instruction lane counts, so the format
 * survives kMaxVectorWidth changes; 4 the report as one `(name value...)`
 * list per persisted compiler/report_fields.h row, with the validation
 * and random-check gates' ran flags; 5 no clock rows, `(level error)`
 * attempts, no entry-level `fallback-level`, a flat envelope.
 */
constexpr std::uint64_t kCacheFormatVersion = 5;

/**
 * The durable on-disk envelope of an entry, as DiskCache::store writes
 * it: one line,
 *
 *   (dios-cache-envelope (format-version 5) (rule-set-version N)
 *    (checksum <16-hex StableHasher digest of the payload>)
 *    (payload (dios-cache-entry ...)))
 *
 * (shown wrapped here) and a newline. The payload is encode_entry(entry)
 * spliced in unchanged, and the checksum covers exactly those bytes, so
 * any change inside the payload, a space included, is a mismatch.
 */
std::string encode_envelope(const CachedEntry& entry);

/** Parsed envelope header; see read_envelope(). */
struct EnvelopeFields {
    bool well_formed = false;
    /** Why !well_formed ("" otherwise). */
    std::string error;
    std::uint64_t format_version = 0;
    std::uint64_t rule_set_version = 0;
    /** Stored payload checksum (compare with stable_hash_string). */
    std::uint64_t checksum = 0;
    /**
     * The payload element's bytes as stored: what the checksum covers
     * and what decode_entry reads.
     */
    std::string payload_text;
};

/**
 * Dissects an envelope file's text without verifying the checksum or
 * decoding the payload into an entry — DiskCache layers those checks
 * (and their corruption policy) on top. Never throws; unparsable or
 * malformed input comes back as !well_formed.
 */
EnvelopeFields read_envelope(std::string_view text);

/** Builds the persistable entry for a finished resilient compile. */
CachedEntry make_entry(const CacheKey& key, const CompilerOptions& options,
                       const CompiledKernel& compiled);

/**
 * Reconstructs a servable CompiledKernel from a cached entry: re-lifts
 * the (cheap) spec, rebuilds the memory layout, and installs the stored
 * machine program, pool, C source, and report.
 */
CompiledKernel compiled_from_entry(const scalar::Kernel& kernel,
                                   const CachedEntry& entry);

}  // namespace diospyros::service
