/**
 * @file
 * The one list of CompilerOptions fields (DESIGN.md §5j).
 *
 * Each entry gives a field's wire name, the member it reads and writes,
 * its valid range, and whether it is part of the artifact identity; an
 * entry left out of the identity says why. Three consumers loop over the
 * list and name no field themselves:
 *  - service::compute_cache_key hashes the identity fields;
 *  - daemon::encode_compile_request writes every wire field;
 *  - daemon::decode_compile_request parses, range-checks and sets them.
 * check_options() applies the same ranges to options built in-process
 * (CompileService::submit rejects out-of-range options as kUser).
 *
 * The derived `rules.vector_width` / `rules.target_has_recip` are not
 * listed: CompilerOptions::sync() recomputes them from the target.
 */
#pragma once

#include <cstddef>
#include <span>
#include <string_view>

#include "compiler/driver.h"
#include "support/hash.h"
#include "support/sexpr.h"

namespace diospyros {

/** How an option's values are spelled on the wire and hashed. */
enum class OptionKind {
    kInt,       ///< decimal integer atoms (switches are 0 / 1)
    kReal,      ///< hexfloat atoms (exact round trip)
    kStrategy,  ///< the strategy's canonical text ("" = none)
};

/** Valid values of a numeric option: lo <= v (lo < v if lo_open), v <= hi. */
struct OptionRange {
    double lo = 0.0;
    double hi = 1.0;
    bool lo_open = false;
    /** Only powers of two (the vector width). */
    bool pow2 = false;
};

/** Reads and writes value i of a field (i > 0 only for array fields). */
struct OptionAccess {
    double (*get)(const CompilerOptions&, std::size_t i) = nullptr;
    void (*set)(CompilerOptions&, std::size_t i, double v) = nullptr;
};

/** One CompilerOptions field (see file header). */
struct OptionField {
    /** Wire name: the `(name value...)` field inside `(options ...)`. */
    const char* name;
    OptionKind kind;
    OptionAccess access = {};
    /** Numeric kinds only; the default [0, 1] suits a switch. */
    OptionRange range = {};
    /** Why the field is not part of the artifact identity (nullptr: it is). */
    const char* not_identity = nullptr;
    /** Numeric values per field: 1, or the length of an array member. */
    std::size_t count = 1;

    bool identity() const { return not_identity == nullptr; }

    /** `(name values...)` for `o`. */
    Sexpr encode(const CompilerOptions& o) const;
    /** Parses, range-checks and sets the field; raises UserError. */
    void decode(const Sexpr& field, CompilerOptions& o) const;
    /** Feeds the field's values (a strategy's canonical text) to `h`. */
    void hash(const CompilerOptions& o, StableHasher& h) const;
    /**
     * Raises UserError naming the field when `v` is out of range. A value
     * a user typed passes its `flag` and `text`: the message then names
     * the flag and quotes the value as written.
     */
    void check(double v, std::string_view flag = {},
               std::string_view text = {}) const;
};

/** Every CompilerOptions field, in wire order. */
std::span<const OptionField> option_fields();

/** Range-checks every field; raises UserError naming the first bad one. */
void check_options(const CompilerOptions& options);

}  // namespace diospyros
