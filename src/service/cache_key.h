/**
 * @file
 * Content-addressed cache keys for compiled kernels.
 *
 * A key is the pair (spec identity, options identity):
 *  - the spec half hashes the kernel's canonical serialization
 *    (scalar/canonical.h) — byte-stable, pointer-free, and independent of
 *    parameter declaration order;
 *  - the options half hashes the rule-set version below plus every
 *    CompilerOptions field that the one field list
 *    (compiler/option_fields.h) marks as part of the artifact identity.
 *    The list gives the reason for each field it leaves out.
 *
 * Leaving out the wall-clock budgets lets a new timeout hit an already
 * successful entry. The service separately refuses to serve an entry
 * whose saturation was time-bound to a request with a larger budget (see
 * CompileService), so the exclusion never pins a kernel to a worse result.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "compiler/driver.h"
#include "scalar/ast.h"

namespace diospyros::service {

/**
 * Version of the rewrite-rule set + cost model + backend. Bump whenever
 * a change makes previously cached artifacts stale (new rules, changed
 * cost parameters' meaning, different emission); every existing disk
 * entry then misses and is recompiled and overwritten.
 */
constexpr std::uint64_t kRuleSetVersion = 1;

/** Content-addressed identity of one compile request. */
struct CacheKey {
    std::uint64_t spec_hash = 0;
    std::uint64_t options_hash = 0;

    bool operator==(const CacheKey&) const = default;

    /** "<spec>-<options>" in fixed-width hex — also the disk filename. */
    std::string hex() const;
};

struct CacheKeyHash {
    std::size_t
    operator()(const CacheKey& k) const
    {
        return static_cast<std::size_t>(k.spec_hash ^
                                        (k.options_hash * 0x9e3779b97f4a7c15ULL));
    }
};

/** Computes the key for a kernel under the given options (see header). */
CacheKey compute_cache_key(const scalar::Kernel& kernel,
                           const CompilerOptions& options);

}  // namespace diospyros::service
