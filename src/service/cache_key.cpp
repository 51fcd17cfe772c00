#include "service/cache_key.h"

#include "scalar/canonical.h"
#include "support/hash.h"

namespace diospyros::service {

std::string
CacheKey::hex() const
{
    return hash_hex(spec_hash) + "-" + hash_hex(options_hash);
}

CacheKey
compute_cache_key(const scalar::Kernel& kernel,
                  const CompilerOptions& options)
{
    CacheKey key;
    key.spec_hash = scalar::stable_kernel_hash(kernel);

    // Canonicalize the derived rule parameters before hashing so callers
    // that did or did not call sync() themselves produce the same key.
    CompilerOptions o = options;
    o.sync();

    StableHasher h;
    h.tag("rule-set-version").u64(kRuleSetVersion);

    h.tag("target")
        .i64(o.target.vector_width)
        .boolean(o.target.has_reciprocal)
        .boolean(o.target.has_scalar_mac)
        .i64(o.target.taken_branch_penalty)
        .i64(o.target.issue_width);
    for (const int c : o.target.cost_table) {
        h.i64(c);
    }

    h.tag("rules")
        .boolean(o.rules.enable_vector_rules)
        .boolean(o.rules.enable_scalar_rules)
        .boolean(o.rules.full_ac)
        .boolean(o.rules.target_has_recip);

    // Search limits shape the saturated e-graph and hence the artifact —
    // except the wall-clock budgets, which are deliberately omitted (see
    // file header).
    h.tag("limits")
        .u64(o.limits.node_limit)
        .i64(o.limits.iter_limit)
        .u64(o.limits.match_limit_per_rule)
        .u64(o.limits.backoff_threshold)
        .u64(o.limits.memory_limit_bytes);

    h.tag("cost");
    for (const auto field : kCostParamFields) {
        h.f64(o.cost.*field);
    }

    h.tag("verify").boolean(o.validate).boolean(o.random_check);

    // The saturation strategy reshapes the e-graph the artifact is
    // extracted from, so its full canonical rendering (phases, rule
    // subsets, schedulers, sketches) is part of the artifact's identity.
    // "" = the legacy monolithic run.
    h.tag("strategy").str(o.strategy ? o.strategy->to_string() : "");

    key.options_hash = h.digest();
    return key;
}

}  // namespace diospyros::service
