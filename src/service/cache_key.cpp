#include "service/cache_key.h"

#include "compiler/option_fields.h"
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

    StableHasher h;
    h.tag("rule-set-version").u64(kRuleSetVersion);
    for (const OptionField& field : option_fields()) {
        if (field.identity()) {
            field.hash(options, h);
        }
    }
    key.options_hash = h.digest();
    return key;
}

}  // namespace diospyros::service
