#include "compiler/option_fields.h"

#include <bit>
#include <cstdio>
#include <limits>
#include <string>
#include <type_traits>

#include "analysis/diagnostics.h"
#include "strategy/parse.h"
#include "support/error.h"

namespace diospyros {

namespace {

using O = CompilerOptions;
using K = OptionKind;

constexpr double kFinite = std::numeric_limits<double>::max();
/** Every value travels as a double; counts up to 2^52 stay exact. */
constexpr double kMaxCount = 4503599627370496.0;

/** Access to the scalar member reached through `path`. */
template <auto... path>
constexpr OptionAccess member = {
    [](const O& o, std::size_t) -> double { return (o .* ... .* path); },
    [](O& o, std::size_t, double v) {
        auto& m = (o .* ... .* path);
        m = static_cast<std::remove_reference_t<decltype(m)>>(v);
    }};
template <auto m>
constexpr OptionAccess limit = member<&O::limits, m>;

using T = TargetSpec;
using L = RunnerLimits;
using R = RuleConfig;

constexpr OptionAccess kCostTable = {
    [](const O& o, std::size_t i) { return double(o.target.cost_table[i]); },
    [](O& o, std::size_t i, double v) { o.target.cost_table[i] = int(v); }};

constexpr OptionAccess kCost = {
    [](const O& o, std::size_t i) { return o.cost.*kCostParamFields[i]; },
    [](O& o, std::size_t i, double v) { o.cost.*kCostParamFields[i] = v; }};

constexpr const char* kBudget =
    "a wall-clock budget: a new one must still hit a successful entry "
    "(the service never serves a time-bound entry to a larger budget)";

// Never on the wire and never hashed:
//  - absolute_deadline: request-scoped; the service derives it from the
//    request deadline;
//  - fault_specs: fault-armed compiles bypass the cache and run
//    in-process.
constexpr OptionField kFields[] = {
    {"width", K::kInt, member<&O::target, &T::vector_width>,
     {1, kMaxVectorWidth, false, true}},
    {"recip", K::kInt, member<&O::target, &T::has_reciprocal>},
    {"scalar-mac", K::kInt, member<&O::target, &T::has_scalar_mac>},
    {"branch-penalty", K::kInt, member<&O::target, &T::taken_branch_penalty>,
     {0, 1e6}},
    {"issue-width", K::kInt, member<&O::target, &T::issue_width>,
     {1, kNumFunctionalUnits}},
    {"cost-table", K::kInt, kCostTable, {0, 1e6}, nullptr, kNumOpcodes},
    {"cost", K::kReal, kCost, {0, 1e9, true}, nullptr,
     kCostParamFields.size()},
    {"nodes", K::kInt, limit<&L::node_limit>, {0, kMaxCount}},
    {"iters", K::kInt, limit<&L::iter_limit>, {0, 1e9}},
    {"timeout", K::kReal, limit<&L::time_limit_seconds>, {0, kFinite, true},
     kBudget},
    {"match-limit", K::kInt, limit<&L::match_limit_per_rule>, {0, kMaxCount}},
    {"backoff", K::kInt, limit<&L::backoff_threshold>, {0, kMaxCount}},
    {"memory", K::kInt, limit<&L::memory_limit_bytes>, {0, kMaxCount}},
    {"deadline", K::kReal, member<&O::deadline_seconds>, {0, kFinite},
     kBudget},
    {"vector-rules", K::kInt, member<&O::rules, &R::enable_vector_rules>},
    {"scalar-rules", K::kInt, member<&O::rules, &R::enable_scalar_rules>},
    {"full-ac", K::kInt, member<&O::rules, &R::full_ac>},
    {"validate", K::kInt, member<&O::validate>},
    {"random-check", K::kInt, member<&O::random_check>},
    {"verify-ir", K::kInt, member<&O::verify_ir>, {},
     "its gates only check what a compile emits; debug builds always run "
     "them"},
    // Identity: it decides whether machine validation (M009) ran, and the
    // verdict is part of the cached report.
    {"verify-machine", K::kInt, member<&O::verify_machine>},
    {"io-retries", K::kInt, member<&O::io_retries>, {0, 1000},
     "it shapes how durably an artifact is stored, not what it is"},
    {"strategy", K::kStrategy, {}, {}, nullptr, 0},
};

}  // namespace

void
OptionField::check(double v, std::string_view flag,
                   std::string_view text) const
{
    if ((range.lo_open ? v > range.lo : v >= range.lo) && v <= range.hi &&
        (!range.pow2 || std::has_single_bit(static_cast<unsigned>(v)))) {
        return;
    }
    char buf[160];
    std::snprintf(buf, sizeof buf, "is out of range %s%c%g, %g]",
                  range.pow2 ? "a power of two in " : "",
                  range.lo_open ? '(' : '[', range.lo, range.hi);
    if (!flag.empty()) {
        detail::raise_user(std::string(flag) + " " + std::string(text) +
                           " " + buf);
    }
    char value[32];
    std::snprintf(value, sizeof value, "%g", v);
    detail::raise_user("option '" + std::string(name) + "' = " + value +
                       " " + buf);
}

Sexpr
OptionField::encode(const CompilerOptions& o) const
{
    std::vector<Sexpr> values;
    if (kind == K::kStrategy) {
        values.push_back(
            Sexpr::string_atom(o.strategy ? o.strategy->to_string() : ""));
    }
    for (std::size_t i = 0; i < count; ++i) {
        // An integer too large for int64 goes out as a hexfloat, which
        // the integer reader then rejects.
        const double v = access.get(o, i);
        values.push_back(kind == K::kInt && v > -9e18 && v < 9e18
                             ? i64_atom(static_cast<std::int64_t>(v))
                             : f64_atom(v));
    }
    return field(name, std::move(values));
}

void
OptionField::decode(const Sexpr& f, CompilerOptions& o) const
{
    if (kind == K::kStrategy) {
        const std::string& text = field_value(f, name).token();
        analysis::DiagEngine diags;
        o.strategy = text.empty() ? std::nullopt
                                  : strategy::parse_strategy(text, diags);
        DIOS_CHECK(text.empty() || o.strategy.has_value(),
                   "bad strategy text:\n" + diags.render_text());
        return;
    }
    DIOS_CHECK(f.size() == count + 1, std::string(name) + ": expects " +
                                          std::to_string(count) + " values");
    for (std::size_t i = 0; i < count; ++i) {
        const double v = kind == K::kReal
                             ? as_f64(f[i + 1], name)
                             : static_cast<double>(as_i64(f[i + 1], name));
        check(v);
        access.set(o, i, v);
    }
}

void
OptionField::hash(const CompilerOptions& o, StableHasher& h) const
{
    if (kind == K::kStrategy) {
        h.str(o.strategy ? o.strategy->to_string() : "");
    }
    for (std::size_t i = 0; i < count; ++i) {
        h.f64(access.get(o, i));
    }
}

std::span<const OptionField>
option_fields()
{
    return kFields;
}

void
check_options(const CompilerOptions& options)
{
    for (const OptionField& f : kFields) {
        for (std::size_t i = 0; i < f.count; ++i) {
            f.check(f.access.get(options, i));
        }
    }
}

}  // namespace diospyros
