#include "compiler/report_fields.h"

#include <array>
#include <cstdint>
#include <string>
#include <type_traits>

#include "support/error.h"

namespace diospyros {

namespace {

using R = CompileReport;
using Writer = void (*)(JsonWriter&, const R&);

constexpr unsigned kJP = kJson | kPersisted;

/** The member `m` of report `r` (const or not). */
template <class Rep, class T>
auto&
at(Rep& r, T R::*m)
{
    return r.*m;
}

template <class Rep>
auto&
at(Rep& r, std::size_t vir::LvnStats::*m)
{
    return r.lvn.*m;
}

const char* name_of(StopReason s) { return stop_reason_name(s); }
const char* name_of(Verdict v) { return verdict_name(v); }
constexpr int count_of(StopReason) { return kNumStopReasons; }
constexpr int count_of(Verdict) { return int(Verdict::kUnknown) + 1; }

using Item = SexprCursor::Item;

std::int64_t
count(const Item& v)
{
    std::int64_t n = 0;
    DIOS_CHECK(v.integer(n) && n >= 0,
               "expects a non-negative integer, got " + std::string(v.raw));
    return n;
}

double
real(const Item& v)
{
    double x = 0.0;
    DIOS_CHECK(v.number(x), "expects a number, got " + std::string(v.raw));
    return x;
}

void
attempts(JsonWriter& w, const std::vector<AttemptDiagnostic>& attempts,
         bool cached)
{
    w.open('[');
    for (const AttemptDiagnostic& a : attempts) {
        w.open('{').field("level", a.level);
        w.field("rung", fallback_level_name(a.level)).key("seconds");
        cached ? w.null() : w.value(a.seconds);
        w.field("error", a.error).close('}');
    }
    w.close(']');
}

RuleStats
total(const std::vector<RuleStats>& stats)
{
    RuleStats t;
    for (const RuleStats& s : stats) {
        t += s;
    }
    return t;
}

void
rule_stats(JsonWriter& w, const std::vector<RuleStats>& stats)
{
    w.open('[');
    for (const RuleStats& s : stats) {
        w.open('{').field("rule", s.name).field("matches", s.matches);
        w.field("applications", s.applications);
        w.field("search_seconds", s.search_seconds);
        w.field("apply_seconds", s.apply_seconds);
        w.field("times_banned", s.times_banned);
        w.field("banned_until", s.banned_until).close('}');
    }
    w.close(']');
}

void
phases(JsonWriter& w, const R& r)
{
    w.open('[');
    for (const strategy::PhaseReport& p : r.strategy_phases) {
        const RunnerReport& run = p.runner;
        w.open('{').field("phase", p.name).field("runs", p.runs);
        w.field("skipped", p.skipped);
        w.field("stop", p.skipped ? "skipped" : name_of(run.stop_reason));
        w.field("iterations", run.iterations.size());
        w.field("nodes", run.final_nodes).field("classes", run.final_classes);
        w.field("sketch_checked", p.sketch_checked);
        w.field("sketch_satisfied", p.sketch_satisfied);
        w.field("seconds", p.seconds).key("rule_stats");
        rule_stats(w, run.rule_stats);
        const RuleStats t = total(run.rule_stats);
        w.field("matches", t.matches);
        w.field("applications", t.applications).close('}');
    }
    w.close(']');
}

constexpr ReportField kFields[] = {
    {"total_seconds", kJson | kClock, &R::total_seconds},
    {"saturation_seconds", kJson | kClock, &R::saturation_seconds},
    {"egraph_nodes", kJP, &R::egraph_nodes},
    {"egraph_classes", kJP, &R::egraph_classes},
    {"iterations", kJP, &R::runner_iterations},
    {"stop", kJP, &R::stop_reason},
    {"extracted_cost", kJP, &R::extracted_cost, nullptr, "%.2f"},
    {"spec_elements", kJP, &R::spec_elements},
    {"spec_dag_nodes", kPersisted, &R::spec_dag_nodes},
    {"memory_proxy_bytes", kJP, &R::memory_proxy_bytes},
    {"lvn_input_instrs", kPersisted, &vir::LvnStats::input_instrs},
    {"lvn_value_numbered", kPersisted, &vir::LvnStats::value_numbered},
    {"lvn_dead_removed", kPersisted, &vir::LvnStats::dead_removed},
    {"lvn_output_instrs", kPersisted, &vir::LvnStats::output_instrs},
    {"lvn_removed", kJson, +[](JsonWriter& w, const R& r) {
         w.value(r.lvn.value_numbered + r.lvn.dead_removed);
     }},
    {"fallback_level", kJP | kFailedJson, &R::fallback_level},
    {"fallback", kJson, +[](JsonWriter& w, const R& r) {
         w.value(fallback_level_name(r.fallback_level));
     }},
    {"error", kJP | kFailedJson, &R::error},
    {"validated", kPersisted, &R::validated},
    {"validation", kJP, &R::validation, &R::validated},
    {"random_checked", kPersisted, &R::random_checked},
    {"random_check_passed", kJP, &R::random_check_passed, &R::random_checked},
    {"machine_validation", kJP, &R::machine_validation, &R::machine_validated},
    {"machine_validated", kJP, &R::machine_validated},
    {"machine_witness", kJP, &R::machine_witness},
    {"attempts", kJP | kClock, &R::attempts},
    {"rule_stats", kJson,
     +[](JsonWriter& w, const R& r) { rule_stats(w, r.rule_stats); }},
    {"ematch_matches", kJson, +[](JsonWriter& w, const R& r) {
         w.value(total(r.rule_stats).matches);
     }},
    {"ematch_search_seconds", kJson, +[](JsonWriter& w, const R& r) {
         w.value(total(r.rule_stats).search_seconds);
     }},
    {"ematch_apply_seconds", kJson, +[](JsonWriter& w, const R& r) {
         w.value(total(r.rule_stats).apply_seconds);
     }},
    {"strategy", kJP, &R::strategy_name},
    {"goal_satisfied", kJP, &R::strategy_goal_satisfied},
    {"phases", kJson, &phases},
};

}  // namespace

void
ReportField::json(JsonWriter& w, const CompileReport& r, bool cached) const
{
    const bool unclocked = cached && (where & kClock) != 0;
    w.key(name);
    std::visit(
        [&](auto m) {
            if constexpr (std::is_same_v<decltype(m), Writer>) {
                m(w, r);
            } else {
                const auto& v = at(r, m);
                using T = std::remove_cvref_t<decltype(v)>;
                if (ran != nullptr && !(r.*ran)) {
                    std::is_same_v<T, bool> ? w.null() : w.value("skipped");
                } else if constexpr (std::is_same_v<T, double>) {
                    unclocked ? w.null() : w.value(v, format);
                } else if constexpr (std::is_enum_v<T>) {
                    w.value(name_of(v));
                } else if constexpr (requires { w.value(v); }) {
                    w.value(v);
                } else {
                    attempts(w, v, unclocked);
                }
            }
        },
        member);
}

void
ReportField::encode(const CompileReport& r, SexprWriter& w) const
{
    w.open(name);
    std::visit(
        [&](auto m) {
            if constexpr (!std::is_same_v<decltype(m), Writer>) {
                const auto& v = at(r, m);
                using T = std::remove_cvref_t<decltype(v)>;
                if constexpr (std::is_integral_v<T>) {
                    w.i64(std::int64_t(v));
                } else if constexpr (std::is_same_v<T, double>) {
                    w.f64(v);
                } else if constexpr (std::is_same_v<T, std::string>) {
                    w.atom(v);
                } else if constexpr (std::is_enum_v<T>) {
                    w.atom(name_of(v));
                } else {
                    for (const AttemptDiagnostic& a : v) {
                        w.open().i64(a.level).atom(a.error).close();
                    }
                }
            }
        },
        member);
    w.close();
}

void
ReportField::decode(SexprCursor& c, CompileReport& r) const
{
    const auto visit = [&](auto m) {
        if constexpr (!std::is_same_v<decltype(m), Writer>) {
            auto& v = at(r, m);
            using T = std::remove_cvref_t<decltype(v)>;
            if constexpr (std::is_same_v<T, std::vector<AttemptDiagnostic>>) {
                while (c.more()) {
                    const Item a = c.next();
                    std::array<Item, 2> f;
                    std::size_t n = 0;
                    if (a.list) {
                        SexprCursor attempt(a.raw);
                        attempt.enter();
                        n = attempt.read_rest(f);
                    }
                    DIOS_CHECK(n == 2 && f[1].is_atom(),
                               "has a malformed attempt " +
                                   std::string(a.raw));
                    v.push_back({.level = int(count(f[0])),
                                 .error = f[1].token()});
                }
                return;
            }
            std::array<Item, 1> f;
            const std::size_t n = c.read_rest(f);
            DIOS_CHECK(n == 1 && f[0].is_atom(),
                       "expects one value, got " + std::to_string(n));
            if constexpr (std::is_integral_v<T>) {
                v = T(count(f[0]));
            } else if constexpr (std::is_same_v<T, double>) {
                v = real(f[0]);
            } else if constexpr (std::is_same_v<T, std::string>) {
                v = f[0].token();
            } else if constexpr (std::is_enum_v<T>) {
                v = enum_from_name<T>(f[0].token(), count_of(T{}), name_of,
                                      "has no value");
            }
        }
    };
    try {
        std::visit(visit, member);
    } catch (const UserError& e) {
        detail::raise_user("report field '" + std::string(name) + "' " +
                           e.what());
    }
}

std::span<const ReportField>
report_fields()
{
    return kFields;
}

void
write_report_json(JsonWriter& w, const CompileReport& r, unsigned where,
                  bool cached)
{
    for (const ReportField& f : kFields) {
        if ((f.where & where) != 0) {
            f.json(w, r, cached);
        }
    }
}

}  // namespace diospyros
