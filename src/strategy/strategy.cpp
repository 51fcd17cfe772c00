#include "strategy/strategy.h"

#include <algorithm>
#include <charconv>
#include <set>
#include <utility>

#include "analysis/diagnostics.h"
#include "support/error.h"
#include "support/timer.h"

namespace diospyros::strategy {

namespace {

/** Shortest text that reads back as exactly `s`. */
std::string
format_seconds(double s)
{
    char buf[32];
    const auto result = std::to_chars(buf, buf + sizeof buf, s);
    return std::string(buf, result.ptr);
}

std::string
backoff_to_string(const PhaseLimits::Backoff& b)
{
    if (b.backoff_threshold == 0) {
        return b.match_limit_per_rule == 0
                   ? "(scheduler none)"
                   : "(scheduler match-cap " +
                         std::to_string(b.match_limit_per_rule) + ")";
    }
    std::string out =
        "(scheduler backoff " + std::to_string(b.backoff_threshold);
    if (b.match_limit_per_rule != 0) {
        out += ' ';
        out += std::to_string(b.match_limit_per_rule);
    }
    out += ')';
    return out;
}

std::string
phase_to_string(const Phase& phase)
{
    std::string out = "(phase " + phase.name + " (rules";
    for (const std::string& rule : phase.rules) {
        out += ' ';
        out += rule;
    }
    out += ')';
    if (phase.limits.iter_limit) {
        out += " (iters " + std::to_string(*phase.limits.iter_limit) + ")";
    }
    if (phase.limits.node_limit) {
        out += " (nodes " + std::to_string(*phase.limits.node_limit) + ")";
    }
    if (phase.limits.time_limit_seconds) {
        out += " (timeout " +
               format_seconds(*phase.limits.time_limit_seconds) + ")";
    }
    if (phase.limits.memory_limit_bytes) {
        out += " (memory " +
               std::to_string(*phase.limits.memory_limit_bytes) + ")";
    }
    if (phase.limits.backoff) {
        out += ' ';
        out += backoff_to_string(*phase.limits.backoff);
    }
    if (phase.until) {
        out += " (until " + phase.until->to_string() + ")";
    }
    if (phase.repeat != 1) {
        out += " (repeat " + std::to_string(phase.repeat) + ")";
    }
    if (phase.always) {
        out += " (always)";
    }
    out += ')';
    return out;
}

/** True when `name` matches `pattern` (exact, or one `*` wildcard). */
bool
glob_match(const std::string& pattern, const std::string& name)
{
    const std::size_t star = pattern.find('*');
    if (star == std::string::npos) {
        return pattern == name;
    }
    const std::string prefix = pattern.substr(0, star);
    const std::string suffix = pattern.substr(star + 1);
    if (name.size() < prefix.size() + suffix.size()) {
        return false;
    }
    return name.compare(0, prefix.size(), prefix) == 0 &&
           name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

/**
 * Builds the effective per-phase limits: base tightened by the phase,
 * with the phase's backoff pair (if any) in place of the base one.
 */
RunnerLimits
effective_limits(const RunnerLimits& base, const Phase& phase,
                 double remaining_seconds)
{
    RunnerLimits l = base;
    if (phase.limits.node_limit) {
        l.node_limit = std::min(*phase.limits.node_limit, base.node_limit);
    }
    if (phase.limits.iter_limit) {
        l.iter_limit = std::min(*phase.limits.iter_limit, base.iter_limit);
    }
    double time = base.time_limit_seconds;
    if (phase.limits.time_limit_seconds) {
        time = std::min(*phase.limits.time_limit_seconds, time);
    }
    l.time_limit_seconds = std::min(time, remaining_seconds);
    if (phase.limits.memory_limit_bytes) {
        l.memory_limit_bytes =
            base.memory_limit_bytes == 0
                ? *phase.limits.memory_limit_bytes
                : std::min(*phase.limits.memory_limit_bytes,
                           base.memory_limit_bytes);
    }
    if (phase.limits.backoff) {
        l.backoff_threshold = phase.limits.backoff->backoff_threshold;
        l.match_limit_per_rule = phase.limits.backoff->match_limit_per_rule;
    }
    return l;
}

/** Appends a repeat run's report onto the phase's merged report. */
void
merge_run(RunnerReport& into, const RunnerReport& run)
{
    if (into.rule_stats.empty()) {
        into = run;
        return;
    }
    into.stop_reason = run.stop_reason;
    into.iterations.insert(into.iterations.end(), run.iterations.begin(),
                           run.iterations.end());
    for (std::size_t r = 0;
         r < into.rule_stats.size() && r < run.rule_stats.size(); ++r) {
        into.rule_stats[r] += run.rule_stats[r];
    }
    into.total_seconds += run.total_seconds;
    into.final_nodes = run.final_nodes;
    into.final_classes = run.final_classes;
}

/** Ranks stop reasons for the strategy-wide verdict (higher = harder). */
int
severity(StopReason r)
{
    switch (r) {
      case StopReason::kDeadline:
        return 5;
      case StopReason::kTimeLimit:
        return 4;
      case StopReason::kMemoryLimit:
        return 3;
      case StopReason::kNodeLimit:
        return 2;
      case StopReason::kIterLimit:
        return 1;
      case StopReason::kSaturated:
      case StopReason::kGoalReached:
        return 0;
    }
    return 0;
}

}  // namespace

std::string
Strategy::to_string() const
{
    std::string out = "(strategy " + name;
    for (const Phase& phase : phases) {
        out += "\n  ";
        out += phase_to_string(phase);
    }
    if (goal) {
        out += "\n  (goal " + goal->to_string() + ")";
    }
    out += ")\n";
    return out;
}

const std::vector<std::string>&
builtin_strategy_names()
{
    static const std::vector<std::string> kNames = {"default", "phased"};
    return kNames;
}

std::optional<Strategy>
builtin_strategy(const std::string& name)
{
    if (name == "default") {
        return builtin_default();
    }
    if (name == "phased") {
        return builtin_phased();
    }
    return std::nullopt;
}

Strategy
builtin_default()
{
    Strategy s;
    s.name = "default";
    Phase phase;
    phase.name = "saturate";
    phase.rules = {"all"};
    s.phases.push_back(std::move(phase));
    return s;
}

Strategy
builtin_phased()
{
    // The Figure-6 schedule. The shape exploits how the rule set derives
    // vector code: `list-chunk` splits the output list into lane groups
    // exactly once, `vec-mac` peels multiply-accumulate chains out of
    // chunked sums, the element-wise lifts cover what MACs cannot, and a
    // short all-rules `polish` pass recovers the cross-family
    // interactions phase splitting would otherwise miss (it reproduces
    // the monolithic fixed point on kernels small enough to saturate).
    // Scalar normalization runs first so `(- a b)` exposes `(+ a (neg
    // b))` to the MAC matcher, and a cleanup phase always runs so
    // identity simplifications reach the padding lanes.
    //
    // The goal makes this schedule stop instead of thrash: once a
    // MAC-shaped program is reachable, the expensive open-ended `deepen`
    // phase is skipped (kGoalReached) — large kernels get a provably
    // Vec-shaped extraction within budget rather than twelve monolithic
    // iterations of undirected growth. Kernels that never form a MAC
    // (pure element-wise ones) fall through to `deepen` and keep
    // searching.
    Strategy s;
    s.name = "phased";

    Phase normalize;
    normalize.name = "normalize";
    normalize.rules = {"add-0",      "0-add",      "sub-0",   "mul-0",
                       "0-mul",      "mul-1",      "1-mul",   "div-1",
                       "sub-self",   "neg-as-sub", "sub-as-neg",
                       "neg-neg",    "sub-to-add", "add-to-sub",
                       "mul-neg-neg"};
    normalize.limits.iter_limit = 3;
    normalize.always = true;
    s.phases.push_back(std::move(normalize));

    Phase chunk;
    chunk.name = "chunk";
    chunk.rules = {"list-chunk"};
    chunk.limits.iter_limit = 2;
    chunk.always = true;
    s.phases.push_back(std::move(chunk));

    Phase mac;
    mac.name = "mac";
    mac.rules = {"vec-mac", "vec-mac-fuse", "vec-mac-fuse-l"};
    mac.limits.iter_limit = 8;
    mac.limits.backoff = PhaseLimits::Backoff{.backoff_threshold = 4096};
    mac.always = true;
    s.phases.push_back(std::move(mac));

    Phase lift;
    lift.name = "lift";
    lift.rules = {"*-lift"};
    lift.limits.iter_limit = 8;
    lift.limits.backoff = PhaseLimits::Backoff{.backoff_threshold = 1024};
    lift.always = true;
    s.phases.push_back(std::move(lift));

    Phase polish;
    polish.name = "polish";
    polish.rules = {"all"};
    polish.limits.iter_limit = 4;
    polish.always = true;
    s.phases.push_back(std::move(polish));

    Phase deepen;
    deepen.name = "deepen";
    deepen.rules = {"all"};
    deepen.limits.iter_limit = 8;
    s.phases.push_back(std::move(deepen));

    Phase cleanup;
    cleanup.name = "cleanup";
    cleanup.rules = {"add-0",  "0-add", "sub-0",        "mul-0",
                     "0-mul",  "mul-1", "1-mul",        "div-1",
                     "sub-self", "neg-neg", "vec-mac-fuse",
                     "vec-mac-fuse-l"};
    cleanup.limits.iter_limit = 2;
    cleanup.always = true;
    s.phases.push_back(std::move(cleanup));

    // Goal: the spec's root reaches some multiply-accumulate vector node
    // — the shape every Figure-6 kernel (matmul / 2d-conv) lowers to.
    s.goal = Sketch::contains(Sketch::of_op(Op::kVecMAC));
    return s;
}

std::vector<std::vector<std::size_t>>
resolve_phase_rules(const Strategy& strategy, const std::vector<Rewrite>& rules,
                    analysis::DiagEngine& diags)
{
    std::vector<std::vector<std::size_t>> resolved;
    resolved.reserve(strategy.phases.size());
    for (const Phase& phase : strategy.phases) {
        std::set<std::size_t> indices;
        for (const std::string& ref : phase.rules) {
            if (ref == "all") {
                for (std::size_t r = 0; r < rules.size(); ++r) {
                    indices.insert(r);
                }
                continue;
            }
            bool matched = false;
            for (std::size_t r = 0; r < rules.size(); ++r) {
                if (glob_match(ref, rules[r].name())) {
                    indices.insert(r);
                    matched = true;
                }
            }
            if (!matched) {
                diags.error("strategy-resolve", "S404",
                            "strategy '" + strategy.name + "' phase '" +
                                phase.name + "': rule reference '" + ref +
                                "' matches no registered rule");
            }
        }
        if (indices.empty()) {
            diags.error("strategy-resolve", "S407",
                        "strategy '" + strategy.name + "' phase '" +
                            phase.name + "' resolves to an empty rule set");
        }
        resolved.emplace_back(indices.begin(), indices.end());
    }
    return resolved;
}

StrategyReport
run_strategy(EGraph& graph, ClassId root, const std::vector<Rewrite>& rules,
             const Strategy& strategy, const StrategyRunOptions& options)
{
    analysis::DiagEngine diags;
    const auto phase_rules = resolve_phase_rules(strategy, rules, diags);
    if (diags.has_errors()) {
        throw UserError("invalid saturation strategy:\n" +
                        diags.render_text());
    }

    StrategyReport report;
    report.strategy_name = strategy.name;
    report.rule_stats.resize(rules.size());
    for (std::size_t r = 0; r < rules.size(); ++r) {
        report.rule_stats[r].name = rules[r].name();
    }

    Timer total;
    graph.rebuild();

    bool goal_satisfied = false;
    int worst = 0;
    StopReason worst_reason = StopReason::kSaturated;
    bool all_saturated = true;
    bool hard_stop = false;

    for (std::size_t p = 0; p < strategy.phases.size(); ++p) {
        const Phase& phase = strategy.phases[p];
        PhaseReport pr;
        pr.name = phase.name;

        if (hard_stop || (goal_satisfied && !phase.always)) {
            pr.skipped = true;
            report.phases.push_back(std::move(pr));
            continue;
        }

        // Subset of the rule set this phase runs, in rule-set order.
        std::vector<Rewrite> subset;
        subset.reserve(phase_rules[p].size());
        for (const std::size_t r : phase_rules[p]) {
            subset.push_back(rules[r]);
        }

        Timer phase_timer;
        const int repeat = std::max(phase.repeat, 1);
        for (int run = 0; run < repeat; ++run) {
            const double remaining =
                options.base.time_limit_seconds - total.elapsed_seconds();
            if (remaining <= 0.0) {
                hard_stop = true;
                worst = severity(StopReason::kTimeLimit);
                worst_reason = StopReason::kTimeLimit;
                break;
            }
            const Runner runner(effective_limits(options.base, phase,
                                                 remaining));
            const RunnerReport rr =
                runner.run(graph, subset, options.deadline);
            merge_run(pr.runner, rr);
            ++pr.runs;
            report.iterations += rr.iterations.size();

            // The strategy-wide budget, not the phase slice, decides
            // whether a time trip ends the whole run.
            const bool budget_gone =
                options.base.time_limit_seconds - total.elapsed_seconds() <=
                0.0;
            if (rr.stop_reason == StopReason::kDeadline ||
                rr.stop_reason == StopReason::kNodeLimit ||
                rr.stop_reason == StopReason::kMemoryLimit ||
                (rr.stop_reason == StopReason::kTimeLimit && budget_gone)) {
                hard_stop = true;
            }
            if (severity(rr.stop_reason) > worst) {
                worst = severity(rr.stop_reason);
                worst_reason = rr.stop_reason;
            }
            if (rr.stop_reason != StopReason::kSaturated) {
                all_saturated = false;
            }
            if (hard_stop) {
                break;
            }
            if (phase.until) {
                pr.sketch_checked = true;
                pr.sketch_satisfied =
                    sketch_satisfied(graph, root, *phase.until);
                if (pr.sketch_satisfied) {
                    break;
                }
            } else {
                break;
            }
        }
        pr.seconds = phase_timer.elapsed_seconds();

        // Fold the phase's per-rule stats back into rule-set order.
        for (std::size_t i = 0; i < phase_rules[p].size() &&
                                i < pr.runner.rule_stats.size();
             ++i) {
            report.rule_stats[phase_rules[p][i]] += pr.runner.rule_stats[i];
        }

        if (!hard_stop && strategy.goal && !goal_satisfied) {
            pr.sketch_checked = true;
            goal_satisfied = sketch_satisfied(graph, root, *strategy.goal);
        }
        const bool executed = pr.runs > 0;
        report.phases.push_back(std::move(pr));
        if (executed && options.on_phase_end) {
            options.on_phase_end(graph, report.phases.back());
        }
    }

    report.goal_satisfied = goal_satisfied;
    if (hard_stop || worst >= severity(StopReason::kNodeLimit)) {
        report.stop_reason = worst_reason;
    } else if (all_saturated) {
        report.stop_reason = StopReason::kSaturated;
    } else if (goal_satisfied) {
        report.stop_reason = StopReason::kGoalReached;
    } else {
        report.stop_reason = worst_reason;  // kIterLimit
    }
    report.total_seconds = total.elapsed_seconds();
    report.final_nodes = graph.num_nodes();
    report.final_classes = graph.num_classes();
    return report;
}

}  // namespace diospyros::strategy
