/**
 * @file
 * The equality-saturation runner (paper §3.3).
 *
 * Each iteration runs in egg's batched style: search all rules on the
 * clean graph, apply every match, then rebuild once. The runner stops at
 * saturation (an iteration that changes nothing) or at a node / memory /
 * time / iteration limit — the paper's evaluation gives saturation a
 * 3-minute timeout and a 10M-node limit and extracts from the partial
 * graph when they trip (§5.2, §5.5). A compile-wide `Deadline` can be
 * threaded in on top of the phase budget; watchdog checks run
 * *mid-iteration* (inside the search and apply loops) so a single
 * explosive iteration cannot overshoot the ceilings by more than one
 * batch of one rule.
 */
#pragma once

#include <string>
#include <vector>

#include "egraph/rewrite.h"
#include "support/deadline.h"

namespace diospyros::strategy {
class RuleScheduler;  // strategy/scheduler.h (header-only interface)
}  // namespace diospyros::strategy

namespace diospyros {

/** Stop conditions for saturation. */
struct RunnerLimits {
    /** Stop when the e-graph grows past this many e-nodes. */
    std::size_t node_limit = 10'000'000;
    /** Stop after this many search/apply/rebuild rounds. */
    int iter_limit = 100;
    /** Wall-clock budget in seconds. */
    double time_limit_seconds = 180.0;
    /** Per-rule, per-iteration cap on applied matches (0 = unlimited). */
    std::size_t match_limit_per_rule = 0;
    /**
     * Exponential rule backoff (egg's BackoffScheduler): a rule whose
     * match count exceeds `backoff_threshold` in one iteration is banned
     * for a geometrically growing number of iterations, preventing one
     * explosive rule from starving the rest. 0 disables backoff.
     */
    std::size_t backoff_threshold = 0;
    /**
     * Stop when the bytes the e-graph holds
     * (EGraph::memory_proxy_bytes()) pass this ceiling (0 = unlimited).
     */
    std::size_t memory_limit_bytes = 0;
};

/** Why the runner stopped. */
enum class StopReason {
    kSaturated,
    kNodeLimit,
    kIterLimit,
    kTimeLimit,
    kMemoryLimit,
    kDeadline,     ///< the compile-wide Deadline expired mid-saturation
    kGoalReached,  ///< a strategy's sketch goal was satisfied (strategy runs)
};

/** Number of distinct stop reasons (for name round-trip loops). */
constexpr int kNumStopReasons = static_cast<int>(StopReason::kGoalReached) + 1;

/** Human-readable stop reason. */
const char* stop_reason_name(StopReason r);

/** Statistics of one saturation iteration. */
struct IterationStats {
    std::size_t matches = 0;
    std::size_t applications = 0;
    std::size_t nodes_after = 0;
    std::size_t classes_after = 0;
    /** Rules skipped this iteration because of backoff bans. */
    std::size_t banned_rules = 0;
    double seconds = 0.0;
    /** Phase breakdown of `seconds` (search / apply / rebuild). */
    double search_seconds = 0.0;
    double apply_seconds = 0.0;
    double rebuild_seconds = 0.0;
};

/**
 * Per-rule totals accumulated across all iterations: where e-matching
 * time goes and which rules actually fire. Surfaced through the compile
 * report (`dioscc --json`) and the service metrics.
 */
struct RuleStats {
    std::string name;
    /** Matches found (after backoff / match-limit caps). */
    std::size_t matches = 0;
    /** Applications that changed the e-graph. */
    std::size_t applications = 0;
    double search_seconds = 0.0;
    double apply_seconds = 0.0;
    /** Times the scheduler banned this rule during the run. */
    int times_banned = 0;
    /**
     * First iteration the rule may search again, as of run end (0 when
     * it was never banned). Together with `times_banned` this makes a
     * misbehaving scheduler debuggable from `dioscc --json` alone.
     */
    int banned_until = 0;
};

/** Overall saturation report. */
struct RunnerReport {
    StopReason stop_reason = StopReason::kSaturated;
    std::vector<IterationStats> iterations;
    /** One entry per rule, in rule-set order. */
    std::vector<RuleStats> rule_stats;
    double total_seconds = 0.0;
    std::size_t final_nodes = 0;
    std::size_t final_classes = 0;

    std::string to_string() const;
};

/** Drives equality saturation over a rule set. */
class Runner {
  public:
    explicit Runner(RunnerLimits limits = {}) : limits_(limits) {}

    /**
     * Saturates `graph` under `rules`. The graph is left clean (rebuilt)
     * regardless of the stop reason, so extraction can always proceed.
     * `deadline` is the compile-wide budget: it is checked alongside the
     * runner's own time limit and reported as StopReason::kDeadline when
     * it is the binding constraint (the graph is still left usable — an
     * expired deadline here stops gracefully; the *caller* decides
     * whether to keep going or degrade).
     *
     * Rule admission follows the limits' legacy policy: exactly
     * `strategy::BackoffScheduler(limits.backoff_threshold,
     * limits.match_limit_per_rule)` — see the scheduler overload below.
     */
    RunnerReport run(EGraph& graph, const std::vector<Rewrite>& rules,
                     const Deadline& deadline = {}) const;

    /**
     * As above, but with an explicit rule scheduler deciding per
     * iteration which rules may search and how many matches each may
     * apply (strategy/scheduler.h). `scheduler.begin()` is called here;
     * its final ban state is copied into the report's RuleStats. With
     * an explicit scheduler the limits' own `backoff_threshold` /
     * `match_limit_per_rule` fields are NOT applied — the scheduler is
     * the whole admission policy.
     */
    RunnerReport run(EGraph& graph, const std::vector<Rewrite>& rules,
                     strategy::RuleScheduler& scheduler,
                     const Deadline& deadline = {}) const;

  private:
    RunnerLimits limits_;
};

}  // namespace diospyros
