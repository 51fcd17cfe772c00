/**
 * @file
 * The equality-saturation runner (paper §3.3).
 *
 * Each iteration runs in egg's batched style: search all rules on the
 * clean graph, apply every match, then rebuild once. Searches are
 * semi-naive: after a rule's first search in a run, it visits only the
 * root classes whose matches can have changed since its last complete
 * search (EGraph::dirty_levels, Searcher::depth), which skips the
 * repeats that would apply as no-ops. The runner stops at
 * saturation (an iteration that changes nothing) or at a node / memory /
 * time / iteration limit — the paper's evaluation gives saturation a
 * 3-minute timeout and a 10M-node limit and extracts from the partial
 * graph when they trip (§5.2, §5.5). A compile-wide `Deadline` can be
 * threaded in on top of the phase budget; watchdog checks run
 * *mid-iteration* (inside the search and apply loops) so a single
 * explosive iteration cannot overshoot the ceilings by more than one
 * batch of one rule.
 *
 * Rule admission is egg's exponential backoff, applied by the runner
 * itself from two numbers in `RunnerLimits`: a rule banned by an
 * earlier over-threshold search skips the search, and the matches a
 * rule keeps are truncated to the threshold and then to the flat
 * per-rule cap. A strategy phase (strategy/strategy.h) overrides the
 * pair; there is no other admission policy.
 */
#pragma once

#include <string>
#include <vector>

#include "egraph/rewrite.h"
#include "support/deadline.h"

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
     * match count exceeds `backoff_threshold` in one iteration keeps
     * only that many matches and is banned for a geometrically growing
     * number of iterations, preventing one explosive rule from starving
     * the rest. 0 disables backoff; `match_limit_per_rule` still caps
     * what is left.
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
};

/**
 * Per-rule totals accumulated across all iterations: where e-matching
 * time goes and which rules actually fire. Surfaced through the compile
 * report (`dioscc --json`) and the service metrics.
 */
struct RuleStats {
    std::string name;
    /**
     * Matches found (after backoff / match-limit caps). Semi-naive
     * searches do not count the repeats they skip.
     */
    std::size_t matches = 0;
    /** Applications that changed the e-graph. */
    std::size_t applications = 0;
    double search_seconds = 0.0;
    double apply_seconds = 0.0;
    /** Times backoff banned this rule during the run. */
    int times_banned = 0;
    /**
     * First iteration the rule may search again, as of run end (0 when
     * it was never banned). Together with `times_banned` this makes a
     * throttled rule visible from `dioscc --json` alone.
     */
    int banned_until = 0;

    /**
     * Adds another run's totals for the same rule: counts and seconds
     * sum, `banned_until` keeps the later window. `name` is kept.
     */
    RuleStats& operator+=(const RuleStats& other);
};

/**
 * egg's backoff for one rule in iteration `iter`, given `found`
 * matches: above a non-zero `limits.backoff_threshold` the rule keeps
 * the threshold's worth, `rule.times_banned` grows and the rule is
 * banned until iteration `iter + 1 + 2^min(times_banned, 10)`; then a
 * non-zero `limits.match_limit_per_rule` caps what is left. Returns
 * how many matches may be applied.
 */
std::size_t backoff_admit(const RunnerLimits& limits, RuleStats& rule,
                          int iter, std::size_t found);

/** Overall saturation report. */
struct RunnerReport {
    StopReason stop_reason = StopReason::kSaturated;
    std::vector<IterationStats> iterations;
    /** One entry per rule, in rule-set order. */
    std::vector<RuleStats> rule_stats;
    double total_seconds = 0.0;
    std::size_t final_nodes = 0;
    std::size_t final_classes = 0;
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
     * Rule admission is egg's backoff (backoff_admit) over the limits'
     * `backoff_threshold` and `match_limit_per_rule`; its final per-rule
     * ban state is in the report's RuleStats. When either is non-zero
     * every search covers the whole graph, so bans count every match.
     */
    RunnerReport run(EGraph& graph, const std::vector<Rewrite>& rules,
                     const Deadline& deadline = {}) const;

  private:
    RunnerLimits limits_;
};

}  // namespace diospyros
