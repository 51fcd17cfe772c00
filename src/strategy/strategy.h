/**
 * @file
 * Saturation strategies: programmable schedules for equality saturation
 * (ROADMAP "Scheduled & sketch-guided saturation").
 *
 * A `Strategy` turns the monolithic `Runner::run` call into an ordered
 * list of *phases* executed over one shared e-graph. Each phase names a
 * rule subset (exact names, `*` globs, or "all"), optional tightenings
 * of the base `RunnerLimits`, and optionally its own backoff pair
 * (threshold, match cap) for the runner. Between phases the engine
 * checks sketch goals (strategy/sketch.h): a phase with an `until`
 * sketch re-runs while the sketch is unsatisfied (up to `repeat` runs),
 * and once the strategy-level `goal` sketch is satisfied every
 * remaining phase not marked `always` is skipped — growth stops as soon
 * as a Vec-shaped program is reachable (StopReason::kGoalReached).
 *
 * Strategies are data: the s-expression DSL in strategy/parse.h loads
 * them from files (`dioscc --strategy <file|name>`), and
 * `Strategy::to_string()` is the canonical identity folded into the
 * service cache key. Two built-ins ship:
 *
 *  - "default" — one phase, all rules, the base backoff pair: the
 *    exact monolithic `Runner::run` behavior (byte-identical, pinned
 *    by tests/strategy_test.cpp);
 *  - "phased"  — chunk → MAC → lift → cleanup with backoff and a
 *    MAC-shaped goal, the schedule that breaks the Figure-6 timeout
 *    wall on large matmul/conv kernels (bench/fig6_timeout.cpp).
 *
 * Budget model: a phase may only *tighten* the base limits (its
 * node/iteration/time/memory values are clamped to the base; only its
 * backoff pair replaces the base one), and the base
 * `time_limit_seconds` is one budget shared by all phases — so a
 * strategy never exceeds the budget the monolithic run was given, and
 * the degradation ladder's reduced rungs bound every phase
 * automatically.
 */
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "egraph/runner.h"
#include "strategy/sketch.h"

namespace diospyros::analysis {
class DiagEngine;
}  // namespace diospyros::analysis

namespace diospyros::strategy {

/**
 * Per-phase tightenings of the base RunnerLimits. Engaged budget fields
 * (nodes, iterations, time, memory) are clamped to the base: a phase
 * can only shrink the budget it inherits.
 */
struct PhaseLimits {
    std::optional<std::size_t> node_limit;
    std::optional<int> iter_limit;
    std::optional<double> time_limit_seconds;
    std::optional<std::size_t> memory_limit_bytes;

    /** The runner's backoff pair (RunnerLimits fields of the same names). */
    struct Backoff {
        std::size_t backoff_threshold = 0;
        std::size_t match_limit_per_rule = 0;

        bool operator==(const Backoff&) const = default;
    };
    /**
     * `(scheduler ...)`: when engaged, replaces the base backoff pair
     * unclamped; unset inherits it. `none` is (0, 0), `match-cap C` is
     * (0, C) and `backoff T [C]` is (T, C or 0).
     */
    std::optional<Backoff> backoff;

    bool operator==(const PhaseLimits&) const = default;
};

/** One saturation phase. */
struct Phase {
    std::string name;
    /**
     * Rule references: exact rule names ("vec-mac"), single-`*` globs
     * ("vec-*", "*-lift"), or "all". Resolved against the rule set at
     * run time; a reference matching nothing is an S404 error.
     */
    std::vector<std::string> rules;
    PhaseLimits limits;
    /**
     * Goal for this phase: after a run, the phase re-runs while the
     * sketch is unsatisfied and fewer than `repeat` runs have happened.
     */
    std::optional<Sketch> until;
    int repeat = 1;
    /** Run even once the strategy goal is satisfied (cleanup phases). */
    bool always = false;

    bool operator==(const Phase&) const = default;
};

/** An ordered saturation schedule. */
struct Strategy {
    std::string name;
    std::vector<Phase> phases;
    /**
     * Strategy-level goal: checked after every phase; once satisfied,
     * remaining non-`always` phases are skipped (kGoalReached).
     */
    std::optional<Sketch> goal;

    bool operator==(const Strategy&) const = default;

    /**
     * Canonical DSL rendering: parses back to an equal Strategy, and is
     * the identity hashed into the service cache key.
     */
    std::string to_string() const;
};

/** The built-in strategies, by name. */
const std::vector<std::string>& builtin_strategy_names();

/** Built-in strategy by name (nullopt when unknown). */
std::optional<Strategy> builtin_strategy(const std::string& name);

/** "default": one phase, all rules, base backoff — the monolithic run. */
Strategy builtin_default();

/** "phased": chunk → MAC → lift → cleanup with a MAC-shaped goal. */
Strategy builtin_phased();

/**
 * Resolves every phase's rule references to indices into `rules`
 * (rule-set order, deduplicated). References that match nothing are
 * reported as S404 errors on `diags`; phases left with no rules as
 * S407. Returns one index list per phase (meaningful only when `diags`
 * gained no errors).
 */
std::vector<std::vector<std::size_t>> resolve_phase_rules(
    const Strategy& strategy, const std::vector<Rewrite>& rules,
    analysis::DiagEngine& diags);

/** Execution telemetry for one phase. */
struct PhaseReport {
    std::string name;
    /** Runs merged across repeats (iterations appended, stats summed). */
    RunnerReport runner;
    /** Times the phase actually ran (0 when skipped). */
    int runs = 0;
    /** Whether an `until`/goal sketch was evaluated after this phase. */
    bool sketch_checked = false;
    /** Result of the last `until` sketch evaluation. */
    bool sketch_satisfied = false;
    /** Skipped because the strategy goal was already satisfied. */
    bool skipped = false;
    double seconds = 0.0;
};

/** Execution telemetry for a whole strategy run. */
struct StrategyReport {
    std::string strategy_name;
    std::vector<PhaseReport> phases;
    /**
     * Overall outcome: hard budget trips (deadline / time / memory /
     * node) dominate; else kSaturated when every executed phase reached
     * its fixed point; else kGoalReached when the goal cut growth
     * short; else kIterLimit.
     */
    StopReason stop_reason = StopReason::kSaturated;
    bool goal_satisfied = false;
    /** Total iterations across all phase runs. */
    std::size_t iterations = 0;
    /** Per-rule totals aggregated across phases, in rule-set order. */
    std::vector<RuleStats> rule_stats;
    double total_seconds = 0.0;
    std::size_t final_nodes = 0;
    std::size_t final_classes = 0;
};

/** Inputs to run_strategy beyond the graph and rules. */
struct StrategyRunOptions {
    /** Base limits every phase inherits from (and is clamped to). */
    RunnerLimits base;
    /** Compile-wide deadline threaded into every phase runner. */
    Deadline deadline;
    /**
     * Test/debug hook invoked after every executed (non-skipped) phase
     * with the rebuilt graph — strategy_test audits e-graph invariants
     * between phases through this.
     */
    std::function<void(const EGraph& graph, const PhaseReport& phase)>
        on_phase_end;
};

/**
 * Executes `strategy` over `graph` (spec root class `root`). Throws
 * UserError when rule references do not resolve against `rules`. The
 * graph is left clean regardless of the stop reason, like Runner::run.
 */
StrategyReport run_strategy(EGraph& graph, ClassId root,
                            const std::vector<Rewrite>& rules,
                            const Strategy& strategy,
                            const StrategyRunOptions& options);

}  // namespace diospyros::strategy
