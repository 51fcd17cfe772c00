/**
 * @file
 * The end-to-end Diospyros compiler driver (paper Figure 1):
 *
 *   scalar kernel --symbolic eval--> List spec --equality saturation-->
 *   saturated e-graph --extract--> optimized DSL --lower/LVN/emit-->
 *   DSP machine code (+ C intrinsics text) [--translation validation]
 *
 * The driver also pads the spec so each output array starts on a
 * vector-width boundary (vector stores never straddle arrays) and
 * produces the compile report that Table 1 summarizes: wall-clock per
 * phase, e-graph size, stop reason, and the e-graph's measured bytes.
 *
 * Two entry points:
 *  - compile_kernel(): the raw pipeline; throws on any failure
 *    (UserError, InternalError, ResourceLimitError / DeadlineExceeded).
 *  - compile_kernel_resilient(): the fault-tolerant service wrapper. It
 *    never throws; on failure it retries down a *degradation ladder* of
 *    progressively cheaper configurations and reports which rung
 *    produced the result:
 *
 *      rung 0  full rule set, caller's limits
 *      rung 1  reduced search: aggressive backoff, match caps, lower
 *              node budget
 *      rung 2  vector rules off — scalar simplification only
 *      rung 3  direct scalar lowering of the padded spec (no e-graph at
 *              all) — correct by construction, succeeds whenever the
 *              input kernel itself is valid
 *
 *    The paper leans on this shape of robustness implicitly — when
 *    saturation trips the 3-minute / 10M-node limits it extracts from
 *    the partial e-graph (§5.2, §5.5) — and the ladder extends it to
 *    failures in *any* phase.
 */
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "egraph/runner.h"
#include "machine/sim.h"
#include "rules/cost.h"
#include "rules/rules.h"
#include "scalar/ast.h"
#include "scalar/interp.h"
#include "scalar/symbolic.h"
#include "strategy/strategy.h"
#include "support/deadline.h"
#include "validation/validate.h"
#include "vir/emit.h"
#include "vir/lower_term.h"
#include "vir/lvn.h"

namespace diospyros {

/**
 * Compiler configuration (paper §5.2 defaults). compiler/option_fields.h
 * lists every field once: its wire name, valid range, and whether (and
 * if not, why not) it is part of the cache key.
 */
struct CompilerOptions {
    TargetSpec target = TargetSpec::fusion_g3_like();
    RuleConfig rules{target.vector_width};
    RunnerLimits limits = {.node_limit = 10'000'000,
                           .iter_limit = 100,
                           .time_limit_seconds = 180.0,
                           .match_limit_per_rule = 0};
    CostParams cost;
    /** Run exact translation validation after extraction. */
    bool validate = false;
    /** Also differential-test spec vs extracted term on random inputs. */
    bool random_check = false;
    /**
     * Wall-clock budget for the *whole* compile — saturation,
     * extraction, LVN, emission, validation — as one Deadline
     * (support/deadline.h). 0 disables the global deadline; the
     * saturation phase still honors limits.time_limit_seconds either
     * way. Expiry raises DeadlineExceeded from compile_kernel(); the
     * resilient driver degrades instead.
     */
    double deadline_seconds = 0.0;
    /**
     * Absolute wall-clock deadline intersected with `deadline_seconds`.
     * A service threads the *request* deadline (which started ticking at
     * admission, so queue wait counts against it) through here; the
     * compile then honors whichever budget expires first. Unlimited by
     * default.
     */
    Deadline absolute_deadline;
    /**
     * Bounded retries for transient cache-store/scan I/O failures
     * (service/disk_cache.h IoPolicy): each store attempt may be retried
     * this many times with deterministic backoff before the failure
     * surfaces. Load-side corruption is never retried (quarantined).
     */
    int io_retries = 2;
    /**
     * Fault-injection specs ("site[:nth[:count]]"; see support/faults.h)
     * armed by compile_kernel_resilient() before the first attempt.
     * Normally empty; populated by `dioscc --fault` and tests.
     */
    std::vector<std::string> fault_specs;
    /**
     * Run the static-analysis gates (src/analysis/): e-graph audit after
     * saturation and extraction, VIR verification after lowering and
     * after LVN. Always on in debug and sanitizer builds regardless of
     * this flag; release builds opt in here (dioscc --verify-ir).
     * Failures raise InternalError, so the resilient driver degrades.
     */
    bool verify_ir = false;
    /**
     * Run the machine-code gates (analysis/verify_machine.h): structural
     * verification of the emitted program before and after scheduling,
     * the scheduler-preservation proof (M008), and symbolic machine-level
     * translation validation of the final scheduled code against the
     * padded spec. The structural/scheduling gates follow verify_ir's
     * build-type default (always on in debug and sanitizer builds);
     * symbolic validation runs only when this flag or `validate` is set,
     * since it canonicalizes every output element. Release builds opt in
     * via dioscc --verify-machine. Structural failures raise
     * InternalError; a kNotEquivalent machine validation degrades the
     * resilient driver like a failed term-level validation does.
     */
    bool verify_machine = false;
    /**
     * Saturation strategy (strategy/strategy.h). Disengaged (the
     * default), saturation runs `strategy::builtin_default()`: one
     * all-rules phase, the monolithic run under `limits`. Engaged, the
     * strategy's phases run over the shared e-graph with `limits` as
     * the base budget every phase tightens into. The degradation
     * ladder keeps the strategy on rung 1 (the reduced base limits
     * clamp each phase) and drops it from rung 2 on (vector rules are
     * off there, so phase rule subsets would no longer resolve).
     */
    std::optional<strategy::Strategy> strategy;

    /** Synchronizes rule/target parameters (width, recip support). */
    void
    sync()
    {
        rules.vector_width = target.vector_width;
        rules.target_has_recip = target.has_reciprocal;
    }
};

/**
 * Why a compile (or one ladder attempt) failed, at the granularity the
 * service's failure memory needs. Deterministic failures (`kUser`, and
 * `kResource` under a no-larger budget) are safe to negative-cache —
 * retrying without changing anything would fail identically. Transient
 * or environmental ones (`kInjectedFault`, `kInternal`) must never be
 * remembered, and the service-synthesized kinds (`kOverloaded`,
 * `kExpired`) describe requests that were never compiled at all.
 */
enum class FailureClass {
    kNone = 0,       ///< no failure (the compile succeeded)
    kUser,           ///< invalid kernel or options — deterministic
    kResource,       ///< a wall-clock / node / memory budget ran out
    kInternal,       ///< library bug or unexpected exception
    kInjectedFault,  ///< an armed fault site fired
    kOverloaded,     ///< service shed the request (admission control)
    kExpired,        ///< request deadline passed while queued
};

/** Debug/JSON spelling ("none", "user", "resource", ...). */
const char* failure_class_name(FailureClass c);

/** One rung attempt by the resilient driver. */
struct AttemptDiagnostic {
    /** Ladder rung tried (0 = full pipeline ... 3 = direct scalar). */
    int level = 0;
    /** Failure message; empty when this attempt succeeded. */
    std::string error;
    /** What kind of failure this attempt hit (kNone on success). */
    FailureClass failure_class = FailureClass::kNone;
    /** Wall-clock spent on this attempt. */
    double seconds = 0.0;
};

/** Human-readable rung name ("full", "reduced", ...). */
const char* fallback_level_name(int level);

/**
 * Everything Table 1 reports, per kernel. compiler/report_fields.h lists
 * every field once: its JSON and wire name, and where it travels.
 */
struct CompileReport {
    double lift_seconds = 0.0;
    double saturation_seconds = 0.0;
    double extract_seconds = 0.0;
    double backend_seconds = 0.0;
    double total_seconds = 0.0;
    std::size_t spec_elements = 0;      ///< output elements (padded)
    std::size_t spec_dag_nodes = 0;     ///< lifted spec size (DAG)
    std::size_t egraph_nodes = 0;
    std::size_t egraph_classes = 0;
    StopReason stop_reason = StopReason::kSaturated;
    std::size_t runner_iterations = 0;
    /**
     * Per-rule e-matching totals across the saturation run (rule-set
     * order): matches found, applications that changed the graph, and
     * search/apply wall-clock. Surfaced via `dioscc --json`.
     */
    std::vector<RuleStats> rule_stats;
    /** Strategy that drove saturation ("" = saturation did not run). */
    std::string strategy_name;
    /**
     * Per-phase reports of the saturation run (empty on a cache hit) —
     * the `phases` array of `dioscc --json`.
     */
    std::vector<strategy::PhaseReport> strategy_phases;
    /** The strategy goal sketch was satisfied (false without a goal). */
    bool strategy_goal_satisfied = false;
    double extracted_cost = 0.0;
    vir::LvnStats lvn;
    /**
     * Bytes the saturated e-graph holds (EGraph::memory_proxy_bytes()),
     * Table 1's "Memory" column.
     */
    std::size_t memory_proxy_bytes = 0;
    /** Translation validation's verdict; meaningful when `validated`. */
    Verdict validation = Verdict::kUnknown;
    /** Whether translation validation ran on this compile. */
    bool validated = false;
    /** The random differential check; meaningful when `random_checked`. */
    bool random_check_passed = true;
    /** Whether the random differential check ran on this compile. */
    bool random_checked = false;
    /**
     * Symbolic machine-level translation validation of the final
     * scheduled machine code against the padded spec (M009). kUnknown
     * until `machine_validated` is set; kNotEquivalent is only ever
     * reported together with a concrete counterexample in
     * `machine_witness`.
     */
    Verdict machine_validation = Verdict::kUnknown;
    /** Whether machine-level validation actually ran on this compile. */
    bool machine_validated = false;
    /** Rendered counterexample witness for a kNotEquivalent ("" = none). */
    std::string machine_witness;
    /** Degradation-ladder rung that produced this result (0 = none). */
    int fallback_level = 0;
    /** Every rung tried by the resilient driver (empty for raw compiles). */
    std::vector<AttemptDiagnostic> attempts;
    /** Failure message of the *last failed* attempt ("" when rung 0 won). */
    std::string error;
};

/** A fully compiled kernel. */
struct CompiledKernel {
    scalar::Kernel kernel;
    scalar::LiftedSpec spec;
    /** The padded spec actually optimized (alignment zeros inserted). */
    TermRef padded_spec;
    TermRef extracted;
    vir::VProgram vprogram;
    vir::CompiledLayout layout;
    Program machine;
    std::string c_source;
    CompileReport report;

    /** Simulates the compiled kernel on the given inputs. */
    struct RunOutcome {
        scalar::BufferMap outputs;
        RunResult result;
    };
    /**
     * Runs on the simulator. The returned output buffers are validated
     * against the kernel's output manifest (every declared output
     * present, at its declared length) before being handed back, so
     * callers can element-wise compare without out-of-bounds risk.
     */
    RunOutcome run(const scalar::BufferMap& inputs,
                   const TargetSpec& target) const;
};

/**
 * Compiles a scalar kernel end to end. Throws UserError on invalid
 * input, InternalError on library bugs, and DeadlineExceeded when
 * `options.deadline_seconds` expires mid-compile.
 */
CompiledKernel compile_kernel(const scalar::Kernel& kernel,
                              CompilerOptions options = {});

/**
 * Result of a resilient compile. Exactly one of the following holds:
 * `ok` and `compiled` is engaged (with `fallback_level` telling which
 * rung produced it), or `!ok` and `error` describes the final failure.
 */
struct CompileResult {
    bool ok = false;
    /** Rung that succeeded (0 = full pipeline ... 3 = direct scalar). */
    int fallback_level = 0;
    /**
     * True when the failure was the caller's fault (invalid kernel or
     * options) — the one category batch drivers report with a non-zero
     * exit code, since no retry or degradation can fix it.
     */
    bool user_error = false;
    /**
     * Classification of the final failure (kNone when ok). The service's
     * negative cache keys its "safe to remember?" decision off this, so
     * it must faithfully reflect the *last failed* attempt.
     */
    FailureClass failure_class = FailureClass::kNone;
    /** Final failure when !ok; empty otherwise. */
    std::string error;
    /** One entry per rung tried (also mirrored into the report). */
    std::vector<AttemptDiagnostic> attempts;
    /** Engaged iff ok. Its report carries fallback_level + attempts. */
    std::optional<CompiledKernel> compiled;

    const CompileReport& report() const { return compiled->report; }
};

/**
 * Fault-tolerant compile: never throws. Attempts the full pipeline and
 * walks the degradation ladder (see file header) on any failure —
 * resource-limit blow-up, internal error, injected fault, failed
 * translation validation or random check. All rungs share one Deadline
 * when options.deadline_seconds > 0; the final direct-scalar rung
 * ignores it (it must be allowed to finish to return *something*).
 */
CompileResult compile_kernel_resilient(const scalar::Kernel& kernel,
                                       CompilerOptions options = {});

/**
 * Shape-checked comparison of simulated outputs against a reference.
 * Never indexes out of bounds: missing or mis-sized buffers are
 * reported through `shape_error` instead.
 */
struct OutputComparison {
    /** Empty when every expected buffer is present at the right size. */
    std::string shape_error;
    /** Max |got - want| over all compared elements (shapes permitting). */
    float max_abs_error = 0.0f;

    bool shapes_ok() const { return shape_error.empty(); }
};
OutputComparison compare_outputs(const scalar::BufferMap& got,
                                 const scalar::BufferMap& want);

/** One-line Table 1-style row; without times when `cached` (kClock). */
std::string report_row(const std::string& name, const CompileReport& r,
                       bool cached = false);

/**
 * Equality saturation exactly as the compiler runs it, over `graph`
 * rooted at `root`: the phases of `options.strategy`, or of
 * `strategy::builtin_default()` when none is engaged, under
 * `options.limits` and stopping at `deadline`. `options` must be synced
 * (see CompilerOptions::sync). Fills the report's stop reason,
 * iteration count, rule stats and strategy fields.
 */
void saturate(EGraph& graph, ClassId root, const CompilerOptions& options,
              const Deadline& deadline, CompileReport& report);

/**
 * Pads a lifted spec so every output array's element run is a multiple of
 * the vector width (vector stores never straddle arrays) and returns the
 * matching output slots. Exposed so the compile service can rebuild the
 * padded spec when reconstructing a kernel from the on-disk cache.
 */
std::pair<TermRef, std::vector<vir::OutputSlot>> pad_lifted_spec(
    const scalar::LiftedSpec& spec, int width);

}  // namespace diospyros
