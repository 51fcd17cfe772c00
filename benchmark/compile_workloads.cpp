/**
 * @file
 * The compile-path workloads, compile_cold and egraph_wall: kernel text
 * → scalar::parse_kernel → compile_kernel_resilient, single thread, no
 * cache, in a seeded order per pass.
 */
#include <algorithm>
#include <limits>
#include <numeric>

#include "bench.h"
#include "scalar/parse.h"
#include "support/hash.h"

namespace diospyros::benchmark {

namespace {

/** Every case gets at least this many samples for its floor, even when
 *  one pass outlasts the window (an egraph_wall pass takes ~12 s). */
constexpr int kMinPasses = 2;

/**
 * Compiles every case once, in `order`, lowering each case's entry in
 * `best_ms` to this compile's latency if it was faster. Results are
 * checked after the pass, so checking never lands inside a timed
 * interval.
 */
void
compile_pass(const std::vector<CompileCase>& cases,
             const std::vector<std::size_t>& order,
             std::vector<CompileResult>& results,
             std::vector<double>& best_ms)
{
    results.assign(cases.size(), CompileResult{});
    for (const std::size_t i : order) {
        const double t0 = now_seconds();
        const scalar::Kernel kernel = scalar::parse_kernel(cases[i].text);
        results[i] = compile_kernel_resilient(kernel, cases[i].options);
        best_ms[i] = std::min(best_ms[i], (now_seconds() - t0) * 1e3);
    }
}

/**
 * Checks one pass: every compile succeeded, no saturation stopped on a
 * wall-clock limit (its time would measure the clock), outputs match the
 * reference, and artifacts are identical to the first pass's.
 */
void
check_pass(const std::vector<CompileCase>& cases,
           const std::vector<CompileResult>& results,
           std::vector<std::uint64_t>& digests,
           std::vector<std::uint64_t>& cycles, Result& result)
{
    const bool first = digests.empty();
    if (first) {
        digests.assign(cases.size(), 0);
        cycles.assign(cases.size(), 0);
    }
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const CompileCase& c = cases[i];
        const CompileResult& r = results[i];
        result.attempt();
        if (!r.ok) {
            result.fail(c.label + ": compile failed: " + r.error);
            continue;
        }
        const StopReason stop = r.report().stop_reason;
        if (stop == StopReason::kTimeLimit || stop == StopReason::kDeadline) {
            result.fail(c.label + ": saturation stopped on " +
                        stop_reason_name(stop));
            continue;
        }
        const std::uint64_t digest = stable_hash_string(
            artifact_text(r.compiled->machine, r.compiled->c_source,
                          c.options.target.vector_width));
        if (first) {
            digests[i] = digest;
            const std::string err =
                check_outputs(c, *r.compiled, &cycles[i]);
            if (!err.empty()) {
                result.fail(err);
            }
        } else if (digest != digests[i]) {
            result.fail(c.label + ": artifact differs between passes");
        }
    }
}

}  // namespace

void
run_compile_workload(const RunConfig& cfg, Result& result)
{
    const std::vector<CaseSpec> specs = workload_specs(cfg);

    // Set-up is cheap and deterministic, so it runs nine times and the
    // median is reported.
    std::vector<double> setup;
    std::vector<CompileCase> cases;
    for (int rep = 0; rep < 9; ++rep) {
        const double t0 = now_seconds();
        cases = build_cases(specs, cfg.seed);
        setup.push_back(now_seconds() - t0);
    }

    // Interference on a shared host only ever adds time to deterministic
    // work, so each compile's cost is the fastest of its repetitions in
    // the run, and the metrics are taken over these per-case floors.
    std::vector<CompileResult> results;
    std::vector<double> best_ms(cases.size(),
                                std::numeric_limits<double>::infinity());
    std::vector<std::uint64_t> digests;
    std::vector<std::uint64_t> cycles;
    std::uint64_t pass_seed = cfg.seed * 0x2545F4914F6CDD1DULL;
    int passes = 0;
    const double start = now_seconds();
    do {
        compile_pass(cases, shuffled_order(cases.size(), ++pass_seed),
                     results, best_ms);
        check_pass(cases, results, digests, cycles, result);
        ++passes;
    } while (!cfg.smoke &&
             (passes < kMinPasses || now_seconds() - start < cfg.seconds));

    std::vector<double> speedups;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        if (cycles[i] > 0) {
            speedups.push_back(
                static_cast<double>(cases[i].naive_fixed_cycles) /
                static_cast<double>(cycles[i]));
        }
    }
    result.metric("setup_s", median(setup), "s");
    result.metric("pass_s",
                  std::accumulate(best_ms.begin(), best_ms.end(), 0.0) / 1e3,
                  "s");
    result.metric("latency_p50_ms", quantile(best_ms, 0.5), "ms");
    result.metric("latency_p99_ms", quantile(best_ms, 0.99), "ms");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    result.metric("speedup_geomean", geomean(speedups), "x");
    result.info("passes", passes, "count");
}

}  // namespace diospyros::benchmark
