/**
 * @file
 * Reproduces **Figure 6**: the equality-saturation budget wall, and how
 * the phased saturation strategy (src/strategy/) breaks it.
 *
 * The paper sweeps wall-clock timeouts on MatMul and 2D-conv and shows
 * quality degrading when saturation is truncated (§5.5). This bench
 * sweeps kernel *size* under the fixed scaled budget (bench_common.h),
 * in two rule configurations: the default curated rule set, where every
 * size saturates quickly, and the optional full-AC set (§3.3) whose
 * NP-complete matching is what builds the wall — past it the monolithic
 * run stops on a budget limit with a partially-vectorized graph, while
 * the "phased" strategy (chunk → MAC → lift → polish with a MAC-shaped
 * goal, backoff schedulers on the explosive phases) reaches a fixed
 * point or a goal-satisfied stop within the same budget.
 *
 * Writes BENCH_fig6.json (override with --out FILE): one record per
 * (kernel, mode) with stop reason, e-graph nodes, saturation seconds,
 * extracted cost, and simulated cycles. Exits non-zero when the gate
 * fails: on every size the strategy must reach a fixed point or a goal
 * stop whenever the monolithic run was truncated, and must never have
 * a higher extracted cost than the monolithic run (tools/check.sh
 * enforces this in CI).
 */
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "strategy/strategy.h"
#include "support/json.h"

using namespace diospyros;

namespace {

struct ModeResult {
    std::string stop;
    bool complete = false;  ///< saturated or goal-reached
    std::size_t nodes = 0;
    double seconds = 0.0;
    double cost = 0.0;
    std::uint64_t cycles = 0;
    int fallback = 0;
};

ModeResult
run_mode(const scalar::Kernel& kernel, bool full_ac, bool phased)
{
    CompilerOptions options = bench::bench_options();
    options.rules.full_ac = full_ac;
    if (phased) {
        options.strategy = strategy::builtin_phased();
    }
    const CompileResult result = compile_kernel_resilient(kernel, options);
    ModeResult out;
    if (!result.ok) {
        out.stop = "failed: " + result.error;
        return out;
    }
    const CompiledKernel& compiled = *result.compiled;
    const CompileReport& r = compiled.report;
    out.stop = stop_reason_name(r.stop_reason);
    out.complete = r.stop_reason == StopReason::kSaturated ||
                   r.stop_reason == StopReason::kGoalReached;
    out.nodes = r.egraph_nodes;
    out.seconds = r.saturation_seconds;
    out.cost = r.extracted_cost;
    out.fallback = r.fallback_level;
    const scalar::BufferMap inputs = kernels::make_inputs(kernel, 1);
    out.cycles =
        compiled.run(inputs, TargetSpec::fusion_g3_like()).result.cycles;
    return out;
}

void
json_mode(JsonWriter& w, const char* name, const ModeResult& m)
{
    w.key(name).open('{').field("stop", m.stop).field("complete", m.complete);
    w.field("nodes", m.nodes).field("seconds", m.seconds);
    w.field("cost", m.cost).field("cycles", m.cycles);
    w.field("fallback", m.fallback).close('}');
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string out_path = "BENCH_fig6.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        }
    }

    struct Case {
        std::string name;
        scalar::Kernel kernel;
        bool full_ac;
    };
    const std::vector<Case> cases = {
        {"matmul_2x2", kernels::make_matmul(2, 2, 2), false},
        {"matmul_4x4", kernels::make_matmul(4, 4, 4), false},
        {"matmul_8x8", kernels::make_matmul(8, 8, 8), false},
        {"conv2d_3x3_2x2", kernels::make_conv2d(3, 3, 2, 2), false},
        {"conv2d_3x5_3x3", kernels::make_conv2d(3, 5, 3, 3), false},
        {"conv2d_8x8_3x3", kernels::make_conv2d(8, 8, 3, 3), false},
        {"matmul_4x4_ac", kernels::make_matmul(4, 4, 4), true},
        {"matmul_8x8_ac", kernels::make_matmul(8, 8, 8), true},
        {"conv2d_3x5_3x3_ac", kernels::make_conv2d(3, 5, 3, 3), true},
        {"conv2d_8x8_3x3_ac", kernels::make_conv2d(8, 8, 3, 3), true},
    };

    std::printf("=== Figure 6: the saturation budget wall, monolithic vs "
                "phased strategy ===\n\n");
    std::printf("%-18s %-10s %12s %8s %9s %10s   %-12s %12s %8s %9s %10s\n",
                "kernel", "mono-stop", "mono-cost", "nodes", "sec",
                "cycles", "strat-stop", "strat-cost", "nodes", "sec",
                "cycles");

    JsonWriter json;
    json.open('[');

    bool gate_ok = true;
    std::vector<std::string> gate_failures;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const Case& c = cases[i];
        const ModeResult mono =
            run_mode(c.kernel, c.full_ac, /*phased=*/false);
        const ModeResult strat =
            run_mode(c.kernel, c.full_ac, /*phased=*/true);

        std::printf("%-18s %-10s %12.1f %8zu %9.3f %10llu   %-12s %12.1f "
                    "%8zu %9.3f %10llu\n",
                    c.name.c_str(), mono.stop.c_str(), mono.cost,
                    mono.nodes, mono.seconds,
                    static_cast<unsigned long long>(mono.cycles),
                    strat.stop.c_str(), strat.cost, strat.nodes,
                    strat.seconds,
                    static_cast<unsigned long long>(strat.cycles));

        json.open('{').field("kernel", c.name).field("full_ac", c.full_ac);
        json_mode(json, "monolithic", mono);
        json_mode(json, "strategy", strat);
        json.close('}');

        // The gate. Regressing extracted cost is always a failure; where
        // the monolithic run was truncated by its budget, the strategy
        // must additionally finish (fixed point / goal) or strictly beat
        // the monolithic extraction.
        if (strat.cost > mono.cost * (1.0 + 1e-9)) {
            gate_ok = false;
            gate_failures.push_back(c.name + ": strategy cost " +
                                    std::to_string(strat.cost) +
                                    " regresses monolithic " +
                                    std::to_string(mono.cost));
        } else if (!mono.complete && !strat.complete &&
                   strat.cost >= mono.cost) {
            gate_ok = false;
            gate_failures.push_back(
                c.name + ": monolithic truncated (" + mono.stop +
                ") and strategy neither finished (" + strat.stop +
                ") nor beat its cost");
        }
    }
    std::ofstream(out_path) << json.close(']').str() << "\n";
    std::printf("\nwrote %s\n", out_path.c_str());

    if (!gate_ok) {
        for (const std::string& f : gate_failures) {
            std::printf("GATE FAIL %s\n", f.c_str());
        }
        return 1;
    }
    std::printf("gate: strategy completes or beats monolithic on every "
                "size, no cost regression\n");
    return 0;
}
