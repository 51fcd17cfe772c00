#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "bench.h"
#include "kernels/kernels.h"
#include "machine/program.h"
#include "scalar/canonical.h"
#include "scalar/lower.h"
#include "scalar/parse.h"
#include "support/rng.h"

namespace diospyros::benchmark {

CompilerOptions
bench_options(int width, bool width_preset)
{
    CompilerOptions options;
    if (width_preset) {
        options.target = TargetSpec::for_width(width);
    } else {
        options.target.vector_width = width;
    }
    options.limits = RunnerLimits{.node_limit = 300'000,
                                  .iter_limit = 12,
                                  .time_limit_seconds = 20.0};
    options.sync();
    return options;
}

std::vector<CaseSpec>
table1_specs(const std::vector<int>& widths, bool width_preset)
{
    std::vector<CaseSpec> specs;
    for (const kernels::BenchmarkInstance& inst :
         kernels::table1_instances()) {
        for (const int w : widths) {
            specs.push_back({.label = inst.label() + " @w" + std::to_string(w),
                             .kernel = inst.kernel,
                             .width = w,
                             .width_preset = width_preset});
        }
    }
    return specs;
}

namespace {

/**
 * egraph_wall: full-AC rules on the Figure-6 kernels, where the e-graph
 * grows to 270k-395k nodes. conv2d 3x5 under monolithic saturation is
 * left out: it stops on the 20 s time limit, so its time would measure
 * the clock rather than the engine.
 */
std::vector<CaseSpec>
wall_specs()
{
    const scalar::Kernel mm8 = kernels::make_matmul(8, 8, 8);
    const scalar::Kernel conv8 = kernels::make_conv2d(8, 8, 3, 3);
    const scalar::Kernel conv35 = kernels::make_conv2d(3, 5, 3, 3);
    return {
        {"MatMul 8x8, 8x8 @w4 ac phased", mm8, 4, true, true},
        {"2DConv 8x8, 3x3 @w4 ac phased", conv8, 4, true, true},
        {"2DConv 3x5, 3x3 @w4 ac phased", conv35, 4, true, true},
        {"MatMul 8x8, 8x8 @w4 ac", mm8, 4, true, false},
        {"2DConv 8x8, 3x3 @w4 ac", conv8, 4, true, false},
    };
}

/**
 * native_run: tiny, shuffle-bound, sqrt/div and MAC-heavy kernels at the
 * paper's width and the host's AVX-512 width. MatMul 16x16 is left out:
 * its emitted C is 3.3 MB and takes seconds of host cc per unit.
 */
std::vector<CaseSpec>
native_specs()
{
    const std::vector<std::string> keep = {
        "2DConv 3x3, 2x2", "2DConv 8x8, 3x3", "MatMul 2x2, 2x2",
        "MatMul 8x8, 8x8", "QProd 4, 3, 4, 3", "QRDecomp 3x3"};
    std::vector<CaseSpec> specs;
    for (const CaseSpec& s : table1_specs({4, 16})) {
        for (const std::string& k : keep) {
            if (s.label.rfind(k + " @", 0) == 0) {
                specs.push_back(s);
            }
        }
    }
    return specs;
}

}  // namespace

std::vector<CaseSpec>
workload_specs(const RunConfig& cfg)
{
    std::vector<CaseSpec> specs;
    if (cfg.workload == "compile_cold") {
        specs = table1_specs({2, 4, 8, 16});
    } else if (cfg.workload == "egraph_wall") {
        specs = wall_specs();
        if (cfg.smoke) {
            // The two cheapest: the phased 3x5 goal stop and the phased
            // 8x8 matmul.
            specs = {specs[2], specs[0]};
        }
    } else if (cfg.workload == "native_run") {
        specs = native_specs();
    } else if (cfg.workload == "daemon_mixed") {
        specs = table1_specs({2, 4, 8, 16}, /*width_preset=*/false);
    } else {
        throw std::invalid_argument("unknown workload '" + cfg.workload +
                                    "'");
    }
    if (cfg.smoke && specs.size() > 2) {
        specs.resize(2);
    }
    return specs;
}

float
max_rel_error(const scalar::BufferMap& got, const scalar::BufferMap& want)
{
    float worst = 0.0f;
    for (const auto& [name, w] : want) {
        const auto it = got.find(name);
        if (it == got.end() || it->second.size() != w.size()) {
            return std::numeric_limits<float>::infinity();
        }
        for (std::size_t i = 0; i < w.size(); ++i) {
            const float g = it->second[i];
            const float scale =
                std::max({1.0f, std::abs(w[i]), std::abs(g)});
            const float err = std::abs(g - w[i]) / scale;
            if (!(err <= worst)) {
                // A NaN output is the worst error there is.
                worst = std::isnan(err)
                            ? std::numeric_limits<float>::infinity()
                            : err;
            }
        }
    }
    return worst;
}

std::string
artifact_text(const Program& machine, const std::string& c_source, int width)
{
    return disassemble(machine, width) + c_source;
}

std::string
check_outputs(const CompileCase& c, const CompiledKernel& ck,
              std::uint64_t* cycles)
{
    const auto run = ck.run(c.inputs, c.options.target);
    if (cycles != nullptr) {
        *cycles = run.result.cycles;
    }
    const float err = max_rel_error(run.outputs, c.want);
    if (!(err <= kSimTolerance)) {
        return c.label + ": simulated outputs differ from the reference "
                         "(max rel error " +
               std::to_string(err) + ")";
    }
    return "";
}

std::vector<CompileCase>
build_cases(const std::vector<CaseSpec>& specs, std::uint64_t seed)
{
    std::vector<CompileCase> cases;
    cases.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const CaseSpec& s = specs[i];
        CompileCase c;
        c.label = s.label;
        c.text = kernel_text(s.kernel);
        c.kernel = scalar::parse_kernel(c.text);
        if (scalar::canonical_kernel_text(c.kernel) !=
            scalar::canonical_kernel_text(s.kernel)) {
            throw std::runtime_error(
                s.label + ": kernel text does not round-trip through "
                          "parse_kernel");
        }
        c.options = bench_options(s.width, s.width_preset);
        c.options.rules.full_ac = s.full_ac;
        if (s.phased) {
            c.options.strategy = strategy::builtin_phased();
        }
        c.inputs = kernels::make_inputs(
            s.kernel, seed * 0x9E3779B97F4A7C15ULL + i);
        c.want = scalar::run_reference(c.kernel, c.inputs);
        const scalar::BaselineRun base =
            scalar::run_baseline(c.kernel, c.inputs,
                                 scalar::LowerMode::kNaiveFixed,
                                 c.options.target);
        if (!(max_rel_error(base.outputs, c.want) <= kSimTolerance)) {
            throw std::runtime_error(s.label +
                                     ": naive fixed-size baseline "
                                     "disagrees with the reference");
        }
        c.naive_fixed_cycles = base.result.cycles;
        cases.push_back(std::move(c));
    }
    return cases;
}

std::vector<std::size_t>
shuffled_order(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    Rng rng(seed);
    for (std::size_t i = n; i > 1; --i) {
        const auto j = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
        std::swap(order[i - 1], order[j]);
    }
    return order;
}

}  // namespace diospyros::benchmark
