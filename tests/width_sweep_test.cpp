// Width-parametric integration sweep: the Table-1 corpus compiled at
// every supported preset width {2, 4, 8, 16}, checking per width that
//   (i) extraction is deterministic — two independent compiles produce
//       byte-identical machine code and constant pools;
//  (ii) the simulated compiled kernel agrees with the scalar reference
//       interpreter on concrete inputs;
// (iii) each width gets its own cache key, so a multi-width service can
//       never serve 4-wide code to a 16-wide client;
//  (iv) every saturation outcome matches the checked-in golden file
//       tests/golden/width_sweep.golden: the extracted term (as a stable
//       hash of its printed form), its cost, the e-graph's node and class
//       counts, the iteration count, the stop reason, and the summed
//       rule matches and applications. A change that alters what gets
//       matched, applied or extracted shows up here. One that only picks
//       which class survives a congruence merge inside a rebuild does
//       not: the rebuilt partition and the counts do not depend on it,
//       and flipping that merge direction leaves every line unchanged.
//       On a mismatch the computed lines are written next to the test
//       binary as width_sweep.golden.actual.
//   (v) the e-graph invariants hold after every iteration of real-rule
//       saturation on a few Table-1 kernels, in any build type (the
//       Runner checks them itself only when NDEBUG is off).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "compiler/driver.h"
#include "egraph/runner.h"
#include "kernels/kernels.h"
#include "machine/program.h"
#include "rules/rules.h"
#include "scalar/interp.h"
#include "scalar/symbolic.h"
#include "service/cache_key.h"
#include "support/hash.h"

namespace diospyros {
namespace {

CompilerOptions
sweep_options(int width)
{
    CompilerOptions options;
    options.target = TargetSpec::for_width(width);
    // Tight budgets keep 21 kernels x 4 widths x 2 compiles tractable;
    // integration_test runs the heavyweight proof phases at the default
    // width, so this sweep focuses on determinism and output agreement.
    options.limits = RunnerLimits{.node_limit = 60'000,
                                  .iter_limit = 6,
                                  .time_limit_seconds = 8.0};
    return options;
}

/**
 * One golden line: what saturation and extraction decided for a case.
 * Budget stops that depend on wall-clock time cannot be pinned, so a
 * case that hits one fails the test instead of recording a value.
 */
std::string
golden_line(const std::string& label, int width, const CompiledKernel& k)
{
    const CompileReport& r = k.report;
    EXPECT_NE(r.stop_reason, StopReason::kTimeLimit) << label;
    EXPECT_NE(r.stop_reason, StopReason::kDeadline) << label;
    char cost[64];
    std::snprintf(cost, sizeof cost, "%.17g", r.extracted_cost);
    std::string name = label;
    std::replace(name.begin(), name.end(), ' ', '_');
    std::ostringstream os;
    os << "w" << width << ' ' << name << " term="
       << hash_hex(stable_hash_string(Term::to_string(k.extracted)))
       << " cost=" << cost << " nodes=" << r.egraph_nodes
       << " classes=" << r.egraph_classes
       << " iters=" << r.runner_iterations
       << " stop=" << stop_reason_name(r.stop_reason);
    std::size_t matches = 0;
    std::size_t applications = 0;
    for (const RuleStats& s : r.rule_stats) {
        matches += s.matches;
        applications += s.applications;
    }
    os << " matches=" << matches << " applications=" << applications;
    return os.str();
}

/** Golden lines keyed by their first two fields (width and case). */
std::map<std::string, std::string>
read_golden()
{
    std::map<std::string, std::string> out;
    std::ifstream in(DIOS_SOURCE_DIR "/tests/golden/width_sweep.golden");
    EXPECT_TRUE(in.good()) << "missing tests/golden/width_sweep.golden";
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') {
            continue;
        }
        const std::size_t second = line.find(' ', line.find(' ') + 1);
        out.emplace(line.substr(0, second), line);
    }
    return out;
}

/**
 * Compares computed golden lines against the file and, on any mismatch,
 * appends them to width_sweep.golden.actual in the working directory.
 */
void
check_golden(const std::vector<std::string>& lines)
{
    static const std::map<std::string, std::string> golden = read_golden();
    bool all_match = true;
    for (const std::string& line : lines) {
        const std::size_t second = line.find(' ', line.find(' ') + 1);
        const auto it = golden.find(line.substr(0, second));
        if (it == golden.end()) {
            ADD_FAILURE() << "no golden line for: " << line;
            all_match = false;
        } else if (it->second != line) {
            ADD_FAILURE() << "golden mismatch\n  want: " << it->second
                          << "\n  got:  " << line;
            all_match = false;
        }
    }
    if (!all_match) {
        std::ofstream actual("width_sweep.golden.actual", std::ios::app);
        for (const std::string& line : lines) {
            actual << line << '\n';
        }
    }
}

class WidthSweep : public ::testing::TestWithParam<int> {};

TEST_P(WidthSweep, CorpusIsDeterministicAndAgreesWithReference)
{
    const int width = GetParam();
    const CompilerOptions options = sweep_options(width);
    std::vector<std::string> golden;
    for (const kernels::BenchmarkInstance& inst :
         kernels::table1_instances()) {
        SCOPED_TRACE(inst.label() + " @ width " + std::to_string(width));

        const CompiledKernel a = compile_kernel(inst.kernel, options);
        const CompiledKernel b = compile_kernel(inst.kernel, options);
        EXPECT_EQ(disassemble(a.machine, width),
                  disassemble(b.machine, width))
            << "extraction must be deterministic per width";
        EXPECT_EQ(a.layout.pool(), b.layout.pool());
        golden.push_back(golden_line(inst.label(), width, a));

        const scalar::BufferMap inputs =
            kernels::make_inputs(inst.kernel, 11);
        const auto run = a.run(inputs, options.target);
        const scalar::BufferMap want =
            scalar::run_reference(inst.kernel, inputs);
        for (const auto& [name, w] : want) {
            const auto it = run.outputs.find(name);
            ASSERT_NE(it, run.outputs.end()) << name;
            ASSERT_EQ(it->second.size(), w.size()) << name;
            for (std::size_t i = 0; i < w.size(); ++i) {
                const float g = it->second[i];
                const float scale =
                    std::max({1.0f, std::abs(w[i]), std::abs(g)});
                ASSERT_LE(std::abs(g - w[i]), 5e-3f * scale)
                    << name << "[" << i << "]";
            }
        }
    }
    check_golden(golden);
}

INSTANTIATE_TEST_SUITE_P(AllWidths, WidthSweep,
                         ::testing::Values(2, 4, 8, 16),
                         [](const ::testing::TestParamInfo<int>& info) {
                             return "w" + std::to_string(info.param);
                         });

TEST(WidthSweepExtra, FullAcPhasedCaseMatchesGolden)
{
    // The explosive full-AC rule set under the phased strategy: the
    // strategy path (phase limits, goal stop, backoff) on a graph far
    // larger than the curated rules build.
    CompilerOptions options = sweep_options(4);
    options.rules.full_ac = true;
    options.strategy = strategy::builtin_phased();
    const CompiledKernel k =
        compile_kernel(kernels::make_conv2d(3, 5, 3, 3), options);
    check_golden({golden_line("2DConv 3x5, 3x3 full-ac phased", 4, k)});
}

TEST(WidthSweepExtra, InvariantsHoldAfterEveryRealRuleIteration)
{
    // One iteration per Runner::run, invariants checked after each, then
    // the counts compared with one run of the same number of iterations
    // (no backoff, so the split changes nothing the runner decides).
    constexpr int kIters = 8;
    const std::vector<Rewrite> rules = build_rules(RuleConfig(4));
    for (const scalar::Kernel& kernel :
         {kernels::make_conv2d(8, 8, 3, 3), kernels::make_qrdecomp(3),
          kernels::make_qprod()}) {
        SCOPED_TRACE(kernel.name);
        const TermRef spec = pad_lifted_spec(scalar::lift(kernel), 4).first;
        EGraph stepped;
        stepped.add_term(spec);
        stepped.rebuild();
        const std::size_t start = stepped.num_nodes();
        const Runner one(RunnerLimits{.iter_limit = 1});
        for (int i = 0; i < kIters; ++i) {
            const RunnerReport r = one.run(stepped, rules);
            stepped.check_invariants();
            if (r.stop_reason == StopReason::kSaturated) {
                break;
            }
        }
        EGraph whole;
        whole.add_term(spec);
        whole.rebuild();
        Runner(RunnerLimits{.iter_limit = kIters}).run(whole, rules);
        EXPECT_GT(stepped.num_nodes(), start);
        EXPECT_EQ(stepped.num_nodes(), whole.num_nodes());
        EXPECT_EQ(stepped.num_classes(), whole.num_classes());
    }
}

TEST(WidthSweepExtra, WidthsGetDistinctCacheKeys)
{
    const scalar::Kernel kernel = kernels::make_qprod();
    std::set<std::string> keys;
    for (const int width : {2, 4, 8, 16}) {
        keys.insert(
            service::compute_cache_key(kernel, sweep_options(width))
                .hex());
    }
    EXPECT_EQ(keys.size(), 4u);
}

}  // namespace
}  // namespace diospyros
