// End-to-end compiler tests: every stage chained, compiled kernels
// executed on the simulator and compared against the scalar reference,
// cycle counts compared against the baselines, and translation validation
// run on the real pipeline output.

#include <gtest/gtest.h>

#include "compiler/driver.h"
#include "scalar/lower.h"
#include "support/rng.h"

namespace diospyros {
namespace {

using scalar::BufferMap;
using scalar::Kernel;
using scalar::KernelBuilder;

Kernel
vector_add_kernel(std::int64_t n)
{
    KernelBuilder kb("vadd" + std::to_string(n));
    const scalar::IntRef size = kb.param("n", n);
    kb.input("A", size);
    kb.input("B", size);
    kb.output("C", size);
    const scalar::IntRef i = KernelBuilder::var("i");
    kb.append(scalar::st_for("i", scalar::IntExpr::constant(0), size,
                             {scalar::st_store(
                                 "C", i,
                                 KernelBuilder::load("A", i) +
                                     KernelBuilder::load("B", i))}));
    return kb.build();
}

Kernel
matmul_kernel(std::int64_t n, std::int64_t m, std::int64_t p)
{
    KernelBuilder kb("matmul");
    const scalar::IntRef rn = kb.param("N", n);
    const scalar::IntRef rm = kb.param("M", m);
    const scalar::IntRef rp = kb.param("P", p);
    kb.input("A", rn * rm);
    kb.input("B", rm * rp);
    kb.output("C", rn * rp);
    const auto i = KernelBuilder::var("i");
    const auto j = KernelBuilder::var("j");
    const auto k = KernelBuilder::var("k");
    kb.append(scalar::st_for(
        "i", scalar::IntExpr::constant(0), rn,
        {scalar::st_for(
            "j", scalar::IntExpr::constant(0), rp,
            {scalar::st_for(
                "k", scalar::IntExpr::constant(0), rm,
                {scalar::st_accumulate(
                    "C", i * rp + j,
                    KernelBuilder::load("A", i * rm + k) *
                        KernelBuilder::load("B", k * rp + j))})})}));
    return kb.build();
}

BufferMap
random_inputs(const Kernel& kernel, std::uint64_t seed)
{
    Rng rng(seed);
    BufferMap out;
    for (const auto& decl :
         kernel.arrays_with_role(scalar::ArrayRole::kInput)) {
        std::vector<float> data(static_cast<std::size_t>(
            scalar::array_length(kernel, decl)));
        for (float& v : data) {
            v = rng.uniform_float(-2.0f, 2.0f);
        }
        out.emplace(decl.name.str(), std::move(data));
    }
    return out;
}

void
expect_outputs_match(const BufferMap& actual, const BufferMap& expected,
                     float tol = 1e-3f)
{
    ASSERT_EQ(actual.size(), expected.size());
    for (const auto& [name, want] : expected) {
        const auto& got = actual.at(name);
        ASSERT_EQ(got.size(), want.size()) << name;
        for (std::size_t i = 0; i < want.size(); ++i) {
            const float scale =
                std::max({1.0f, std::abs(want[i]), std::abs(got[i])});
            EXPECT_LE(std::abs(got[i] - want[i]), tol * scale)
                << name << "[" << i << "]";
        }
    }
}

CompilerOptions
test_options()
{
    CompilerOptions options;
    options.limits = RunnerLimits{.node_limit = 500'000,
                                  .iter_limit = 15,
                                  .time_limit_seconds = 30.0};
    options.validate = true;
    options.random_check = true;
    return options;
}

TEST(Compiler, VectorAddEndToEnd)
{
    const Kernel kernel = vector_add_kernel(8);
    const CompiledKernel compiled = compile_kernel(kernel, test_options());

    EXPECT_EQ(compiled.report.validation, Verdict::kEquivalent);
    EXPECT_TRUE(compiled.report.random_check_passed);

    const BufferMap inputs = random_inputs(kernel, 1);
    const auto run = compiled.run(inputs, TargetSpec::fusion_g3_like());
    expect_outputs_match(run.outputs,
                         scalar::run_reference(kernel, inputs));

    // Perfectly aligned kernel: two vector loads + add + store per chunk.
    EXPECT_EQ(run.result.count(Opcode::kVAdd), 2u);
    EXPECT_EQ(run.result.count(Opcode::kFAdd), 0u);
}

TEST(Compiler, VectorAddBeatsBaselines)
{
    const Kernel kernel = vector_add_kernel(8);
    const TargetSpec target = TargetSpec::fusion_g3_like();
    const CompiledKernel compiled = compile_kernel(kernel, test_options());
    const BufferMap inputs = random_inputs(kernel, 2);

    const auto dios = compiled.run(inputs, target);
    const auto naive = scalar::run_baseline(
        kernel, inputs, scalar::LowerMode::kNaiveParametric, target);
    const auto fixed = scalar::run_baseline(
        kernel, inputs, scalar::LowerMode::kNaiveFixed, target);

    EXPECT_LT(dios.result.cycles, fixed.result.cycles);
    EXPECT_LT(fixed.result.cycles, naive.result.cycles);
}

TEST(Compiler, MatMul2x2EndToEnd)
{
    const Kernel kernel = matmul_kernel(2, 2, 2);
    const CompiledKernel compiled = compile_kernel(kernel, test_options());
    EXPECT_EQ(compiled.report.validation, Verdict::kEquivalent);

    const BufferMap inputs = random_inputs(kernel, 3);
    const auto run = compiled.run(inputs, TargetSpec::fusion_g3_like());
    expect_outputs_match(run.outputs,
                         scalar::run_reference(kernel, inputs));

    // Vectorization must kick in for the 4-wide output.
    EXPECT_GE(run.result.count(Opcode::kVMac) +
                  run.result.count(Opcode::kVMul) +
                  run.result.count(Opcode::kVAdd),
              1u);
}

TEST(Compiler, MatMul3x3EndToEnd)
{
    const Kernel kernel = matmul_kernel(3, 3, 3);
    const CompiledKernel compiled = compile_kernel(kernel, test_options());
    EXPECT_EQ(compiled.report.validation, Verdict::kEquivalent);

    const BufferMap inputs = random_inputs(kernel, 4);
    const auto run = compiled.run(inputs, TargetSpec::fusion_g3_like());
    expect_outputs_match(run.outputs,
                         scalar::run_reference(kernel, inputs));

    const TargetSpec target = TargetSpec::fusion_g3_like();
    const auto fixed = scalar::run_baseline(
        kernel, inputs, scalar::LowerMode::kNaiveFixed, target);
    EXPECT_LT(run.result.cycles, fixed.result.cycles);
}

TEST(Compiler, UnalignedSizePadsOutputs)
{
    // n = 5: output pads to 8; the tail slots must not corrupt results.
    const Kernel kernel = vector_add_kernel(5);
    const CompiledKernel compiled = compile_kernel(kernel, test_options());
    EXPECT_EQ(compiled.report.validation, Verdict::kEquivalent);
    const BufferMap inputs = random_inputs(kernel, 5);
    const auto run = compiled.run(inputs, TargetSpec::fusion_g3_like());
    expect_outputs_match(run.outputs,
                         scalar::run_reference(kernel, inputs));
    EXPECT_EQ(run.outputs.at("C").size(), 5u);
}

TEST(Compiler, ScalarOnlyAblationStillCorrect)
{
    // §5.6: vector rules off — symbolic evaluation + scalar rules + LVN.
    const Kernel kernel = matmul_kernel(2, 2, 2);
    CompilerOptions options = test_options();
    options.rules.enable_vector_rules = false;
    const CompiledKernel compiled = compile_kernel(kernel, options);
    EXPECT_EQ(compiled.report.validation, Verdict::kEquivalent);

    const BufferMap inputs = random_inputs(kernel, 6);
    const auto run = compiled.run(inputs, TargetSpec::fusion_g3_like());
    expect_outputs_match(run.outputs,
                         scalar::run_reference(kernel, inputs));
    // No vector compute should appear.
    EXPECT_EQ(run.result.count(Opcode::kVMac), 0u);
    EXPECT_EQ(run.result.count(Opcode::kVAdd), 0u);
    EXPECT_EQ(run.result.count(Opcode::kVMul), 0u);
}

TEST(Compiler, VectorRulesBeatScalarOnly)
{
    const Kernel kernel = matmul_kernel(3, 3, 3);
    const BufferMap inputs = random_inputs(kernel, 7);
    const TargetSpec target = TargetSpec::fusion_g3_like();

    CompilerOptions scalar_only = test_options();
    scalar_only.validate = false;
    scalar_only.random_check = false;
    scalar_only.rules.enable_vector_rules = false;
    const auto no_vec =
        compile_kernel(kernel, scalar_only).run(inputs, target);

    CompilerOptions full = test_options();
    full.validate = false;
    full.random_check = false;
    const auto with_vec =
        compile_kernel(kernel, full).run(inputs, target);

    EXPECT_LT(with_vec.result.cycles, no_vec.result.cycles);
}

TEST(Compiler, NarrowTargetWorks)
{
    // Portability knob (paper §6): compile the same kernel at width 2.
    const Kernel kernel = vector_add_kernel(6);
    CompilerOptions options = test_options();
    options.target = TargetSpec::narrow_2wide();
    const CompiledKernel compiled = compile_kernel(kernel, options);
    EXPECT_EQ(compiled.report.validation, Verdict::kEquivalent);
    const BufferMap inputs = random_inputs(kernel, 8);
    const auto run = compiled.run(inputs, TargetSpec::narrow_2wide());
    expect_outputs_match(run.outputs,
                         scalar::run_reference(kernel, inputs));
}

TEST(Compiler, ReportIsPopulated)
{
    const CompiledKernel compiled =
        compile_kernel(vector_add_kernel(8), test_options());
    const CompileReport& r = compiled.report;
    EXPECT_GT(r.total_seconds, 0.0);
    EXPECT_GT(r.egraph_nodes, 0u);
    EXPECT_GT(r.egraph_classes, 0u);
    EXPECT_GT(r.extracted_cost, 0.0);
    EXPECT_EQ(r.spec_elements, 8u);
    EXPECT_GT(r.memory_proxy_bytes, 0u);
    EXPECT_FALSE(compiled.c_source.empty());
    const std::string row = report_row("vadd8", r);
    EXPECT_NE(row.find("vadd8"), std::string::npos);
    EXPECT_NE(row.find("stop="), std::string::npos);
}

TEST(Compiler, SaturateRebuildsTheCompiledEGraph)
{
    // `dioscc --emit-dot` re-saturates through saturate(); the graph it
    // dumps must be the one the compile built, strategy included. Under
    // a two-iteration budget the monolithic runner stops at a smaller
    // graph than the phased strategy, which spends the budget per phase.
    CompilerOptions options = test_options();
    options.limits.iter_limit = 2;
    options.strategy = *strategy::builtin_strategy("phased");
    options.sync();
    const CompiledKernel compiled =
        compile_kernel(matmul_kernel(2, 2, 2), options);
    EGraph graph;
    const ClassId root = graph.add_term(compiled.padded_spec);
    graph.rebuild();
    CompileReport report;
    saturate(graph, root, options, Deadline::unlimited(), report);
    EXPECT_EQ(graph.num_nodes(), compiled.report.egraph_nodes);
    EXPECT_EQ(report.strategy_name, "phased");
    EXPECT_EQ(report.stop_reason, compiled.report.stop_reason);
    EXPECT_EQ(report.runner_iterations, compiled.report.runner_iterations);
}

TEST(Compiler, CSourceLooksLikeIntrinsics)
{
    const CompiledKernel compiled =
        compile_kernel(vector_add_kernel(8), test_options());
    EXPECT_NE(compiled.c_source.find("PDX_"), std::string::npos);
    EXPECT_NE(compiled.c_source.find("void vadd8("), std::string::npos);
}

TEST(Compiler, RandomKernelsCompileCorrectly)
{
    // Property: random accumulation kernels (conv-like index patterns)
    // compile to code that matches the reference bit-for-bit-tolerance.
    Rng rng(11);
    for (int trial = 0; trial < 5; ++trial) {
        const std::int64_t n = rng.uniform_int(3, 6);
        const std::int64_t taps = rng.uniform_int(2, 3);
        KernelBuilder kb("rand" + std::to_string(trial));
        const auto rn = kb.param("n", n);
        const auto rt = kb.param("t", taps);
        kb.input("x", rn + rt);
        kb.input("h", rt);
        kb.output("y", rn);
        const auto i = KernelBuilder::var("i");
        const auto j = KernelBuilder::var("j");
        kb.append(scalar::st_for(
            "i", scalar::IntExpr::constant(0), rn,
            {scalar::st_for(
                "j", scalar::IntExpr::constant(0), rt,
                {scalar::st_accumulate(
                    "y", i,
                    KernelBuilder::load("x", i + j) *
                        KernelBuilder::load("h", j))})}));
        const Kernel kernel = kb.build();

        CompilerOptions options = test_options();
        const CompiledKernel compiled = compile_kernel(kernel, options);
        EXPECT_EQ(compiled.report.validation, Verdict::kEquivalent)
            << "trial " << trial;

        const BufferMap inputs =
            random_inputs(kernel, static_cast<std::uint64_t>(trial) + 90);
        const auto run =
            compiled.run(inputs, TargetSpec::fusion_g3_like());
        expect_outputs_match(run.outputs,
                             scalar::run_reference(kernel, inputs));
    }
}

TEST(Compiler, RejectsKernelWithoutOutputs)
{
    KernelBuilder kb("no-out");
    kb.input("a", scalar::IntExpr::constant(4));
    kb.append(scalar::st_store("a", scalar::IntExpr::constant(0),
                               scalar::f_const(1)));
    // Inputs are read-only in spirit, but the lift stage is what rejects
    // a kernel with no output arrays.
    Kernel k = kb.build();
    k.arrays[0].role = scalar::ArrayRole::kScratch;
    EXPECT_THROW(compile_kernel(k, test_options()), UserError);
}

TEST(Compiler, RejectsUnsupportedVectorWidth)
{
    CompilerOptions options = test_options();
    options.target.vector_width = 32;  // > kMaxVectorWidth
    EXPECT_THROW(compile_kernel(vector_add_kernel(8), options), UserError);
    options.target.vector_width = 3;  // not a power of two
    EXPECT_THROW(compile_kernel(vector_add_kernel(8), options), UserError);
}

TEST(Compiler, ZeroIterationBudgetStillProducesCorrectCode)
{
    // An empty saturation budget degenerates to the lifted spec compiled
    // through LVN — still correct, just scalar.
    CompilerOptions options = test_options();
    options.limits.iter_limit = 0;
    const Kernel kernel = vector_add_kernel(4);
    const CompiledKernel compiled = compile_kernel(kernel, options);
    EXPECT_EQ(compiled.report.validation, Verdict::kEquivalent);
    const BufferMap inputs = random_inputs(kernel, 9);
    const auto run = compiled.run(inputs, TargetSpec::fusion_g3_like());
    expect_outputs_match(run.outputs,
                         scalar::run_reference(kernel, inputs));
}

TEST(Compiler, BackoffConfigurationStaysSound)
{
    CompilerOptions options = test_options();
    options.limits.backoff_threshold = 8;
    const Kernel kernel = matmul_kernel(2, 2, 2);
    const CompiledKernel compiled = compile_kernel(kernel, options);
    EXPECT_EQ(compiled.report.validation, Verdict::kEquivalent);
    const BufferMap inputs = random_inputs(kernel, 10);
    const auto run = compiled.run(inputs, TargetSpec::fusion_g3_like());
    expect_outputs_match(run.outputs,
                         scalar::run_reference(kernel, inputs));
}

}  // namespace
}  // namespace diospyros
