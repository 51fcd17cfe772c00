// Machine-program verifier + symbolic machine-level translation
// validation (analysis/verify_machine.h): the M-code matrix (one
// deliberately mutated program per diagnostic), the scheduler-bug and
// emit-bug acceptance scenarios from DESIGN.md §5i — each injected
// miscompile must slip past every pre-existing gate and be caught by
// exactly this layer — and a fuzzed differential proving scheduled and
// unscheduled programs simulate byte-identically.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>

#include "analysis/verify_machine.h"
#include "analysis/verify_vir.h"
#include "compiler/driver.h"
#include "kernels/kernels.h"
#include "machine/schedule.h"
#include "machine/sim.h"
#include "support/error.h"
#include "support/rng.h"

namespace diospyros {
namespace {

using analysis::DiagEngine;

TargetSpec
width4()
{
    TargetSpec t = TargetSpec::fusion_g3_like();
    t.vector_width = 4;
    return t;
}

/** Runs the structural verifier and returns its diagnostics. */
DiagEngine
verify(const Program& p, const TargetSpec& t,
       const vir::CompiledLayout* layout = nullptr)
{
    DiagEngine diags;
    analysis::verify_machine_program(p, t, diags, layout);
    return diags;
}

// --- Known-good programs pass cleanly -----------------------------------------

TEST(VerifyMachine, StraightLineProgramPasses)
{
    ProgramBuilder pb;
    const int a = pb.fresh_vec();
    const int b = pb.fresh_vec();
    const int c = pb.fresh_vec();
    const int f = pb.fresh_float();
    pb.vsplat(a, 1.5f);
    pb.vsplat(b, 2.5f);
    pb.vbinop(Opcode::kVAdd, c, a, b);
    pb.shuf(c, c, {3, 2, 1, 0});
    pb.vextract(f, c, 0);
    pb.halt();
    const Program p = pb.finish();

    const DiagEngine diags = verify(p, width4());
    EXPECT_FALSE(diags.has_errors()) << diags.render_text();
}

TEST(VerifyMachine, BranchingProgramWithDefsOnAllPathsPasses)
{
    // f0 is defined on both sides of the diamond, so the meet still
    // guarantees it at the join: no M001.
    ProgramBuilder pb;
    const int i0 = pb.fresh_int();
    const int i1 = pb.fresh_int();
    const int f0 = pb.fresh_float();
    const int f1 = pb.fresh_float();
    auto els = pb.new_label();
    auto join = pb.new_label();
    pb.mov_i(i0, 0);
    pb.mov_i(i1, 1);
    pb.branch_lt(i0, i1, els);
    pb.fmov_i(f0, 1.0f);
    pb.jump(join);
    pb.bind(els);
    pb.fmov_i(f0, 2.0f);
    pb.bind(join);
    pb.fbinop(Opcode::kFAdd, f1, f0, f0);
    pb.halt();
    const Program p = pb.finish();

    const DiagEngine diags = verify(p, width4());
    EXPECT_FALSE(diags.has_errors()) << diags.render_text();
}

// --- M001: read before guaranteed definition -----------------------------------

TEST(VerifyMachine, M001ReadOfNeverWrittenRegister)
{
    ProgramBuilder pb;
    const int a = pb.fresh_float();
    const int b = pb.fresh_float();
    const int d = pb.fresh_float();
    pb.fbinop(Opcode::kFMul, d, a, b);  // f0, f1 never defined
    pb.halt();
    const DiagEngine diags = verify(pb.finish(), width4());
    EXPECT_TRUE(diags.has_code("M001")) << diags.render_text();
}

TEST(VerifyMachine, M001DefinitionMissingOnOnePath)
{
    // The definition of f0 sits on the fall-through path only; the taken
    // branch reaches the use with f0 unassigned. Must-analysis (meet =
    // intersection) has to catch this even though *a* path defines it.
    ProgramBuilder pb;
    const int i0 = pb.fresh_int();
    const int i1 = pb.fresh_int();
    const int f0 = pb.fresh_float();
    const int f1 = pb.fresh_float();
    auto skip = pb.new_label();
    pb.mov_i(i0, 0);
    pb.mov_i(i1, 1);
    pb.branch_lt(i0, i1, skip);
    pb.fmov_i(f0, 1.0f);
    pb.bind(skip);
    pb.fbinop(Opcode::kFAdd, f1, f0, f0);
    pb.halt();
    const DiagEngine diags = verify(pb.finish(), width4());
    EXPECT_TRUE(diags.has_code("M001")) << diags.render_text();
}

TEST(VerifyMachine, M001AccumulatorReadsItsDestination)
{
    // vmac reads its destination (acc += a * b): an uninitialized
    // accumulator is a read-before-def even though dst "looks like" a
    // pure definition.
    ProgramBuilder pb;
    const int a = pb.fresh_vec();
    const int b = pb.fresh_vec();
    const int acc = pb.fresh_vec();
    pb.vsplat(a, 1.0f);
    pb.vsplat(b, 2.0f);
    pb.vmac(acc, a, b);  // acc never initialized
    pb.halt();
    const DiagEngine diags = verify(pb.finish(), width4());
    EXPECT_TRUE(diags.has_code("M001")) << diags.render_text();
}

// --- M002: register outside the declared file ----------------------------------

TEST(VerifyMachine, M002RegisterBeyondDeclaredFile)
{
    ProgramBuilder pb;
    const int f = pb.fresh_float();
    pb.fmov_i(f, 1.0f);
    pb.halt();
    Program p = pb.finish();
    p.num_float_regs = 0;  // the program claims an empty float file
    const DiagEngine diags = verify(p, width4());
    EXPECT_TRUE(diags.has_code("M002")) << diags.render_text();
}

// --- M003: opcode/operand disagreement ------------------------------------------

TEST(VerifyMachine, M003RequiredOperandMissing)
{
    ProgramBuilder pb;
    const int f = pb.fresh_float();
    pb.fmov_i(f, 1.0f);
    pb.fbinop(Opcode::kFAdd, f, f, f);
    pb.halt();
    Program p = pb.finish();
    p.code[1].b = -1;  // fadd with no second source
    const DiagEngine diags = verify(p, width4());
    EXPECT_TRUE(diags.has_code("M003")) << diags.render_text();
}

TEST(VerifyMachine, M003StrayOperandOnHalt)
{
    ProgramBuilder pb;
    pb.halt();
    Program p = pb.finish();
    p.code[0].dst = 0;  // halt writes nothing
    p.num_int_regs = 1;
    const DiagEngine diags = verify(p, width4());
    EXPECT_TRUE(diags.has_code("M003")) << diags.render_text();
}

// --- M004: lane out of bounds -----------------------------------------------------

TEST(VerifyMachine, M004ShuffleLaneOutOfBounds)
{
    ProgramBuilder pb;
    const int v = pb.fresh_vec();
    pb.vsplat(v, 1.0f);
    pb.shuf(v, v, {0, 1, 2, 3});
    pb.halt();
    Program p = pb.finish();
    p.code[1].lanes[0] = 4;  // width is 4; valid shuf lanes are [0, 4)
    const DiagEngine diags = verify(p, width4());
    EXPECT_TRUE(diags.has_code("M004")) << diags.render_text();
}

TEST(VerifyMachine, M004SelectLaneBeyondConcat)
{
    // sel indexes the 2x-width concatenation, so 7 is legal and 8 is not.
    ProgramBuilder pb;
    const int a = pb.fresh_vec();
    const int b = pb.fresh_vec();
    const int d = pb.fresh_vec();
    pb.vsplat(a, 1.0f);
    pb.vsplat(b, 2.0f);
    pb.sel(d, a, b, {0, 7, 1, 6});
    pb.halt();
    Program p = pb.finish();
    EXPECT_FALSE(verify(p, width4()).has_errors());
    p.code[2].lanes[1] = 8;
    const DiagEngine diags = verify(p, width4());
    EXPECT_TRUE(diags.has_code("M004")) << diags.render_text();
}

// --- M005: branch target out of range ---------------------------------------------

TEST(VerifyMachine, M005DanglingJumpTarget)
{
    ProgramBuilder pb;
    pb.halt();
    Program p = pb.finish();
    Instr jump;
    jump.op = Opcode::kJump;
    jump.imm = 99;
    p.code.insert(p.code.begin(), jump);
    const DiagEngine diags = verify(p, width4());
    EXPECT_TRUE(diags.has_code("M005")) << diags.render_text();
}

// --- M006: halt not guaranteed ------------------------------------------------------

TEST(VerifyMachine, M006ExecutionFallsOffTheEnd)
{
    ProgramBuilder pb;
    const int v = pb.fresh_vec();
    pb.vsplat(v, 1.0f);  // no halt
    const DiagEngine diags = verify(pb.finish(), width4());
    EXPECT_TRUE(diags.has_code("M006")) << diags.render_text();
}

TEST(VerifyMachine, M006InfiniteLoopNeverReachesHalt)
{
    ProgramBuilder pb;
    auto top = pb.new_label();
    pb.bind(top);
    pb.jump(top);
    pb.halt();  // unreachable from the loop
    const DiagEngine diags = verify(pb.finish(), width4());
    EXPECT_TRUE(diags.has_code("M006")) << diags.render_text();
}

// --- M007: memory access outside every segment ---------------------------------------

TEST(VerifyMachine, M007StoreBeyondEveryArrayExtent)
{
    const CompilerOptions options = []() {
        CompilerOptions o;
        o.target = width4();
        return o;
    }();
    const CompiledKernel compiled =
        compile_kernel(kernels::make_matmul(2, 2, 2), options);
    EXPECT_FALSE(
        verify(compiled.machine, options.target, &compiled.layout)
            .has_errors());

    Program p = compiled.machine;
    bool mutated = false;
    for (auto& instr : p.code) {
        if ((instr.op == Opcode::kVStore || instr.op == Opcode::kFStore) &&
            instr.a < 0) {
            instr.imm = 1'000'000;
            mutated = true;
            break;
        }
    }
    ASSERT_TRUE(mutated) << "no absolute store found in matmul machine code";
    const DiagEngine diags = verify(p, options.target, &compiled.layout);
    EXPECT_TRUE(diags.has_code("M007")) << diags.render_text();
}

// --- M008: scheduler preservation ------------------------------------------------------

/** before: f0=1; f1=f0*f0; f0=3 (WAR with the read); f2=f0+f1; halt */
Program
war_pair_program()
{
    ProgramBuilder pb;
    const int f0 = pb.fresh_float();
    const int f1 = pb.fresh_float();
    const int f2 = pb.fresh_float();
    pb.fmov_i(f0, 1.0f);
    pb.fbinop(Opcode::kFMul, f1, f0, f0);
    pb.fmov_i(f0, 3.0f);
    pb.fbinop(Opcode::kFAdd, f2, f0, f1);
    pb.halt();
    return pb.finish();
}

TEST(VerifyMachine, M008WarViolatingSwapIsCaught)
{
    // A "scheduler" that swaps instructions 1 and 2 violates the
    // write-after-read dependence on f0: the multiply now sees 3.0, not
    // 1.0. Crucially the swapped program is structurally impeccable —
    // every register is defined before use, all operands agree with
    // their opcodes — so M001-M007 all pass and only the independent
    // dependence-graph replay (M008) can catch it.
    const Program before = war_pair_program();
    Program after = before;
    std::swap(after.code[1], after.code[2]);
    EXPECT_FALSE(verify(after, width4()).has_errors());

    ScheduleStats stats;
    stats.applied = true;
    stats.moved = 2;
    stats.order = {0, 2, 1, 3};

    DiagEngine diags;
    EXPECT_FALSE(analysis::check_schedule_preservation(
        before, after, stats, width4(), diags));
    EXPECT_TRUE(diags.has_code("M008")) << diags.render_text();

    // The injected bug is a real miscompile: the two programs disagree
    // when simulated.
    const TargetSpec t = width4();
    Memory m1(16), m2(16);
    Simulator sim(t);
    Program b2 = before, a2 = after;
    b2.code.insert(b2.code.end() - 1,
                   Instr{Opcode::kFStore, -1, -1, 2, 0, 0.0f, {}});
    a2.code.insert(a2.code.end() - 1,
                   Instr{Opcode::kFStore, -1, -1, 2, 0, 0.0f, {}});
    sim.run(b2, m1);
    sim.run(a2, m2);
    EXPECT_NE(m1.at(0), m2.at(0));
}

TEST(VerifyMachine, M008RawViolatingSwapIsCaught)
{
    // f0=1; f1=f0+f0 swapped so the add reads f0 before it is written:
    // a read-after-write dependence broken by the reorder.
    ProgramBuilder pb;
    const int f0 = pb.fresh_float();
    const int f1 = pb.fresh_float();
    pb.fmov_i(f0, 1.0f);
    pb.fbinop(Opcode::kFAdd, f1, f0, f0);
    pb.halt();
    const Program before = pb.finish();
    Program after = before;
    std::swap(after.code[0], after.code[1]);
    ScheduleStats stats;
    stats.applied = true;
    stats.order = {1, 0};

    DiagEngine diags;
    EXPECT_FALSE(analysis::check_schedule_preservation(
        before, after, stats, width4(), diags));
    EXPECT_TRUE(diags.has_code("M008")) << diags.render_text();
}

TEST(VerifyMachine, M008TamperedInstructionUnderIdentityOrder)
{
    const Program before = war_pair_program();
    Program after = before;
    after.code[0].fimm = 99.0f;  // not a permutation: contents differ
    ScheduleStats stats;
    stats.applied = true;
    stats.order = {0, 1, 2, 3};
    DiagEngine diags;
    EXPECT_FALSE(analysis::check_schedule_preservation(
        before, after, stats, width4(), diags));
    EXPECT_TRUE(diags.has_code("M008")) << diags.render_text();
}

TEST(VerifyMachine, M008OrderMustBeABijection)
{
    const Program before = war_pair_program();
    ScheduleStats stats;
    stats.applied = true;
    stats.order = {0, 0, 2, 3};
    DiagEngine diags;
    EXPECT_FALSE(analysis::check_schedule_preservation(
        before, before, stats, width4(), diags));
    EXPECT_TRUE(diags.has_code("M008")) << diags.render_text();
}

TEST(VerifyMachine, EmptyOrderRequiresIdenticalPrograms)
{
    const Program before = war_pair_program();
    ScheduleStats stats;  // applied=false, order empty
    DiagEngine ok;
    EXPECT_TRUE(analysis::check_schedule_preservation(
        before, before, stats, width4(), ok));

    Program after = before;
    after.code[0].fimm = 2.0f;
    DiagEngine bad;
    EXPECT_FALSE(analysis::check_schedule_preservation(
        before, after, stats, width4(), bad));
    EXPECT_TRUE(bad.has_code("M008")) << bad.render_text();
}

TEST(VerifyMachine, RealSchedulerOutputIsProvedPreserving)
{
    const CompilerOptions options = []() {
        CompilerOptions o;
        o.target = width4();
        return o;
    }();
    const CompiledKernel compiled =
        compile_kernel(kernels::make_conv2d(3, 3, 2, 2), options);
    ScheduleStats stats;
    const Program rescheduled =
        schedule_program(compiled.machine, options.target, &stats);
    DiagEngine diags;
    EXPECT_TRUE(analysis::check_schedule_preservation(
        compiled.machine, rescheduled, stats, options.target, diags))
        << diags.render_text();
}

// --- Emit-bug acceptance: symbolic validation + witness ---------------------------------

TEST(VerifyMachine, WrongShuffleLaneYieldsNotEquivalentWithWitness)
{
    // The scenario the whole subsystem exists for: an emit bug that
    // produces structurally flawless machine code computing the wrong
    // function. We compile a conv2d, check every pre-existing gate is
    // green, then flip one in-bounds shuffle/select lane and show that
    // (a) the structural verifier still passes, (b) term-level
    // validation still passes (it never sees machine code), and (c) the
    // machine-level symbolic validator alone reports kNotEquivalent,
    // with a concrete minimized counterexample attached.
    CompilerOptions options;
    options.target = width4();
    options.validate = true;
    options.random_check = true;
    const scalar::Kernel kernel = kernels::make_conv2d(3, 3, 2, 2);
    const CompiledKernel compiled = compile_kernel(kernel, options);

    // Baseline: every gate green, including the new one.
    ASSERT_EQ(compiled.report.validation, Verdict::kEquivalent);
    ASSERT_TRUE(compiled.report.random_check_passed);
    ASSERT_TRUE(compiled.report.machine_validated);
    ASSERT_EQ(compiled.report.machine_validation, Verdict::kEquivalent)
        << compiled.report.machine_witness;

    const auto [padded_spec, slots] =
        pad_lifted_spec(compiled.spec, options.target.vector_width);

    // Try single-lane perturbations until one provably changes the
    // function (some lanes read padding zeros and are semantically
    // inert; the validator must stay silent on those).
    const int width = options.target.vector_width;
    bool caught = false;
    for (std::size_t i = 0; i < compiled.machine.code.size() && !caught;
         ++i) {
        const Opcode op = compiled.machine.code[i].op;
        if (op != Opcode::kShuf && op != Opcode::kSel) continue;
        const int limit = (op == Opcode::kSel) ? 2 * width : width;
        for (int lane = 0; lane < width && !caught; ++lane) {
            Program mutant = compiled.machine;
            auto& lanes = mutant.code[i].lanes;
            lanes[lane] =
                static_cast<std::int16_t>((lanes[lane] + 1) % limit);
            if (mutant.code[i].lanes == compiled.machine.code[i].lanes)
                continue;

            // (a) structurally flawless.
            ASSERT_FALSE(
                verify(mutant, options.target, &compiled.layout)
                    .has_errors());

            const analysis::MachineValidation v =
                analysis::validate_machine_translation(
                    padded_spec, slots, mutant, compiled.layout,
                    options.target);
            if (v.verdict != Verdict::kNotEquivalent) continue;

            // (c) caught, with an engaged concrete witness.
            ASSERT_TRUE(v.witness.has_value());
            EXPECT_FALSE(v.witness->output_array.empty());
            EXPECT_NE(v.witness->spec_value, v.witness->machine_value);
            const std::string rendered = v.witness->to_string();
            EXPECT_NE(rendered.find("spec="), std::string::npos) << rendered;
            EXPECT_NE(rendered.find("machine="), std::string::npos)
                << rendered;

            // The witness is honest: running the mutant on the claimed
            // inputs reproduces the divergence against the scalar
            // reference.
            scalar::BufferMap inputs;
            for (const auto& [name, values] : v.witness->inputs) {
                std::vector<float> f(values.begin(), values.end());
                inputs[name] = std::move(f);
            }
            Memory memory = compiled.layout.make_memory(inputs);
            Simulator sim(options.target);
            sim.run(mutant, memory);
            const scalar::BufferMap got =
                compiled.layout.read_outputs(memory);
            const scalar::BufferMap want =
                scalar::run_reference(kernel, inputs);
            const float machine_got =
                got.at(v.witness->output_array)
                    .at(static_cast<std::size_t>(v.witness->output_index));
            const float spec_want =
                want.at(v.witness->output_array)
                    .at(static_cast<std::size_t>(v.witness->output_index));
            EXPECT_NEAR(machine_got,
                        static_cast<float>(v.witness->machine_value),
                        1e-4f * std::max(1.0f, std::abs(machine_got)));
            EXPECT_NEAR(spec_want,
                        static_cast<float>(v.witness->spec_value),
                        1e-4f * std::max(1.0f, std::abs(spec_want)));
            caught = true;
        }
    }
    EXPECT_TRUE(caught)
        << "no lane perturbation was provably caught as kNotEquivalent";
}

TEST(VerifyMachine, LaneOperationsOfQRDecompAreProvedEquivalent)
{
    // QRDecomp 3x3 at width 4 runs the scalar and the vector form of
    // sub, div, sqrt and sgn, besides add, mul, neg and mac: the
    // symbolic machine must prove every lane operation it executes.
    CompilerOptions options;
    options.target = width4();
    const CompiledKernel compiled =
        compile_kernel(kernels::make_qrdecomp(3), options);
    std::set<Opcode> ops;
    for (const Instr& i : compiled.machine.code) {
        ops.insert(i.op);
    }
    for (const Opcode op :
         {Opcode::kFSub, Opcode::kVSub, Opcode::kFDiv, Opcode::kVDiv,
          Opcode::kFSqrt, Opcode::kVSqrt, Opcode::kFSgn, Opcode::kVSgn,
          Opcode::kFNeg, Opcode::kVNeg, Opcode::kVMac}) {
        EXPECT_TRUE(ops.count(op)) << opcode_name(op);
    }
    const auto [padded_spec, slots] =
        pad_lifted_spec(compiled.spec, options.target.vector_width);
    const analysis::MachineValidation v =
        analysis::validate_machine_translation(padded_spec, slots,
                                               compiled.machine,
                                               compiled.layout,
                                               options.target);
    EXPECT_EQ(v.verdict, Verdict::kEquivalent) << v.detail;
}

TEST(VerifyMachine, ControlFlowDegradesToUnknownNotWrong)
{
    CompilerOptions options;
    options.target = width4();
    const CompiledKernel compiled =
        compile_kernel(kernels::make_matmul(2, 2, 2), options);
    const auto [padded_spec, slots] =
        pad_lifted_spec(compiled.spec, options.target.vector_width);

    // A jump to the next instruction changes nothing semantically, but
    // the symbolic executor only handles straight-line code: the honest
    // answer is kUnknown with a reason, never kNotEquivalent.
    Program mutant = compiled.machine;
    Instr jump;
    jump.op = Opcode::kJump;
    jump.imm = 1;
    mutant.code.insert(mutant.code.begin(), jump);
    // Fix up absolute branch targets? None exist besides ours; the
    // verifier itself must still accept the shifted program.
    const analysis::MachineValidation v =
        analysis::validate_machine_translation(padded_spec, slots, mutant,
                                               compiled.layout,
                                               options.target);
    EXPECT_EQ(v.verdict, Verdict::kUnknown);
    EXPECT_FALSE(v.detail.empty());
}

// --- ProgramBuilder::finish() rejects bad label plumbing --------------------------------

TEST(ProgramBuilderFinish, RejectsJumpToForeignLabel)
{
    // A default-constructed Label was never created by this builder;
    // finish() used to silently emit a branch to instruction -1.
    ProgramBuilder pb;
    pb.jump(ProgramBuilder::Label{});
    pb.halt();
    EXPECT_THROW(pb.finish(), InternalError);
}

TEST(ProgramBuilderFinish, RejectsUnboundLabel)
{
    ProgramBuilder pb;
    auto label = pb.new_label();  // never bound
    pb.jump(label);
    pb.halt();
    EXPECT_THROW(pb.finish(), InternalError);
}

TEST(ProgramBuilderFinish, BoundLabelsStillResolve)
{
    ProgramBuilder pb;
    auto label = pb.new_label();
    pb.jump(label);
    pb.bind(label);
    pb.halt();
    const Program p = pb.finish();
    ASSERT_EQ(p.code.size(), 2u);
    EXPECT_EQ(p.code[0].imm, 1);
}

// --- Fuzzed differential: schedule preserves simulation byte-for-byte --------------------

TEST(VerifyMachine, FuzzedScheduleDifferential)
{
    // Random straight-line programs over floats, vectors, and absolute
    // memory: the list scheduler's output must simulate byte-identically
    // to the original, and the independent preservation checker must
    // agree with the claimed permutation every time.
    const TargetSpec target = width4();
    const int width = target.vector_width;
    constexpr int kWords = 64;
    constexpr int kPrograms = 40;
    Rng rng(0xD105'C0DE'0000'0001ULL);

    for (int trial = 0; trial < kPrograms; ++trial) {
        ProgramBuilder pb;
        std::vector<int> fregs, vregs;
        for (int i = 0; i < 4; ++i) {
            fregs.push_back(pb.fresh_float());
            vregs.push_back(pb.fresh_vec());
        }
        for (const int f : fregs)
            pb.fmov_i(f, rng.uniform_float(-2.0f, 2.0f));
        for (const int v : vregs)
            pb.vload(v, -1,
                     static_cast<int>(rng.uniform_int(0, kWords - width)));

        const int ops = static_cast<int>(rng.uniform_int(8, 24));
        for (int i = 0; i < ops; ++i) {
            const int pick = static_cast<int>(rng.uniform_int(0, 9));
            const int fa = fregs[rng.uniform_int(0, 3)];
            const int fb = fregs[rng.uniform_int(0, 3)];
            const int fd = fregs[rng.uniform_int(0, 3)];
            const int va = vregs[rng.uniform_int(0, 3)];
            const int vb = vregs[rng.uniform_int(0, 3)];
            const int vd = vregs[rng.uniform_int(0, 3)];
            switch (pick) {
                case 0:
                    pb.fbinop(Opcode::kFAdd, fd, fa, fb);
                    break;
                case 1:
                    pb.fbinop(Opcode::kFMul, fd, fa, fb);
                    break;
                case 2:
                    pb.fmac(fd, fa, fb);
                    break;
                case 3:
                    pb.vbinop(Opcode::kVAdd, vd, va, vb);
                    break;
                case 4:
                    pb.vmac(vd, va, vb);
                    break;
                case 5: {
                    std::vector<int> lanes;
                    for (int l = 0; l < width; ++l)
                        lanes.push_back(
                            static_cast<int>(rng.uniform_int(0, width - 1)));
                    pb.shuf(vd, va, lanes);
                    break;
                }
                case 6:
                    pb.vsplat_r(vd, fa);
                    break;
                case 7:
                    pb.vextract(
                        fd, va,
                        static_cast<int>(rng.uniform_int(0, width - 1)));
                    break;
                case 8:
                    pb.fstore(
                        -1,
                        static_cast<int>(rng.uniform_int(0, kWords - 1)),
                        fa);
                    break;
                default:
                    pb.vstore(
                        -1,
                        static_cast<int>(rng.uniform_int(0, kWords - width)),
                        va);
                    break;
            }
        }
        pb.halt();
        const Program original = pb.finish();

        const DiagEngine structural = verify(original, target);
        ASSERT_FALSE(structural.has_errors())
            << "trial " << trial << "\n"
            << structural.render_text() << disassemble(original, width);

        ScheduleStats stats;
        const Program scheduled =
            schedule_program(original, target, &stats);
        DiagEngine diags;
        ASSERT_TRUE(analysis::check_schedule_preservation(
            original, scheduled, stats, target, diags))
            << "trial " << trial << "\n"
            << diags.render_text();

        std::vector<float> image(kWords);
        for (auto& w : image) w = rng.uniform_float(-4.0f, 4.0f);
        Memory m1(kWords), m2(kWords);
        for (int w = 0; w < kWords; ++w) {
            m1.at(w) = image[w];
            m2.at(w) = image[w];
        }
        Simulator sim(target);
        sim.run(original, m1);
        sim.run(scheduled, m2);
        for (int w = 0; w < kWords; ++w) {
            // Bitwise: scheduling may not perturb results even by an ulp.
            std::uint32_t b1, b2;
            std::memcpy(&b1, &m1.at(w), sizeof(b1));
            std::memcpy(&b2, &m2.at(w), sizeof(b2));
            ASSERT_EQ(b1, b2)
                << "trial " << trial << " word " << w << ": "
                << m1.at(w) << " vs " << m2.at(w);
        }
    }
}

// --- VIR gate does not subsume the machine gate ------------------------------------------

TEST(VerifyMachine, VirVerifierMissesMachineLevelBugs)
{
    // Sanity for the DESIGN.md claim that the chain has a gap without
    // this layer: mutate the *machine* program of a compiled kernel and
    // confirm the VIR verifier (which only sees the vector IR) still
    // reports a clean bill of health.
    CompilerOptions options;
    options.target = width4();
    const scalar::Kernel kernel = kernels::make_matmul(2, 2, 2);
    const CompiledKernel compiled = compile_kernel(kernel, options);

    Program mutant = compiled.machine;
    std::swap(mutant.code[0], mutant.code[1]);

    const DiagEngine vir_diags =
        analysis::verify_compiled_kernel(kernel, compiled.vprogram);
    EXPECT_FALSE(vir_diags.has_errors()) << vir_diags.render_text();
}

}  // namespace
}  // namespace diospyros
