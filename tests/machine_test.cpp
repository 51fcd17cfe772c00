// Unit and property tests for the simulated DSP: memory, ISA semantics,
// cycle accounting, control flow, and the disassembler.

#include <gtest/gtest.h>

#include <cmath>

#include "machine/program.h"
#include "machine/sim.h"
#include "support/error.h"
#include "support/rng.h"

namespace diospyros {
namespace {

class MachineTest : public ::testing::Test {
  protected:
    TargetSpec spec_ = TargetSpec::fusion_g3_like();
    Simulator sim_{TargetSpec::fusion_g3_like()};
};

TEST_F(MachineTest, MemorySegments)
{
    Memory mem;
    const int a = mem.alloc("a", {1.0f, 2.0f, 3.0f});
    const int b = mem.alloc("b", 4);
    EXPECT_EQ(a, 0);
    EXPECT_EQ(b, 3);
    EXPECT_EQ(mem.base("a"), 0);
    EXPECT_EQ(mem.read("a"), (std::vector<float>{1.0f, 2.0f, 3.0f}));
    mem.write("b", {9, 8, 7, 6});
    EXPECT_FLOAT_EQ(mem.at(4), 8.0f);
    EXPECT_THROW(mem.alloc("a", 1), UserError);
    EXPECT_THROW(mem.base("zzz"), UserError);
    EXPECT_THROW(mem.at(99), UserError);
}

TEST_F(MachineTest, ScalarArithmeticAndCycles)
{
    // out[0] = a[0] + a[1] * a[2]
    Memory mem;
    mem.alloc("a", {2.0f, 3.0f, 4.0f});
    mem.alloc("out", 1);

    ProgramBuilder pb;
    const int x = pb.fresh_float();
    const int y = pb.fresh_float();
    const int z = pb.fresh_float();
    pb.fload(x, -1, 0);
    pb.fload(y, -1, 1);
    pb.fload(z, -1, 2);
    pb.fmac(x, y, z);
    pb.fstore(-1, 3, x);
    pb.halt();
    const Program p = pb.finish();

    const RunResult r = sim_.run(p, mem);
    EXPECT_FLOAT_EQ(mem.read("out")[0], 14.0f);
    EXPECT_EQ(r.instructions, 6u);
    // Loads issue at 0/1/2; the mac waits for the last load (ready at 3)
    // and completes at 5; the store issues at 5 and completes at 6.
    EXPECT_EQ(r.cycles, 6u);
    EXPECT_EQ(r.stall_cycles, 1u);
    EXPECT_EQ(r.count(Opcode::kFMac), 1u);
}

TEST_F(MachineTest, VectorLaneSemantics)
{
    Memory mem;
    mem.alloc("a", {1, 2, 3, 4});
    mem.alloc("b", {10, 20, 30, 40});
    mem.alloc("out", 4);

    ProgramBuilder pb;
    const int va = pb.fresh_vec();
    const int vb = pb.fresh_vec();
    pb.vload(va, -1, 0);
    pb.vload(vb, -1, 4);
    pb.vmac(vb, va, va);  // b += a*a
    pb.vstore(-1, 8, vb);
    pb.halt();

    sim_.run(pb.finish(), mem);
    EXPECT_EQ(mem.read("out"), (std::vector<float>{11, 24, 39, 56}));
}

TEST_F(MachineTest, ShuffleAndSelect)
{
    Memory mem;
    mem.alloc("a", {0, 1, 2, 3});
    mem.alloc("b", {4, 5, 6, 7});
    mem.alloc("out", 8);

    ProgramBuilder pb;
    const int va = pb.fresh_vec();
    const int vb = pb.fresh_vec();
    const int vs = pb.fresh_vec();
    const int vt = pb.fresh_vec();
    pb.vload(va, -1, 0);
    pb.vload(vb, -1, 4);
    pb.shuf(vs, va, {3, 3, 0, 1});
    // The paper's Figure 2 example: indices {1, 2, 0, 5} over two inputs.
    pb.sel(vt, va, vb, {1, 2, 0, 5});
    pb.vstore(-1, 8, vs);
    pb.vstore(-1, 12, vt);
    pb.halt();

    sim_.run(pb.finish(), mem);
    const auto out = mem.read("out");
    EXPECT_EQ(std::vector<float>(out.begin(), out.begin() + 4),
              (std::vector<float>{3, 3, 0, 1}));
    EXPECT_EQ(std::vector<float>(out.begin() + 4, out.end()),
              (std::vector<float>{1, 2, 0, 5}));
}

TEST_F(MachineTest, InsertExtract)
{
    Memory mem;
    mem.alloc("a", {1, 2, 3, 4});
    mem.alloc("out", 2);

    ProgramBuilder pb;
    const int va = pb.fresh_vec();
    const int f = pb.fresh_float();
    pb.vload(va, -1, 0);
    pb.vextract(f, va, 2);
    pb.fstore(-1, 4, f);
    pb.fmov_i(f, 99.0f);
    pb.vinsert(va, 0, f);
    pb.vextract(f, va, 0);
    pb.fstore(-1, 5, f);
    pb.halt();

    sim_.run(pb.finish(), mem);
    EXPECT_EQ(mem.read("out"), (std::vector<float>{3, 99}));
}

TEST_F(MachineTest, LoopWithBranches)
{
    // Sum 10 elements with a counted loop; checks branch semantics and
    // the taken-branch penalty accounting.
    Memory mem;
    std::vector<float> data(10);
    for (int i = 0; i < 10; ++i) {
        data[static_cast<std::size_t>(i)] = static_cast<float>(i + 1);
    }
    mem.alloc("a", data);
    mem.alloc("out", 1);

    ProgramBuilder pb;
    const int idx = pb.fresh_int();
    const int limit = pb.fresh_int();
    const int acc = pb.fresh_float();
    const int tmp = pb.fresh_float();
    pb.fmov_i(acc, 0.0f);
    pb.mov_i(idx, 0);
    pb.mov_i(limit, 10);
    auto loop = pb.new_label();
    pb.bind(loop);
    pb.fload(tmp, idx, 0);
    pb.fbinop(Opcode::kFAdd, acc, acc, tmp);
    pb.add_i(idx, idx, 1);
    pb.branch_lt(idx, limit, loop);
    pb.fstore(-1, 10, acc);
    pb.halt();

    const RunResult r = sim_.run(pb.finish(), mem);
    EXPECT_FLOAT_EQ(mem.read("out")[0], 55.0f);
    // 9 taken branches, 1 fall-through.
    EXPECT_EQ(r.count(Opcode::kBranchLt), 10u);
}

TEST_F(MachineTest, IndexArithmetic)
{
    // addr = base + i*3 + 2 addressing via integer ops.
    Memory mem;
    mem.alloc("a", {0, 1, 2, 3, 4, 5, 6, 7, 8});
    mem.alloc("out", 1);

    ProgramBuilder pb;
    const int i = pb.fresh_int();
    const int addr = pb.fresh_int();
    const int f = pb.fresh_float();
    pb.mov_i(i, 2);
    pb.imul_i(addr, i, 3);
    pb.add_i(addr, addr, 2);
    pb.fload(f, addr, 0);
    pb.fstore(-1, 9, f);
    pb.halt();

    sim_.run(pb.finish(), mem);
    EXPECT_FLOAT_EQ(mem.read("out")[0], 8.0f);
}

TEST_F(MachineTest, RunawayLoopIsCaught)
{
    ProgramBuilder pb;
    auto top = pb.new_label();
    pb.bind(top);
    pb.jump(top);
    Memory mem;
    EXPECT_THROW(sim_.run(pb.finish(), mem, 1000), UserError);
}

TEST_F(MachineTest, OutOfBoundsAccessIsCaught)
{
    ProgramBuilder pb;
    const int f = pb.fresh_float();
    pb.fload(f, -1, 1234);
    pb.halt();
    Memory mem(8);
    EXPECT_THROW(sim_.run(pb.finish(), mem), UserError);
}

TEST_F(MachineTest, UnboundLabelIsCaught)
{
    ProgramBuilder pb;
    auto l = pb.new_label();
    pb.jump(l);
    EXPECT_THROW(pb.finish(), InternalError);
}

TEST_F(MachineTest, DivSqrtLatenciesCharged)
{
    ProgramBuilder pb;
    const int f = pb.fresh_float();
    pb.fmov_i(f, 4.0f);
    pb.funop(Opcode::kFSqrt, f, f);
    pb.fbinop(Opcode::kFDiv, f, f, f);
    pb.halt();
    Memory mem;
    const RunResult r = sim_.run(pb.finish(), mem);
    EXPECT_EQ(r.cycles, static_cast<std::uint64_t>(
                            spec_.cost(Opcode::kFMovI) +
                            spec_.cost(Opcode::kFSqrt) +
                            spec_.cost(Opcode::kFDiv)));
}

TEST_F(MachineTest, SplatFromRegister)
{
    Memory mem;
    mem.alloc("a", std::vector<float>{7.5f});
    mem.alloc("out", 4);
    ProgramBuilder pb;
    const int f = pb.fresh_float();
    const int v = pb.fresh_vec();
    pb.fload(f, -1, 0);
    pb.vsplat_r(v, f);
    pb.vstore(-1, 1, v);
    pb.halt();
    sim_.run(pb.finish(), mem);
    EXPECT_EQ(mem.read("out"),
              (std::vector<float>{7.5f, 7.5f, 7.5f, 7.5f}));
}

TEST_F(MachineTest, NarrowTargetUsesTwoLanes)
{
    Simulator narrow{TargetSpec::narrow_2wide()};
    Memory mem;
    mem.alloc("a", {1, 2, 3, 4});
    mem.alloc("out", 2);
    ProgramBuilder pb;
    const int v = pb.fresh_vec();
    pb.vload(v, -1, 0);
    pb.vstore(-1, 4, v);
    pb.halt();
    narrow.run(pb.finish(), mem);
    // Only two lanes move.
    EXPECT_EQ(mem.read("out"), (std::vector<float>{1, 2}));
}

TEST_F(MachineTest, VliwDualIssuesIndependentUnits)
{
    // An int op and a float op with no dependence share a bundle on the
    // VLIW target but serialize on the single-issue one.
    ProgramBuilder pb;
    const int r = pb.fresh_int();
    const int f = pb.fresh_float();
    for (int k = 0; k < 8; ++k) {
        pb.add_i(r, r, 1);       // int unit
        pb.fmov_i(f, 1.0f);      // scalar-fp unit
    }
    pb.halt();
    const Program p = pb.finish();

    Memory mem1, mem2;
    const RunResult single = sim_.run(p, mem1);
    Simulator vliw(TargetSpec::fusion_g3_vliw());
    const RunResult wide = vliw.run(p, mem2);
    EXPECT_LT(wide.cycles, single.cycles);
    // Perfect pairing: 8 bundles of 2 instead of 16 cycles.
    EXPECT_EQ(wide.cycles, 8u + 0u);
    EXPECT_EQ(single.cycles, 16u);
}

TEST_F(MachineTest, VliwSameUnitStillSerializes)
{
    // Two independent int ops occupy the same functional unit: one per
    // cycle even on the 3-slot machine.
    ProgramBuilder pb;
    const int a = pb.fresh_int();
    const int b = pb.fresh_int();
    for (int k = 0; k < 6; ++k) {
        pb.mov_i(a, k);
        pb.mov_i(b, k);
    }
    pb.halt();
    Memory mem;
    Simulator vliw(TargetSpec::fusion_g3_vliw());
    const RunResult r = vliw.run(pb.finish(), mem);
    EXPECT_EQ(r.cycles, 12u);
}

TEST_F(MachineTest, VliwRespectsDependences)
{
    // A dependent chain cannot be compressed by wider issue.
    ProgramBuilder pb;
    const int f = pb.fresh_float();
    pb.fmov_i(f, 1.0f);
    for (int k = 0; k < 5; ++k) {
        pb.fbinop(Opcode::kFMul, f, f, f);
    }
    pb.halt();
    const Program p = pb.finish();
    Memory mem1, mem2;
    const RunResult single = sim_.run(p, mem1);
    Simulator vliw(TargetSpec::fusion_g3_vliw());
    const RunResult wide = vliw.run(p, mem2);
    EXPECT_EQ(wide.cycles, single.cycles);
    // And the values agree, of course.
    EXPECT_EQ(wide.instructions, single.instructions);
}

TEST_F(MachineTest, DisassemblerCoversAllOpcodes)
{
    // Every opcode once, in enum order, with both addressing forms.
    ProgramBuilder pb;
    pb.mov_i(0, 5);
    pb.add_i(1, 0, 2);
    pb.iadd(2, 0, 1);
    pb.imul(2, 2, 0);
    pb.imul_i(2, 2, 7);
    pb.fload(0, 0, 4);
    pb.fstore(-1, 3, 0);
    pb.fmov_i(1, 2.5f);
    pb.fmov(2, 1);
    pb.fbinop(Opcode::kFAdd, 0, 1, 2);
    pb.fbinop(Opcode::kFSub, 0, 0, 2);
    pb.fbinop(Opcode::kFMul, 0, 0, 1);
    pb.fbinop(Opcode::kFDiv, 0, 0, 1);
    pb.funop(Opcode::kFNeg, 0, 0);
    pb.funop(Opcode::kFSqrt, 0, 0);
    pb.funop(Opcode::kFSgn, 2, 0);
    pb.funop(Opcode::kFRecip, 2, 2);
    pb.fmac(0, 1, 2);
    pb.vload(0, -1, 0);
    pb.vstore(0, 8, 0);
    pb.vsplat(1, -0.5f);
    pb.vsplat_r(2, 1);
    pb.vbinop(Opcode::kVAdd, 2, 0, 1);
    pb.vbinop(Opcode::kVSub, 2, 2, 1);
    pb.vbinop(Opcode::kVMul, 2, 2, 0);
    pb.vbinop(Opcode::kVDiv, 2, 2, 1);
    pb.vunop(Opcode::kVNeg, 2, 2);
    pb.vunop(Opcode::kVSqrt, 2, 2);
    pb.vunop(Opcode::kVSgn, 1, 2);
    pb.vunop(Opcode::kVRecip, 1, 1);
    pb.vmac(2, 0, 1);
    pb.shuf(3, 2, {0, 0, 1, 1});
    pb.sel(3, 2, 1, {0, 4, 1, 5});
    pb.vinsert(3, 2, 0);
    pb.vextract(3, 3, 1);
    auto l = pb.new_label();
    pb.bind(l);
    pb.jump(l);
    pb.branch_lt(0, 1, l);
    pb.branch_ge(0, 1, l);
    pb.halt();
    const Program p = pb.finish();
    ASSERT_EQ(p.size(), static_cast<std::size_t>(kNumOpcodes));
    for (int k = 0; k < kNumOpcodes; ++k) {
        EXPECT_EQ(p.code[static_cast<std::size_t>(k)].op,
                  static_cast<Opcode>(k));
    }
    EXPECT_EQ(disassemble(p, 4),
              "0:\tmovi r0, 5\n"
              "1:\taddi r1, r0, 2\n"
              "2:\tiadd r2, r0, r1\n"
              "3:\timul r2, r2, r0\n"
              "4:\timuli r2, r2, 7\n"
              "5:\tfload f0, (r0+4)\n"
              "6:\tfstore f0 -> [3]\n"
              "7:\tfmovi f1, 2.5\n"
              "8:\tfmov f2, f1\n"
              "9:\tfadd f0, f1, f2\n"
              "10:\tfsub f0, f0, f2\n"
              "11:\tfmul f0, f0, f1\n"
              "12:\tfdiv f0, f0, f1\n"
              "13:\tfneg f0, f0\n"
              "14:\tfsqrt f0, f0\n"
              "15:\tfsgn f2, f0\n"
              "16:\tfrecip f2, f2\n"
              "17:\tfmac f0, f1, f2\n"
              "18:\tvload v0, [0]\n"
              "19:\tvstore v0 -> (r0+8)\n"
              "20:\tvsplat v1, -0.5\n"
              "21:\tvsplatr v2, f1\n"
              "22:\tvadd v2, v0, v1\n"
              "23:\tvsub v2, v2, v1\n"
              "24:\tvmul v2, v2, v0\n"
              "25:\tvdiv v2, v2, v1\n"
              "26:\tvneg v2, v2\n"
              "27:\tvsqrt v2, v2\n"
              "28:\tvsgn v1, v2\n"
              "29:\tvrecip v1, v1\n"
              "30:\tvmac v2, v0, v1\n"
              "31:\tshuf v3, v2, [0 0 1 1]\n"
              "32:\tsel v3, v2, v1, [0 4 1 5]\n"
              "33:\tvinsert v3[2], f0\n"
              "34:\tvextract f3, v3[1]\n"
              "35:\tjump -> 35\n"
              "36:\tblt r0, r1 -> 35\n"
              "37:\tbge r0, r1 -> 35\n"
              "38:\thalt\n");
    EXPECT_EQ(p.num_int_regs, 3);
    EXPECT_EQ(p.num_float_regs, 4);
    EXPECT_EQ(p.num_vec_regs, 4);
}

TEST_F(MachineTest, RandomizedScalarProgramsMatchReference)
{
    // Property: random straight-line scalar programs compute the same
    // values as a direct C++ interpretation of the same operation list.
    Rng rng(2024);
    for (int trial = 0; trial < 30; ++trial) {
        constexpr int kRegs = 6;
        std::vector<float> ref(kRegs);
        ProgramBuilder pb;
        for (int r = 0; r < kRegs; ++r) {
            const float v = rng.uniform_float(-4.0f, 4.0f);
            ref[static_cast<std::size_t>(r)] = v;
            pb.fmov_i(r, v);
        }
        for (int step = 0; step < 25; ++step) {
            const int d = static_cast<int>(rng.uniform_int(0, kRegs - 1));
            const int a = static_cast<int>(rng.uniform_int(0, kRegs - 1));
            const int b = static_cast<int>(rng.uniform_int(0, kRegs - 1));
            const auto du = static_cast<std::size_t>(d);
            const auto au = static_cast<std::size_t>(a);
            const auto bu = static_cast<std::size_t>(b);
            switch (rng.uniform_int(0, 3)) {
              case 0:
                pb.fbinop(Opcode::kFAdd, d, a, b);
                ref[du] = ref[au] + ref[bu];
                break;
              case 1:
                pb.fbinop(Opcode::kFSub, d, a, b);
                ref[du] = ref[au] - ref[bu];
                break;
              case 2:
                pb.fbinop(Opcode::kFMul, d, a, b);
                ref[du] = ref[au] * ref[bu];
                break;
              default:
                pb.fmac(d, a, b);
                ref[du] += ref[au] * ref[bu];
                break;
            }
        }
        for (int r = 0; r < kRegs; ++r) {
            pb.fstore(-1, r, r);
        }
        pb.halt();
        Memory mem;
        mem.alloc("out", kRegs);
        sim_.run(pb.finish(), mem);
        const auto out = mem.read("out");
        for (int r = 0; r < kRegs; ++r) {
            EXPECT_FLOAT_EQ(out[static_cast<std::size_t>(r)],
                            ref[static_cast<std::size_t>(r)])
                << "trial " << trial << " reg " << r;
        }
    }
}

}  // namespace
}  // namespace diospyros
