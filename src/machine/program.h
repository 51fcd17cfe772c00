/**
 * @file
 * Machine programs for the simulated DSP, plus an assembler-style builder.
 *
 * Programs operate on virtual registers (the simulator sizes its register
 * files to the maximum index used); labels are resolved to instruction
 * indices by ProgramBuilder::finish().
 */
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "machine/target.h"

namespace diospyros {

/** One machine instruction. */
struct Instr {
    Opcode op = Opcode::kHalt;
    /** Destination register (file depends on opcode); -1 if unused. */
    int dst = -1;
    /** Source registers; -1 if unused. For memory ops, `a` is the integer
     *  base register (-1 = absolute addressing). */
    int a = -1;
    int b = -1;
    /** Integer immediate: address offset, branch target, or lane index. */
    int imm = 0;
    /** Float immediate for kFMovI / kVSplat. */
    float fimm = 0.0f;
    /** Shuffle/select lane indices (first vector_width entries used). */
    std::array<std::int16_t, kMaxVectorWidth> lanes{};
};

/** A finished machine program. */
struct Program {
    std::vector<Instr> code;
    /** One-past-max register indices used, per file. */
    int num_int_regs = 0;
    int num_float_regs = 0;
    int num_vec_regs = 0;

    std::size_t size() const { return code.size(); }
};

/**
 * Register ports of an instruction: which registers it reads and writes.
 * Shared by the simulator's scoreboard and the list scheduler.
 */
struct InstrPorts {
    int i_src[2] = {-1, -1};
    int f_src[2] = {-1, -1};
    int v_src[2] = {-1, -1};
    /** 0 = none, 1 = int, 2 = float, 3 = vector. */
    int dst_file = 0;
    int dst = -1;
    /** True when dst is also a source (accumulators, lane insert). */
    bool dst_is_acc = false;
};

/** Computes the ports of an instruction from its opcode's row. */
InstrPorts instr_ports(const Instr& instr);

/** Calls `read(file, reg)` for each register `ports` reads: the int,
 *  float and vector sources, then an accumulating destination. */
template <class Read>
void
for_each_read(const InstrPorts& ports, Read&& read)
{
    auto sources = [&](const int (&regs)[2], RegFile file) {
        for (const int r : regs) {
            if (r >= 0) {
                read(file, r);
            }
        }
    };
    sources(ports.i_src, RegFile::kInt);
    sources(ports.f_src, RegFile::kFloat);
    sources(ports.v_src, RegFile::kVector);
    if (ports.dst_is_acc && ports.dst >= 0) {
        read(static_cast<RegFile>(ports.dst_file), ports.dst);
    }
}

/** Declared size of register file `file` in `program` (0 for kNone). */
int register_file_size(const Program& program, RegFile file);

/**
 * Per file, indexed by RegFile: one past the highest register that an
 * instruction of `program` reads or writes, and at least the declared
 * count. The kNone entry is 0.
 */
std::array<int, 4> register_counts(const Program& program);

/** Renders one instruction as assembly text. */
std::string disassemble(const Instr& instr, int vector_width);

/** Renders a whole program as assembly text with instruction indices. */
std::string disassemble(const Program& program, int vector_width);

/**
 * Assembler-style builder with label management and virtual register
 * allocation. Emission methods are named after mnemonics.
 */
class ProgramBuilder {
  public:
    /** An opaque label handle. */
    struct Label {
        int id = -1;
    };

    // --- Register allocation ---------------------------------------------
    int fresh_int() { return next_int_++; }
    int fresh_float() { return next_float_++; }
    int fresh_vec() { return next_vec_++; }

    // --- Labels and control flow -----------------------------------------
    Label new_label();
    /** Binds `label` to the next emitted instruction. */
    void bind(Label label);
    void jump(Label target);
    /** if r[a] < r[b] goto target */
    void branch_lt(int a, int b, Label target);
    /** if r[a] >= r[b] goto target */
    void branch_ge(int a, int b, Label target);
    void halt();

    // --- Integer ops -------------------------------------------------------
    void mov_i(int dst, int imm);
    void add_i(int dst, int a, int imm);
    void iadd(int dst, int a, int b);
    void imul(int dst, int a, int b);
    void imul_i(int dst, int a, int imm);

    // --- Scalar float ops ---------------------------------------------------
    void fload(int dst, int base, int offset);
    void fstore(int base, int offset, int src);
    void fmov_i(int dst, float value);
    void fmov(int dst, int src);
    void fbinop(Opcode op, int dst, int a, int b);
    void funop(Opcode op, int dst, int a);
    void fmac(int acc, int a, int b);

    // --- Vector ops ----------------------------------------------------------
    void vload(int dst, int base, int offset);
    void vstore(int base, int offset, int src);
    void vsplat(int dst, float value);
    /** v[dst] = splat of scalar float register src. */
    void vsplat_r(int dst, int src);
    void vbinop(Opcode op, int dst, int a, int b);
    void vunop(Opcode op, int dst, int a);
    void vmac(int acc, int a, int b);
    void shuf(int dst, int a, const std::vector<int>& lanes);
    void sel(int dst, int a, int b, const std::vector<int>& lanes);
    void vinsert(int dst, int lane, int fsrc);
    void vextract(int dst, int vsrc, int lane);

    /** Number of instructions emitted so far. */
    std::size_t position() const { return code_.size(); }

    /** Resolves labels and returns the finished program. */
    Program finish();

  private:
    void emit(Instr instr);

    std::vector<Instr> code_;
    /** label id -> bound instruction index (-1 = unbound). */
    std::vector<int> label_offsets_;
    /** (instruction index, label id) fixups for branch targets. */
    std::vector<std::pair<std::size_t, int>> fixups_;
    int next_int_ = 0;
    int next_float_ = 0;
    int next_vec_ = 0;
};

}  // namespace diospyros
