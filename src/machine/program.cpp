#include "machine/program.h"

#include <algorithm>
#include <sstream>

#include "support/error.h"

namespace diospyros {

namespace {

/** Whether `op` computes a lane operation on `file` from one source
 *  (`binary` false) or two, without reading its destination. */
bool
is_lane_op(Opcode op, RegFile file, bool binary)
{
    const OpcodeInfo& o = opcode_info(op);
    return o.lane != LaneOp::kNone && !o.dst_read && o.dst == file &&
           (o.b != RegFile::kNone) == binary;
}

}  // namespace

InstrPorts
instr_ports(const Instr& i)
{
    const OpcodeInfo& o = opcode_info(i.op);
    InstrPorts p;
    int used[4] = {};
    auto read = [&](RegFile file, int reg) {
        int* slots = file == RegFile::kInt     ? p.i_src
                     : file == RegFile::kFloat ? p.f_src
                                               : p.v_src;
        slots[used[static_cast<int>(file)]++] = reg;
    };
    if (o.a != RegFile::kNone) {
        read(o.a, i.a);
    }
    if (o.b != RegFile::kNone) {
        read(o.b, i.b);
    }
    if (o.dst != RegFile::kNone) {
        p.dst_file = static_cast<int>(o.dst);
        p.dst = i.dst;
        p.dst_is_acc = o.dst_read;
    }
    return p;
}

int
register_file_size(const Program& program, RegFile file)
{
    switch (file) {
      case RegFile::kInt:
        return program.num_int_regs;
      case RegFile::kFloat:
        return program.num_float_regs;
      case RegFile::kVector:
        return program.num_vec_regs;
      case RegFile::kNone:
        break;
    }
    return 0;
}

std::array<int, 4>
register_counts(const Program& program)
{
    std::array<int, 4> n = {0, program.num_int_regs, program.num_float_regs,
                            program.num_vec_regs};
    auto use = [&n](RegFile file, int reg) {
        if (file != RegFile::kNone) {
            int& c = n[static_cast<std::size_t>(file)];
            c = std::max(c, reg + 1);
        }
    };
    for (const Instr& i : program.code) {
        const OpcodeInfo& o = opcode_info(i.op);
        use(o.dst, i.dst);
        use(o.a, i.a);
        use(o.b, i.b);
    }
    return n;
}

ProgramBuilder::Label
ProgramBuilder::new_label()
{
    const int id = static_cast<int>(label_offsets_.size());
    label_offsets_.push_back(-1);
    return Label{id};
}

void
ProgramBuilder::bind(Label label)
{
    DIOS_ASSERT(label.id >= 0 &&
                    label.id < static_cast<int>(label_offsets_.size()),
                "bind() on unknown label");
    DIOS_ASSERT(label_offsets_[label.id] == -1, "label bound twice");
    label_offsets_[label.id] = static_cast<int>(code_.size());
}

void
ProgramBuilder::jump(Label target)
{
    fixups_.emplace_back(code_.size(), target.id);
    emit(Instr{.op = Opcode::kJump});
}

void
ProgramBuilder::branch_lt(int a, int b, Label target)
{
    fixups_.emplace_back(code_.size(), target.id);
    emit(Instr{.op = Opcode::kBranchLt, .a = a, .b = b});
}

void
ProgramBuilder::branch_ge(int a, int b, Label target)
{
    fixups_.emplace_back(code_.size(), target.id);
    emit(Instr{.op = Opcode::kBranchGe, .a = a, .b = b});
}

void
ProgramBuilder::halt()
{
    emit(Instr{.op = Opcode::kHalt});
}

void
ProgramBuilder::mov_i(int dst, int imm)
{
    emit(Instr{.op = Opcode::kMovI, .dst = dst, .imm = imm});
}

void
ProgramBuilder::add_i(int dst, int a, int imm)
{
    emit(Instr{.op = Opcode::kAddI, .dst = dst, .a = a, .imm = imm});
}

void
ProgramBuilder::iadd(int dst, int a, int b)
{
    emit(Instr{.op = Opcode::kIAdd, .dst = dst, .a = a, .b = b});
}

void
ProgramBuilder::imul(int dst, int a, int b)
{
    emit(Instr{.op = Opcode::kIMul, .dst = dst, .a = a, .b = b});
}

void
ProgramBuilder::imul_i(int dst, int a, int imm)
{
    emit(Instr{.op = Opcode::kIMulI, .dst = dst, .a = a, .imm = imm});
}

void
ProgramBuilder::fload(int dst, int base, int offset)
{
    emit(Instr{.op = Opcode::kFLoad, .dst = dst, .a = base, .imm = offset});
}

void
ProgramBuilder::fstore(int base, int offset, int src)
{
    emit(Instr{.op = Opcode::kFStore, .a = base, .b = src, .imm = offset});
}

void
ProgramBuilder::fmov_i(int dst, float value)
{
    emit(Instr{.op = Opcode::kFMovI, .dst = dst, .fimm = value});
}

void
ProgramBuilder::fmov(int dst, int src)
{
    emit(Instr{.op = Opcode::kFMov, .dst = dst, .a = src});
}

void
ProgramBuilder::fbinop(Opcode op, int dst, int a, int b)
{
    DIOS_ASSERT(is_lane_op(op, RegFile::kFloat, true),
                "fbinop() with non-binary float opcode");
    emit(Instr{.op = op, .dst = dst, .a = a, .b = b});
}

void
ProgramBuilder::funop(Opcode op, int dst, int a)
{
    DIOS_ASSERT(is_lane_op(op, RegFile::kFloat, false),
                "funop() with non-unary float opcode");
    emit(Instr{.op = op, .dst = dst, .a = a});
}

void
ProgramBuilder::fmac(int acc, int a, int b)
{
    emit(Instr{.op = Opcode::kFMac, .dst = acc, .a = a, .b = b});
}

void
ProgramBuilder::vload(int dst, int base, int offset)
{
    emit(Instr{.op = Opcode::kVLoad, .dst = dst, .a = base, .imm = offset});
}

void
ProgramBuilder::vstore(int base, int offset, int src)
{
    emit(Instr{.op = Opcode::kVStore, .a = base, .b = src, .imm = offset});
}

void
ProgramBuilder::vsplat(int dst, float value)
{
    emit(Instr{.op = Opcode::kVSplat, .dst = dst, .fimm = value});
}

void
ProgramBuilder::vsplat_r(int dst, int src)
{
    emit(Instr{.op = Opcode::kVSplatR, .dst = dst, .a = src});
}

void
ProgramBuilder::vbinop(Opcode op, int dst, int a, int b)
{
    DIOS_ASSERT(is_lane_op(op, RegFile::kVector, true),
                "vbinop() with non-binary vector opcode");
    emit(Instr{.op = op, .dst = dst, .a = a, .b = b});
}

void
ProgramBuilder::vunop(Opcode op, int dst, int a)
{
    DIOS_ASSERT(is_lane_op(op, RegFile::kVector, false),
                "vunop() with non-unary vector opcode");
    emit(Instr{.op = op, .dst = dst, .a = a});
}

void
ProgramBuilder::vmac(int acc, int a, int b)
{
    emit(Instr{.op = Opcode::kVMac, .dst = acc, .a = a, .b = b});
}

void
ProgramBuilder::shuf(int dst, int a, const std::vector<int>& lanes)
{
    DIOS_CHECK(lanes.size() <= kMaxVectorWidth, "too many shuffle lanes");
    Instr instr{.op = Opcode::kShuf, .dst = dst, .a = a};
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        instr.lanes[i] = static_cast<std::int16_t>(lanes[i]);
    }
    emit(instr);
}

void
ProgramBuilder::sel(int dst, int a, int b, const std::vector<int>& lanes)
{
    DIOS_CHECK(lanes.size() <= kMaxVectorWidth, "too many select lanes");
    Instr instr{.op = Opcode::kSel, .dst = dst, .a = a, .b = b};
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        instr.lanes[i] = static_cast<std::int16_t>(lanes[i]);
    }
    emit(instr);
}

void
ProgramBuilder::vinsert(int dst, int lane, int fsrc)
{
    emit(Instr{.op = Opcode::kVInsert, .dst = dst, .a = fsrc, .imm = lane});
}

void
ProgramBuilder::vextract(int dst, int vsrc, int lane)
{
    emit(
        Instr{.op = Opcode::kVExtract, .dst = dst, .a = vsrc, .imm = lane});
}

void
ProgramBuilder::emit(Instr instr)
{
    code_.push_back(instr);
}

Program
ProgramBuilder::finish()
{
    for (const auto& [index, label] : fixups_) {
        // Reject malformed fixups outright rather than producing a
        // program with a garbage branch target: a label handle that was
        // never created by new_label() (default-constructed or from
        // another builder) would index label_offsets_ out of range.
        if (label < 0 ||
            label >= static_cast<int>(label_offsets_.size())) {
            throw InternalError(
                "ProgramBuilder::finish: instruction " +
                std::to_string(index) +
                " branches to label id " + std::to_string(label) +
                ", which this builder never created (" +
                std::to_string(label_offsets_.size()) + " labels exist)");
        }
        if (label_offsets_[static_cast<std::size_t>(label)] < 0) {
            throw InternalError(
                "ProgramBuilder::finish: instruction " +
                std::to_string(index) + " branches to label id " +
                std::to_string(label) + ", which was never bound");
        }
        code_[index].imm =
            label_offsets_[static_cast<std::size_t>(label)];
    }
    Program p;
    p.code = std::move(code_);
    p.num_int_regs = next_int_;
    p.num_float_regs = next_float_;
    p.num_vec_regs = next_vec_;
    // Callers may also name fixed registers directly.
    const std::array<int, 4> n = register_counts(p);
    p.num_int_regs = n[static_cast<int>(RegFile::kInt)];
    p.num_float_regs = n[static_cast<int>(RegFile::kFloat)];
    p.num_vec_regs = n[static_cast<int>(RegFile::kVector)];
    return p;
}

std::string
disassemble(const Instr& i, int vector_width)
{
    const OpcodeInfo& o = opcode_info(i.op);
    std::ostringstream os;
    os << o.mnemonic;
    const char* sep = " ";
    // A lane immediate indexes the vector operand: `v3[2]`.
    auto reg = [&](RegFile file, int r) {
        os << sep << " rfv"[static_cast<int>(file)] << r;
        if (o.imm == Imm::kLane && file == RegFile::kVector) {
            os << '[' << i.imm << ']';
        }
        sep = ", ";
    };
    if (o.dst != RegFile::kNone) {
        reg(o.dst, i.dst);
    }
    // A memory op's `a` is its base register, printed in the address.
    if (o.a != RegFile::kNone && o.imm != Imm::kAddress) {
        reg(o.a, i.a);
    }
    if (o.b != RegFile::kNone) {
        reg(o.b, i.b);
    }
    switch (o.imm) {
      case Imm::kInt:
        os << sep << i.imm;
        break;
      case Imm::kFloat:
        os << sep << i.fimm;
        break;
      case Imm::kLanes:
        os << sep << '[';
        for (int l = 0; l < vector_width; ++l) {
            os << (l ? " " : "") << i.lanes[static_cast<std::size_t>(l)];
        }
        os << ']';
        break;
      case Imm::kAddress:
        os << (is_memory_write(i.op) ? " -> " : sep);
        if (i.a >= 0) {
            os << "(r" << i.a << "+" << i.imm << ")";
        } else {
            os << "[" << i.imm << "]";
        }
        break;
      case Imm::kTarget:
        os << " -> " << i.imm;
        break;
      case Imm::kNone:
      case Imm::kLane:
        break;
    }
    return os.str();
}

std::string
disassemble(const Program& program, int vector_width)
{
    std::ostringstream os;
    for (std::size_t idx = 0; idx < program.code.size(); ++idx) {
        os << idx << ":\t" << disassemble(program.code[idx], vector_width)
           << '\n';
    }
    return os.str();
}

}  // namespace diospyros
