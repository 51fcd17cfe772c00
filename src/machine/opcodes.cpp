#include "machine/opcodes.h"

#include <iterator>

#include "support/error.h"

namespace diospyros {

namespace {

using A = Access;
using I = Imm;
using L = LaneOp;
using R = RegFile;
using U = FunctionalUnit;

// Latencies: the integer unit forwards in the same cycle; memory is the
// ideal unit-delay memory of the paper's xt-run setup (§5.2). Pipelined
// float ops take 2 cycles (an immediately dependent consumer stalls
// one), the iterative divide/sqrt/reciprocal units longer. Scalar and
// vector units match: the vector win comes from lane amortization, not a
// faster pipe. In-register data movement costs 1 (§3.4: the Fusion G3's
// flexible shuffle makes the abstract cost model a good proxy).
constexpr OpcodeInfo kOpcodeTable[] = {
    // op, mnemonic, unit, latency, iterative,
    //   dst, a, b, dst read, immediate, memory, lane op
    {Opcode::kMovI, "movi", U::kInt, 1, false,
     R::kInt, R::kNone, R::kNone, false, I::kInt, A::kNone, L::kNone},
    {Opcode::kAddI, "addi", U::kInt, 1, false,
     R::kInt, R::kInt, R::kNone, false, I::kInt, A::kNone, L::kNone},
    {Opcode::kIAdd, "iadd", U::kInt, 1, false,
     R::kInt, R::kInt, R::kInt, false, I::kNone, A::kNone, L::kNone},
    {Opcode::kIMul, "imul", U::kInt, 1, false,
     R::kInt, R::kInt, R::kInt, false, I::kNone, A::kNone, L::kNone},
    {Opcode::kIMulI, "imuli", U::kInt, 1, false,
     R::kInt, R::kInt, R::kNone, false, I::kInt, A::kNone, L::kNone},
    {Opcode::kFLoad, "fload", U::kMemory, 1, false,
     R::kFloat, R::kInt, R::kNone, false, I::kAddress, A::kRead1, L::kNone},
    {Opcode::kFStore, "fstore", U::kMemory, 1, false,
     R::kNone, R::kInt, R::kFloat, false, I::kAddress, A::kWrite1, L::kNone},
    {Opcode::kFMovI, "fmovi", U::kScalarFp, 1, false,
     R::kFloat, R::kNone, R::kNone, false, I::kFloat, A::kNone, L::kNone},
    {Opcode::kFMov, "fmov", U::kScalarFp, 1, false,
     R::kFloat, R::kFloat, R::kNone, false, I::kNone, A::kNone, L::kNone},
    {Opcode::kFAdd, "fadd", U::kScalarFp, 2, false,
     R::kFloat, R::kFloat, R::kFloat, false, I::kNone, A::kNone, L::kAdd},
    {Opcode::kFSub, "fsub", U::kScalarFp, 2, false,
     R::kFloat, R::kFloat, R::kFloat, false, I::kNone, A::kNone, L::kSub},
    {Opcode::kFMul, "fmul", U::kScalarFp, 2, false,
     R::kFloat, R::kFloat, R::kFloat, false, I::kNone, A::kNone, L::kMul},
    {Opcode::kFDiv, "fdiv", U::kScalarFp, 8, false,
     R::kFloat, R::kFloat, R::kFloat, false, I::kNone, A::kNone, L::kDiv},
    {Opcode::kFNeg, "fneg", U::kScalarFp, 1, false,
     R::kFloat, R::kFloat, R::kNone, false, I::kNone, A::kNone, L::kNeg},
    {Opcode::kFSqrt, "fsqrt", U::kScalarFp, 10, false,
     R::kFloat, R::kFloat, R::kNone, false, I::kNone, A::kNone, L::kSqrt},
    {Opcode::kFSgn, "fsgn", U::kScalarFp, 1, false,
     R::kFloat, R::kFloat, R::kNone, false, I::kNone, A::kNone, L::kSgn},
    {Opcode::kFRecip, "frecip", U::kScalarFp, 3, false,
     R::kFloat, R::kFloat, R::kNone, false, I::kNone, A::kNone, L::kRecip},
    {Opcode::kFMac, "fmac", U::kScalarFp, 2, false,
     R::kFloat, R::kFloat, R::kFloat, true, I::kNone, A::kNone, L::kMac},
    {Opcode::kVLoad, "vload", U::kMemory, 1, false,
     R::kVector, R::kInt, R::kNone, false, I::kAddress, A::kReadW, L::kNone},
    {Opcode::kVStore, "vstore", U::kMemory, 1, false,
     R::kNone, R::kInt, R::kVector, false, I::kAddress, A::kWriteW, L::kNone},
    {Opcode::kVSplat, "vsplat", U::kVector, 1, false,
     R::kVector, R::kNone, R::kNone, false, I::kFloat, A::kNone, L::kNone},
    {Opcode::kVSplatR, "vsplatr", U::kVector, 1, false,
     R::kVector, R::kFloat, R::kNone, false, I::kNone, A::kNone, L::kNone},
    {Opcode::kVAdd, "vadd", U::kVector, 2, false,
     R::kVector, R::kVector, R::kVector, false, I::kNone, A::kNone, L::kAdd},
    {Opcode::kVSub, "vsub", U::kVector, 2, false,
     R::kVector, R::kVector, R::kVector, false, I::kNone, A::kNone, L::kSub},
    {Opcode::kVMul, "vmul", U::kVector, 2, false,
     R::kVector, R::kVector, R::kVector, false, I::kNone, A::kNone, L::kMul},
    {Opcode::kVDiv, "vdiv", U::kVector, 8, true,
     R::kVector, R::kVector, R::kVector, false, I::kNone, A::kNone, L::kDiv},
    {Opcode::kVNeg, "vneg", U::kVector, 1, false,
     R::kVector, R::kVector, R::kNone, false, I::kNone, A::kNone, L::kNeg},
    {Opcode::kVSqrt, "vsqrt", U::kVector, 10, true,
     R::kVector, R::kVector, R::kNone, false, I::kNone, A::kNone, L::kSqrt},
    {Opcode::kVSgn, "vsgn", U::kVector, 1, false,
     R::kVector, R::kVector, R::kNone, false, I::kNone, A::kNone, L::kSgn},
    {Opcode::kVRecip, "vrecip", U::kVector, 3, true,
     R::kVector, R::kVector, R::kNone, false, I::kNone, A::kNone, L::kRecip},
    {Opcode::kVMac, "vmac", U::kVector, 2, false,
     R::kVector, R::kVector, R::kVector, true, I::kNone, A::kNone, L::kMac},
    {Opcode::kShuf, "shuf", U::kVector, 1, false,
     R::kVector, R::kVector, R::kNone, false, I::kLanes, A::kNone, L::kNone},
    {Opcode::kSel, "sel", U::kVector, 1, false,
     R::kVector, R::kVector, R::kVector, false, I::kLanes, A::kNone, L::kNone},
    {Opcode::kVInsert, "vinsert", U::kVector, 1, false,
     R::kVector, R::kFloat, R::kNone, true, I::kLane, A::kNone, L::kNone},
    {Opcode::kVExtract, "vextract", U::kVector, 1, false,
     R::kFloat, R::kVector, R::kNone, false, I::kLane, A::kNone, L::kNone},
    {Opcode::kJump, "jump", U::kControl, 1, false,
     R::kNone, R::kNone, R::kNone, false, I::kTarget, A::kNone, L::kNone},
    {Opcode::kBranchLt, "blt", U::kControl, 1, false,
     R::kNone, R::kInt, R::kInt, false, I::kTarget, A::kNone, L::kNone},
    {Opcode::kBranchGe, "bge", U::kControl, 1, false,
     R::kNone, R::kInt, R::kInt, false, I::kTarget, A::kNone, L::kNone},
    {Opcode::kHalt, "halt", U::kControl, 1, false,
     R::kNone, R::kNone, R::kNone, false, I::kNone, A::kNone, L::kNone},
};

constexpr bool
rows_in_enum_order()
{
    for (int k = 0; k < kNumOpcodes; ++k) {
        if (static_cast<int>(kOpcodeTable[k].op) != k) {
            return false;
        }
    }
    return true;
}

static_assert(std::size(kOpcodeTable) == kNumOpcodes,
              "kOpcodeTable needs one row per Opcode");
static_assert(rows_in_enum_order(), "kOpcodeTable rows follow enum order");

}  // namespace

const OpcodeInfo&
opcode_info(Opcode op)
{
    return kOpcodeTable[static_cast<int>(op)];
}

const char*
opcode_name(Opcode op)
{
    return opcode_info(op).mnemonic;
}

FunctionalUnit
functional_unit(Opcode op)
{
    return opcode_info(op).unit;
}

const char*
reg_file_name(RegFile file)
{
    switch (file) {
      case RegFile::kInt:
        return "int";
      case RegFile::kFloat:
        return "float";
      case RegFile::kVector:
        return "vector";
      case RegFile::kNone:
        break;
    }
    return "none";
}

bool
is_memory_read(Opcode op)
{
    const Access a = opcode_info(op).access;
    return a == Access::kRead1 || a == Access::kReadW;
}

bool
is_memory_write(Opcode op)
{
    const Access a = opcode_info(op).access;
    return a == Access::kWrite1 || a == Access::kWriteW;
}

bool
is_memory_op(Opcode op)
{
    return opcode_info(op).access != Access::kNone;
}

bool
is_control(Opcode op)
{
    return opcode_info(op).imm == Imm::kTarget;
}

int
access_words(Opcode op, int vector_width)
{
    switch (opcode_info(op).access) {
      case Access::kNone:
        return 0;
      case Access::kRead1:
      case Access::kWrite1:
        return 1;
      case Access::kReadW:
      case Access::kWriteW:
        return vector_width;
    }
    return 0;
}

Opcode
lane_opcode(LaneOp lane, bool vector)
{
    const RegFile file = vector ? RegFile::kVector : RegFile::kFloat;
    for (const OpcodeInfo& row : kOpcodeTable) {
        if (lane != LaneOp::kNone && row.lane == lane && row.dst == file) {
            return row.op;
        }
    }
    throw InternalError("no opcode computes that lane operation");
}

}  // namespace diospyros
