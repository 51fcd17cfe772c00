/**
 * @file
 * The simulated DSP's instruction set, described once.
 *
 * kOpcodeTable (opcodes.cpp) has one row per Opcode, in enum order, and a
 * static_assert holds it to that order. A row gives the mnemonic, the
 * functional unit, the baseline result latency, the operand shape (which
 * register file `dst`, `a` and `b` name, what the immediates hold, which
 * memory words the opcode touches) and, for the float arithmetic
 * families, the lane operation its scalar and vector forms share. The
 * disassembler, the register ports, the cost presets, the scheduler's and
 * the verifier's memory and control predicates and the lowerings' opcode
 * choice all read the rows.
 *
 * Adding an opcode takes its enumerator, its row, and its semantics in
 * the simulator (sim.cpp), the symbolic machine of M009
 * (analysis/verify_machine.cpp) and the C emitter (emit_c.cpp). An
 * opcode whose row names a lane operation needs no semantics of its own:
 * those three apply the lane operation to one register or to every lane.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace diospyros {

/** Opcodes of the simulated DSP ISA. */
enum class Opcode : std::uint8_t {
    // Integer (address/loop) unit.
    kMovI,   ///< r[d] = imm
    kAddI,   ///< r[d] = r[a] + imm
    kIAdd,   ///< r[d] = r[a] + r[b]
    kIMul,   ///< r[d] = r[a] * r[b]
    kIMulI,  ///< r[d] = r[a] * imm

    // Scalar float unit.
    kFLoad,   ///< f[d] = mem[ea(a, imm)]
    kFStore,  ///< mem[ea(a, imm)] = f[b]
    kFMovI,   ///< f[d] = fimm
    kFMov,    ///< f[d] = f[a]
    kFAdd,    ///< f[d] = f[a] + f[b]
    kFSub,
    kFMul,
    kFDiv,
    kFNeg,
    kFSqrt,
    kFSgn,
    kFRecip,  ///< target-extension example (paper §6)
    kFMac,    ///< f[d] += f[a] * f[b]  (accumulates into dst)

    // Vector unit (lane-wise over vector_width lanes).
    kVLoad,   ///< v[d] = mem[ea .. ea+W)
    kVStore,  ///< mem[ea .. ea+W) = v[b]
    kVSplat,  ///< v[d][i] = fimm
    kVSplatR, ///< v[d][i] = f[a]  (lane replicate, PDX_REP)
    kVAdd,
    kVSub,
    kVMul,
    kVDiv,
    kVNeg,
    kVSqrt,
    kVSgn,
    kVRecip,
    kVMac,      ///< v[d] += v[a] * v[b]  (accumulates into dst, PDX_MAC)
    kShuf,      ///< v[d][i] = v[a][lanes[i]]            (PDX_SHFL)
    kSel,       ///< v[d][i] = concat(v[a], v[b])[lanes[i]] (PDX_SEL)
    kVInsert,   ///< v[d][imm] = f[a]
    kVExtract,  ///< f[d] = v[a][imm]

    // Control.
    kJump,      ///< pc = imm
    kBranchLt,  ///< if r[a] < r[b]: pc = imm
    kBranchGe,  ///< if r[a] >= r[b]: pc = imm
    kHalt,
};

/** Number of opcodes (for cost tables). */
constexpr int kNumOpcodes = static_cast<int>(Opcode::kHalt) + 1;

/** Functional unit an opcode occupies (for VLIW slot modelling). */
enum class FunctionalUnit : std::uint8_t {
    kInt,       ///< address/loop arithmetic
    kScalarFp,  ///< scalar float pipe
    kVector,    ///< SIMD pipe (arithmetic + lane movement)
    kMemory,    ///< load/store port
    kControl,   ///< branches
};

constexpr int kNumFunctionalUnits = 5;

/** Register file an operand field names; the values are
 *  InstrPorts::dst_file's. */
enum class RegFile : std::uint8_t { kNone, kInt, kFloat, kVector };

/** "int", "float" or "vector" ("none" for kNone). */
const char* reg_file_name(RegFile file);

/** What an instruction's immediate fields hold. */
enum class Imm : std::uint8_t {
    kNone,
    kInt,      ///< `imm` is an integer operand
    kFloat,    ///< `fimm` is a float operand
    kAddress,  ///< `imm` is a word offset from base register `a`
    kLane,     ///< `imm` is a lane of the vector operand
    kLanes,    ///< `lanes` is a lane table
    kTarget,   ///< `imm` is a branch target
};

/** Memory an opcode touches at its address. */
enum class Access : std::uint8_t {
    kNone,
    kRead1,   ///< reads one word
    kWrite1,  ///< writes one word
    kReadW,   ///< reads vector_width words
    kWriteW,  ///< writes vector_width words
};

/** Lane operation that a scalar float opcode and its vector form share. */
enum class LaneOp : std::uint8_t {
    kNone,
    kAdd,
    kSub,
    kMul,
    kDiv,
    kNeg,
    kSqrt,
    kSgn,
    kRecip,  ///< exact 1 / a
    kMac,    ///< d + a * b, unfused
};

/** One row of the opcode table. */
struct OpcodeInfo {
    Opcode op;
    const char* mnemonic;
    FunctionalUnit unit;
    /** Result latency in cycles at 4 lanes and below. */
    int latency;
    /** An iterative unit: one more cycle per lane doubling past 4. */
    bool iterative;
    RegFile dst;
    RegFile a;
    RegFile b;
    /** `dst` is also a source (accumulators, lane insert). */
    bool dst_read;
    Imm imm;
    Access access;
    LaneOp lane;
};

/** The row of `op`. */
const OpcodeInfo& opcode_info(Opcode op);

/** Mnemonic for disassembly and the cache entry. */
const char* opcode_name(Opcode op);

/**
 * The opcode whose mnemonic is `mnemonic`, looked up in a table built
 * once from the opcode rows; nullopt when none is.
 */
std::optional<Opcode> opcode_from_name(std::string_view mnemonic);

/** Unit an opcode issues to. */
FunctionalUnit functional_unit(Opcode op);

bool is_memory_read(Opcode op);
bool is_memory_write(Opcode op);
bool is_memory_op(Opcode op);

/** Jumps and branches (not halt). */
bool is_control(Opcode op);

/** Memory words `op` touches at `vector_width` lanes; 0 for none. */
int access_words(Opcode op, int vector_width);

/** The opcode that computes `lane` on a float register (`vector` false)
 *  or on every lane of a vector register. */
Opcode lane_opcode(LaneOp lane, bool vector);

}  // namespace diospyros
