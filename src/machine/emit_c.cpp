#include "machine/emit_c.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "machine/target.h"
#include "support/error.h"

namespace diospyros {
namespace {

/** One SIMD leaf body: an ISA name, its per-function target, and the
 *  widest register (in floats) it has. Vector registers are GCC/Clang
 *  vector-extension values, so every op but vsqrt is the same text on
 *  every leaf. */
struct Leaf {
    const char* id;
    const char* target_attr;  ///< per-function target; "" = none
    bool neon;
    int widest;
};

constexpr Leaf kX86Leaves[] = {
    {"sse2", "sse2", false, 4},
    {"avx2", "avx2", false, 8},
    {"avx512", "avx512f", false, 16},
};
constexpr Leaf kNeonLeaf{"neon", "", true, 4};

/** Every leaf's narrowest register, in floats. Narrower kernels keep the
 *  scalar core's float arrays and lane loops in their leaves too: there
 *  the leaf's target attribute alone beats the scalar core on several
 *  kernels, while `vector_size(8)` values ran slower than both. */
constexpr int kMinLeafWidth = 4;

/** Float immediates go through their exact bit pattern so the emitted
 *  text round-trips every value (including -0.0 and denormals) without
 *  decimal-formatting pitfalls. */
std::string
f32_literal(float v)
{
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    char buf[96];
    std::snprintf(buf, sizeof buf, "dios_f32_bits(0x%08xu) /* %g */",
                  static_cast<unsigned>(bits), static_cast<double>(v));
    return buf;
}

struct RegCounts {
    int i = 0;
    int f = 0;
    int v = 0;
};

RegCounts
count_regs(const Program& p)
{
    RegCounts c{p.num_int_regs, p.num_float_regs, p.num_vec_regs};
    for (const Instr& instr : p.code) {
        const InstrPorts ports = instr_ports(instr);
        for (const int r : ports.i_src) {
            c.i = std::max(c.i, r + 1);
        }
        for (const int r : ports.f_src) {
            c.f = std::max(c.f, r + 1);
        }
        for (const int r : ports.v_src) {
            c.v = std::max(c.v, r + 1);
        }
        if (ports.dst >= 0) {
            if (ports.dst_file == 1) {
                c.i = std::max(c.i, ports.dst + 1);
            } else if (ports.dst_file == 2) {
                c.f = std::max(c.f, ports.dst + 1);
            } else if (ports.dst_file == 3) {
                c.v = std::max(c.v, ports.dst + 1);
            }
        }
    }
    return c;
}

std::string
rn(int i)
{
    return "r" + std::to_string(i);
}

std::string
fn(int i)
{
    return "f" + std::to_string(i);
}

std::string
vn(int i)
{
    return "v" + std::to_string(i);
}

/**
 * The constant-pool words vector-valued leaves read as literals instead
 * of from memory: those of absolute loads, unless some store may write
 * the pool (an absolute store into it, or any store through a base
 * register). Leaves narrower than kMinLeafWidth keep the scalar core's
 * form and fold nothing.
 */
struct PoolFold {
    const std::vector<float>* pool = nullptr;  ///< null: nothing folds
    long long base = 0;
    long long end = 0;

    /** Whether memory op `i`, `n` words wide, may touch the pool. */
    bool touches(const Instr& i, int n) const
    {
        return i.a >= 0 || (i.imm < end && i.imm + n > base);
    }

    /** Whether load `i`, `n` words wide, reads only folded pool words. */
    bool covers(const Instr& i, int n) const
    {
        return pool != nullptr && i.a < 0 && i.imm >= base &&
               i.imm + n <= end;
    }

    std::string word(long long addr) const
    {
        return f32_literal((*pool)[static_cast<std::size_t>(addr - base)]);
    }
};

int
access_words(const Instr& i, int width)
{
    return i.op == Opcode::kVLoad || i.op == Opcode::kVStore ? width : 1;
}

PoolFold
pool_fold(const Program& program, const EmitCOptions& options)
{
    PoolFold fold{nullptr, static_cast<long long>(options.pool_base),
                  static_cast<long long>(options.pool_base +
                                         options.pool.size())};
    for (const Instr& i : program.code) {
        if ((i.op == Opcode::kFStore || i.op == Opcode::kVStore) &&
            fold.touches(i, access_words(i, options.vector_width))) {
            return fold;
        }
    }
    if (!options.pool.empty() && options.vector_width >= kMinLeafWidth) {
        fold.pool = &options.pool;
    }
    return fold;
}

/** Emits one leaf body. `leaf` is null for the portable scalar core,
 *  whose vector registers are float arrays and whose vector ops are
 *  lane loops; SIMD leaves at least kMinLeafWidth wide hold vector
 *  values and spell each op as one vector expression. Either way the
 *  body mirrors machine/sim.cpp statement for statement: same IEEE float
 *  ops, same (non-fused) MAC, reciprocal as a literal division. */
void
emit_leaf_body(std::ostringstream& out, const Program& program, int width,
               const Leaf* leaf, const PoolFold& fold,
               const std::string& name)
{
    const std::string i1 = "    ";
    const std::string i2 = "        ";
    const std::string vtype = "dios_vf" + std::to_string(width);
    const bool vec = leaf != nullptr && width >= kMinLeafWidth;

    if (leaf != nullptr && leaf->target_attr[0] != '\0') {
        out << "__attribute__((target(\"" << leaf->target_attr << "\")))\n";
    }
    out << "DIOS_NO_CONTRACT\n"
        << "static void\n" << name << "(float* restrict mem)\n{\n";
    out << i1 << "(void)mem;\n";

    const RegCounts regs = count_regs(program);
    for (int k = 0; k < regs.i; ++k) {
        out << i1 << "int64_t " << rn(k) << " = 0;\n";
    }
    for (int k = 0; k < regs.f; ++k) {
        out << i1 << "float " << fn(k) << " = 0.0f;\n";
    }
    for (int k = 0; k < regs.v; ++k) {
        if (vec) {
            out << i1 << vtype << " " << vn(k) << " = {0};\n";
        } else {
            out << i1 << "__attribute__((aligned(64))) float " << vn(k)
                << "[" << width << "] = {0};\n";
        }
    }

    auto lane_loop = [&](const std::string& stmt) {
        return "for (int l = 0; l < " + std::to_string(width) +
               "; ++l) { " + stmt + "; }\n";
    };
    /** A lanewise op: one vector statement on vector-valued leaves, a
     *  lane loop elsewhere (or where `vec_stmt` is empty). */
    auto lanewise = [&](const std::string& vec_stmt,
                        const std::string& lane_stmt) {
        if (vec && !vec_stmt.empty()) {
            out << i1 << vec_stmt << ";\n";
        } else {
            out << i1 << "{\n" << i2 << lane_loop(lane_stmt) << i1 << "}\n";
        }
    };
    auto addr = [&](const Instr& i) {
        std::string e = std::to_string(i.imm);
        if (i.a >= 0) {
            e = "(ptrdiff_t)" + rn(i.a) + " + " + e;
        }
        return e;
    };
    auto ea_decl = [&](const Instr& i) {
        return i2 + "const ptrdiff_t ea = " + addr(i) + ";\n";
    };
    /** A vector literal from each lane's initializer. */
    auto literal = [&](const auto& lane) {
        std::string init = "(" + vtype + "){";
        for (int l = 0; l < width; ++l) {
            init += (l == 0 ? "" : ", ") + lane(l);
        }
        return init + "}";
    };

    // --- Instruction stream. -------------------------------------------
    for (std::size_t idx = 0; idx < program.code.size(); ++idx) {
        const Instr& i = program.code[idx];
        const std::string d = vn(i.dst), a = vn(i.a), b = vn(i.b);
        out << i1 << "/* " << idx << ": " << disassemble(i, width)
            << " */\n";
        switch (i.op) {
          case Opcode::kMovI:
            out << i1 << rn(i.dst) << " = " << i.imm << ";\n";
            break;
          case Opcode::kAddI:
            out << i1 << rn(i.dst) << " = " << rn(i.a) << " + " << i.imm
                << ";\n";
            break;
          case Opcode::kIAdd:
            out << i1 << rn(i.dst) << " = " << rn(i.a) << " + " << rn(i.b)
                << ";\n";
            break;
          case Opcode::kIMul:
            out << i1 << rn(i.dst) << " = " << rn(i.a) << " * " << rn(i.b)
                << ";\n";
            break;
          case Opcode::kIMulI:
            out << i1 << rn(i.dst) << " = " << rn(i.a) << " * " << i.imm
                << ";\n";
            break;
          case Opcode::kFLoad:
            if (fold.covers(i, 1)) {
                out << i1 << fn(i.dst) << " = " << fold.word(i.imm)
                    << ";\n";
                break;
            }
            out << i1 << "{\n"
                << ea_decl(i) << i2 << fn(i.dst) << " = mem[ea];\n"
                << i1 << "}\n";
            break;
          case Opcode::kFStore:
            out << i1 << "{\n"
                << ea_decl(i) << i2 << "mem[ea] = " << fn(i.b) << ";\n"
                << i1 << "}\n";
            break;
          case Opcode::kFMovI:
            out << i1 << fn(i.dst) << " = " << f32_literal(i.fimm)
                << ";\n";
            break;
          case Opcode::kFMov:
            out << i1 << fn(i.dst) << " = " << fn(i.a) << ";\n";
            break;
          case Opcode::kFAdd:
            out << i1 << fn(i.dst) << " = " << fn(i.a) << " + " << fn(i.b)
                << ";\n";
            break;
          case Opcode::kFSub:
            out << i1 << fn(i.dst) << " = " << fn(i.a) << " - " << fn(i.b)
                << ";\n";
            break;
          case Opcode::kFMul:
            out << i1 << fn(i.dst) << " = " << fn(i.a) << " * " << fn(i.b)
                << ";\n";
            break;
          case Opcode::kFDiv:
            out << i1 << fn(i.dst) << " = " << fn(i.a) << " / " << fn(i.b)
                << ";\n";
            break;
          case Opcode::kFNeg:
            out << i1 << fn(i.dst) << " = -" << fn(i.a) << ";\n";
            break;
          case Opcode::kFSqrt:
            out << i1 << fn(i.dst) << " = sqrtf(" << fn(i.a) << ");\n";
            break;
          case Opcode::kFSgn:
            out << i1 << fn(i.dst) << " = dios_sgnf(" << fn(i.a) << ");\n";
            break;
          case Opcode::kFRecip:
            out << i1 << fn(i.dst) << " = 1.0f / " << fn(i.a) << ";\n";
            break;
          case Opcode::kFMac:
            out << i1 << fn(i.dst) << " += " << fn(i.a) << " * " << fn(i.b)
                << ";\n";
            break;
          case Opcode::kVLoad:
            if (!vec) {
                out << i1 << "{\n" << ea_decl(i) << i2
                    << lane_loop(d + "[l] = mem[ea + l]") << i1 << "}\n";
            } else if (fold.covers(i, width)) {
                out << i1 << d << " = " << literal([&](int l) {
                    return fold.word(i.imm + l);
                }) << ";\n";
            } else {
                out << i1 << "__builtin_memcpy(&" << d << ", mem + "
                    << addr(i) << ", sizeof " << d << ");\n";
            }
            break;
          case Opcode::kVStore:
            if (!vec) {
                out << i1 << "{\n" << ea_decl(i) << i2
                    << lane_loop("mem[ea + l] = " + b + "[l]") << i1
                    << "}\n";
            } else {
                out << i1 << "__builtin_memcpy(mem + " << addr(i) << ", &"
                    << b << ", sizeof " << b << ");\n";
            }
            break;
          case Opcode::kVSplat:
          case Opcode::kVSplatR: {
            const std::string fill =
                vec ? d + " = " +
                          literal([](int) { return std::string("s"); }) +
                          ";\n"
                    : lane_loop(d + "[l] = s");
            out << i1 << "{\n"
                << i2 << "const float s = "
                << (i.op == Opcode::kVSplat ? f32_literal(i.fimm)
                                            : fn(i.a))
                << ";\n"
                << i2 << fill << i1 << "}\n";
            break;
          }
          case Opcode::kVAdd:
          case Opcode::kVSub:
          case Opcode::kVMul:
          case Opcode::kVDiv: {
            const std::string op = i.op == Opcode::kVAdd   ? " + "
                                   : i.op == Opcode::kVSub ? " - "
                                   : i.op == Opcode::kVMul ? " * "
                                                           : " / ";
            lanewise(d + " = " + a + op + b,
                     d + "[l] = " + a + "[l]" + op + b + "[l]");
            break;
          }
          case Opcode::kVNeg:
            lanewise(d + " = -" + a, d + "[l] = -" + a + "[l]");
            break;
          case Opcode::kVSqrt: {
            // The leaf's exact sqrt intrinsic, on a cast, when the width
            // is one of its register widths; otherwise lane by lane.
            const std::string bits = std::to_string(32 * width);
            const std::string call =
                leaf != nullptr && leaf->neon
                    ? "vsqrtq_f32((float32x4_t)"
                    : "_mm" + (width == 4 ? "" : bits) + "_sqrt_ps((__m" +
                          bits + ")";
            lanewise(vec && width <= leaf->widest
                         ? d + " = (" + vtype + ")" + call + a + ")"
                         : "",
                     d + "[l] = sqrtf(" + a + "[l])");
            break;
          }
          case Opcode::kVSgn:
            // Rare op: scalar lanes on every leaf.
            out << i1 << lane_loop(d + "[l] = dios_sgnf(" + a + "[l])");
            break;
          case Opcode::kVRecip:
            // Exact: the simulator computes 1.0f / x, so no rcpps-style
            // approximation is allowed here.
            lanewise(d + " = 1.0f / " + a, d + "[l] = 1.0f / " + a + "[l]");
            break;
          case Opcode::kVMac:
            // Deliberately non-fused (add of a separate multiply, with
            // contraction off) to match the simulator bit for bit.
            lanewise(d + " = " + d + " + " + a + " * " + b,
                     d + "[l] = " + d + "[l] + (" + a + "[l] * " + b +
                         "[l])");
            break;
          case Opcode::kShuf:
          case Opcode::kSel: {
            // Lane tables are emit-time constants. A vector value gets one
            // two-source permute (lane >= width picks from the second
            // source); the scalar core unrolls through temporaries. Both
            // read every source before writing, like the simulator's
            // copy-then-write, so a destination may alias a source.
            const bool sel = i.op == Opcode::kSel;
            std::string lanes;
            std::string temps;
            for (int l = 0; l < width; ++l) {
                const int lane = i.lanes[static_cast<std::size_t>(l)];
                DIOS_ASSERT(lane >= 0 && lane < (sel ? 2 : 1) * width,
                            sel ? "emit_c_kernel: sel lane out of range"
                                : "emit_c_kernel: shuf lane out of range");
                lanes += ", " + std::to_string(lane);
                temps += i2 + "const float t" + std::to_string(l) + " = " +
                         (lane < width ? a + "[" + std::to_string(lane)
                                       : b + "[" +
                                             std::to_string(lane - width)) +
                         "];\n";
            }
            if (vec) {
                out << i1 << d << " = __builtin_shufflevector(" << a << ", "
                    << (sel ? b : a) << lanes << ");\n";
                break;
            }
            out << i1 << "{\n" << temps;
            for (int l = 0; l < width; ++l) {
                out << i2 << d << "[" << l << "] = t" << l << ";\n";
            }
            out << i1 << "}\n";
            break;
          }
          case Opcode::kVInsert:
            out << i1 << vn(i.dst) << "[" << i.imm << "] = " << fn(i.a)
                << ";\n";
            break;
          case Opcode::kVExtract:
            out << i1 << fn(i.dst) << " = " << vn(i.a) << "[" << i.imm
                << "];\n";
            break;
          case Opcode::kHalt:
            out << i1 << "return;\n";
            break;
          case Opcode::kJump:
          case Opcode::kBranchLt:
          case Opcode::kBranchGe:
            DIOS_ASSERT(false,
                        "emit_c_kernel: control flow is not supported");
        }
    }
    out << "}\n\n";
}

}  // namespace

std::string
native_symbol_for(const std::string& kernel_name)
{
    std::string sym = "dios_";
    for (const char c : kernel_name) {
        sym += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
    }
    return sym;
}

std::string
emit_c_kernel(const Program& program, const EmitCOptions& options)
{
    check_vector_width(options.vector_width);
    const std::string& sym = options.symbol;
    DIOS_CHECK(!sym.empty() &&
                   (std::isalpha(static_cast<unsigned char>(sym[0])) ||
                    sym[0] == '_') &&
                   std::all_of(sym.begin(), sym.end(),
                               [](char c) {
                                   return std::isalnum(
                                              static_cast<unsigned char>(
                                                  c)) ||
                                          c == '_';
                               }),
               "emit-native symbol must be a C identifier: " + sym);
    for (const Instr& i : program.code) {
        DIOS_ASSERT(i.op != Opcode::kJump && i.op != Opcode::kBranchLt &&
                        i.op != Opcode::kBranchGe,
                    "emit_c_kernel: control flow is not supported");
    }

    const int width = options.vector_width;
    const bool vec = width >= kMinLeafWidth;
    std::ostringstream out;
    out << "/* " << sym << ": generated by dioscc --emit-native "
        << "(diospyros native backend).\n"
        << " * Do not edit. " << width
        << "-lane kernel over a flat float memory of "
        << options.memory_words << " words.\n"
        << " *\n"
        << " * Compile with " << (vec ? "GCC >= 12 or Clang" : "GCC or Clang")
        << "; every body turns floating-point\n"
        << " * contraction off itself, so multiply-accumulates stay unfused"
           "\n"
        << " * and match the cycle simulator bit for bit. E.g.:\n"
        << " *   cc -O2 -fPIC -shared -o " << sym << ".so " << sym
        << ".c -lm\n"
        << " */\n"
        << "#include <math.h>\n"
        << "#include <stddef.h>\n"
        << "#include <stdint.h>\n"
        << "#include <string.h>\n\n"
        << "#if defined(__clang__)\n"
        << "#  pragma clang fp contract(off)\n"
        << "#  define DIOS_NO_CONTRACT\n"
        << "#else\n"
        << "#  define DIOS_NO_CONTRACT "
           "__attribute__((optimize(\"fp-contract=off\")))\n"
        << "#endif\n\n"
        << "#if defined(__x86_64__) || defined(__i386__)\n"
        << "#  define DIOS_NATIVE_X86 1\n"
        << "#  include <immintrin.h>\n"
        << "#elif defined(__aarch64__)\n"
        << "#  define DIOS_NATIVE_NEON 1\n"
        << "#  include <arm_neon.h>\n"
        << "#endif\n\n";
    if (vec) {
        out << "#if !defined(__clang__) && "
               "!(defined(__GNUC__) && __GNUC__ >= 12)\n"
            << "#  error \"needs GCC >= 12 or Clang: the SIMD leaves use "
               "__builtin_shufflevector\"\n"
            << "#endif\n"
            << "typedef float dios_vf" << width
            << " __attribute__((vector_size(" << 4 * width << ")));\n\n";
    }
    out << "static inline float\n"
        << "dios_f32_bits(uint32_t bits)\n"
        << "{\n"
        << "    float f;\n"
        << "    memcpy(&f, &bits, sizeof f);\n"
        << "    return f;\n"
        << "}\n\n"
        << "static inline float\n"
        << "dios_sgnf(float x)\n"
        << "{\n"
        << "    return (float)((x > 0.0f) - (x < 0.0f));\n"
        << "}\n\n"
        << "const size_t " << sym << "_mem_words = "
        << options.memory_words << ";\n"
        << "const int " << sym << "_vector_width = " << width << ";\n\n";

    const bool has_pool = !options.pool.empty();
    if (has_pool) {
        DIOS_CHECK(options.memory_words == 0 ||
                       options.pool_base + options.pool.size() ==
                           options.memory_words,
                   "constant pool does not sit at the end of the memory "
                   "image");
        out << "/* Constant pool (materialized literal lane vectors), "
               "copied into\n"
            << " * mem[" << options.pool_base
            << "..] before any body reads it from memory — callers only\n"
            << " * initialize the input arrays. Stored as exact bit "
               "patterns. */\n"
            << "static const uint32_t " << sym << "_pool_bits["
            << options.pool.size() << "] = {";
        for (std::size_t k = 0; k < options.pool.size(); ++k) {
            std::uint32_t bits = 0;
            std::memcpy(&bits, &options.pool[k], sizeof bits);
            char buf[16];
            std::snprintf(buf, sizeof buf, "0x%08xu",
                          static_cast<unsigned>(bits));
            out << (k % 6 == 0 ? "\n    " : " ") << buf
                << (k + 1 < options.pool.size() ? "," : "");
        }
        out << "};\n\n"
            << "static void\n"
            << sym << "_init_pool(float* mem)\n{\n"
            << "    /* Skip the store when the pool is already in place: "
               "repeated\n"
            << "     * calls on a persistent buffer would otherwise re-store "
               "words\n"
            << "     * a body immediately reloads as wide vectors, and "
               "those\n"
            << "     * narrow-store/wide-load pairs defeat store "
               "forwarding. */\n"
            << "    if (memcmp(mem + " << options.pool_base << ", " << sym
            << "_pool_bits, sizeof " << sym << "_pool_bits) != 0) {\n"
            << "        memcpy(mem + " << options.pool_base << ", " << sym
            << "_pool_bits, sizeof " << sym << "_pool_bits);\n"
            << "    }\n"
            << "}\n\n";
    }
    const std::string init_pool =
        has_pool ? "    " + sym + "_init_pool(mem);\n" : "";

    const PoolFold fold = pool_fold(program, options);
    out << "/* Portable scalar core: the reference every SIMD leaf must "
           "match. */\n";
    emit_leaf_body(out, program, width, nullptr, PoolFold{},
                   sym + "_body_scalar");

    // The dispatched entry skips the pool copy on its leaf paths when
    // every pool word a leaf reads was folded into a literal.
    bool leaves_read_pool = false;
    for (const Instr& i : program.code) {
        const int n = access_words(i, width);
        leaves_read_pool |= has_pool &&
                            (i.op == Opcode::kFLoad ||
                             i.op == Opcode::kVLoad) &&
                            fold.touches(i, n) && !fold.covers(i, n);
    }
    out << "#if defined(DIOS_NATIVE_X86)\n\n";
    for (const Leaf& leaf : kX86Leaves) {
        emit_leaf_body(out, program, width, &leaf, fold,
                       sym + "_body_" + leaf.id);
    }
    out << "#elif defined(DIOS_NATIVE_NEON)\n\n";
    emit_leaf_body(out, program, width, &kNeonLeaf, fold,
                   sym + "_body_neon");
    out << "#endif\n\n";

    // ---- Runtime CPU dispatch (hmmer h4_simdvec_width() idiom). -------
    out << "/* SIMD register width, in floats, of the leaf the dispatcher"
           "\n * selects on this machine (1 = portable scalar core). */\n"
        << "int\n" << sym << "_native_width(void)\n{\n"
        << "#if defined(DIOS_NATIVE_X86)\n"
        << "    if (__builtin_cpu_supports(\"avx512f\")) { return 16; }\n"
        << "    if (__builtin_cpu_supports(\"avx2\")) { return 8; }\n"
        << "    if (__builtin_cpu_supports(\"sse2\")) { return 4; }\n"
        << "    return 1;\n"
        << "#elif defined(DIOS_NATIVE_NEON)\n"
        << "    return 4;\n"
        << "#else\n"
        << "    return 1;\n"
        << "#endif\n"
        << "}\n\n"
        << "const char*\n" << sym << "_native_isa(void)\n{\n"
        << "#if defined(DIOS_NATIVE_X86)\n"
        << "    if (__builtin_cpu_supports(\"avx512f\")) { return "
           "\"avx512\"; }\n"
        << "    if (__builtin_cpu_supports(\"avx2\")) { return \"avx2\"; "
           "}\n"
        << "    if (__builtin_cpu_supports(\"sse2\")) { return \"sse2\"; "
           "}\n"
        << "    return \"scalar\";\n"
        << "#elif defined(DIOS_NATIVE_NEON)\n"
        << "    return \"neon\";\n"
        << "#else\n"
        << "    return \"scalar\";\n"
        << "#endif\n"
        << "}\n\n"
        << "/* Always-scalar entry point (native baseline timing). */\n"
        << "void\n" << sym << "_scalar(float* mem)\n{\n"
        << init_pool
        << "    " << sym << "_body_scalar(mem);\n"
        << "}\n\n"
        << "/* CPU-dispatched entry point: widest leaf the host "
           "supports. */\n"
        << "void\n" << sym << "(float* mem)\n{\n"
        << (leaves_read_pool ? init_pool : "")
        << "#if defined(DIOS_NATIVE_X86)\n"
        << "    if (__builtin_cpu_supports(\"avx512f\")) { " << sym
        << "_body_avx512(mem); return; }\n"
        << "    if (__builtin_cpu_supports(\"avx2\")) { " << sym
        << "_body_avx2(mem); return; }\n"
        << "    if (__builtin_cpu_supports(\"sse2\")) { " << sym
        << "_body_sse2(mem); return; }\n"
        << "#elif defined(DIOS_NATIVE_NEON)\n"
        << "    " << sym << "_body_neon(mem);\n"
        << "    return;\n"
        << "#endif\n"
        << (leaves_read_pool ? "" : init_pool)
        << "    " << sym << "_body_scalar(mem);\n"
        << "}\n";

    return out.str();
}

}  // namespace diospyros
