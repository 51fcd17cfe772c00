/**
 * @file
 * Native C backend: lowers a scheduled straight-line machine Program to
 * a self-contained C translation unit that runs on the *host* CPU.
 *
 * The generated file follows the hmmer/simdvec architecture: one
 * portable scalar core plus per-ISA leaf bodies (SSE2, AVX2, AVX-512 on
 * x86; NEON on aarch64), compiled into a single translation unit via
 * per-function target attributes and selected at run time by an
 * `h4_simdvec_width()`-style CPU-dispatch wrapper built on
 * `__builtin_cpu_supports`. In a leaf every machine vector register is
 * a GCC/Clang vector-extension value (`float` × W), so the host compiler
 * keeps it in registers: loads and stores are unaligned `memcpy`s,
 * arithmetic is plain operators, and `shuf`/`sel` are one
 * `__builtin_shufflevector` each. Only `vsqrt` is ISA-specific (the
 * leaf's sqrt intrinsic when W is one of its register widths). Leaves
 * of kernels narrower than every leaf register (W = 1, 2) keep the
 * scalar core's float arrays and lane loops: the target attribute alone
 * makes them faster than the scalar core on register-heavy kernels, and
 * 8-byte vector values were slower than both. A leaf's absolute loads
 * from the
 * constant pool become literals, unless some store may write the pool.
 *
 * Compiler requirement: GCC >= 12 or Clang for units with SIMD leaves
 * (`__builtin_shufflevector`; the unit `#error`s otherwise). The NEON
 * leaf and the Clang path are written to those compilers' documented
 * semantics but are only exercised on GCC/x86 so far.
 *
 * Bit-exactness contract: every leaf computes exactly what the cycle
 * simulator (machine/sim.cpp) computes — plain IEEE single-precision
 * add/sub/mul/div, correctly rounded sqrt, reciprocal as a literal
 * `1.0f / x` division, and *non-fused* multiply-accumulate. Every body
 * turns floating-point contraction off itself (`optimize("fp-contract=
 * off")` on GCC, `#pragma clang fp contract(off)` on Clang), so no
 * compiler flag is needed and native and simulated results agree to
 * 0 ULP on every memory word below the pool; the differential harness
 * (bench/native_diff) still allows a small ULP budget so the gate is
 * robust to future leaves with weaker guarantees.
 */
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "machine/program.h"

namespace diospyros {

/** Options for the native C emitter. */
struct EmitCOptions {
    /**
     * C identifier prefix for every exported symbol. The emitted unit
     * defines:
     *   void        <symbol>(float* mem);         // CPU-dispatched
     *   void        <symbol>_scalar(float* mem);  // portable core
     *   int         <symbol>_native_width(void);  // dispatch query
     *   const char* <symbol>_native_isa(void);    // dispatch query
     *   extern const size_t <symbol>_mem_words;   // required mem size
     *   extern const int    <symbol>_vector_width;
     */
    std::string symbol = "dios_kernel";
    /** Machine vector width the program was compiled for. */
    int vector_width = 4;
    /**
     * Size, in floats, of the flat memory image the kernel expects
     * (arrays padded to width multiples, then the constant pool) —
     * exported so a loader can size its buffer without the layout.
     */
    std::size_t memory_words = 0;
    /**
     * Constant-pool contents (CompiledLayout::pool()) and the word
     * offset where they live (CompiledLayout::pool_base_words()). When
     * non-empty, the pool is embedded in the unit as exact bit patterns,
     * so standalone callers initialize only the input arrays. The
     * `_scalar` entry copies it into `mem` on every call. SIMD leaves
     * read absolute pool loads as literals, so the dispatched entry
     * copies it only when some leaf still reads a pool word from memory
     * (or it falls back to the scalar core); the pool region of `mem`
     * is then left as the caller passed it.
     */
    std::vector<float> pool;
    std::size_t pool_base = 0;
};

/**
 * Emits the C translation unit for `program`.
 *
 * Only straight-line programs (no jumps or branches; `halt` terminates)
 * are supported — which is every program the VProgram lowering emits.
 * Throws UserError on an invalid symbol or vector width and
 * InternalError when the program contains control flow.
 */
std::string emit_c_kernel(const Program& program,
                          const EmitCOptions& options);

/**
 * Derives a valid C symbol prefix from a kernel name:
 * "2d-conv-3x3_3x3" -> "dios_2d_conv_3x3_3x3". Non-identifier
 * characters become underscores and the "dios_" prefix keeps a leading
 * digit legal.
 */
std::string native_symbol_for(const std::string& kernel_name);

}  // namespace diospyros
