/**
 * @file
 * Target machine description for the simulated DSP.
 *
 * The evaluation target stands in for the Tensilica Fusion G3 (paper §5.1):
 * an in-order core with a 4-wide single-precision SIMD unit, flexible
 * single-register shuffle (PDX_SHFL_MX32) and two-register select
 * (PDX_SEL_MX32) instructions, and — matching the paper's xt-run
 * configuration (§5.2) — an ideal unit-delay memory.
 *
 * The TargetSpec is deliberately parametric (vector width, op costs, which
 * extension ops exist) to mirror the paper's portability story (§6). The
 * instruction set itself, with each opcode's baseline latency, is the
 * opcode table of machine/opcodes.h; the presets here derive their cost
 * tables from it.
 */
#pragma once

#include <array>
#include <string>

#include "machine/opcodes.h"

namespace diospyros {

/** Maximum SIMD width any TargetSpec may request. */
constexpr int kMaxVectorWidth = 16;

/** Whether `width` is a lane count any layer may be asked to handle:
 *  a power of two in [1, kMaxVectorWidth]. The layout/padding logic and
 *  the lane-table encodings all assume power-of-two widths. */
bool is_supported_vector_width(int width);

/** Validates a caller-supplied lane width; throws UserError otherwise.
 *  Shared by the compiler driver, the rule builder, and the daemon's
 *  protocol boundary so every entry point rejects the same set. */
void check_vector_width(int width);

/** Machine parameters and the cycle cost model. */
struct TargetSpec {
    std::string name = "sim-dsp";
    /** SIMD lanes (floats per vector register). */
    int vector_width = 4;
    /** Whether the fast-reciprocal extension exists (paper §6 example). */
    bool has_reciprocal = false;
    /**
     * Whether the *scalar* FPU has a fused multiply-accumulate. The
     * Fusion G3-like target does not (MAC lives in the vector unit), so
     * scalar accumulation costs a multiply plus an add — one of the
     * structural reasons vectorized kernels win.
     */
    bool has_scalar_mac = false;
    /**
     * Result latency per opcode: an in-order consumer stalls until the
     * producer's result is ready (simple scoreboard, no forwarding
     * shortcut beyond the latency itself). Issue rate is one instruction
     * per cycle. The presets fill it from the opcode table's latencies.
     */
    std::array<int, kNumOpcodes> cost_table{};
    /** Extra cycles when a branch is taken (pipeline refill). */
    int taken_branch_penalty = 1;
    /**
     * Instructions issued per cycle (VLIW bundle width). Each functional
     * unit accepts at most one instruction per cycle regardless. 1 =
     * strictly sequential issue.
     */
    int issue_width = 1;

    int
    cost(Opcode op) const
    {
        return cost_table[static_cast<int>(op)];
    }

    /**
     * The default evaluation target: 4-wide float SIMD, unit-delay memory,
     * multi-cycle divide/sqrt, single-cycle shuffles (the Fusion G3's
     * "fast, unrestricted shuffle", paper §3.4).
     */
    static TargetSpec fusion_g3_like();

    /** A narrower 2-wide variant used in tests and portability studies. */
    static TargetSpec narrow_2wide();

    /**
     * Wider presets for the multi-ISA width-sensitivity studies
     * (ROADMAP "parametric multi-ISA backend"). Same pipeline shape as
     * the 4-wide default, but the iterative vector units (divide, sqrt,
     * reciprocal) pay extra latency as lanes double — a wider iterative
     * unit needs more refinement steps, which is what makes mostly-
     * padded wide vectors of them unprofitable.
     */
    static TargetSpec wide_8();
    static TargetSpec wide_16();

    /**
     * The canonical preset for a lane width in {2, 4, 8, 16}
     * (narrow_2wide / fusion_g3_like / wide_8 / wide_16). Throws
     * UserError for any other width.
     */
    static TargetSpec for_width(int width);

    /**
     * The default target with its VLIW bundles enabled (3 slots:
     * int/memory/compute issue in parallel) — the Fusion G3 family is a
     * VLIW machine; the single-issue default isolates vectorization
     * effects, this preset measures them under instruction-level
     * parallelism too (see bench/ablation_vliw).
     */
    static TargetSpec fusion_g3_vliw();
};

}  // namespace diospyros
