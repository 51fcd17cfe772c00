#include "machine/target.h"

#include "support/error.h"

namespace diospyros {

bool
is_supported_vector_width(int width)
{
    return width >= 1 && width <= kMaxVectorWidth &&
           (width & (width - 1)) == 0;
}

void
check_vector_width(int width)
{
    DIOS_CHECK(is_supported_vector_width(width),
               "unsupported vector width " + std::to_string(width) +
                   ": must be a power of two in [1, " +
                   std::to_string(kMaxVectorWidth) + "]");
}

namespace {

/** A `width`-lane preset with its costs from the opcode table; only the
 *  2-wide one has the scalar MAC and the fast reciprocal. */
TargetSpec
preset(const char* name, int width)
{
    TargetSpec spec;
    spec.name = name;
    spec.vector_width = width;
    spec.has_reciprocal = width == 2;
    spec.has_scalar_mac = width == 2;
    spec.taken_branch_penalty = 1;
    // Result latencies of the opcode table. The iterative vector units
    // (divide, sqrt, reciprocal) take one more refinement step per lane
    // doubling past the 4-wide baseline; widths <= 4 pay nothing.
    int extra = 0;
    for (int w = 8; w <= width; w *= 2) {
        ++extra;
    }
    for (int k = 0; k < kNumOpcodes; ++k) {
        const OpcodeInfo& row = opcode_info(static_cast<Opcode>(k));
        spec.cost_table[static_cast<std::size_t>(k)] =
            row.latency + (row.iterative ? extra : 0);
    }
    return spec;
}

}  // namespace

TargetSpec
TargetSpec::fusion_g3_like()
{
    // MAC lives in the vector unit only.
    return preset("fusion-g3-like", 4);
}

TargetSpec
TargetSpec::narrow_2wide()
{
    return preset("narrow-2wide", 2);
}

TargetSpec
TargetSpec::wide_8()
{
    return preset("wide-8", 8);
}

TargetSpec
TargetSpec::wide_16()
{
    return preset("wide-16", 16);
}

TargetSpec
TargetSpec::for_width(int width)
{
    switch (width) {
      case 2:
        return narrow_2wide();
      case 4:
        return fusion_g3_like();
      case 8:
        return wide_8();
      case 16:
        return wide_16();
      default:
        detail::raise_user("no target preset for vector width " +
                           std::to_string(width) +
                           ": presets exist for 2, 4, 8, and 16 lanes");
    }
}

TargetSpec
TargetSpec::fusion_g3_vliw()
{
    TargetSpec spec = fusion_g3_like();
    spec.name = "fusion-g3-vliw";
    spec.issue_width = 3;
    return spec;
}

}  // namespace diospyros
