/**
 * @file
 * The extraction cost model (paper §3.4).
 *
 * Per-operator additive costs, with the deliberately high-level
 * data-movement component the paper describes: a Vec whose lanes gather
 * from a *single* input array (or constants) is cheap — it lowers to one
 * load or one in-register shuffle on targets with a flexible shuffle —
 * while a Vec mixing arrays costs more (a multi-register select), and a
 * Vec whose lanes still contain scalar *computation* is penalized hard
 * (it forces element-wise inserts). Strictly monotonic: every operator
 * contributes a positive amount on top of its children's costs.
 */
#pragma once

#include <array>

#include "egraph/extract.h"

namespace diospyros {

/** Tunable cost-model parameters. */
struct CostParams {
    double literal = 0.1;          ///< Const / Symbol leaves
    double get = 1.0;              ///< scalar element access
    double scalar_op = 3.0;        ///< + - * neg sgn (scalar)
    double scalar_div = 9.0;       ///< scalar divide
    double scalar_sqrt = 11.0;     ///< scalar square root
    double scalar_recip = 3.0;     ///< scalar fast reciprocal
    double call = 4.0;             ///< user-defined function
    double vector_op = 1.0;        ///< lane-wise vector arithmetic / MAC
    /**
     * Long-latency iterative units are priced *above* their scalar
     * counterparts: a vector divide/sqrt only pays off when several lanes
     * are useful, and mostly-padded vectors of them otherwise flood the
     * schedule (the "overheads of vector packing" cost-model refinement
     * the paper's §5.6 calls for).
     */
    double vector_div = 20.0;      ///< vector divide
    double vector_sqrt = 26.0;     ///< vector square root
    double vector_recip = 7.0;     ///< vector fast reciprocal
    double vec_contiguous = 1.0;   ///< Vec = one aligned vector load
    double vec_single_array = 2.0; ///< Vec = load + one shuffle
    double vec_multi_array = 5.0;  ///< Vec = loads + cross-register select
    double vec_with_exprs = 16.0;  ///< Vec lanes hold scalar computation
    double concat = 0.25;          ///< structural
    double list = 0.25;            ///< structural
};

/**
 * Every CostParams field, in declaration order. The CompilerOptions
 * field list (compiler/option_fields.h) iterates it as its "cost" entry,
 * so a new field is hashed and carried on the wire without more code.
 */
inline constexpr std::array<double CostParams::*, 17> kCostParamFields = {
    &CostParams::literal,        &CostParams::get,
    &CostParams::scalar_op,      &CostParams::scalar_div,
    &CostParams::scalar_sqrt,    &CostParams::scalar_recip,
    &CostParams::call,           &CostParams::vector_op,
    &CostParams::vector_div,     &CostParams::vector_sqrt,
    &CostParams::vector_recip,   &CostParams::vec_contiguous,
    &CostParams::vec_single_array, &CostParams::vec_multi_array,
    &CostParams::vec_with_exprs, &CostParams::concat,
    &CostParams::list,
};
static_assert(sizeof(CostParams) ==
                  kCostParamFields.size() * sizeof(double),
              "kCostParamFields must list every CostParams field");

/** The Diospyros cost model over the e-graph. */
class DiosCostModel : public CostModel {
  public:
    /**
     * The machine vector width is a required argument: a cost model priced
     * for the wrong lane count silently mis-ranks Vec packings, so callers
     * must state the width they are extracting for.
     */
    DiosCostModel(CostParams params, int vector_width)
        : params_(params), width_(vector_width)
    {
    }

    double node_cost(const EGraph& graph,
                     const ENodeView& node) const override;

    /** Data-movement category of a Vec node (exposed for tests). */
    enum class VecKind {
        kContiguousLoad,
        kSingleArrayShuffle,
        kMultiArraySelect,
        kHasScalarComputation,
    };

    VecKind classify_vec(const EGraph& graph, const ENodeView& vec) const;

  private:
    CostParams params_;
    int width_;
};

}  // namespace diospyros
