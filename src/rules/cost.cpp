#include "rules/cost.h"

#include <optional>

#include "rules/rules.h"

namespace diospyros {

DiosCostModel::VecKind
DiosCostModel::classify_vec(const EGraph& graph,
                            const ENodeView& vec) const
{
    // Inspect lane *classes*: a lane counts as a leaf if its class offers
    // a Get node or a constant. This is class-level information, so the
    // bottom-up extraction DP stays valid (see extract.h).
    Symbol array;
    bool saw_array = false;
    bool multi_array = false;
    bool contiguous = true;
    std::int64_t expect_index = -1;
    for (const ClassId lane : vec.children) {
        const ClassId id = graph.find_const(lane);
        if (class_constant(graph, id).has_value()) {
            // Constants never break single-array or contiguity; they can
            // ride along in a shuffled zero/constant register.
            contiguous = false;
            continue;
        }
        // Prefer a Get on the array this Vec is already tracking: after
        // rewrites merge classes, a lane class can alias elements of
        // several arrays (e.g. hold both (Get b 9) and (Get a 1)), and
        // taking whichever Get happens to be stored first would classify
        // by the alias instead of the run the vector is actually reading.
        std::optional<ENodeView> get;
        for (const ENodeView n : graph.class_nodes(id)) {
            if (n.op != Op::kGet) {
                continue;
            }
            if (!get) {
                get = n;
            }
            if (saw_array && n.symbol == array) {
                get = n;
                break;
            }
        }
        if (!get) {
            return VecKind::kHasScalarComputation;
        }
        if (!saw_array) {
            saw_array = true;
            array = get->symbol;
            expect_index = get->index;
        } else if (get->symbol != array) {
            // Foreign-array lane: a cross-array select, never part of the
            // tracked array's run — do not advance expect_index, so the
            // tracked run is judged only against its own lanes.
            multi_array = true;
            contiguous = false;
            continue;
        }
        if (get->index != expect_index) {
            contiguous = false;
        }
        ++expect_index;
    }
    if (multi_array) {
        return VecKind::kMultiArraySelect;
    }
    // A fully-aligned run starting at a multiple of the width is a plain
    // vector load. The lookup must name the tracked array: lane 0's class
    // may also alias a foreign array's element, and an unqualified "first
    // Get" could report that alias's index here.
    if (saw_array && contiguous) {
        std::optional<std::int64_t> first_index;
        for (const ENodeView n : graph.class_nodes(vec.children[0])) {
            if (n.op == Op::kGet && n.symbol == array) {
                first_index = n.index;
                break;
            }
        }
        if (first_index && width_ > 0 && *first_index % width_ == 0) {
            return VecKind::kContiguousLoad;
        }
    }
    return VecKind::kSingleArrayShuffle;
}

double
DiosCostModel::node_cost(const EGraph& graph,
                         const ENodeView& node) const
{
    switch (node.op) {
      case Op::kConst:
      case Op::kSymbol:
        return params_.literal;
      case Op::kGet:
        return params_.get;
      case Op::kAdd:
      case Op::kSub:
      case Op::kMul:
      case Op::kNeg:
      case Op::kSgn:
        return params_.scalar_op;
      case Op::kDiv:
        return params_.scalar_div;
      case Op::kSqrt:
        return params_.scalar_sqrt;
      case Op::kRecip:
        return params_.scalar_recip;
      case Op::kCall:
        return params_.call;
      case Op::kVec:
        switch (classify_vec(graph, node)) {
          case VecKind::kContiguousLoad:
            return params_.vec_contiguous;
          case VecKind::kSingleArrayShuffle:
            return params_.vec_single_array;
          case VecKind::kMultiArraySelect:
            return params_.vec_multi_array;
          case VecKind::kHasScalarComputation:
            return params_.vec_with_exprs;
        }
        return params_.vec_with_exprs;
      case Op::kConcat:
        return params_.concat;
      case Op::kVecAdd:
      case Op::kVecMinus:
      case Op::kVecMul:
      case Op::kVecMAC:
      case Op::kVecNeg:
      case Op::kVecSgn:
        return params_.vector_op;
      case Op::kVecDiv:
        return params_.vector_div;
      case Op::kVecSqrt:
        return params_.vector_sqrt;
      case Op::kVecRecip:
        return params_.vector_recip;
      case Op::kList:
        return params_.list;
    }
    return params_.scalar_op;
}

}  // namespace diospyros
