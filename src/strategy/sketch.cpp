#include "strategy/sketch.h"

#include <map>
#include <utility>

namespace diospyros::strategy {

std::string
Sketch::to_string() const
{
    switch (kind) {
      case Kind::kAny:
        return "(any)";
      case Kind::kContains:
        return "(contains " + children[0].to_string() + ")";
      case Kind::kOp: {
        std::string out = "(op ";
        out += op_name(op);
        for (const Sketch& child : children) {
            out += ' ';
            out += child.to_string();
        }
        out += ')';
        return out;
      }
    }
    return "(any)";
}

namespace {

/**
 * Memoized satisfiability over (canonical class, sketch node). The
 * sketch tree is tiny, so sketch nodes are identified by pointer.
 */
class SketchMatcher {
  public:
    explicit SketchMatcher(const EGraph& graph) : graph_(graph) {}

    bool
    satisfied(ClassId id, const Sketch& sketch)
    {
        const ClassId root = graph_.find_const(id);
        const auto key = std::make_pair(root, &sketch);
        const auto it = memo_.find(key);
        if (it != memo_.end()) {
            // In-progress (cyclic) pairs read as unsatisfied: sound for
            // an existential language — a genuinely satisfied class is
            // found through some acyclic path.
            return it->second;
        }
        memo_.emplace(key, false);
        const bool result = compute(root, sketch);
        memo_[key] = result;
        return result;
    }

  private:
    bool
    compute(ClassId root, const Sketch& sketch)
    {
        switch (sketch.kind) {
          case Sketch::Kind::kAny:
            return true;
          case Sketch::Kind::kOp: {
            for (const ENodeView node : graph_.class_nodes(root)) {
                if (node.op != sketch.op ||
                    sketch.children.size() > node.children.size()) {
                    continue;
                }
                bool all = true;
                for (std::size_t i = 0; i < sketch.children.size(); ++i) {
                    if (!satisfied(node.children[i], sketch.children[i])) {
                        all = false;
                        break;
                    }
                }
                if (all) {
                    return true;
                }
            }
            return false;
          }
          case Sketch::Kind::kContains: {
            // Existential reachability: BFS the classes reachable from
            // `root`, testing the inner sketch on each.
            std::vector<ClassId> stack{root};
            std::map<ClassId, bool> seen{{root, true}};
            while (!stack.empty()) {
                const ClassId id = stack.back();
                stack.pop_back();
                if (satisfied(id, sketch.children[0])) {
                    return true;
                }
                for (const ENodeView node : graph_.class_nodes(id)) {
                    for (const ClassId child : node.children) {
                        const ClassId c = graph_.find_const(child);
                        if (!seen.count(c)) {
                            seen[c] = true;
                            stack.push_back(c);
                        }
                    }
                }
            }
            return false;
          }
        }
        return false;
    }

    const EGraph& graph_;
    std::map<std::pair<ClassId, const Sketch*>, bool> memo_;
};

}  // namespace

bool
sketch_satisfied(const EGraph& graph, ClassId root, const Sketch& sketch)
{
    SketchMatcher matcher(graph);
    return matcher.satisfied(root, sketch);
}

bool
op_from_token(const std::string& token, bool vec, Op& out)
{
    if (vec) {
        // The vec-of sugar: scalar spelling → vector lift.
        struct Lift {
            const char* scalar;
            const char* alias;
            Op vector_op;
        };
        static const Lift kLifts[] = {
            {"+", "add", Op::kVecAdd},      {"-", "sub", Op::kVecMinus},
            {"*", "mul", Op::kVecMul},      {"/", "div", Op::kVecDiv},
            {"neg", nullptr, Op::kVecNeg},  {"sgn", nullptr, Op::kVecSgn},
            {"sqrt", nullptr, Op::kVecSqrt},
            {"recip", nullptr, Op::kVecRecip},
            {"mac", nullptr, Op::kVecMAC},
        };
        for (const Lift& lift : kLifts) {
            if (token == lift.scalar ||
                (lift.alias != nullptr && token == lift.alias)) {
                out = lift.vector_op;
                return true;
            }
        }
        // Fall through: allow naming the vector op directly.
    }
    for (int i = 0; i < kNumOps; ++i) {
        const Op op = static_cast<Op>(i);
        if (token == op_name(op)) {
            out = op;
            return true;
        }
    }
    return false;
}

}  // namespace diospyros::strategy
