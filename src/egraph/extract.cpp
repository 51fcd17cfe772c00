#include "egraph/extract.h"

#include "support/error.h"
#include "support/faults.h"

namespace diospyros {

Extractor::Extractor(const EGraph& graph, const CostModel& cost,
                     const Deadline& deadline)
    : graph_(graph), best_(graph.class_id_bound())
{
    DIOS_ASSERT(graph.is_clean(), "extraction requires a rebuilt e-graph");
    const std::vector<ClassId> ids = graph.class_ids();
    // A node's own cost depends only on the (unchanging) graph: price
    // each node once, on the first pass.
    std::vector<double> node_costs(graph.num_nodes());

    // Bellman-Ford-style relaxation to a fixpoint. Each pass is linear in
    // the number of e-nodes; the pass count is bounded by the extraction
    // DAG depth.
    bool first_pass = true;
    bool changed = true;
    while (changed) {
        deadline.check("extraction");
        changed = false;
        for (const ClassId id : ids) {
            Choice& choice = best_[id];
            for (const NodeId n : graph.eclass(id).nodes) {
                const ENodeView node = graph.node(n);
                if (first_pass) {
                    node_costs[n] = cost.node_cost(graph, node);
                    DIOS_ASSERT(node_costs[n] > 0.0,
                                "cost model must be strictly monotonic");
                }
                double total = node_costs[n];
                bool realizable = true;
                for (const ClassId child : node.children) {
                    const Choice& cc = best_[graph.find_const(child)];
                    if (cc.node == kNoChoice) {
                        realizable = false;
                        break;
                    }
                    total += cc.cost;
                }
                if (realizable && total < choice.cost) {
                    choice.cost = total;
                    choice.node = n;
                    changed = true;
                }
            }
        }
        first_pass = false;
    }
}

const Extractor::Choice&
Extractor::choice(ClassId id) const
{
    DIOS_ASSERT(id < best_.size(), "extraction query for unknown class");
    return best_[graph_.find_const(id)];
}

double
Extractor::class_cost(ClassId id) const
{
    return choice(id).cost;
}

Extraction
Extractor::extract(ClassId id) const
{
    DIOS_FAULT_POINT("extract.build");
    id = graph_.find_const(id);
    DIOS_CHECK(choice(id).node != kNoChoice,
               "e-class has no realizable term (cyclic without leaves)");
    // Explicit worklist instead of recursion: the extracted term's depth
    // is bounded only by the e-graph (a chain of n adds extracts as a
    // depth-n term), and deep kernels used to overflow the call stack
    // here. Each frame visits its chosen node's children first (post-order
    // via the `expanded` flag), then materializes the term.
    struct Frame {
        ClassId id;
        bool expanded;
    };
    std::vector<TermRef> built(best_.size());
    std::vector<Frame> stack;
    stack.push_back(Frame{id, false});
    while (!stack.empty()) {
        Frame& frame = stack.back();
        const ClassId cur = frame.id;
        if (built[cur] != nullptr) {
            stack.pop_back();
            continue;
        }
        const NodeId chosen = best_[cur].node;
        DIOS_ASSERT(chosen != kNoChoice, "building an unrealizable class");
        const ENodeView node = graph_.node(chosen);
        if (!frame.expanded) {
            frame.expanded = true;
            // Push children in reverse so they build left-to-right,
            // matching the old recursive order.
            for (auto it = node.children.rbegin();
                 it != node.children.rend(); ++it) {
                const ClassId child = graph_.find_const(*it);
                if (built[child] == nullptr) {
                    stack.push_back(Frame{child, false});
                }
            }
            continue;
        }
        std::vector<TermRef> kids;
        kids.reserve(node.children.size());
        for (const ClassId child : node.children) {
            kids.push_back(built[graph_.find_const(child)]);
        }
        built[cur] = enode_to_term(node, kids);
        stack.pop_back();
    }
    Extraction result;
    result.term = built[id];
    result.cost = best_[id].cost;
    return result;
}

}  // namespace diospyros
