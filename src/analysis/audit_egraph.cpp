#include "analysis/audit_egraph.h"

#include <cmath>
#include <limits>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace diospyros::analysis {

namespace {

constexpr const char* kPass = "egraph-audit";

/** Tolerance for comparing accumulated double costs. */
bool
close(double a, double b)
{
    const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
    return std::fabs(a - b) <= 1e-9 * scale;
}

}  // namespace

bool
audit_egraph(const EGraph& graph, DiagEngine& diags)
{
    const std::size_t errors_before = diags.error_count();
    if (!graph.is_clean()) {
        diags.error(kPass, "E106",
                    "audit requires a clean graph: merges are pending a "
                    "rebuild");
        return false;
    }

    const std::vector<ClassId> ids = graph.class_ids();
    const std::unordered_set<ClassId> id_set(ids.begin(), ids.end());
    std::unordered_map<ENode, ClassId, ENodeHash> canonical_nodes;

    for (const ClassId id : ids) {
        if (graph.find_const(id) != id) {
            diags.error(kPass, "E101",
                        "class id is not canonical under the union-find",
                        -1, id);
            continue;
        }
        for (const ENodeView raw : graph.class_nodes(id)) {
            ENode node = raw.to_enode();
            bool children_ok = true;
            for (ClassId& c : node.children) {
                c = graph.find_const(c);
                if (!id_set.count(c)) {
                    diags.error(kPass, "E102",
                                "e-node child c" + std::to_string(c) +
                                    " is not a live e-class: " +
                                    raw.to_string(),
                                -1, id);
                    children_ok = false;
                }
            }
            if (!children_ok) {
                continue;
            }
            const auto hit = graph.lookup_const(node);
            if (!hit.has_value()) {
                diags.error(kPass, "E103",
                            "canonical e-node missing from the hashcons: " +
                                node.to_string(),
                            -1, id);
            } else if (*hit != id) {
                diags.error(kPass, "E104",
                            "hashcons maps " + node.to_string() +
                                " to class c" + std::to_string(*hit),
                            -1, id);
            }
            const auto [it, inserted] =
                canonical_nodes.try_emplace(node, id);
            if (!inserted && it->second != id) {
                diags.error(kPass, "E105",
                            "congruence violation: " + node.to_string() +
                                " also lives in class c" +
                                std::to_string(it->second),
                            -1, id);
            }
        }
    }

    // E107 / E108: the e-matching op-index must agree exactly with the
    // class table — complete (every class holding op P is listed under P,
    // else indexed search silently skips matches) and sound (every listed
    // class is canonical, listed once, and really holds a node with P).
    for (int op_i = 0; op_i < kNumOps; ++op_i) {
        const Op op = static_cast<Op>(op_i);
        const std::vector<ClassId>& indexed = graph.classes_with_op(op);
        const std::unordered_set<ClassId> indexed_set(indexed.begin(),
                                                      indexed.end());
        if (indexed_set.size() != indexed.size()) {
            diags.error(kPass, "E108",
                        std::string("op-index for ") + op_name(op) +
                            " contains duplicate entries");
        }
        for (const ClassId id : indexed) {
            bool has_op = false;
            if (graph.find_const(id) != id || !id_set.count(id)) {
                diags.error(kPass, "E108",
                            std::string("op-index for ") + op_name(op) +
                                " lists non-canonical or dead class",
                            -1, id);
                continue;
            }
            for (const ENodeView n : graph.class_nodes(id)) {
                if (n.op == op) {
                    has_op = true;
                    break;
                }
            }
            if (!has_op) {
                diags.error(kPass, "E108",
                            std::string("op-index for ") + op_name(op) +
                                " lists a class with no such node",
                            -1, id);
            }
        }
        for (const ClassId id : ids) {
            bool has_op = false;
            for (const ENodeView n : graph.class_nodes(id)) {
                if (n.op == op) {
                    has_op = true;
                    break;
                }
            }
            if (has_op && !indexed_set.count(id)) {
                diags.error(kPass, "E107",
                            std::string("op-index for ") + op_name(op) +
                                " is missing a class that holds the op",
                            -1, id);
            }
        }
    }
    return diags.error_count() == errors_before;
}

bool
audit_extraction(const EGraph& graph, const CostModel& cost,
                 DiagEngine& diags, const Extractor* extractor)
{
    const std::size_t errors_before = diags.error_count();
    const std::vector<ClassId> ids = graph.class_ids();

    // E201: strict monotonicity of the model itself.
    for (const ClassId id : ids) {
        for (const ENodeView node : graph.class_nodes(id)) {
            const double c = cost.node_cost(graph, node);
            if (!(c > 0.0)) {
                diags.error(kPass, "E201",
                            "node cost " + std::to_string(c) +
                                " is not strictly positive: " +
                                node.to_string(),
                            -1, id);
            }
        }
    }
    if (extractor == nullptr) {
        return diags.error_count() == errors_before;
    }

    // Total cost of realizing `node`, given the extractor's class costs.
    auto node_total = [&](const ENodeView& node) {
        double total = cost.node_cost(graph, node);
        for (const ClassId child : node.children) {
            total += extractor->class_cost(child);
        }
        return total;
    };

    // E202 / E204: each class's cost is the minimum over its nodes and
    // is achieved by at least one of them. Also record that argmin node
    // for the acyclicity walk below.
    std::unordered_map<ClassId, ENodeView> chosen;
    for (const ClassId id : ids) {
        const double cc = extractor->class_cost(id);
        if (!std::isfinite(cc)) {
            continue;  // unrealizable class (e.g. pure cycle): no choice
        }
        std::optional<ENodeView> best;
        for (const ENodeView node : graph.class_nodes(id)) {
            const double total = node_total(node);
            if (!std::isfinite(total)) {
                continue;
            }
            if (total < cc && !close(total, cc)) {
                diags.error(kPass, "E202",
                            "class cost " + std::to_string(cc) +
                                " exceeds alternative " +
                                node.to_string() + " with total cost " +
                                std::to_string(total),
                            -1, id);
            }
            if (!best && close(total, cc)) {
                best = node;
            }
        }
        if (!best) {
            diags.error(kPass, "E204",
                        "class cost " + std::to_string(cc) +
                            " is not achieved by any e-node in the class",
                        -1, id);
        } else {
            chosen.emplace(id, *best);
        }
    }

    // E203: the chosen-node graph must be acyclic (guaranteed when every
    // node cost is strictly positive; checked independently here).
    enum class Mark { kUnvisited, kOnStack, kDone };
    std::unordered_map<ClassId, Mark> marks;
    for (const ClassId root : ids) {
        if (marks.count(root)) {
            continue;
        }
        // Iterative DFS over chosen children.
        std::vector<std::pair<ClassId, std::size_t>> stack;
        stack.emplace_back(root, 0);
        marks[root] = Mark::kOnStack;
        while (!stack.empty()) {
            auto& [id, next_child] = stack.back();
            const auto it = chosen.find(id);
            const std::size_t arity =
                it == chosen.end() ? 0 : it->second.children.size();
            if (next_child >= arity) {
                marks[id] = Mark::kDone;
                stack.pop_back();
                continue;
            }
            const ClassId child =
                graph.find_const(it->second.children[next_child++]);
            const auto mark = marks.find(child);
            if (mark == marks.end()) {
                marks[child] = Mark::kOnStack;
                stack.emplace_back(child, 0);
            } else if (mark->second == Mark::kOnStack) {
                diags.error(kPass, "E203",
                            "extraction choices form a cycle through "
                            "class c" +
                                std::to_string(child),
                            -1, child);
                marks[child] = Mark::kDone;
            }
        }
    }
    return diags.error_count() == errors_before;
}

}  // namespace diospyros::analysis
