// Property tests pinning down the extraction algorithm: on small
// e-graphs, the Extractor's choice must match a brute-force enumeration
// of every represented term, for both the tree-size cost and the
// Diospyros cost model.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>

#include "egraph/extract.h"
#include "egraph/runner.h"
#include "rules/cost.h"
#include "rules/rules.h"
#include "support/rng.h"

namespace diospyros {
namespace {

/**
 * Brute-force minimum extraction cost per class: fixpoint over explicit
 * enumeration, structurally identical to what the Extractor must compute
 * but written independently (top-down memoized recursion with an
 * iteration cap instead of the Extractor's relaxation loop).
 */
std::map<ClassId, double>
brute_force_costs(const EGraph& g, const CostModel& cost)
{
    std::map<ClassId, double> best;
    for (const ClassId id : g.class_ids()) {
        best[id] = std::numeric_limits<double>::infinity();
    }
    // Repeat n_classes times: guarantees convergence on any DAG depth.
    for (std::size_t round = 0; round < g.num_classes() + 1; ++round) {
        for (const ClassId id : g.class_ids()) {
            for (const ENodeView node : g.class_nodes(id)) {
                double total = cost.node_cost(g, node);
                bool ok = true;
                for (const ClassId child : node.children) {
                    const double c = best.at(g.find_const(child));
                    if (!std::isfinite(c)) {
                        ok = false;
                        break;
                    }
                    total += c;
                }
                if (ok) {
                    best[id] = std::min(best[id], total);
                }
            }
        }
    }
    return best;
}

/** Builds a random small e-graph by inserting terms and merging a few
 *  equivalent-by-rule classes. */
EGraph
random_graph(Rng& rng, ClassId* root_out)
{
    EGraph g;
    std::vector<ClassId> pool;
    for (int i = 0; i < 4; ++i) {
        pool.push_back(g.add_get(Symbol("a"), i));
    }
    pool.push_back(g.add_const(Rational(0)));
    pool.push_back(g.add_const(Rational(1)));
    for (int step = 0; step < 12; ++step) {
        const auto x = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(pool.size()) - 1));
        const auto y = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(pool.size()) - 1));
        const Op op = rng.uniform_int(0, 1) ? Op::kAdd : Op::kMul;
        pool.push_back(g.add_op(op, {pool[x], pool[y]}));
    }
    g.rebuild();
    // Saturate with sound simplification rules to create choice.
    std::vector<Rewrite> rules;
    rules.push_back(Rewrite::make("add0", "(+ ?x 0)", "?x"));
    rules.push_back(Rewrite::make("mul1", "(* ?x 1)", "?x"));
    rules.push_back(Rewrite::make("comm", "(+ ?a ?b)", "(+ ?b ?a)"));
    rules.push_back(Rewrite::make("mul0", "(* ?x 0)", "0"));
    Runner(RunnerLimits{.node_limit = 50'000,
                        .iter_limit = 6,
                        .time_limit_seconds = 5.0})
        .run(g, rules);
    *root_out = g.find(pool.back());
    return g;
}

TEST(ExtractOptimality, MatchesBruteForceTreeSize)
{
    Rng rng(3000);
    for (int trial = 0; trial < 25; ++trial) {
        ClassId root = 0;
        EGraph g = random_graph(rng, &root);
        const TreeSizeCost cost;
        const Extractor ex(g, cost);
        const auto brute = brute_force_costs(g, cost);
        for (const ClassId id : g.class_ids()) {
            EXPECT_DOUBLE_EQ(ex.class_cost(id), brute.at(id))
                << "trial " << trial << " class " << id;
        }
        // The extracted term's real tree size equals the claimed cost.
        const Extraction best = ex.extract(root);
        EXPECT_DOUBLE_EQ(best.cost,
                         static_cast<double>(Term::tree_size(best.term)));
    }
}

TEST(ExtractOptimality, MatchesBruteForceDiosCost)
{
    Rng rng(4000);
    const DiosCostModel cost({}, 4);
    for (int trial = 0; trial < 25; ++trial) {
        ClassId root = 0;
        EGraph g = random_graph(rng, &root);
        const Extractor ex(g, cost);
        const auto brute = brute_force_costs(g, cost);
        for (const ClassId id : g.class_ids()) {
            EXPECT_NEAR(ex.class_cost(id), brute.at(id), 1e-9)
                << "trial " << trial << " class " << id;
        }
    }
}

TEST(ExtractOptimality, ExtractedTermIsRepresented)
{
    // The extracted term must re-insert into the same class.
    Rng rng(5000);
    for (int trial = 0; trial < 10; ++trial) {
        ClassId root = 0;
        EGraph g = random_graph(rng, &root);
        const TreeSizeCost cost;
        const Extractor ex(g, cost);
        const Extraction best = ex.extract(root);
        const ClassId reinserted = g.add_term(best.term);
        g.rebuild();
        EXPECT_EQ(g.find(reinserted), g.find(root)) << "trial " << trial;
    }
}

}  // namespace
}  // namespace diospyros
