// Tests for the vectorization rewrite rules and the cost model.
// Every rule family is checked for (a) the rewrites it must find and
// (b) soundness via differential evaluation of extracted terms.

#include <gtest/gtest.h>

#include <optional>

#include "egraph/extract.h"
#include "egraph/runner.h"
#include "ir/eval.h"
#include "rules/cost.h"
#include "rules/rules.h"
#include "support/rng.h"

namespace diospyros {
namespace {

RunnerLimits
small_limits()
{
    return RunnerLimits{.node_limit = 200'000,
                        .iter_limit = 12,
                        .time_limit_seconds = 20.0};
}

/** Saturate `spec` under `config` and extract the best term. */
TermRef
optimize(const std::string& spec, RuleConfig config = RuleConfig(4))
{
    EGraph g;
    const ClassId root = g.add_term(Term::parse(spec));
    g.rebuild();
    Runner runner(small_limits());
    runner.run(g, build_rules(config));
    const DiosCostModel cost({}, config.vector_width);
    const Extractor ex(g, cost);
    return ex.extract(g.find(root)).term;
}

/** True if `term` contains the operator anywhere. */
bool
contains_op(const TermRef& term, Op op)
{
    if (term->op() == op) {
        return true;
    }
    for (const TermRef& c : term->children()) {
        if (contains_op(c, op)) {
            return true;
        }
    }
    return false;
}

TEST(ListChunk, SplitsIntoWidthVectorsWithPadding)
{
    RuleConfig config(4);
    // 6 outputs -> two Vec chunks, the second padded with two zeros. For a
    // pure data copy the cost model may still *extract* the scalar List
    // (nothing to vectorize), so check the e-graph itself contains the
    // chunked form and that the chunked form evaluates correctly.
    EGraph g;
    const ClassId root = g.add_term(Term::parse(
        "(List (Get a 0) (Get a 1) (Get a 2) (Get a 3) (Get a 4) (Get a "
        "5))"));
    g.rebuild();
    Runner(small_limits()).run(g, build_rules(config));

    std::optional<ENodeView> concat;
    for (const ENodeView n : g.class_nodes(root)) {
        if (n.op == Op::kConcat) {
            concat = n;
        }
    }
    ASSERT_TRUE(concat.has_value()) << "root class lacks the chunked form";

    // Force extraction of the chunked form by extracting its children and
    // reassembling; padding zeros must land at the tail.
    const DiosCostModel cost({}, 4);
    const Extractor ex(g, cost);
    const TermRef lhs = ex.extract(g.find(concat->children[0])).term;
    const TermRef rhs = ex.extract(g.find(concat->children[1])).term;
    const TermRef whole = Term::make(Op::kConcat, {lhs, rhs});
    EvalEnv env;
    env.bind_array("a", {1, 2, 3, 4, 5, 6});
    const auto v = evaluate(whole, env);
    ASSERT_EQ(v.size(), 8u);  // padded to 2 chunks of 4
    EXPECT_EQ(std::vector<double>(v.begin(), v.begin() + 6),
              (std::vector<double>{1, 2, 3, 4, 5, 6}));
    EXPECT_EQ(v[6], 0.0);
    EXPECT_EQ(v[7], 0.0);
}

TEST(VecLift, VectorizesAlignedAdd)
{
    // The paper §3.2 example (width 2): 4-element vector-vector add.
    RuleConfig config(2);
    const TermRef best = optimize(
        "(List (+ (Get a 0) (Get b 0)) (+ (Get a 1) (Get b 1)) (+ (Get a "
        "2) (Get b 2)) (+ (Get a 3) (Get b 3)))",
        config);
    EXPECT_TRUE(contains_op(best, Op::kVecAdd));
    // Fully vectorized: no scalar + survives.
    EXPECT_FALSE(contains_op(best, Op::kAdd));
    EvalEnv env;
    env.bind_array("a", {1, 2, 3, 4});
    env.bind_array("b", {10, 20, 30, 40});
    EXPECT_EQ(evaluate(best, env),
              (std::vector<double>{11, 22, 33, 44}));
}

TEST(VecLift, HandlesZeroLanes)
{
    // The §3.3 concrete rewrite: (Vec (+ a b) 0 (+ c d) 0).
    RuleConfig config(4);
    const TermRef best = optimize(
        "(List (+ (Get a 0) (Get b 0)) 0 (+ (Get a 2) (Get b 2)) 0)",
        config);
    EXPECT_TRUE(contains_op(best, Op::kVecAdd) ||
                contains_op(best, Op::kVecMAC));
    EvalEnv env;
    env.bind_array("a", {1, 2, 3, 4});
    env.bind_array("b", {10, 20, 30, 40});
    EXPECT_EQ(evaluate(best, env), (std::vector<double>{11, 0, 33, 0}));
}

TEST(VecLift, BareLanesVectorizeViaIdentity)
{
    // Mixed vector: two adds, one bare element, one zero.
    RuleConfig config(4);
    const TermRef best = optimize(
        "(List (+ (Get a 0) (Get b 0)) (Get a 1) (+ (Get a 2) (Get b 2)) "
        "0)",
        config);
    EXPECT_TRUE(contains_op(best, Op::kVecAdd) ||
                contains_op(best, Op::kVecMAC));
    EvalEnv env;
    env.bind_array("a", {1, 2, 3, 4});
    env.bind_array("b", {10, 20, 30, 40});
    EXPECT_EQ(evaluate(best, env), (std::vector<double>{11, 2, 33, 0}));
}

TEST(VecLift, UnaryOperators)
{
    RuleConfig config(4);
    const TermRef best = optimize(
        "(List (sqrt (Get a 0)) (sqrt (Get a 1)) (sqrt (Get a 2)) 0)",
        config);
    EXPECT_TRUE(contains_op(best, Op::kVecSqrt));
    EvalEnv env;
    env.bind_array("a", {4, 9, 16, 25});
    EXPECT_EQ(evaluate(best, env), (std::vector<double>{2, 3, 4, 0}));
}

TEST(VecMac, FusesMultiplyAccumulateLanes)
{
    // Each lane (+ acc (* b c)); this is the motivating 2DConv shape.
    RuleConfig config(2);
    const TermRef best = optimize(
        "(List (+ (Get o 0) (* (Get i 0) (Get f 0))) (+ (Get o 1) (* (Get "
        "i 1) (Get f 0))))",
        config);
    EXPECT_TRUE(contains_op(best, Op::kVecMAC));
    EvalEnv env;
    env.bind_array("o", {1, 2});
    env.bind_array("i", {3, 4});
    env.bind_array("f", {5});
    EXPECT_EQ(evaluate(best, env), (std::vector<double>{16, 22}));
}

TEST(VecMac, HandlesCommutedAndPartialLanes)
{
    // The §3.3 example: three MAC-shaped lanes plus one commuted lane
    // (+ (* b3 c3) a3).
    RuleConfig config(4);
    const TermRef best = optimize(
        "(List (+ (Get a 0) (* (Get b 0) (Get c 0)))"
        " (+ (Get a 1) (* (Get b 1) (Get c 1)))"
        " (+ (Get a 2) (* (Get b 2) (Get c 2)))"
        " (+ (* (Get b 3) (Get c 3)) (Get a 3)))",
        config);
    EXPECT_TRUE(contains_op(best, Op::kVecMAC));
    EXPECT_FALSE(contains_op(best, Op::kAdd));
    EvalEnv env;
    env.bind_array("a", {1, 1, 1, 1});
    env.bind_array("b", {2, 3, 4, 5});
    env.bind_array("c", {10, 10, 10, 10});
    EXPECT_EQ(evaluate(best, env),
              (std::vector<double>{21, 31, 41, 51}));
}

TEST(VecMac, PureProductsUseZeroAccumulator)
{
    RuleConfig config(2);
    const TermRef best = optimize(
        "(List (* (Get b 0) (Get c 0)) (* (Get b 1) (Get c 1)))", config);
    // Either VecMul directly or VecMAC with zero acc; both vectorize.
    EXPECT_TRUE(contains_op(best, Op::kVecMul) ||
                contains_op(best, Op::kVecMAC));
    EvalEnv env;
    env.bind_array("b", {3, 4});
    env.bind_array("c", {5, 6});
    EXPECT_EQ(evaluate(best, env), (std::vector<double>{15, 24}));
}

TEST(ScalarRules, SimplifyIdentities)
{
    RuleConfig config(4);
    config.enable_vector_rules = false;
    const TermRef best =
        optimize("(+ (* (Get a 0) 1) (* (Get a 1) 0))", config);
    EXPECT_EQ(Term::to_string(best), "(Get a 0)");
}

TEST(ScalarRules, NegationNormalizes)
{
    RuleConfig config(4);
    config.enable_vector_rules = false;
    const TermRef best = optimize("(neg (neg (Get a 0)))", config);
    EXPECT_EQ(Term::to_string(best), "(Get a 0)");
    const TermRef best2 =
        optimize("(* (neg (Get a 0)) (neg (Get a 1)))", config);
    EXPECT_EQ(Term::to_string(best2), "(* (Get a 0) (Get a 1))");
}

TEST(ScalarRules, SubSelfIsZero)
{
    RuleConfig config(4);
    config.enable_vector_rules = false;
    EXPECT_EQ(Term::to_string(
                  optimize("(- (+ (Get a 0) 0) (Get a 0))", config)),
              "0");
}

TEST(TargetExtension, RecipRuleFires)
{
    // Paper §6: adding a fast-reciprocal instruction is two rule hooks.
    RuleConfig config(2);
    config.target_has_recip = true;
    const TermRef best = optimize(
        "(List (/ 1 (Get a 0)) (/ 1 (Get a 1)))", config);
    EXPECT_TRUE(contains_op(best, Op::kVecRecip) ||
                contains_op(best, Op::kRecip));
}

TEST(TargetExtension, WithoutRecipNoRecipAppears)
{
    RuleConfig config(2);
    config.target_has_recip = false;
    const TermRef best = optimize(
        "(List (/ 1 (Get a 0)) (/ 1 (Get a 1)))", config);
    EXPECT_FALSE(contains_op(best, Op::kRecip));
    EXPECT_FALSE(contains_op(best, Op::kVecRecip));
}

TEST(FullAc, FindsRewritesAcrossAssociativity)
{
    // (a + b) + c == a + (b + c): only provable with AC on.
    RuleConfig config(4);
    config.enable_vector_rules = false;
    config.full_ac = true;
    EGraph g;
    const ClassId lhs = g.add_term(
        Term::parse("(+ (+ (Get a 0) (Get a 1)) (Get a 2))"));
    const ClassId rhs = g.add_term(
        Term::parse("(+ (Get a 0) (+ (Get a 1) (Get a 2)))"));
    g.rebuild();
    Runner(small_limits()).run(g, build_rules(config));
    EXPECT_EQ(g.find(lhs), g.find(rhs));
}

TEST(CostModel, PrefersVectorizedForms)
{
    EGraph g;
    // Two equivalent classes merged by hand: scalar adds vs VecAdd.
    const ClassId root = g.add_term(Term::parse(
        "(Vec (+ (Get a 0) (Get b 0)) (+ (Get a 1) (Get b 1)))"));
    const ClassId vectorized = g.add_term(Term::parse(
        "(VecAdd (Vec (Get a 0) (Get a 1)) (Vec (Get b 0) (Get b 1)))"));
    g.merge(root, vectorized);
    g.rebuild();
    const DiosCostModel cost({}, 2);
    const Extractor ex(g, cost);
    const Extraction best = ex.extract(g.find(root));
    EXPECT_EQ(best.term->op(), Op::kVecAdd);
}

TEST(CostModel, ClassifiesVecDataMovement)
{
    const DiosCostModel cost({}, 4);
    EGraph g;

    auto classify = [&](const std::string& vec) {
        const ClassId id = g.add_term(Term::parse(vec));
        g.rebuild();
        for (const ENodeView n : g.class_nodes(id)) {
            if (n.op == Op::kVec) {
                return cost.classify_vec(g, n);
            }
        }
        throw std::logic_error("no Vec node");
    };

    EXPECT_EQ(classify("(Vec (Get a 0) (Get a 1) (Get a 2) (Get a 3))"),
              DiosCostModel::VecKind::kContiguousLoad);
    EXPECT_EQ(classify("(Vec (Get a 1) (Get a 2) (Get a 0) (Get a 3))"),
              DiosCostModel::VecKind::kSingleArrayShuffle);
    EXPECT_EQ(classify("(Vec (Get a 4) (Get a 5) (Get a 6) (Get a 7))"),
              DiosCostModel::VecKind::kContiguousLoad);
    // Unaligned run: still one array, but not a plain aligned load.
    EXPECT_EQ(classify("(Vec (Get a 1) (Get a 2) (Get a 3) (Get a 4))"),
              DiosCostModel::VecKind::kSingleArrayShuffle);
    EXPECT_EQ(classify("(Vec (Get a 0) (Get b 0) (Get a 1) (Get b 1))"),
              DiosCostModel::VecKind::kMultiArraySelect);
    EXPECT_EQ(classify("(Vec (Get a 0) 0 (Get a 1) 0)"),
              DiosCostModel::VecKind::kSingleArrayShuffle);
    EXPECT_EQ(
        classify("(Vec (+ (Get a 0) (Get b 0)) (Get a 1) (Get a 2) 0)"),
        DiosCostModel::VecKind::kHasScalarComputation);
}

TEST(CostModel, AliasedLanesClassifyByTheTrackedArray)
{
    // Regression: after rewrites merge classes, a lane class can hold
    // Gets from several arrays — here (Get b 9) is stored *before*
    // (Get a 1) in the merged class. Classification must follow the
    // array the vector is tracking (a), not whichever Get happens to be
    // first; the old code classified this aligned a[0..3] load as a
    // multi-array select.
    const DiosCostModel cost({}, 4);
    EGraph g(false);
    const ClassId b9 = g.add_get(Symbol("b"), 9);
    const ClassId a1 = g.add_get(Symbol("a"), 1);
    g.merge(b9, a1);  // b9 survives, so its Get is stored first
    const ClassId a0 = g.add_get(Symbol("a"), 0);
    const ClassId a2 = g.add_get(Symbol("a"), 2);
    const ClassId a3 = g.add_get(Symbol("a"), 3);
    const ClassId vec = g.add_op(Op::kVec, {a0, g.find(b9), a2, a3});
    g.rebuild();
    bool checked = false;
    for (const ENodeView n : g.class_nodes(vec)) {
        if (n.op == Op::kVec) {
            EXPECT_EQ(cost.classify_vec(g, n),
                      DiosCostModel::VecKind::kContiguousLoad);
            checked = true;
        }
    }
    EXPECT_TRUE(checked);
}

TEST(CostModel, MultiArrayVecNeverCostsContiguous)
{
    // A cross-array gather must never be priced as a contiguous load,
    // wherever the foreign lane sits relative to the tracked run.
    const DiosCostModel cost({}, 4);
    for (const char* text :
         {"(Vec (Get a 0) (Get b 1) (Get a 1) (Get a 2))",
          "(Vec (Get a 0) (Get a 1) (Get a 2) (Get b 3))",
          "(Vec (Get b 0) (Get a 1) (Get a 2) (Get a 3))"}) {
        EGraph g;
        const ClassId id = g.add_term(Term::parse(text));
        g.rebuild();
        bool checked = false;
        for (const ENodeView n : g.class_nodes(id)) {
            if (n.op == Op::kVec) {
                EXPECT_EQ(cost.classify_vec(g, n),
                          DiosCostModel::VecKind::kMultiArraySelect)
                    << text;
                checked = true;
            }
        }
        EXPECT_TRUE(checked) << text;
    }
}

TEST(CostModel, ForeignLanesDoNotBreakTheTrackedRun)
{
    // The foreign lane must not advance the tracked array's expected
    // index: a[0], b[5], a[1], a[2] is a's run 0,1,2 with one foreign
    // element — a multi-array select, but critically not a misaligned
    // mess that extraction would price as if a's run were broken.
    const DiosCostModel cost({}, 4);
    EGraph g;
    const ClassId id = g.add_term(
        Term::parse("(Vec (Get a 0) (Get b 5) (Get a 1) (Get a 2))"));
    g.rebuild();
    for (const ENodeView n : g.class_nodes(id)) {
        if (n.op == Op::kVec) {
            EXPECT_EQ(cost.classify_vec(g, n),
                      DiosCostModel::VecKind::kMultiArraySelect);
        }
    }
}

TEST(CostModel, SingleArrayShufflesCheaperThanCrossArray)
{
    // The paper's §3.4 statement, directly.
    const DiosCostModel cost({}, 2);
    EGraph g;
    const ClassId single =
        g.add_term(Term::parse("(Vec (Get a 1) (Get a 0))"));
    const ClassId multi =
        g.add_term(Term::parse("(Vec (Get a 1) (Get b 0))"));
    g.rebuild();
    const Extractor ex(g, cost);
    EXPECT_LT(ex.class_cost(g.find(single)), ex.class_cost(g.find(multi)));
}

TEST(RuleSoundness, RandomSpecsEvaluateIdentically)
{
    // Property: for random small specs, saturation + extraction under the
    // full default rule set preserves semantics exactly.
    Rng rng(77);
    RuleConfig config(4);
    const std::vector<Rewrite> rules = build_rules(config);
    const DiosCostModel cost({}, 4);

    for (int trial = 0; trial < 15; ++trial) {
        // Random lanes: each is 0, a get, a product, or an acc+product.
        std::vector<TermRef> lanes;
        const int n = static_cast<int>(rng.uniform_int(1, 7));
        for (int i = 0; i < n; ++i) {
            auto get = [&](const char* arr) {
                return t_get(arr, rng.uniform_int(0, 7));
            };
            switch (rng.uniform_int(0, 3)) {
              case 0:
                lanes.push_back(t_const(0));
                break;
              case 1:
                lanes.push_back(get("a"));
                break;
              case 2:
                lanes.push_back(t_mul(get("a"), get("f")));
                break;
              default:
                lanes.push_back(
                    t_add(get("o"), t_mul(get("a"), get("f"))));
                break;
            }
        }
        const TermRef spec = t_list(lanes);
        EGraph g;
        const ClassId root = g.add_term(spec);
        g.rebuild();
        Runner(small_limits()).run(g, rules);
        const Extractor ex(g, cost);
        const TermRef best = ex.extract(g.find(root)).term;

        EvalEnv env;
        Rng data_rng(static_cast<std::uint64_t>(trial) + 1000);
        auto mk = [&] {
            std::vector<double> v(8);
            for (auto& x : v) {
                x = data_rng.uniform(-3, 3);
            }
            return v;
        };
        env.bind_array("a", mk());
        env.bind_array("f", mk());
        env.bind_array("o", mk());
        const auto expected = evaluate(spec, env);
        auto actual = evaluate(best, env);
        ASSERT_GE(actual.size(), expected.size()) << "trial " << trial;
        actual.resize(expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i) {
            EXPECT_NEAR(actual[i], expected[i], 1e-9)
                << "trial " << trial << " lane " << i << "\nspec:  "
                << Term::to_string(spec) << "\nbest:  "
                << Term::to_string(best);
        }
    }
}

}  // namespace
}  // namespace diospyros
