// Unit and property tests for the e-graph engine: union-find, hashcons,
// congruence closure, pattern matching, rewriting, saturation, and
// extraction.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "egraph/egraph.h"
#include "egraph/extract.h"
#include "egraph/pattern.h"
#include "egraph/rewrite.h"
#include "egraph/runner.h"
#include "ir/eval.h"
#include "rules/rules.h"
#include "support/rng.h"

namespace diospyros {
namespace {

TEST(UnionFind, BasicMerging)
{
    UnionFind uf;
    const ClassId a = uf.make_set();
    const ClassId b = uf.make_set();
    const ClassId c = uf.make_set();
    EXPECT_FALSE(uf.same(a, b));
    EXPECT_EQ(uf.merge(a, b), a);  // first argument becomes root
    EXPECT_TRUE(uf.same(a, b));
    EXPECT_FALSE(uf.same(a, c));
    uf.merge(b, c);
    EXPECT_TRUE(uf.same(a, c));
    EXPECT_EQ(uf.find(c), a);
}

TEST(UnionFind, RandomizedAgainstNaive)
{
    // Property: union-find agrees with a brute-force labeling under a
    // random sequence of merges.
    Rng rng(123);
    constexpr int kN = 100;
    UnionFind uf;
    std::vector<int> label(kN);
    for (int i = 0; i < kN; ++i) {
        uf.make_set();
        label[i] = i;
    }
    for (int step = 0; step < 200; ++step) {
        const int a = static_cast<int>(rng.uniform_int(0, kN - 1));
        const int b = static_cast<int>(rng.uniform_int(0, kN - 1));
        uf.merge(static_cast<ClassId>(a), static_cast<ClassId>(b));
        const int keep = label[a], kill = label[b];
        for (int& l : label) {
            if (l == kill) {
                l = keep;
            }
        }
        for (int i = 0; i < kN; ++i) {
            for (int j = 0; j < kN; ++j) {
                EXPECT_EQ(label[i] == label[j],
                          uf.same(static_cast<ClassId>(i),
                                  static_cast<ClassId>(j)));
            }
        }
    }
}

TEST(EGraph, HashconsDeduplicates)
{
    EGraph g;
    const ClassId a1 = g.add_term(Term::parse("(+ (Get a 0) (Get a 1))"));
    const ClassId a2 = g.add_term(Term::parse("(+ (Get a 0) (Get a 1))"));
    EXPECT_EQ(a1, a2);
    // get a0, get a1, the add: 3 classes (+1 for nothing else).
    EXPECT_EQ(g.num_classes(), 3u);
}

TEST(EGraph, MergePropagatesCongruence)
{
    // f(a) and f(b) must collapse once a = b.
    EGraph g(false);
    const ClassId a = g.add_term(Term::parse("(Get x 0)"));
    const ClassId b = g.add_term(Term::parse("(Get x 1)"));
    const ClassId fa = g.add_op(Op::kSqrt, {a});
    const ClassId fb = g.add_op(Op::kSqrt, {b});
    EXPECT_NE(g.find(fa), g.find(fb));
    g.merge(a, b);
    g.rebuild();
    EXPECT_EQ(g.find(fa), g.find(fb));
    g.check_invariants();
}

TEST(EGraph, CongruenceCascades)
{
    // g(f(a)) = g(f(b)) after a = b, two levels up.
    EGraph g(false);
    const ClassId a = g.add_term(Term::parse("(Get x 0)"));
    const ClassId b = g.add_term(Term::parse("(Get x 1)"));
    const ClassId fa = g.add_op(Op::kSqrt, {a});
    const ClassId fb = g.add_op(Op::kSqrt, {b});
    const ClassId gfa = g.add_op(Op::kNeg, {fa});
    const ClassId gfb = g.add_op(Op::kNeg, {fb});
    g.merge(a, b);
    g.rebuild();
    EXPECT_EQ(g.find(gfa), g.find(gfb));
    g.check_invariants();
}

TEST(EGraph, ConstantFoldingDerivesValues)
{
    EGraph g;
    const ClassId id = g.add_term(Term::parse("(+ 2 (* 3 4))"));
    g.rebuild();
    ASSERT_TRUE(g.constant_of(id).has_value());
    EXPECT_EQ(*g.constant_of(id), Rational(14));
}

TEST(EGraph, ConstantFoldingUnifiesEqualConstants)
{
    EGraph g;
    const ClassId a = g.add_term(Term::parse("(+ 1 1)"));
    const ClassId b = g.add_term(Term::parse("(* 1 2)"));
    g.rebuild();
    EXPECT_EQ(g.find(a), g.find(b));
    g.check_invariants();
}

TEST(EGraph, ConstantFoldingSkipsDivByZero)
{
    EGraph g;
    const ClassId id = g.add_term(Term::parse("(/ 1 0)"));
    g.rebuild();
    EXPECT_FALSE(g.constant_of(id).has_value());
}

constexpr std::uint32_t
bit(Op op)
{
    return 1u << static_cast<unsigned>(op);
}

TEST(EGraph, StampsAndOperatorMasksFollowAddMergeAndRebuild)
{
    EGraph g(false);
    const std::uint32_t g1 = g.next_generation();
    const ClassId a = g.add_get(Symbol("a"), 0);
    const ClassId b = g.add_get(Symbol("b"), 0);
    const ClassId sum = g.add_op(Op::kAdd, {a, b});
    const ClassId neg = g.add_op(Op::kNeg, {b});
    EXPECT_EQ(g.touched(a), g1);
    EXPECT_EQ(g.touched(sum), g1);
    EXPECT_EQ(g.op_mask(sum), bit(Op::kAdd));
    EXPECT_TRUE(g.has_op(neg, Op::kNeg));
    EXPECT_FALSE(g.has_op(neg, Op::kAdd));

    // add: a hashcons hit stamps nothing; a new node stamps its class.
    const std::uint32_t g2 = g.next_generation();
    EXPECT_EQ(g.add_op(Op::kAdd, {a, b}), sum);
    EXPECT_EQ(g.touched(sum), g1);
    const ClassId c = g.add_get(Symbol("c"), 0);
    const ClassId prod = g.add_op(Op::kMul, {a, c});
    EXPECT_EQ(g.touched(prod), g2);

    // merge: the surviving class is stamped and takes both masks; the
    // classes of untouched parents keep their stamps until rebuild.
    const std::uint32_t g3 = g.next_generation();
    EXPECT_TRUE(g.merge(sum, prod));
    EXPECT_EQ(g.touched(sum), g3);
    EXPECT_EQ(g.op_mask(prod), bit(Op::kAdd) | bit(Op::kMul));
    EXPECT_EQ(g.touched(a), g1);
    g.rebuild();

    // rebuild: a node whose child was absorbed is re-canonicalized, which
    // stamps its class; the other parent's class keeps its stamp.
    const std::uint32_t g4 = g.next_generation();
    EXPECT_TRUE(g.merge(b, c));
    EXPECT_EQ(g.touched(b), g4);
    EXPECT_EQ(g.op_mask(c), bit(Op::kGet));
    EXPECT_EQ(g.touched(neg), g1);
    const bool b_absorbed = g.find(b) == c;
    g.rebuild();
    EXPECT_EQ(g.touched(neg), b_absorbed ? g4 : g1);
    EXPECT_EQ(g.touched(sum), g4);  // (+ a b) or (* a c) was rewritten
    g.check_invariants();

    // A folded constant lands in the class as a Const node.
    EGraph f(true);
    f.next_generation();
    const ClassId three =
        f.add_op(Op::kAdd, {f.add_const(Rational(1)), f.add_const(Rational(2))});
    EXPECT_EQ(f.op_mask(three), bit(Op::kAdd) | bit(Op::kConst));
    f.check_invariants();
}

TEST(EGraph, DirtyLevelsClimbParentListsUpToTheDepth)
{
    EGraph g(false);
    const ClassId x = g.add_get(Symbol("x"), 0);
    const ClassId n1 = g.add_op(Op::kNeg, {x});
    const ClassId n2 = g.add_op(Op::kNeg, {n1});
    const ClassId n3 = g.add_op(Op::kNeg, {n2});
    const ClassId other = g.add_get(Symbol("y"), 0);
    g.rebuild();
    const std::uint32_t gen = g.next_generation();
    std::vector<std::uint8_t> level;
    g.dirty_levels(gen, 3, level);
    ASSERT_EQ(level.size(), g.class_id_bound());
    EXPECT_EQ(std::count(level.begin(), level.end(), 0xff),
              static_cast<std::ptrdiff_t>(level.size()));

    g.add_op(Op::kSqrt, {x});  // touches only the new class
    g.rebuild();
    g.dirty_levels(gen, 3, level);
    EXPECT_EQ(level[g.find(x)], 0xff);

    // Merging x with a fresh leaf stamps x's class; if x is the absorbed
    // side, rebuild re-canonicalizes (neg x) and stamps n1 as well.
    g.next_generation();
    g.merge(x, g.add_get(Symbol("z"), 0));
    const int n1_level = g.find(x) == x ? 1 : 0;
    g.rebuild();
    g.dirty_levels(gen, 3, level);
    EXPECT_EQ(level[g.find(x)], 0);
    EXPECT_EQ(level[g.find(n1)], n1_level);
    EXPECT_EQ(level[g.find(n2)], n1_level + 1);
    EXPECT_EQ(level[g.find(n3)], n1_level == 0 ? 2 : 0xff);
    EXPECT_EQ(level[g.find(other)], 0xff);
    g.dirty_levels(gen, 1, level);
    EXPECT_EQ(level[g.find(x)], 0);
    EXPECT_EQ(level[g.find(n2)], 0xff);
}

TEST(EGraph, RandomizedInvariantsUnderMergesAndAdds)
{
    // Property: after arbitrary interleavings of adds and merges plus a
    // rebuild, all invariants hold.
    Rng rng(7);
    for (int trial = 0; trial < 20; ++trial) {
        EGraph g;
        std::vector<ClassId> ids;
        for (int i = 0; i < 8; ++i) {
            ids.push_back(g.add_get(Symbol("a"), i));
        }
        for (int step = 0; step < 60; ++step) {
            const int action = static_cast<int>(rng.uniform_int(0, 2));
            if (action == 0 && ids.size() >= 2) {
                const auto x = static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<int>(ids.size()) - 1));
                const auto y = static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<int>(ids.size()) - 1));
                g.merge(ids[x], ids[y]);
            } else {
                const auto x = static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<int>(ids.size()) - 1));
                const auto y = static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<int>(ids.size()) - 1));
                const Op op = (action == 1) ? Op::kAdd : Op::kMul;
                ids.push_back(g.add_op(op, {ids[x], ids[y]}));
            }
        }
        g.rebuild();
        g.check_invariants();
    }
}

TEST(Pattern, ParsesVariablesAndLiterals)
{
    const Pattern p = Pattern::parse("(+ ?a (* ?b 0))");
    EXPECT_EQ(p.variables().size(), 2u);
    EXPECT_EQ(p.to_string(), "(+ ?a (* ?b 0))");
}

/** The matches of `p` rooted at class `id`. */
std::vector<RuleMatch>
match_class(const Pattern& p, const EGraph& g, ClassId id)
{
    std::vector<RuleMatch> out;
    p.search(g, id, out);
    return out;
}

TEST(Pattern, MatchesSimpleExpression)
{
    EGraph g;
    const ClassId id =
        g.add_term(Term::parse("(+ (Get a 0) (* (Get b 0) (Get c 0)))"));
    g.rebuild();
    const Pattern p = Pattern::parse("(+ ?x (* ?y ?z))");
    const auto matches = match_class(p, g, id);
    ASSERT_EQ(matches.size(), 1u);
    EXPECT_EQ(matches[0].root, id);
    // Slots follow first occurrence: ?x, ?y, ?z.
    const char* const leaves[] = {"(Get a 0)", "(Get b 0)", "(Get c 0)"};
    for (std::size_t i = 0; i < 3; ++i) {
        const ClassId leaf = g.add_term(Term::parse(leaves[i]));
        EXPECT_EQ(matches[0].vars[i], g.find(leaf)) << leaves[i];
    }
}

TEST(Pattern, RejectsAFifthVariable)
{
    EXPECT_NO_THROW(Pattern::parse("(+ (* ?a ?b) (* ?c ?d))"));
    EXPECT_THROW(Pattern::parse("(+ (* ?a ?b) (+ ?c (* ?d ?e)))"),
                 UserError);
}

TEST(Pattern, NonlinearPatternsRequireConsistency)
{
    EGraph g;
    const ClassId same = g.add_term(Term::parse("(+ (Get a 0) (Get a 0))"));
    const ClassId diff = g.add_term(Term::parse("(+ (Get a 0) (Get a 1))"));
    g.rebuild();
    const Pattern p = Pattern::parse("(+ ?x ?x)");
    EXPECT_EQ(match_class(p, g, same).size(), 1u);
    EXPECT_TRUE(match_class(p, g, diff).empty());
}

TEST(Pattern, MatchesAcrossEquivalentNodes)
{
    // After merging, matching sees through the equivalence.
    EGraph g;
    const ClassId x = g.add_term(Term::parse("(Get a 0)"));
    const ClassId y = g.add_term(Term::parse("(* (Get b 0) (Get c 0))"));
    const ClassId sum = g.add_op(Op::kAdd, {x, y});
    g.merge(x, y);  // pretend a rule proved them equal
    g.rebuild();
    const Pattern p = Pattern::parse("(+ (* ?p ?q) (* ?r ?s))");
    EXPECT_EQ(match_class(p, g, g.find(sum)).size(), 1u);
}

TEST(Rewrite, RejectsUnboundRhsVariables)
{
    EXPECT_THROW(Rewrite::make("bad", "(+ ?a ?b)", "(+ ?a ?c)"), UserError);
}

TEST(Rewrite, RhsReadsTheLhsSlotsInItsOwnOrder)
{
    // (- ?a ?b) => (+ (neg ?b) ?a): the rhs meets ?b first but must read
    // the slot the lhs gave it.
    EGraph g;
    const ClassId a = g.add_term(Term::parse("(Get a 0)"));
    const ClassId b = g.add_term(Term::parse("(Get b 0)"));
    const ClassId sub = g.add_op(Op::kSub, {a, b});
    g.rebuild();
    const Rewrite rule =
        Rewrite::make("sub-to-add", "(- ?a ?b)", "(+ (neg ?b) ?a)");
    const std::vector<RuleMatch> matches = rule.searcher().search(g);
    ASSERT_EQ(matches.size(), 1u);
    EXPECT_TRUE(rule.applier().apply(g, matches[0]));
    g.rebuild();
    const auto neg_b = g.lookup(ENode::make(Op::kNeg, {b}));
    ASSERT_TRUE(neg_b.has_value());
    const auto sum = g.lookup(ENode::make(Op::kAdd, {*neg_b, a}));
    ASSERT_TRUE(sum.has_value());
    EXPECT_EQ(g.find(*sum), g.find(sub));
    EXPECT_FALSE(g.lookup(ENode::make(Op::kNeg, {a})).has_value());
}

TEST(Rewrite, AppliesCommutativity)
{
    EGraph g;
    const ClassId ab = g.add_term(Term::parse("(+ (Get a 0) (Get b 0))"));
    const ClassId ba = g.add_term(Term::parse("(+ (Get b 0) (Get a 0))"));
    g.rebuild();
    EXPECT_NE(g.find(ab), g.find(ba));

    const Rewrite comm = Rewrite::make("comm", "(+ ?a ?b)", "(+ ?b ?a)");
    Runner runner;
    const RunnerReport report = runner.run(g, {comm});
    EXPECT_EQ(report.stop_reason, StopReason::kSaturated);
    EXPECT_EQ(g.find(ab), g.find(ba));
    g.check_invariants();
}

TEST(Runner, SaturatesMacFusion)
{
    // The paper's fused multiply-accumulate example (Figure 4).
    EGraph g;
    const ClassId root = g.add_term(Term::parse(
        "(VecAdd (Vec (Get v1 0) (Get v1 1)) (VecMul (Vec (Get v2 0) (Get "
        "v2 1)) (Vec (Get v3 0) (Get v3 1))))"));
    g.rebuild();
    const Rewrite mac = Rewrite::make("mac", "(VecAdd ?a (VecMul ?b ?c))",
                                      "(VecMAC ?a ?b ?c)");
    Runner runner;
    runner.run(g, {mac});

    // The root class must now contain a VecMAC node.
    bool found = false;
    for (const ENodeView n : g.class_nodes(root)) {
        found |= n.op == Op::kVecMAC;
    }
    EXPECT_TRUE(found);
}

namespace {

/** A left-leaning 8-leaf sum; AC rules explode its e-graph for a while. */
TermRef
wide_sum()
{
    TermRef t = t_get("a", 0);
    for (int i = 1; i < 8; ++i) {
        t = t_add(t, t_get("a", i));
    }
    return t;
}

std::vector<Rewrite>
ac_rules()
{
    std::vector<Rewrite> rules;
    rules.push_back(Rewrite::make("comm", "(+ ?a ?b)", "(+ ?b ?a)"));
    rules.push_back(
        Rewrite::make("assoc", "(+ (+ ?a ?b) ?c)", "(+ ?a (+ ?b ?c))"));
    return rules;
}

}  // namespace

TEST(Runner, RespectsIterLimit)
{
    // AC over an 8-leaf sum keeps creating classes for several rounds
    // (this is the paper §3.3 AC blow-up); a 2-iteration limit must stop
    // it mid-way.
    EGraph g(false);
    g.add_term(wide_sum());
    g.rebuild();
    Runner runner(RunnerLimits{.node_limit = 100'000'000,
                               .iter_limit = 2,
                               .time_limit_seconds = 60.0});
    const RunnerReport report = runner.run(g, ac_rules());
    EXPECT_EQ(report.stop_reason, StopReason::kIterLimit);
    EXPECT_EQ(report.iterations.size(), 2u);
}

TEST(Runner, ZeroIterLimitReportsIterLimitNotSaturation)
{
    // Regression: with iter_limit = 0 the loop never executes — the
    // graph was *not* saturated, the budget stopped it. The untouched
    // graph must still support extraction.
    EGraph g(false);
    const ClassId root = g.add_term(wide_sum());
    g.rebuild();
    Runner runner(RunnerLimits{.node_limit = 100'000,
                               .iter_limit = 0,
                               .time_limit_seconds = 60.0});
    const RunnerReport report = runner.run(g, ac_rules());
    EXPECT_EQ(report.stop_reason, StopReason::kIterLimit);
    EXPECT_TRUE(report.iterations.empty());

    const TreeSizeCost cost;
    const Extractor extractor(g, cost);
    const Extraction best = extractor.extract(g.find(root));
    ASSERT_NE(best.term, nullptr);
    // 8 Get leaves + 7 additions.
    EXPECT_EQ(best.cost, 15.0);
}

TEST(Runner, MemoryLimitStopsSaturation)
{
    EGraph g(false);
    g.add_term(wide_sum());
    g.rebuild();
    Runner runner(RunnerLimits{.node_limit = 100'000'000,
                               .iter_limit = 1000,
                               .time_limit_seconds = 60.0,
                               .memory_limit_bytes = 64 * 1024});
    const RunnerReport report = runner.run(g, ac_rules());
    EXPECT_EQ(report.stop_reason, StopReason::kMemoryLimit);
    EXPECT_LT(report.iterations.size(), 1000u);
}

TEST(Runner, ExpiredDeadlineStopsGracefully)
{
    // An already-expired compile-wide deadline: the runner must stop with
    // kDeadline and still leave a clean, extractable graph.
    EGraph g(false);
    const ClassId root = g.add_term(wide_sum());
    g.rebuild();
    Runner runner(RunnerLimits{.node_limit = 100'000'000,
                               .iter_limit = 1000,
                               .time_limit_seconds = 60.0});
    const RunnerReport report =
        runner.run(g, ac_rules(), Deadline::after_seconds(0.0));
    EXPECT_EQ(report.stop_reason, StopReason::kDeadline);
    EXPECT_TRUE(g.is_clean());
    const TreeSizeCost cost;
    const Extractor extractor(g, cost);
    EXPECT_NE(extractor.extract(g.find(root)).term, nullptr);
}

TEST(Runner, RespectsNodeLimit)
{
    EGraph g(false);
    g.add_term(wide_sum());
    g.rebuild();
    Runner runner(RunnerLimits{.node_limit = 100,
                               .iter_limit = 1000,
                               .time_limit_seconds = 60.0});
    const RunnerReport report = runner.run(g, ac_rules());
    EXPECT_EQ(report.stop_reason, StopReason::kNodeLimit);
    // Overshoot within one iteration is expected (limits are checked per
    // batch), but the runner must have stopped promptly afterwards.
    EXPECT_LT(report.iterations.size(), 1000u);
}

TEST(Runner, MatchLimitCapsWorkPerRule)
{
    // With a per-rule match cap, each iteration applies at most that many
    // matches — the graph grows, but strictly slower than uncapped.
    EGraph g1(false), g2(false);
    g1.add_term(wide_sum());
    g2.add_term(wide_sum());
    g1.rebuild();
    g2.rebuild();
    RunnerLimits capped{.node_limit = 1'000'000,
                        .iter_limit = 3,
                        .time_limit_seconds = 30.0,
                        .match_limit_per_rule = 2};
    RunnerLimits uncapped{.node_limit = 1'000'000,
                          .iter_limit = 3,
                          .time_limit_seconds = 30.0};
    Runner(capped).run(g1, ac_rules());
    Runner(uncapped).run(g2, ac_rules());
    EXPECT_LT(g1.num_nodes(), g2.num_nodes());
}

TEST(Runner, BackoffBansExplosiveRules)
{
    // With a backoff threshold, an AC rule that floods the graph gets
    // banned for growing windows; the run still makes progress but grows
    // far slower, and the runner never falsely reports saturation while
    // rules are banned.
    EGraph g1(false), g2(false);
    g1.add_term(wide_sum());
    g2.add_term(wide_sum());
    g1.rebuild();
    g2.rebuild();
    RunnerLimits backoff{.node_limit = 1'000'000,
                         .iter_limit = 4,
                         .time_limit_seconds = 30.0,
                         .match_limit_per_rule = 0,
                         .backoff_threshold = 4};
    RunnerLimits plain{.node_limit = 1'000'000,
                       .iter_limit = 4,
                       .time_limit_seconds = 30.0};
    const RunnerReport rb = Runner(backoff).run(g1, ac_rules());
    Runner(plain).run(g2, ac_rules());
    EXPECT_LT(g1.num_nodes(), g2.num_nodes());
    // Some iteration must have recorded a ban.
    std::size_t banned = 0;
    for (const IterationStats& it : rb.iterations) {
        banned += it.banned_rules;
    }
    EXPECT_GT(banned, 0u);
    EXPECT_NE(rb.stop_reason, StopReason::kSaturated);
}

TEST(Extract, PrefersCheaperEquivalent)
{
    EGraph g;
    const ClassId id = g.add_term(
        Term::parse("(+ (* (Get a 0) 2) (* (Get a 0) 0))"));
    g.rebuild();
    std::vector<Rewrite> rules;
    rules.push_back(Rewrite::make("mul0", "(* ?x 0)", "0"));
    rules.push_back(Rewrite::make("add0", "(+ ?x 0)", "?x"));
    Runner().run(g, rules);

    const TreeSizeCost cost;
    const Extractor ex(g, cost);
    const Extraction best = ex.extract(g.find(id));
    EXPECT_EQ(Term::to_string(best.term), "(* (Get a 0) 2)");
    EXPECT_DOUBLE_EQ(best.cost, 3.0);
}

TEST(Extract, HandlesCyclicClasses)
{
    // x = x + 0 introduces a cycle through the class; extraction must
    // still terminate and pick the finite leaf.
    EGraph g;
    const ClassId id = g.add_term(Term::parse("(+ (Get a 0) 0)"));
    g.rebuild();
    Runner().run(g, {Rewrite::make("add0", "(+ ?x 0)", "?x")});
    const TreeSizeCost cost;
    const Extractor ex(g, cost);
    const Extraction best = ex.extract(g.find(id));
    EXPECT_EQ(Term::to_string(best.term), "(Get a 0)");
}

TEST(Extract, ExtractionIsSemanticallyEquivalent)
{
    // Property: for a random expression and sound rules, the extracted
    // term evaluates identically to the original.
    Rng rng(99);
    EvalEnv env;
    env.bind_array("a", {1.5, -2.0, 3.25, 0.5});
    std::vector<Rewrite> rules;
    rules.push_back(Rewrite::make("comm-add", "(+ ?a ?b)", "(+ ?b ?a)"));
    rules.push_back(Rewrite::make("comm-mul", "(* ?a ?b)", "(* ?b ?a)"));
    rules.push_back(Rewrite::make("add0", "(+ ?x 0)", "?x"));
    rules.push_back(Rewrite::make("mul1", "(* ?x 1)", "?x"));

    for (int trial = 0; trial < 10; ++trial) {
        // Random small term over Get a i, constants 0/1, +, *.
        std::vector<TermRef> pool;
        for (int i = 0; i < 4; ++i) {
            pool.push_back(t_get("a", i));
        }
        pool.push_back(t_const(0));
        pool.push_back(t_const(1));
        for (int step = 0; step < 10; ++step) {
            const auto x = static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<int>(pool.size()) - 1));
            const auto y = static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<int>(pool.size()) - 1));
            pool.push_back(rng.uniform_int(0, 1) ? t_add(pool[x], pool[y])
                                                 : t_mul(pool[x], pool[y]));
        }
        const TermRef original = pool.back();
        EGraph g;
        const ClassId root = g.add_term(original);
        g.rebuild();
        Runner(RunnerLimits{.node_limit = 20'000,
                            .iter_limit = 8,
                            .time_limit_seconds = 5.0})
            .run(g, rules);
        const TreeSizeCost cost;
        const Extractor ex(g, cost);
        const Extraction best = ex.extract(g.find(root));
        EXPECT_DOUBLE_EQ(evaluate_scalar(best.term, env),
                         evaluate_scalar(original, env));
        EXPECT_LE(Term::tree_size(best.term), Term::tree_size(original));
    }
}

TEST(EGraph, DotExportIsWellFormed)
{
    EGraph g;
    const ClassId root =
        g.add_term(Term::parse("(+ (Get a 0) (* (Get a 1) 2))"));
    g.rebuild();
    (void)root;
    const std::string dot = g.to_dot();
    EXPECT_EQ(dot.rfind("digraph egraph {", 0), 0u);
    EXPECT_NE(dot.find("subgraph cluster_"), std::string::npos);
    EXPECT_NE(dot.find("(Get a 0)") != std::string::npos ||
                  dot.find("Get a 0") != std::string::npos,
              false);
    EXPECT_NE(dot.find("->"), std::string::npos);
    // Balanced braces.
    EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
              std::count(dot.begin(), dot.end(), '}'));
}

TEST(EGraph, AddTermHandlesLargeSharedDags)
{
    // A deep shared DAG must insert in linear time/nodes.
    TermRef t = t_add(t_get("a", 0), t_get("a", 1));
    for (int i = 0; i < 200; ++i) {
        t = t_add(t, t);
    }
    EGraph g;
    g.add_term(t);
    g.rebuild();
    EXPECT_EQ(g.num_classes(), 203u);
    g.check_invariants();
}

// ---------------------------------------------------------------------------
// Op-index: the e-matching fast path (classes_with_op).

/** Ground truth for classes_with_op: full scan in class_ids() order. */
std::vector<ClassId>
classes_holding(const EGraph& g, Op op)
{
    std::vector<ClassId> out;
    for (const ClassId id : g.class_ids()) {
        for (const ENodeView n : g.class_nodes(id)) {
            if (n.op == op) {
                out.push_back(id);
                break;
            }
        }
    }
    return out;
}

TEST(OpIndex, ListsClassesInCreationOrder)
{
    EGraph g(false);
    const ClassId g0 = g.add_get(Symbol("a"), 0);
    const ClassId g1 = g.add_get(Symbol("a"), 1);
    const ClassId sum = g.add_op(Op::kAdd, {g0, g1});
    const ClassId prod = g.add_op(Op::kMul, {g0, g1});
    g.rebuild();
    EXPECT_EQ(g.classes_with_op(Op::kGet), (std::vector<ClassId>{g0, g1}));
    EXPECT_EQ(g.classes_with_op(Op::kAdd), std::vector<ClassId>{sum});
    EXPECT_EQ(g.classes_with_op(Op::kMul), std::vector<ClassId>{prod});
    EXPECT_TRUE(g.classes_with_op(Op::kVec).empty());
}

TEST(OpIndex, StaysCanonicalAndCompleteAcrossMerges)
{
    // After a merge the absorbed class's journal entries must
    // re-canonicalize to the surviving id, deduplicated, and the merged
    // class must be listed under every op either side contributed.
    EGraph g(false);
    const ClassId g0 = g.add_get(Symbol("a"), 0);
    const ClassId g1 = g.add_get(Symbol("a"), 1);
    const ClassId sum = g.add_op(Op::kAdd, {g0, g1});
    g.merge(sum, g0);  // pretend a rule proved (+ a0 a1) = a0
    g.rebuild();
    const ClassId root = g.find(sum);
    EXPECT_EQ(g.classes_with_op(Op::kAdd), std::vector<ClassId>{root});
    EXPECT_EQ(g.classes_with_op(Op::kGet),
              (std::vector<ClassId>{root, g.find(g1)}));
}

/**
 * The O(1) counters against a full recount, and class_ids() against
 * creation order: each canonical class appears at the position of the
 * first id (0..last_id, the order ids were handed out) that resolves to
 * it.
 */
void
expect_counts_and_creation_order(EGraph& g, ClassId last_id)
{
    const std::vector<ClassId> ids = g.class_ids();
    std::size_t nodes = 0;
    for (const ClassId id : ids) {
        nodes += g.eclass(id).nodes.size();
    }
    EXPECT_EQ(g.num_nodes(), nodes);
    EXPECT_EQ(g.num_classes(), ids.size());
    std::vector<ClassId> creation_order;
    std::set<ClassId> seen;
    for (ClassId raw = 0; raw <= last_id; ++raw) {
        if (seen.insert(g.find(raw)).second) {
            creation_order.push_back(g.find(raw));
        }
    }
    EXPECT_EQ(ids, creation_order);
}

TEST(OpIndex, AgreesWithFullScanOnRandomGraphs)
{
    // Property: under arbitrary interleavings of adds, merges, and
    // rebuilds, the op-index equals a recomputed full scan for every op,
    // the node and class counters equal a recount, and class_ids() keeps
    // creation order.
    Rng rng(17);
    for (int trial = 0; trial < 10; ++trial) {
        EGraph g(false);
        std::vector<ClassId> ids;
        for (int i = 0; i < 6; ++i) {
            ids.push_back(g.add_get(Symbol("a"), i));
            ids.push_back(g.add_get(Symbol("b"), i));
        }
        for (int step = 0; step < 80; ++step) {
            const auto pick = [&] {
                return ids[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<int>(ids.size()) - 1))];
            };
            switch (rng.uniform_int(0, 4)) {
              case 0:
                g.merge(pick(), pick());
                break;
              case 1:
                ids.push_back(g.add_op(Op::kAdd, {pick(), pick()}));
                break;
              case 2:
                ids.push_back(g.add_op(Op::kMul, {pick(), pick()}));
                break;
              case 3:
                ids.push_back(g.add_op(Op::kNeg, {pick()}));
                break;
              default:
                g.rebuild();
                for (int op_i = 0; op_i < kNumOps; ++op_i) {
                    const Op op = static_cast<Op>(op_i);
                    EXPECT_EQ(g.classes_with_op(op), classes_holding(g, op));
                }
                expect_counts_and_creation_order(
                    g, *std::max_element(ids.begin(), ids.end()));
                break;
            }
        }
        g.rebuild();
        g.check_invariants();
        expect_counts_and_creation_order(
            g, *std::max_element(ids.begin(), ids.end()));
        for (int op_i = 0; op_i < kNumOps; ++op_i) {
            const Op op = static_cast<Op>(op_i);
            EXPECT_EQ(g.classes_with_op(op), classes_holding(g, op));
        }
    }
}

TEST(OpIndex, TracksConstantsInjectedByAnalysis)
{
    // The constant-folding analysis injects Const nodes via modify(),
    // not add(); those classes must still appear under kConst.
    EGraph g;
    const ClassId id = g.add_term(Term::parse("(+ 2 (* 3 4))"));
    g.rebuild();
    const std::vector<ClassId>& consts = g.classes_with_op(Op::kConst);
    EXPECT_NE(std::find(consts.begin(), consts.end(), g.find(id)),
              consts.end());
    EXPECT_EQ(consts, classes_holding(g, Op::kConst));
}

// ---------------------------------------------------------------------------
// Differential: indexed search must equal the naive full scan, for every
// registered rule (pattern searchers and the custom vectorization
// searchers alike), and saturation must produce identical graphs.

/**
 * A random vectorizable e-graph: scalar expressions over two arrays,
 * width-4 Vec roots and vector ops over them, plus a few merges to create
 * aliased classes. Constant folding off so random merges cannot trip the
 * analysis soundness assert.
 */
EGraph
random_vec_graph(Rng& rng)
{
    EGraph g(false);
    std::vector<ClassId> scalars;
    for (int i = 0; i < 4; ++i) {
        scalars.push_back(g.add_get(Symbol("a"), i));
        scalars.push_back(g.add_get(Symbol("b"), i));
    }
    scalars.push_back(g.add_const(Rational(0)));
    scalars.push_back(g.add_const(Rational(1)));
    const auto pick = [&] {
        return scalars[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<int>(scalars.size()) - 1))];
    };
    for (int step = 0; step < 24; ++step) {
        switch (rng.uniform_int(0, 3)) {
          case 0:
            scalars.push_back(g.add_op(Op::kAdd, {pick(), pick()}));
            break;
          case 1:
            scalars.push_back(g.add_op(Op::kMul, {pick(), pick()}));
            break;
          case 2:
            scalars.push_back(g.add_op(Op::kNeg, {pick()}));
            break;
          default:
            scalars.push_back(g.add_op(Op::kDiv, {pick(), pick()}));
            break;
        }
    }
    std::vector<ClassId> vecs;
    for (int v = 0; v < 4; ++v) {
        vecs.push_back(
            g.add_op(Op::kVec, {pick(), pick(), pick(), pick()}));
    }
    g.add_op(Op::kVecAdd, {vecs[0], vecs[1]});
    g.add_op(Op::kVecMul, {vecs[2], vecs[3]});
    g.add_op(Op::kList, {vecs[0], vecs[2]});
    for (int m = 0; m < 3; ++m) {
        g.merge(pick(), pick());
    }
    g.rebuild();
    return g;
}

TEST(OpIndex, IndexedSearchEqualsNaiveForEveryRule)
{
    RuleConfig config(4);
    config.target_has_recip = true;
    const std::vector<Rewrite> rules = build_rules(config);
    Rng rng(42);
    for (int trial = 0; trial < 6; ++trial) {
        const EGraph g = random_vec_graph(rng);
        for (const Rewrite& rule : rules) {
            const std::vector<RuleMatch> indexed =
                rule.searcher().search(g);
            const std::vector<RuleMatch> naive =
                rule.searcher().search_naive(g);
            ASSERT_EQ(indexed.size(), naive.size())
                << "rule " << rule.name() << ", trial " << trial;
            for (std::size_t i = 0; i < indexed.size(); ++i) {
                EXPECT_EQ(g.find_const(indexed[i].root),
                          g.find_const(naive[i].root))
                    << "rule " << rule.name();
                EXPECT_EQ(indexed[i].vars, naive[i].vars)
                    << "rule " << rule.name();
            }
        }
    }
}

TEST(OpIndex, SaturationWithIndexMatchesNaiveByteForByte)
{
    // End to end: saturate two copies of the same graph, one through the
    // op-indexed searchers and one forced down the full-scan path. The
    // final graphs and the extracted programs must agree exactly.
    RuleConfig config(4);
    const std::vector<Rewrite> rules = build_rules(config);
    std::vector<Rewrite> naive_rules;
    naive_rules.reserve(rules.size());
    for (const Rewrite& r : rules) {
        naive_rules.push_back(r.with_naive_search());
    }
    const RunnerLimits limits{.node_limit = 50'000,
                              .iter_limit = 6,
                              .time_limit_seconds = 30.0};
    Rng rng_a(7), rng_b(7);
    for (int trial = 0; trial < 4; ++trial) {
        EGraph ga = random_vec_graph(rng_a);
        EGraph gb = random_vec_graph(rng_b);
        const ClassId roota = ga.class_ids().back();
        const ClassId rootb = gb.class_ids().back();
        ASSERT_EQ(roota, rootb);
        const RunnerReport ra = Runner(limits).run(ga, rules);
        const RunnerReport rb = Runner(limits).run(gb, naive_rules);
        EXPECT_EQ(ra.stop_reason, rb.stop_reason);
        EXPECT_EQ(ga.num_nodes(), gb.num_nodes());
        EXPECT_EQ(ga.num_classes(), gb.num_classes());
        // Applications, not matches: the indexed rules search only
        // classes that changed, the naive ones search everything.
        std::size_t applied_a = 0, applied_b = 0;
        for (const RuleStats& s : ra.rule_stats) {
            applied_a += s.applications;
        }
        for (const RuleStats& s : rb.rule_stats) {
            applied_b += s.applications;
        }
        EXPECT_EQ(applied_a, applied_b);
        const TreeSizeCost cost;
        const Extractor ea(ga, cost), eb(gb, cost);
        const Extraction besta = ea.extract(ga.find(roota));
        const Extraction bestb = eb.extract(gb.find(rootb));
        EXPECT_EQ(Term::to_string(besta.term), Term::to_string(bestb.term));
        EXPECT_DOUBLE_EQ(besta.cost, bestb.cost);
    }
}

TEST(SemiNaive, ChangesThatOnlyTheStampsSeeReSearchTheRoot)
{
    const std::vector<Rewrite> all = build_rules(RuleConfig(4));
    auto rule = [&](const std::string& name) {
        return *std::find_if(all.begin(), all.end(), [&](const Rewrite& r) {
            return r.name() == name;
        });
    };
    struct Case {
        const char* spec;
        std::vector<Rewrite> rules;  // the last one must fire once
    };
    const std::vector<Case> cases = {
        // vec-mac reads three levels: the Vec, a lane's +, and the * in
        // the +'s child. The * appears in iteration 1, three levels below
        // the Vec, so only a search that honours vec-mac's depth finds
        // the MAC in iteration 2.
        {"(Vec (+ (Get a 0) (Get t 0)) (Get a 1) (Get a 2) (Get a 3))",
         {Rewrite::make("t-as-mul", "(Get t 0)", "(* (Get p 0) (Get q 0))"),
          rule("vec-mac")}},
        // sub-self compares its two children's ids. Merging them changes
        // no node of the root's class, only the ids rebuild rewrites.
        {"(- (Get x 0) (Get y 0))",
         {Rewrite::make("y-is-x", "(Get y 0)", "(Get x 0)"),
          rule("sub-self")}},
    };
    const RunnerLimits limits{.iter_limit = 4};
    for (const Case& c : cases) {
        SCOPED_TRACE(c.spec);
        std::vector<Rewrite> naive;
        for (const Rewrite& r : c.rules) {
            naive.push_back(r.with_naive_search());
        }
        EGraph semi(false), full(false);
        semi.add_term(Term::parse(c.spec));
        full.add_term(Term::parse(c.spec));
        const RunnerReport rs = Runner(limits).run(semi, c.rules);
        const RunnerReport rf = Runner(limits).run(full, naive);
        EXPECT_EQ(rf.rule_stats.back().applications, 1u);
        EXPECT_EQ(rs.rule_stats.back().applications, 1u);
        EXPECT_EQ(semi.num_nodes(), full.num_nodes());
        EXPECT_EQ(semi.num_classes(), full.num_classes());
    }
}

// ---------------------------------------------------------------------------
// Stop-reason regression (S1).

TEST(Runner, DeadlineMidSearchIsNotReportedAsSaturation)
{
    // An expired deadline makes phase 1 stop after the *first* rule. That
    // rule finds nothing, so the iteration changes nothing — but the
    // second rule was never searched and would have matched, so reporting
    // kSaturated here would be false. Must report kDeadline.
    EGraph g(false);
    g.add_term(Term::parse("(+ (Get a 0) (Get a 1))"));
    g.rebuild();
    std::vector<Rewrite> rules;
    rules.push_back(
        Rewrite::make("never", "(sqrt (sqrt ?x))", "(sqrt (sqrt ?x))"));
    rules.push_back(Rewrite::make("comm", "(+ ?a ?b)", "(+ ?b ?a)"));
    Runner runner(RunnerLimits{.node_limit = 100'000,
                               .iter_limit = 100,
                               .time_limit_seconds = 60.0});
    const RunnerReport report =
        runner.run(g, rules, Deadline::after_seconds(0.0));
    EXPECT_EQ(report.stop_reason, StopReason::kDeadline);
    EXPECT_TRUE(g.is_clean());
}

// ---------------------------------------------------------------------------
// Deep-chain extraction regression.

TEST(Extract, DeepChainDoesNotOverflowTheStack)
{
    // A ~50k-deep unshared accumulation chain: extraction (and the
    // resulting term's destruction) must both run iteratively.
    constexpr int kDepth = 50'000;
    TermRef t = t_get("a", 0);
    for (int i = 0; i < kDepth; ++i) {
        t = t_add(t, t_get("a", i % 4));
    }
    EGraph g(false);
    const ClassId root = g.add_term(t);
    g.rebuild();
    const TreeSizeCost cost;
    const Extractor ex(g, cost);
    const Extraction best = ex.extract(g.find(root));
    ASSERT_NE(best.term, nullptr);
    EXPECT_EQ(Term::dag_size(best.term), static_cast<std::size_t>(kDepth) + 4);
    t.reset();  // the original chain's teardown must be iterative too
}

}  // namespace
}  // namespace diospyros
