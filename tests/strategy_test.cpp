// Tests for the saturation strategy subsystem (src/strategy/): the
// runner's rule backoff, the sketch goal language, the phase engine, the
// DSL round-trip and the shipped strategies' golden text, and the pinned
// guarantee that the built-in "default" strategy reproduces the
// monolithic Runner::run byte for byte.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/audit_egraph.h"
#include "analysis/diagnostics.h"
#include "egraph/extract.h"
#include "egraph/runner.h"
#include "ir/term.h"
#include "rules/cost.h"
#include "rules/rules.h"
#include "strategy/parse.h"
#include "strategy/sketch.h"
#include "strategy/strategy.h"
#include "support/error.h"

namespace diospyros {
namespace {

using strategy::Phase;
using strategy::PhaseReport;
using strategy::Sketch;
using strategy::Strategy;
using strategy::StrategyReport;
using strategy::StrategyRunOptions;

// A 4-lane accumulate spec that vectorizes to a single VecMAC.
const char* kMacSpec =
    "(List (+ (Get o 0) (* (Get i 0) (Get f 0))) "
    "(+ (Get o 1) (* (Get i 1) (Get f 1))) "
    "(+ (Get o 2) (* (Get i 2) (Get f 2))) "
    "(+ (Get o 3) (* (Get i 3) (Get f 3))))";

// A 4-lane elementwise add.
const char* kVaddSpec =
    "(List (+ (Get a 0) (Get b 0)) (+ (Get a 1) (Get b 1)) "
    "(+ (Get a 2) (Get b 2)) (+ (Get a 3) (Get b 3)))";

RunnerLimits
small_limits()
{
    return RunnerLimits{.node_limit = 200'000,
                        .iter_limit = 12,
                        .time_limit_seconds = 20.0};
}

struct Prepared {
    EGraph graph;
    ClassId root;
};

Prepared
prepare(const std::string& spec)
{
    Prepared p;
    p.root = p.graph.add_term(Term::parse(spec));
    p.graph.rebuild();
    return p;
}

std::string
extract_text(EGraph& graph, ClassId root, int width = 4)
{
    const DiosCostModel cost({}, width);
    const Extractor ex(graph, cost);
    return Term::to_string(ex.extract(graph.find(root)).term);
}

// ---------------------------------------------------------------------
// Rule backoff.

TEST(BackoffTest, BansGeometricallyAboveThreshold)
{
    const RunnerLimits limits{.backoff_threshold = 4};
    RuleStats rule;
    // 10 matches > threshold 4: truncated to 4 and banned.
    EXPECT_EQ(backoff_admit(limits, rule, 0, 10), 4u);
    EXPECT_EQ(rule.times_banned, 1);
    // Ban window: iter + 1 + 2^min(bans,10) = 0 + 1 + 2 = 3, so the rule
    // skips iterations 1 and 2 and searches again in 3.
    EXPECT_EQ(rule.banned_until, 3);
    // Second offense doubles the window: 3 + 1 + 4 = 8.
    EXPECT_EQ(backoff_admit(limits, rule, 3, 100), 4u);
    EXPECT_EQ(rule.times_banned, 2);
    EXPECT_EQ(rule.banned_until, 8);
    // At or below the threshold nothing changes.
    RuleStats quiet;
    EXPECT_EQ(backoff_admit(limits, quiet, 1, 4), 4u);
    EXPECT_EQ(backoff_admit(limits, quiet, 1, 3), 3u);
    EXPECT_EQ(quiet.times_banned, 0);
    EXPECT_EQ(quiet.banned_until, 0);
    // The exponent stops at 10: the eleventh and twelfth bans both last
    // 2^10 iterations.
    for (int i = 0; i < 9; ++i) {
        backoff_admit(limits, rule, 10, 5);
    }
    EXPECT_EQ(rule.times_banned, 11);
    EXPECT_EQ(rule.banned_until, 10 + 1 + 1024);
    backoff_admit(limits, rule, 20, 5);
    EXPECT_EQ(rule.banned_until, 20 + 1 + 1024);
}

TEST(BackoffTest, ZeroThresholdNeverBansAndCapApplies)
{
    const RunnerLimits limits{.match_limit_per_rule = 5};
    RuleStats rule;
    EXPECT_EQ(backoff_admit(limits, rule, 0, 1000), 5u);
    EXPECT_EQ(backoff_admit(limits, rule, 0, 2), 2u);
    EXPECT_EQ(rule.times_banned, 0);
    EXPECT_EQ(rule.banned_until, 0);
    // Without either number every match is admitted.
    EXPECT_EQ(backoff_admit(RunnerLimits{}, rule, 0, 1000), 1000u);
}

TEST(BackoffTest, CapAppliesAfterThresholdTruncation)
{
    const RunnerLimits limits{.match_limit_per_rule = 3,
                              .backoff_threshold = 8};
    RuleStats rule;
    EXPECT_EQ(backoff_admit(limits, rule, 0, 100), 3u);
    EXPECT_EQ(rule.times_banned, 1);
    EXPECT_EQ(backoff_admit(limits, rule, 5, 6), 3u);
    EXPECT_EQ(rule.times_banned, 1);
}

TEST(BackoffTest, RunnerSkipsBannedRulesUntilTheirWindowEnds)
{
    // Full-AC rules on the MAC spec with threshold 1: a rule that finds
    // two or more matches in iteration i is banned until i + 3, so it
    // skips iterations i + 1 and i + 2.
    RuleConfig config(4);
    config.full_ac = true;
    const std::vector<Rewrite> rules = build_rules(config);
    EGraph graph;
    graph.add_term(Term::parse(kMacSpec));
    RunnerLimits limits = small_limits();
    limits.iter_limit = 3;
    limits.backoff_threshold = 1;
    const RunnerReport report = Runner(limits).run(graph, rules);
    ASSERT_EQ(report.iterations.size(), 3u);
    std::size_t banned_at[3] = {0, 0, 0};
    for (const RuleStats& rule : report.rule_stats) {
        if (rule.times_banned > 0) {
            // Banned once at most: a ban outlasts the remaining budget.
            EXPECT_EQ(rule.times_banned, 1) << rule.name;
            ASSERT_GE(rule.banned_until, 3) << rule.name;
            ASSERT_LE(rule.banned_until, 5) << rule.name;
            ++banned_at[rule.banned_until - 3];
        }
    }
    EXPECT_GT(banned_at[0], 0u);
    EXPECT_EQ(report.iterations[0].banned_rules, 0u);
    EXPECT_EQ(report.iterations[1].banned_rules, banned_at[0]);
    EXPECT_EQ(report.iterations[2].banned_rules,
              banned_at[0] + banned_at[1]);
}

// ---------------------------------------------------------------------
// Sketches.

TEST(SketchTest, ContainsVecMacAfterSaturationOnly)
{
    Prepared p = prepare(kMacSpec);
    const Sketch goal = Sketch::contains(Sketch::of_op(Op::kVecMAC));
    EXPECT_TRUE(strategy::sketch_satisfied(p.graph, p.root, Sketch::any()));
    EXPECT_FALSE(strategy::sketch_satisfied(p.graph, p.root, goal));

    Runner runner(small_limits());
    runner.run(p.graph, build_rules(RuleConfig(4)));
    EXPECT_TRUE(strategy::sketch_satisfied(p.graph, p.root, goal));
    // The lanes are MACs, so no VecSqrt exists anywhere in the graph.
    EXPECT_FALSE(strategy::sketch_satisfied(
        p.graph, p.root,
        Sketch::contains(Sketch::of_op(Op::kVecSqrt))));
}

TEST(SketchTest, OpChildrenAreChecked)
{
    Prepared p = prepare("(+ (Get a 0) (* (Get b 0) (Get c 0)))");
    // (op + (any) (op * ...)) matches the spec shape.
    const Sketch match = Sketch::of_op(
        Op::kAdd, {Sketch::any(), Sketch::of_op(Op::kMul)});
    const Sketch mismatch = Sketch::of_op(
        Op::kAdd, {Sketch::of_op(Op::kMul), Sketch::of_op(Op::kMul)});
    EXPECT_TRUE(strategy::sketch_satisfied(p.graph, p.root, match));
    EXPECT_FALSE(strategy::sketch_satisfied(p.graph, p.root, mismatch));
}

TEST(SketchTest, VecOfTokenLifting)
{
    Op op = Op::kConst;
    ASSERT_TRUE(strategy::op_from_token("+", /*vec=*/true, op));
    EXPECT_EQ(op, Op::kVecAdd);
    ASSERT_TRUE(strategy::op_from_token("mac", /*vec=*/true, op));
    EXPECT_EQ(op, Op::kVecMAC);
    ASSERT_TRUE(strategy::op_from_token("VecMul", /*vec=*/false, op));
    EXPECT_EQ(op, Op::kVecMul);
    EXPECT_FALSE(strategy::op_from_token("frobnicate", /*vec=*/true, op));
}

// ---------------------------------------------------------------------
// DSL round-trip and diagnostics.

TEST(StrategyDslTest, BuiltinsRoundTripThroughCanonicalText)
{
    for (const std::string& name : strategy::builtin_strategy_names()) {
        const auto built = strategy::builtin_strategy(name);
        ASSERT_TRUE(built.has_value()) << name;
        analysis::DiagEngine diags;
        const auto reparsed =
            strategy::parse_strategy(built->to_string(), diags);
        EXPECT_FALSE(diags.has_errors()) << diags.render_text();
        ASSERT_TRUE(reparsed.has_value()) << name;
        EXPECT_EQ(*reparsed, *built) << name;
        // Canonical text is a fixed point.
        EXPECT_EQ(reparsed->to_string(), built->to_string()) << name;
    }
}

TEST(StrategyDslTest, EveryClauseRoundTrips)
{
    Strategy s;
    s.name = "kitchen-sink";
    Phase a;
    a.name = "grow";
    a.rules = {"vec-*", "list-chunk"};
    a.limits.iter_limit = 5;
    a.limits.node_limit = 1000;
    a.limits.time_limit_seconds = 2.5;
    a.limits.memory_limit_bytes = 1 << 20;
    a.limits.backoff = strategy::PhaseLimits::Backoff{
        .backoff_threshold = 64, .match_limit_per_rule = 128};
    a.until = Sketch::contains(Sketch::of_op(Op::kVecMAC));
    a.repeat = 3;
    s.phases.push_back(a);
    Phase b;
    b.name = "clean";
    b.rules = {"all"};
    b.limits.backoff =
        strategy::PhaseLimits::Backoff{.match_limit_per_rule = 9};
    b.always = true;
    s.phases.push_back(b);
    Phase c;
    c.name = "open";
    c.rules = {"mul-1"};
    c.limits.backoff = strategy::PhaseLimits::Backoff{};
    s.phases.push_back(c);
    s.goal = Sketch::contains(
        Sketch::of_op(Op::kVecAdd, {Sketch::any(), Sketch::any()}));

    analysis::DiagEngine diags;
    const auto reparsed = strategy::parse_strategy(s.to_string(), diags);
    ASSERT_FALSE(diags.has_errors()) << diags.render_text();
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_EQ(*reparsed, s);
}

TEST(StrategyDslTest, PhaseTimeoutRoundTripsExactly)
{
    for (const double seconds :
         {0.1234567, 1234567.0, 0.1, 2.5, 1e-9, 1e20, 180.0}) {
        Strategy s;
        s.name = "t";
        Phase p;
        p.name = "p";
        p.rules = {"all"};
        p.limits.time_limit_seconds = seconds;
        s.phases.push_back(p);
        analysis::DiagEngine diags;
        const auto reparsed = strategy::parse_strategy(s.to_string(), diags);
        ASSERT_TRUE(reparsed.has_value()) << diags.render_text();
        EXPECT_EQ(reparsed->phases[0].limits.time_limit_seconds, seconds)
            << s.to_string();
    }
    Strategy s;
    s.name = "t";
    Phase p;
    p.name = "p";
    p.rules = {"all"};
    p.limits.time_limit_seconds = 2.5;
    s.phases.push_back(p);
    EXPECT_EQ(s.to_string(),
              "(strategy t\n  (phase p (rules all) (timeout 2.5)))\n");
}

TEST(StrategyDslTest, SchedulerSpellingsMapToOneBackoffPair)
{
    // Each spelling is a (threshold, cap) pair; the canonical text is the
    // shortest spelling of that pair, so equal pairs share one identity.
    const struct {
        const char* clause;
        const char* canonical;  ///< nullptr: no clause (base pair)
    } cases[] = {
        {"(scheduler limits)", nullptr},
        {"(scheduler none)", "(scheduler none)"},
        {"(scheduler backoff 0)", "(scheduler none)"},
        {"(scheduler backoff 0 7)", "(scheduler match-cap 7)"},
        {"(scheduler match-cap 7)", "(scheduler match-cap 7)"},
        {"(scheduler backoff 64)", "(scheduler backoff 64)"},
        {"(scheduler backoff 64 128)", "(scheduler backoff 64 128)"},
    };
    for (const auto& c : cases) {
        SCOPED_TRACE(c.clause);
        analysis::DiagEngine diags;
        const auto parsed = strategy::parse_strategy(
            std::string("(strategy s (phase p (rules all) ") + c.clause +
                "))",
            diags);
        ASSERT_TRUE(parsed.has_value()) << diags.render_text();
        const std::string want =
            c.canonical == nullptr
                ? "(strategy s\n  (phase p (rules all)))\n"
                : std::string("(strategy s\n  (phase p (rules all) ") +
                      c.canonical + "))\n";
        EXPECT_EQ(parsed->to_string(), want);
    }
}

TEST(StrategyDslTest, MalformedInputsGetStableCodes)
{
    const struct {
        const char* text;
        const char* code;
    } cases[] = {
        {"(((", "S400"},
        {"(bogus)", "S400"},
        {"(strategy s)", "S400"},
        {"(strategy s (wat))", "S400"},
        {"(strategy s (goal (any)))", "S400"},  // no phases
        {"(strategy s (phase p (rules all)) (goal (any)) (goal (any)))",
         "S400"},
        {"(strategy s (phase p))", "S401"},
        {"(strategy s (phase p (iters 3)))", "S401"},  // no rules clause
        {"(strategy s (phase p (rules all) (wat 1)))", "S402"},
        {"(strategy s (phase p (rules all) (always 1)))", "S402"},
        {"(strategy s (phase p (rules all) (iters -1)))", "S403"},
        {"(strategy s (phase p (rules all) (repeat 0)))", "S403"},
        {"(strategy s (phase p (rules all) (timeout x)))", "S403"},
        {"(strategy s (phase p (rules all) (timeout nan)))", "S403"},
        {"(strategy s (phase p (rules all) (timeout inf)))", "S403"},
        {"(strategy s (phase p (rules all) (scheduler wat)))", "S405"},
        {"(strategy s (phase p (rules all) (scheduler match-cap 0)))",
         "S405"},
        {"(strategy s (phase p (rules all)) (goal (frob)))", "S406"},
        {"(strategy s (phase p (rules all)) (goal (op nosuchop)))", "S406"},
    };
    for (const auto& c : cases) {
        analysis::DiagEngine diags;
        const auto parsed = strategy::parse_strategy(c.text, diags);
        EXPECT_FALSE(parsed.has_value()) << c.text;
        EXPECT_TRUE(diags.has_errors()) << c.text;
        EXPECT_TRUE(diags.has_code(c.code))
            << c.text << "\n" << diags.render_text();
    }
}

/**
 * Every shipped strategy: the built-ins by name, then the example files
 * under examples/strategies/ in path order, each labelled as it appears
 * in tests/golden/strategies.golden.
 */
std::vector<std::pair<std::string, std::string>>
shipped_strategy_texts()
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const std::string& name : strategy::builtin_strategy_names()) {
        out.emplace_back("builtin " + name,
                         strategy::builtin_strategy(name)->to_string());
    }
    std::vector<std::filesystem::path> examples;
    for (const auto& entry : std::filesystem::directory_iterator(
             DIOS_SOURCE_DIR "/examples/strategies")) {
        if (entry.path().extension() == ".strat") {
            examples.push_back(entry.path());
        }
    }
    std::sort(examples.begin(), examples.end());
    for (const std::filesystem::path& path : examples) {
        std::ifstream in(path);
        std::ostringstream text;
        text << in.rdbuf();
        out.emplace_back("example " + path.filename().string(), text.str());
    }
    return out;
}

TEST(StrategyDslTest, ShippedStrategiesParseResolveRoundTripAndMatchGolden)
{
    std::string rendered;
    for (const auto& [label, text] : shipped_strategy_texts()) {
        SCOPED_TRACE(label);
        analysis::DiagEngine diags;
        const auto parsed = strategy::parse_strategy(text, diags);
        ASSERT_FALSE(diags.has_errors()) << diags.render_text();
        ASSERT_TRUE(parsed.has_value());
        for (const int width : {2, 4, 8, 16}) {
            analysis::DiagEngine resolve;
            strategy::resolve_phase_rules(
                *parsed, build_rules(RuleConfig(width)), resolve);
            EXPECT_FALSE(resolve.has_errors())
                << "width " << width << "\n" << resolve.render_text();
        }
        const std::string canonical = parsed->to_string();
        const auto reparsed = strategy::parse_strategy(canonical, diags);
        ASSERT_TRUE(reparsed.has_value()) << diags.render_text();
        EXPECT_EQ(*reparsed, *parsed);
        rendered += "; " + label + "\n" + canonical;
    }

    std::ifstream in(DIOS_SOURCE_DIR "/tests/golden/strategies.golden");
    EXPECT_TRUE(in.good()) << "missing tests/golden/strategies.golden";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(rendered, golden.str());
    if (rendered != golden.str()) {
        std::ofstream("strategies.golden.actual") << rendered;
    }
}

TEST(StrategyDslTest, LoadStrategyResolvesBuiltinsAndReportsBadPaths)
{
    analysis::DiagEngine diags;
    const auto phased = strategy::load_strategy("phased", diags);
    ASSERT_TRUE(phased.has_value());
    EXPECT_FALSE(diags.has_errors());
    EXPECT_EQ(*phased, strategy::builtin_phased());

    const auto missing =
        strategy::load_strategy("/no/such/file.strat", diags);
    EXPECT_FALSE(missing.has_value());
    EXPECT_TRUE(diags.has_code("S409"));
}

// ---------------------------------------------------------------------
// Rule resolution.

TEST(StrategyResolveTest, GlobsExactNamesAndAll)
{
    const std::vector<Rewrite> rules = build_rules(RuleConfig(4));
    analysis::DiagEngine diags;

    Strategy s;
    s.name = "t";
    Phase p;
    p.name = "p";
    p.rules = {"list-chunk", "*-lift", "all"};
    s.phases.push_back(p);

    const auto resolved = strategy::resolve_phase_rules(s, rules, diags);
    ASSERT_FALSE(diags.has_errors()) << diags.render_text();
    ASSERT_EQ(resolved.size(), 1u);
    // "all" subsumes everything; indices are deduplicated.
    EXPECT_EQ(resolved[0].size(), rules.size());
}

TEST(StrategyResolveTest, UnknownReferenceIsS404)
{
    const std::vector<Rewrite> rules = build_rules(RuleConfig(4));
    analysis::DiagEngine diags;
    Strategy s;
    s.name = "t";
    Phase p;
    p.name = "p";
    p.rules = {"no-such-rule"};
    s.phases.push_back(p);
    strategy::resolve_phase_rules(s, rules, diags);
    EXPECT_TRUE(diags.has_code("S404")) << diags.render_text();

    // And run_strategy surfaces it as a UserError.
    Prepared g = prepare(kVaddSpec);
    StrategyRunOptions options;
    options.base = small_limits();
    EXPECT_THROW(
        strategy::run_strategy(g.graph, g.root, rules, s, options),
        UserError);
}

// ---------------------------------------------------------------------
// Engine behavior.

TEST(StrategyRunTest, DefaultStrategyMatchesLegacyRunnerExactly)
{
    for (const char* spec : {kVaddSpec, kMacSpec}) {
        const std::vector<Rewrite> rules = build_rules(RuleConfig(4));

        Prepared legacy = prepare(spec);
        Runner runner(small_limits());
        const RunnerReport lr = runner.run(legacy.graph, rules);

        Prepared strat = prepare(spec);
        StrategyRunOptions options;
        options.base = small_limits();
        const StrategyReport sr = strategy::run_strategy(
            strat.graph, strat.root, rules, strategy::builtin_default(),
            options);

        EXPECT_EQ(sr.stop_reason, lr.stop_reason);
        EXPECT_EQ(sr.iterations, lr.iterations.size());
        EXPECT_EQ(sr.final_nodes, lr.final_nodes);
        EXPECT_EQ(sr.final_classes, lr.final_classes);
        ASSERT_EQ(sr.rule_stats.size(), lr.rule_stats.size());
        for (std::size_t i = 0; i < lr.rule_stats.size(); ++i) {
            EXPECT_EQ(sr.rule_stats[i].name, lr.rule_stats[i].name);
            EXPECT_EQ(sr.rule_stats[i].matches, lr.rule_stats[i].matches)
                << lr.rule_stats[i].name;
            EXPECT_EQ(sr.rule_stats[i].applications,
                      lr.rule_stats[i].applications)
                << lr.rule_stats[i].name;
            EXPECT_EQ(sr.rule_stats[i].times_banned,
                      lr.rule_stats[i].times_banned)
                << lr.rule_stats[i].name;
            EXPECT_EQ(sr.rule_stats[i].banned_until,
                      lr.rule_stats[i].banned_until)
                << lr.rule_stats[i].name;
        }
        EXPECT_EQ(extract_text(strat.graph, strat.root),
                  extract_text(legacy.graph, legacy.root));
    }
}

TEST(StrategyRunTest, PhasedIsDeterministic)
{
    auto run_once = [](StrategyReport& out, std::string& extracted) {
        Prepared p = prepare(kMacSpec);
        StrategyRunOptions options;
        options.base = small_limits();
        out = strategy::run_strategy(p.graph, p.root, build_rules(RuleConfig(4)),
                                     strategy::builtin_phased(), options);
        extracted = extract_text(p.graph, p.root);
    };
    StrategyReport a, b;
    std::string ea, eb;
    run_once(a, ea);
    run_once(b, eb);
    EXPECT_EQ(a.stop_reason, b.stop_reason);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.final_nodes, b.final_nodes);
    EXPECT_EQ(a.final_classes, b.final_classes);
    EXPECT_EQ(a.goal_satisfied, b.goal_satisfied);
    ASSERT_EQ(a.phases.size(), b.phases.size());
    for (std::size_t i = 0; i < a.phases.size(); ++i) {
        EXPECT_EQ(a.phases[i].runs, b.phases[i].runs);
        EXPECT_EQ(a.phases[i].skipped, b.phases[i].skipped);
    }
    ASSERT_EQ(a.rule_stats.size(), b.rule_stats.size());
    for (std::size_t i = 0; i < a.rule_stats.size(); ++i) {
        EXPECT_EQ(a.rule_stats[i].matches, b.rule_stats[i].matches);
        EXPECT_EQ(a.rule_stats[i].applications,
                  b.rule_stats[i].applications);
    }
    EXPECT_EQ(ea, eb);
}

TEST(StrategyRunTest, PhaseHandoffLeavesInvariantsClean)
{
    Prepared p = prepare(kMacSpec);
    StrategyRunOptions options;
    options.base = small_limits();
    int executed = 0;
    options.on_phase_end = [&](const EGraph& graph,
                               const PhaseReport& phase) {
        ++executed;
        EXPECT_GT(phase.runs, 0) << phase.name;
        EXPECT_NO_THROW(graph.check_invariants()) << phase.name;
        // The E1xx structural auditor must come back clean after every
        // phase: each handoff leaves a canonical, rebuilt graph.
        analysis::DiagEngine diags;
        EXPECT_TRUE(analysis::audit_egraph(graph, diags))
            << phase.name << "\n" << diags.render_text();
    };
    const StrategyReport report = strategy::run_strategy(
        p.graph, p.root, build_rules(RuleConfig(4)), strategy::builtin_phased(),
        options);
    // Several phases executed, each leaving a clean, canonical graph.
    EXPECT_GT(executed, 1);
    EXPECT_TRUE(report.goal_satisfied);
    EXPECT_NO_THROW(p.graph.check_invariants());
}

TEST(StrategyRunTest, GoalSkipsNonAlwaysPhases)
{
    Strategy s;
    s.name = "goal-skip";
    Phase grow;
    grow.name = "grow";
    grow.rules = {"all"};
    s.phases.push_back(grow);
    Phase extra;
    extra.name = "extra";
    extra.rules = {"all"};
    s.phases.push_back(extra);
    Phase clean;
    clean.name = "clean";
    clean.rules = {"mul-1"};
    clean.always = true;
    s.phases.push_back(clean);
    s.goal = Sketch::contains(Sketch::of_op(Op::kVecMAC));

    Prepared p = prepare(kMacSpec);
    StrategyRunOptions options;
    options.base = small_limits();
    const StrategyReport report = strategy::run_strategy(
        p.graph, p.root, build_rules(RuleConfig(4)), s, options);

    ASSERT_EQ(report.phases.size(), 3u);
    EXPECT_TRUE(report.goal_satisfied);
    EXPECT_GT(report.phases[0].runs, 0);
    // Goal satisfied after "grow": "extra" is skipped, "clean" still runs.
    EXPECT_TRUE(report.phases[1].skipped);
    EXPECT_EQ(report.phases[1].runs, 0);
    EXPECT_FALSE(report.phases[2].skipped);
    EXPECT_GT(report.phases[2].runs, 0);
}

TEST(StrategyRunTest, UntilSketchRerunsUpToRepeat)
{
    Strategy s;
    s.name = "until";
    Phase p;
    p.name = "scalar-only";
    p.rules = {"mul-1", "add-0"};
    p.limits.iter_limit = 1;
    // Scalar rules can never build a VecMAC, so every re-run fails the
    // sketch and the phase runs exactly `repeat` times.
    p.until = Sketch::contains(Sketch::of_op(Op::kVecMAC));
    p.repeat = 3;
    s.phases.push_back(p);

    Prepared g = prepare(kVaddSpec);
    StrategyRunOptions options;
    options.base = small_limits();
    const StrategyReport report = strategy::run_strategy(
        g.graph, g.root, build_rules(RuleConfig(4)), s, options);
    ASSERT_EQ(report.phases.size(), 1u);
    EXPECT_EQ(report.phases[0].runs, 3);
    EXPECT_TRUE(report.phases[0].sketch_checked);
    EXPECT_FALSE(report.phases[0].sketch_satisfied);
}

TEST(StrategyRunTest, PhaseLimitsOnlyTightenTheBase)
{
    // An AC-heavy spec that cannot saturate in two iterations.
    RuleConfig config(4);
    config.full_ac = true;
    Strategy s;
    s.name = "clamped";
    Phase p;
    p.name = "grow";
    p.rules = {"all"};
    p.limits.iter_limit = 100;  // asks for more than the base allows
    s.phases.push_back(p);

    Prepared g = prepare(kMacSpec);
    StrategyRunOptions options;
    options.base = small_limits();
    options.base.iter_limit = 2;
    const StrategyReport report = strategy::run_strategy(
        g.graph, g.root, build_rules(config), s, options);
    EXPECT_LE(report.iterations, 2u);
    EXPECT_EQ(report.stop_reason, StopReason::kIterLimit);
}

TEST(StrategyRunTest, BackoffBansSurfaceInRuleStats)
{
    RuleConfig config(4);
    config.full_ac = true;
    Strategy s;
    s.name = "banned";
    Phase p;
    p.name = "grow";
    p.rules = {"all"};
    // Ban nearly everything immediately.
    p.limits.backoff = strategy::PhaseLimits::Backoff{.backoff_threshold = 1};
    s.phases.push_back(p);

    Prepared g = prepare(kMacSpec);
    StrategyRunOptions options;
    options.base = small_limits();
    options.base.iter_limit = 6;
    const StrategyReport report = strategy::run_strategy(
        g.graph, g.root, build_rules(config), s, options);
    int banned_rules = 0;
    for (const RuleStats& rs : report.rule_stats) {
        if (rs.times_banned > 0) {
            ++banned_rules;
            EXPECT_GT(rs.banned_until, 0) << rs.name;
        }
    }
    EXPECT_GT(banned_rules, 0);
}

}  // namespace
}  // namespace diospyros
