/**
 * @file
 * google-benchmark microbenchmarks of the e-graph engine itself: term
 * insertion, congruence rebuild after merges, e-matching, and a full
 * saturation round. These do not correspond to a paper figure; they
 * track the engine performance the compile-time results (Table 1)
 * depend on.
 */
#include <benchmark/benchmark.h>

#include "egraph/extract.h"
#include "egraph/runner.h"
#include "kernels/kernels.h"
#include "rules/cost.h"
#include "rules/rules.h"
#include "scalar/symbolic.h"

using namespace diospyros;

namespace {

/** Lifted matmul spec of size n (cached per size). */
TermRef
matmul_spec(int n)
{
    static std::map<int, TermRef> cache;
    auto it = cache.find(n);
    if (it == cache.end()) {
        const scalar::LiftedSpec spec =
            scalar::lift(kernels::make_matmul(n, n, n));
        it = cache.emplace(n, spec.spec).first;
    }
    return it->second;
}

void
bm_add_term(benchmark::State& state)
{
    const TermRef spec = matmul_spec(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        EGraph g;
        benchmark::DoNotOptimize(g.add_term(spec));
    }
    state.counters["nodes"] = static_cast<double>([&] {
        EGraph g;
        g.add_term(spec);
        return g.num_nodes();
    }());
}

void
bm_rebuild_after_merges(benchmark::State& state)
{
    const TermRef spec = matmul_spec(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        state.PauseTiming();
        EGraph g;
        g.add_term(spec);
        g.rebuild();
        // Merge sibling products pairwise to trigger congruence work.
        const auto ids = g.class_ids();
        state.ResumeTiming();
        for (std::size_t i = 0; i + 1 < ids.size(); i += 8) {
            g.merge(ids[i], ids[i + 1]);
        }
        g.rebuild();
        benchmark::DoNotOptimize(g.num_classes());
    }
}

void
bm_ematch_mac_pattern(benchmark::State& state)
{
    EGraph g;
    g.add_term(matmul_spec(static_cast<int>(state.range(0))));
    g.rebuild();
    const Pattern p = Pattern::parse("(+ ?a (* ?b ?c))");
    std::vector<RuleMatch> matches;
    for (auto _ : state) {
        matches.clear();
        for (const ClassId id : g.class_ids()) {
            p.search(g, id, matches);
        }
        benchmark::DoNotOptimize(matches.data());
    }
}

void
bm_saturation_iteration(benchmark::State& state)
{
    const TermRef spec = matmul_spec(static_cast<int>(state.range(0)));
    RuleConfig config(4);
    const std::vector<Rewrite> rules = build_rules(config);
    for (auto _ : state) {
        EGraph g;
        g.add_term(spec);
        g.rebuild();
        Runner runner(RunnerLimits{.node_limit = 1'000'000,
                                   .iter_limit = 1,
                                   .time_limit_seconds = 60.0});
        runner.run(g, rules);
        benchmark::DoNotOptimize(g.num_nodes());
    }
}

/**
 * Cold saturation of an n×n×n matmul spec — graph build plus the full
 * run to quiescence — through the op-indexed searchers. Paired with
 * bm_saturation_cold_naive below; the ratio is the e-matching fast
 * path's end-to-end win. tools/check.sh gates both the indexed time and
 * the ratio through the `ematch` gate of bench/perf_gates.json
 * (re-capture: tools/perf_gate.py capture).
 */
void
bm_saturation_cold_indexed(benchmark::State& state)
{
    const TermRef spec = matmul_spec(static_cast<int>(state.range(0)));
    RuleConfig config(4);
    const std::vector<Rewrite> rules = build_rules(config);
    for (auto _ : state) {
        EGraph g;
        g.add_term(spec);
        g.rebuild();
        Runner(RunnerLimits{.node_limit = 1'000'000,
                            .iter_limit = 6,
                            .time_limit_seconds = 60.0})
            .run(g, rules);
        benchmark::DoNotOptimize(g.num_nodes());
    }
}

/** The same workload forced down the naive full-scan search path. */
void
bm_saturation_cold_naive(benchmark::State& state)
{
    const TermRef spec = matmul_spec(static_cast<int>(state.range(0)));
    RuleConfig config(4);
    std::vector<Rewrite> rules;
    for (const Rewrite& r : build_rules(config)) {
        rules.push_back(r.with_naive_search());
    }
    for (auto _ : state) {
        EGraph g;
        g.add_term(spec);
        g.rebuild();
        Runner(RunnerLimits{.node_limit = 1'000'000,
                            .iter_limit = 6,
                            .time_limit_seconds = 60.0})
            .run(g, rules);
        benchmark::DoNotOptimize(g.num_nodes());
    }
}

/** One search pass of every rule over a pre-saturated graph (indexed). */
void
bm_search_all_rules_indexed(benchmark::State& state)
{
    EGraph g;
    g.add_term(matmul_spec(static_cast<int>(state.range(0))));
    g.rebuild();
    RuleConfig config(4);
    const std::vector<Rewrite> rules = build_rules(config);
    Runner(RunnerLimits{.node_limit = 1'000'000,
                        .iter_limit = 4,
                        .time_limit_seconds = 60.0})
        .run(g, rules);
    for (auto _ : state) {
        std::size_t matches = 0;
        for (const Rewrite& r : rules) {
            matches += r.searcher().search(g).size();
        }
        benchmark::DoNotOptimize(matches);
    }
}

/** Same search pass through the full-scan reference path. */
void
bm_search_all_rules_naive(benchmark::State& state)
{
    EGraph g;
    g.add_term(matmul_spec(static_cast<int>(state.range(0))));
    g.rebuild();
    RuleConfig config(4);
    const std::vector<Rewrite> rules = build_rules(config);
    Runner(RunnerLimits{.node_limit = 1'000'000,
                        .iter_limit = 4,
                        .time_limit_seconds = 60.0})
        .run(g, rules);
    for (auto _ : state) {
        std::size_t matches = 0;
        for (const Rewrite& r : rules) {
            matches += r.searcher().search_naive(g).size();
        }
        benchmark::DoNotOptimize(matches);
    }
}

void
bm_extract(benchmark::State& state)
{
    EGraph g;
    const ClassId root =
        g.add_term(matmul_spec(static_cast<int>(state.range(0))));
    g.rebuild();
    RuleConfig config(4);
    Runner(RunnerLimits{.node_limit = 1'000'000,
                        .iter_limit = 6,
                        .time_limit_seconds = 60.0})
        .run(g, build_rules(config));
    const DiosCostModel cost({}, 4);
    for (auto _ : state) {
        const Extractor ex(g, cost);
        benchmark::DoNotOptimize(ex.extract(g.find(root)).cost);
    }
}

}  // namespace

BENCHMARK(bm_add_term)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_rebuild_after_merges)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_ematch_mac_pattern)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_saturation_iteration)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bm_saturation_cold_indexed)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bm_saturation_cold_naive)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bm_search_all_rules_indexed)
    ->Arg(4)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_search_all_rules_naive)
    ->Arg(4)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_extract)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
