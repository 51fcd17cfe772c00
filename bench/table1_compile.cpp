/**
 * @file
 * Reproduces **Table 1**: compilation time and memory for the 21
 * benchmark kernels (2DConv x11, MatMul x7, QProd, QRDecomp x2).
 *
 * Columns mirror the paper: wall-clock compile time (symbolic evaluation
 * + saturation + extraction + code generation), the bytes the saturated
 * e-graph holds (EGraph::memory_proxy_bytes()), and whether equality
 * saturation hit its budget (the paper's "†  timed out" markers — half
 * its benchmarks hit the 3-minute limit; ours hit the scaled budget on
 * the same large kernels).
 *
 * Additionally registers google-benchmark timers over representative
 * kernels so compile-time can be measured with statistical repetition:
 * run with --benchmark_filter=. to enable them (they are skipped by
 * default to keep the table output primary).
 */
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "service/compile_service.h"
#include "support/timer.h"

using namespace diospyros;

namespace {

/** One formatted table row (shared by the sequential and service paths). */
void
print_row(const std::string& label, const CompileResult& result,
          double* total_seconds, int* degraded, int* failed)
{
    if (!result.ok) {
        ++*failed;
        std::printf("%-24s FAILED: %s\n", label.c_str(),
                    result.error.c_str());
        return;
    }
    const CompileReport& r = result.report();
    *total_seconds += r.total_seconds;
    const bool budget_hit = r.stop_reason != StopReason::kSaturated;
    std::printf("%-24s %9.2fs %9.1f MB %10zu %10zu %12zu %s%s",
                label.c_str(), r.total_seconds,
                static_cast<double>(r.memory_proxy_bytes) /
                    (1024.0 * 1024.0),
                r.egraph_nodes, r.egraph_classes, r.spec_elements,
                stop_reason_name(r.stop_reason), budget_hit ? " †" : "");
    if (r.fallback_level > 0) {
        ++*degraded;
        std::printf(" [fallback: %s]",
                    fallback_level_name(r.fallback_level));
    }
    std::printf("\n");
}

/**
 * Parallel mode (--jobs N [--cache-dir D]): all 21 kernels through one
 * CompileService, then a second warm pass over the same service — the
 * cold/warm wall-clock contrast is the cache's whole value proposition.
 */
void
print_table1_service(int jobs, const std::string& cache_dir)
{
    std::printf("=== Table 1 (compile service, jobs=%d%s%s) ===\n\n", jobs,
                cache_dir.empty() ? "" : ", cache-dir=",
                cache_dir.c_str());
    std::printf("%-24s %10s %12s %10s %10s %12s %s\n", "Benchmark", "Time",
                "Memory", "E-nodes", "Classes", "SpecElems", "Stop");

    service::CompileService::Options sopts;
    sopts.jobs = jobs;
    sopts.cache_dir = cache_dir;
    sopts.queue_capacity = 64;
    service::CompileService svc(sopts);

    const auto& instances = kernels::table1_instances();
    auto submit_all = [&] {
        std::vector<service::Ticket> tickets;
        tickets.reserve(instances.size());
        for (const auto& inst : instances) {
            tickets.push_back(
                svc.submit(inst.kernel, bench::bench_options()));
        }
        for (service::Ticket& t : tickets) {
            t.future.wait();
        }
        return tickets;
    };

    Timer cold_timer;
    std::vector<service::Ticket> cold = submit_all();
    const double cold_seconds = cold_timer.elapsed_seconds();

    double total_seconds = 0.0;
    int degraded = 0;
    int failed = 0;
    for (std::size_t i = 0; i < instances.size(); ++i) {
        print_row(instances[i].label(), cold[i].get(), &total_seconds,
                  &degraded, &failed);
    }

    Timer warm_timer;
    submit_all();
    const double warm_seconds = warm_timer.elapsed_seconds();

    std::printf("\nTotal compile time: %.2fs across %zu kernels\n",
                total_seconds, instances.size());
    if (degraded > 0 || failed > 0) {
        std::printf("(%d kernel(s) degraded, %d failed outright)\n",
                    degraded, failed);
    }
    std::printf("Cold pass (jobs=%d): %.2fs wall; warm pass: %.2fs wall "
                "(%.1fx)\n",
                jobs, cold_seconds, warm_seconds,
                warm_seconds > 0.0 ? cold_seconds / warm_seconds : 0.0);
    std::printf("Service metrics: %s\n", svc.metrics().to_json().c_str());
}

void
print_table1()
{
    std::printf("=== Table 1: kernel compilation time and memory ===\n");
    std::printf("(saturation budget: %d iterations / %zu nodes / %.0fs — "
                "scaled from the paper's 180s/10M; see EXPERIMENTS.md)\n\n",
                bench::bench_limits().iter_limit,
                bench::bench_limits().node_limit,
                bench::bench_limits().time_limit_seconds);
    std::printf("%-24s %10s %12s %10s %10s %12s %s\n", "Benchmark", "Time",
                "Memory", "E-nodes", "Classes", "SpecElems", "Stop");

    double total_seconds = 0.0;
    int degraded = 0;
    int failed = 0;
    for (const auto& inst : kernels::table1_instances()) {
        // Resilient compile: a kernel that blows up degrades down the
        // ladder and is *reported* instead of aborting the whole table.
        print_row(inst.label(),
                  compile_kernel_resilient(inst.kernel,
                                           bench::bench_options()),
                  &total_seconds, &degraded, &failed);
    }
    std::printf("\nTotal compile time: %.2fs across 21 kernels\n",
                total_seconds);
    if (degraded > 0 || failed > 0) {
        std::printf("(%d kernel(s) degraded, %d failed outright)\n",
                    degraded, failed);
    }
}

/** google-benchmark wrapper: repeated compile of one kernel. */
void
bm_compile(benchmark::State& state, const scalar::Kernel& kernel)
{
    for (auto _ : state) {
        const CompiledKernel compiled =
            compile_kernel(kernel, bench::bench_options());
        benchmark::DoNotOptimize(compiled.report.egraph_nodes);
    }
}

}  // namespace

BENCHMARK_CAPTURE(bm_compile, conv2d_3x5_3x3,
                  kernels::make_conv2d(3, 5, 3, 3))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_compile, matmul_3x3, kernels::make_matmul(3, 3, 3))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_compile, qprod, kernels::make_qprod())
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_compile, qrdecomp_3x3, kernels::make_qrdecomp(3))
    ->Unit(benchmark::kMillisecond);

int
main(int argc, char** argv)
{
    int jobs = 0;
    std::string cache_dir;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::string(argv[i]) == "--jobs") {
            jobs = std::atoi(argv[i + 1]);
        } else if (std::string(argv[i]) == "--cache-dir") {
            cache_dir = argv[i + 1];
        }
    }
    if (jobs > 0 || !cache_dir.empty()) {
        print_table1_service(jobs > 0 ? jobs : 1, cache_dir);
    } else {
        print_table1();
    }
    // google-benchmark micro-timers run only when a filter is given.
    bool run_micro = false;
    for (int i = 1; i < argc; ++i) {
        run_micro |=
            std::string(argv[i]).rfind("--benchmark_filter", 0) == 0;
    }
    if (run_micro) {
        benchmark::Initialize(&argc, argv);
        benchmark::RunSpecifiedBenchmarks();
    }
    return 0;
}
