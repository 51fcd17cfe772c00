/**
 * @file
 * google-benchmark microbenchmarks of the cache and wire codec: writing
 * and reading the compile-response payloads of the 21 Table-1 kernels at
 * width 4, the artifacts a warm diosd serves. Each iteration handles all
 * 21 payloads (about 1.2 MB of text); the `bytes` counter gives the
 * total. These do not correspond to a paper figure; they track the cost
 * of serving a compile that is already done.
 */
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_common.h"
#include "daemon/protocol.h"
#include "service/cache_key.h"

using namespace diospyros;

namespace {

/** Ok responses of every Table-1 kernel at width 4 (compiled once). */
const std::vector<daemon::CompileResponse>&
responses()
{
    static const std::vector<daemon::CompileResponse> out = [] {
        std::vector<daemon::CompileResponse> rs;
        CompilerOptions options = bench::bench_options();
        options.target = TargetSpec::for_width(4);
        for (const kernels::BenchmarkInstance& inst :
             kernels::table1_instances()) {
            const CompileResult result =
                compile_kernel_resilient(inst.kernel, options);
            if (!result.ok) {
                continue;
            }
            daemon::CompileResponse r;
            r.status = daemon::ResponseStatus::kOk;
            r.entry = service::make_entry(
                service::compute_cache_key(inst.kernel, options), options,
                *result.compiled);
            rs.push_back(std::move(r));
        }
        return rs;
    }();
    return out;
}

const std::vector<std::string>&
payloads()
{
    static const std::vector<std::string> out = [] {
        std::vector<std::string> ps;
        for (const daemon::CompileResponse& r : responses()) {
            ps.push_back(daemon::encode_compile_response(r));
        }
        return ps;
    }();
    return out;
}

double
total_bytes()
{
    double n = 0;
    for (const std::string& p : payloads()) {
        n += static_cast<double>(p.size());
    }
    return n;
}

void
bm_response_encode(benchmark::State& state)
{
    const std::vector<daemon::CompileResponse>& rs = responses();
    for (auto _ : state) {
        for (const daemon::CompileResponse& r : rs) {
            benchmark::DoNotOptimize(daemon::encode_compile_response(r));
        }
    }
    state.counters["payloads"] = static_cast<double>(rs.size());
    state.counters["bytes"] = total_bytes();
}

void
bm_response_decode(benchmark::State& state)
{
    const std::vector<std::string>& ps = payloads();
    for (auto _ : state) {
        for (const std::string& p : ps) {
            benchmark::DoNotOptimize(daemon::decode_compile_response(p));
        }
    }
    state.counters["payloads"] = static_cast<double>(ps.size());
    state.counters["bytes"] = total_bytes();
}

}  // namespace

BENCHMARK(bm_response_encode)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_response_decode)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
