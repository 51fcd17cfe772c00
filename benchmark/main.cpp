/**
 * @file
 * dios_bench: runs one benchmark workload in this process and prints its
 * metrics, then the result object as the last line of stdout. Normally
 * launched by run.py, which builds it first.
 *
 *   dios_bench --workload W [--seed N] [--seconds S] [--smoke]
 *              [--trace-out FILE] [--workdir DIR]
 *
 * Exit status: 0 when every output was correct, 1 on any failed check,
 * 2 on a usage error or a benchmark that could not run.
 */
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"
#include "support/numeric.h"

using namespace diospyros;
using namespace diospyros::benchmark;

namespace {

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: dios_bench --workload "
                 "compile_cold|egraph_wall|native_run|daemon_mixed\n"
                 "                  [--seed N] [--seconds S] [--smoke]\n"
                 "                  [--trace-out FILE] [--workdir DIR]\n");
    std::exit(2);
}

RunConfig
parse_args(int argc, char** argv)
{
    RunConfig cfg;
    cfg.workdir = ".bench_build/work";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage();
            }
            return argv[++i];
        };
        if (arg == "--workload") {
            cfg.workload = value();
        } else if (arg == "--seed") {
            cfg.seed = static_cast<std::uint64_t>(
                require_nonnegative_integer(arg, value()));
        } else if (arg == "--seconds") {
            cfg.seconds = require_positive_number(arg, value());
        } else if (arg == "--smoke") {
            cfg.smoke = true;
        } else if (arg == "--trace-out") {
            cfg.trace_out = value();
        } else if (arg == "--workdir") {
            cfg.workdir = value();
        } else {
            usage();
        }
    }
    if (cfg.workload.empty()) {
        usage();
    }
    return cfg;
}

}  // namespace

int
main(int argc, char** argv)
{
    RunConfig cfg;
    Result result;
    try {
        cfg = parse_args(argc, argv);
        if (!cfg.trace_out.empty()) {
            run_traced(cfg, build_cases(workload_specs(cfg), cfg.seed),
                       result);
        } else if (cfg.workload == "compile_cold" ||
                   cfg.workload == "egraph_wall") {
            run_compile_workload(cfg, result);
        } else if (cfg.workload == "native_run") {
            run_native(cfg, result);
        } else if (cfg.workload == "daemon_mixed") {
            run_daemon(cfg, result);
        } else {
            usage();
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "dios_bench: %s: %s\n", cfg.workload.c_str(),
                     e.what());
        return 2;
    }
    result.print(cfg.workload);
    return result.correct() ? 0 : 1;
}
