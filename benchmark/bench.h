/**
 * @file
 * Shared declarations of the repository benchmark (see README.md in this
 * directory): run settings, the result every run prints, the compile
 * cases the workloads draw from, the kernel-text writer, the naive
 * fixed-size C printer, and the traced per-layer replay.
 *
 * Every layer is measured from outside, by timing calls into its public
 * functions; nothing here reaches into the compiler's internals.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "compiler/driver.h"
#include "scalar/ast.h"
#include "scalar/interp.h"

namespace diospyros::benchmark {

/** Settings of one benchmark run (one workload, one process). */
struct RunConfig {
    std::string workload;
    std::uint64_t seed = 1;
    /** Length of the measured window. */
    double seconds = 10.0;
    /** One short pass over two cases: a quick check of the wiring. */
    bool smoke = false;
    /** Non-empty: traced run; Chrome trace-event JSON is written here. */
    std::string trace_out;
    /** Scratch directory for host-compiled units, sockets and caches. */
    std::string workdir;
};

/**
 * What one run reports: named metrics with units, a count of attempted
 * and failed operations, and correctness. `print` writes one line per
 * metric and then the result object as the last line of stdout.
 */
class Result {
  public:
    void metric(const std::string& name, double value,
                const std::string& unit);
    /** A number printed for people but left out of the result object. */
    void info(const std::string& name, double value,
              const std::string& unit);
    void attempt(std::uint64_t n = 1) { attempted_ += n; }
    /** Counts one failed operation and says why on stderr. */
    void fail(const std::string& why);

    bool correct() const { return failed_ == 0 && attempted_ > 0; }
    void print(const std::string& workload) const;

  private:
    struct Entry {
        std::string name;
        double value = 0.0;
        std::string unit;
        bool in_result = true;
    };
    std::vector<Entry> entries_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Statistics and process measurements
// ---------------------------------------------------------------------------

double now_seconds();
double median(std::vector<double> values);
/** Quantile with linear interpolation between order statistics. */
double quantile(std::vector<double> values, double q);
double geomean(const std::vector<double>& values);
/** Spearman rank correlation (average ranks for ties). */
double spearman(const std::vector<double>& x, const std::vector<double>& y);
/** Peak resident set of this process, in MB. */
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Compile cases
// ---------------------------------------------------------------------------

/**
 * Options for one compile at `width`, under the saturation budget of
 * every compile: 12 iterations / 300k nodes / 20 s, the scaled budget the
 * repository's benches use. With `width_preset` the target is the
 * width's preset (TargetSpec::for_width, as the benches use); without,
 * the default target with only the lane count changed, which is what
 * `dioscc --width` and the daemon's wire protocol express.
 */
CompilerOptions bench_options(int width, bool width_preset = true);

/** One kernel at one configuration, before its fixture is built. */
struct CaseSpec {
    std::string label;
    scalar::Kernel kernel;
    int width = 4;
    bool full_ac = false;
    bool phased = false;
    bool width_preset = true;
};

/** A compile case with its fixture: source text, inputs, references. */
struct CompileCase {
    std::string label;
    /** Kernel source in the parse_kernel grammar (what a user sends). */
    std::string text;
    /** The kernel parsed back from `text`. */
    scalar::Kernel kernel;
    CompilerOptions options;
    scalar::BufferMap inputs;
    /** Reference interpreter outputs on `inputs`. */
    scalar::BufferMap want;
    /** Naive fixed-size baseline cycles on the simulated DSP. */
    std::uint64_t naive_fixed_cycles = 0;
};

/** The 21 Table-1 kernels at each of `widths`. */
std::vector<CaseSpec> table1_specs(const std::vector<int>& widths,
                                   bool width_preset = true);

/**
 * Builds each case's fixture from `seed`: writes the kernel as text,
 * parses it back (the round trip must preserve the canonical form),
 * draws inputs, and computes reference outputs and baseline cycles.
 * Throws on a broken round trip or a baseline that disagrees with the
 * reference.
 */
std::vector<CompileCase> build_cases(const std::vector<CaseSpec>& specs,
                                     std::uint64_t seed);

/** Deterministic shuffle of [0, n) for one pass. */
std::vector<std::size_t> shuffled_order(std::size_t n, std::uint64_t seed);

/** The tolerance bench/bench_common.h applies to simulated outputs. */
constexpr float kSimTolerance = 1e-2f;

/**
 * Checks one compiled artifact against its case: simulated outputs within
 * kSimTolerance of the reference. Returns "" or a reason.
 */
std::string check_outputs(const CompileCase& c, const CompiledKernel& ck,
                          std::uint64_t* cycles = nullptr);

/** What makes two artifacts the same: the disassembled machine program
 *  and the C text. */
std::string artifact_text(const Program& machine, const std::string& c_source,
                          int width);

/** Max relative error (scale >= 1) between two output maps; infinity
 *  on a shape mismatch. */
float max_rel_error(const scalar::BufferMap& got,
                    const scalar::BufferMap& want);

// ---------------------------------------------------------------------------
// Kernel source writers
// ---------------------------------------------------------------------------

/** Prints a kernel in the scalar::parse_kernel grammar. */
std::string kernel_text(const scalar::Kernel& kernel);

/**
 * Prints a kernel as naive fixed-size C: sizes are literal, loops and
 * branches as written. Defines `void <symbol>(float* const* arrays)`,
 * where arrays[i] is the i-th declared input or output array; scratch
 * arrays are locals and outputs are zeroed on entry, as the reference
 * interpreter does.
 */
std::string naive_c_text(const scalar::Kernel& kernel,
                         const std::string& symbol);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/** compile_cold and egraph_wall: kernel text → parse → resilient compile. */
void run_compile_workload(const RunConfig& cfg, Result& result);
void run_native(const RunConfig& cfg, Result& result);
void run_daemon(const RunConfig& cfg, Result& result);

/** The compile cases each workload's traced replay covers. */
std::vector<CaseSpec> workload_specs(const RunConfig& cfg);

/**
 * The traced run: each case is compiled by compile_kernel_resilient and
 * replayed as the driver's sequence of public calls with a span around
 * each, then the off-path gates, cache and codec layers are timed on the
 * finished artifacts. Reports the per-layer metrics and writes the spans
 * to cfg.trace_out.
 */
void run_traced(const RunConfig& cfg, const std::vector<CompileCase>& cases,
                Result& result);

}  // namespace diospyros::benchmark
