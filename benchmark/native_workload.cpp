/**
 * @file
 * native_run: the run path from artifact to native execution. Each case
 * is compiled, lowered to C with emit_c_kernel, built by the host cc at
 * -O2 -ffp-contract=off, and dlopened; the honest baseline is the same
 * kernel printed as naive fixed-size C and built at -O3 -march=native.
 * Timed: the dispatched leaf, the emitted program's scalar core, and the
 * baseline, in a seeded order rotated every round.
 */
#include <dlfcn.h>
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "bench.h"
#include "machine/emit_c.h"
#include "scalar/parse.h"

extern char** environ;

namespace diospyros::benchmark {

namespace {

namespace fs = std::filesystem;

using KernelFn = void (*)(float*);
using NaiveFn = void (*)(float* const*);

/** The emitted program's contract: ≤4 ULP from the simulator. */
constexpr std::uint32_t kUlpBudget = 4;
/** Native results against the reference interpreter. */
constexpr float kNativeTolerance = 5e-3f;
constexpr double kInf = std::numeric_limits<double>::infinity();

/** Runs `argv` with stdout and stderr sent to `log`; returns the pid. */
pid_t
spawn(const std::vector<std::string>& argv, const std::string& log)
{
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    std::vector<char*> args;
    for (const std::string& a : argv) {
        args.push_back(const_cast<char*>(a.c_str()));
    }
    args.push_back(nullptr);
    pid_t pid = -1;
    const int rc = posix_spawnp(&pid, args[0], &actions, nullptr,
                                args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
        throw std::runtime_error("cannot start " + argv[0] + ": " +
                                 std::strerror(rc));
    }
    return pid;
}

/** One host-compiled translation unit. */
struct Unit {
    std::string symbol;
    std::string source;
    bool baseline = false;
    fs::path so;
    void* handle = nullptr;
};

/**
 * Builds every unit with the host cc, at most four at a time and largest
 * source first (the biggest unit alone takes ~6 s), and dlopens the
 * results in the given order. Throws on any toolchain or loader failure.
 */
void
build_units(std::vector<Unit>& units, const fs::path& dir,
            const std::vector<std::size_t>& load_order)
{
    std::vector<std::pair<pid_t, std::size_t>> running;
    auto reap_one = [&] {
        int status = 0;
        const pid_t pid = ::waitpid(-1, &status, 0);
        const auto it =
            std::find_if(running.begin(), running.end(),
                         [&](const auto& p) { return p.first == pid; });
        if (it == running.end()) {
            return;
        }
        const Unit& u = units[it->second];
        running.erase(it);
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            throw std::runtime_error("host cc failed on " + u.symbol +
                                     "; see " +
                                     (dir / (u.symbol + ".log")).string());
        }
    };
    std::vector<std::size_t> by_size(units.size());
    std::iota(by_size.begin(), by_size.end(), 0);
    std::stable_sort(by_size.begin(), by_size.end(),
                     [&](std::size_t a, std::size_t b) {
                         return units[a].source.size() >
                                units[b].source.size();
                     });
    try {
        for (const std::size_t i : by_size) {
            Unit& u = units[i];
            const fs::path c_path = dir / (u.symbol + ".c");
            u.so = dir / (u.symbol + ".so");
            std::ofstream(c_path) << u.source;
            std::vector<std::string> argv = {"cc", "-fPIC", "-shared",
                                             "-ffp-contract=off"};
            if (u.baseline) {
                argv.insert(argv.end(), {"-O3", "-march=native"});
            } else {
                argv.push_back("-O2");
            }
            argv.insert(argv.end(),
                        {"-o", u.so.string(), c_path.string(), "-lm"});
            while (running.size() >= 4) {
                reap_one();
            }
            running.emplace_back(
                spawn(argv, (dir / (u.symbol + ".log")).string()), i);
        }
        while (!running.empty()) {
            reap_one();
        }
    } catch (...) {
        for (const auto& [pid, unit] : running) {
            int status = 0;
            ::waitpid(pid, &status, 0);
        }
        throw;
    }
    for (const std::size_t i : load_order) {
        units[i].handle =
            dlopen(units[i].so.c_str(), RTLD_NOW | RTLD_LOCAL);
        if (units[i].handle == nullptr) {
            throw std::runtime_error(std::string("dlopen failed: ") +
                                     dlerror());
        }
    }
}

void*
symbol(const Unit& u, const std::string& name)
{
    void* p = dlsym(u.handle, name.c_str());
    if (p == nullptr) {
        throw std::runtime_error("missing symbol " + name + " in " +
                                 u.so.string());
    }
    return p;
}

/** ULP distance with ±0 identified; NaN only matches NaN. */
std::uint32_t
ulp_distance(float a, float b)
{
    if (std::isnan(a) || std::isnan(b)) {
        return std::isnan(a) && std::isnan(b) ? 0u : ~0u;
    }
    auto key = [](float x) {
        std::int32_t bits = 0;
        std::memcpy(&bits, &x, sizeof bits);
        return bits >= 0 ? static_cast<std::int64_t>(bits)
                         : static_cast<std::int64_t>(INT32_MIN) - bits;
    };
    const std::int64_t d = std::llabs(key(a) - key(b));
    return d > static_cast<std::int64_t>(~0u) ? ~0u
                                               : static_cast<std::uint32_t>(d);
}

std::uint32_t
max_ulp(const scalar::BufferMap& got, const scalar::BufferMap& want)
{
    std::uint32_t worst = 0;
    for (const auto& [name, w] : want) {
        const auto it = got.find(name);
        if (it == got.end() || it->second.size() != w.size()) {
            return ~0u;
        }
        for (std::size_t i = 0; i < w.size(); ++i) {
            worst = std::max(worst, ulp_distance(it->second[i], w[i]));
        }
    }
    return worst;
}

struct FreeDeleter {
    void operator()(float* p) const { std::free(p); }
};
/** A 64-byte-aligned float buffer, so timings do not depend on where
 *  malloc put the data relative to cache lines. */
using AlignedFloats = std::unique_ptr<float[], FreeDeleter>;

AlignedFloats
aligned_copy(const std::vector<float>& v)
{
    const std::size_t bytes =
        std::max<std::size_t>(64, (v.size() * sizeof(float) + 63) / 64 * 64);
    AlignedFloats p(static_cast<float*>(std::aligned_alloc(64, bytes)));
    if (!p) {
        throw std::bad_alloc();
    }
    std::copy(v.begin(), v.end(), p.get());
    return p;
}

/** One case ready to run natively. */
struct NativeCase {
    const CompileCase* c = nullptr;
    CompiledKernel compiled;
    std::uint64_t sim_cycles = 0;
    std::size_t dios_unit = 0;
    std::size_t naive_unit = 0;
    KernelFn dispatched = nullptr;
    KernelFn scalar_core = nullptr;
    NaiveFn naive = nullptr;
    /** The flat memory image the emitted kernel works on, and the copy
     *  the timed calls reuse (every call rewrites the same outputs). */
    std::vector<float> image;
    AlignedFloats timed_image;
    /** One buffer per declared input/output array, for the baseline. */
    std::vector<AlignedFloats> arrays;
    std::vector<std::size_t> lengths;
    std::vector<float*> array_ptrs;
    /** Calls per timing: a fixed function of the kernel's size, so a
     *  faster program shows as a shorter round. */
    std::uint64_t reps = 1;
    /** Fastest ns per call: dispatched leaf, scalar core, baseline. */
    double best_ns[3] = {kInf, kInf, kInf};
};

scalar::BufferMap
image_outputs(const NativeCase& nc, const float* image)
{
    Memory mem = nc.compiled.layout.make_memory(nc.c->inputs);
    for (std::size_t i = 0; i < mem.size(); ++i) {
        mem.at(i) = image[i];
    }
    return nc.compiled.layout.read_outputs(mem);
}

scalar::BufferMap
naive_outputs(const NativeCase& nc)
{
    scalar::BufferMap out;
    std::size_t slot = 0;
    for (const scalar::ArrayDecl& d : nc.c->kernel.arrays) {
        if (d.role == scalar::ArrayRole::kScratch) {
            continue;
        }
        if (d.role == scalar::ArrayRole::kOutput) {
            const float* p = nc.arrays[slot].get();
            out.emplace(d.name.str(),
                        std::vector<float>(p, p + nc.lengths[slot]));
        }
        ++slot;
    }
    return out;
}

/** Checks every native variant once before anything is timed. */
void
check_native(NativeCase& nc, std::uint32_t& ulp_max, Result& result)
{
    const CompileCase& c = *nc.c;
    const auto sim = nc.compiled.run(c.inputs, c.options.target);
    nc.sim_cycles = sim.result.cycles;
    for (const KernelFn fn : {nc.dispatched, nc.scalar_core}) {
        const AlignedFloats image = aligned_copy(nc.image);
        fn(image.get());
        const scalar::BufferMap got = image_outputs(nc, image.get());
        const std::uint32_t ulp = max_ulp(got, sim.outputs);
        ulp_max = std::max(ulp_max, ulp);
        if (ulp > kUlpBudget) {
            result.fail(c.label + ": native leaf is " + std::to_string(ulp) +
                        " ULP from the simulator");
        }
        if (!(max_rel_error(got, c.want) <= kNativeTolerance)) {
            result.fail(c.label + ": native leaf differs from the reference");
        }
    }
    nc.naive(nc.array_ptrs.data());
    if (!(max_rel_error(naive_outputs(nc), c.want) <= kNativeTolerance)) {
        result.fail(c.label + ": -O3 naive baseline differs from the "
                              "reference");
    }
}

double
time_call_ns(const NativeCase& nc, int variant)
{
    const double t0 = now_seconds();
    for (std::uint64_t r = 0; r < nc.reps; ++r) {
        if (variant == 2) {
            nc.naive(nc.array_ptrs.data());
        } else {
            (variant == 0 ? nc.dispatched
                          : nc.scalar_core)(nc.timed_image.get());
        }
    }
    return (now_seconds() - t0) * 1e9 / static_cast<double>(nc.reps);
}

}  // namespace

void
run_native(const RunConfig& cfg, Result& result)
{
    const double setup_start = now_seconds();
    const std::vector<CompileCase> cases =
        build_cases(workload_specs(cfg), cfg.seed);
    const fs::path dir = fs::path(cfg.workdir) / "native";
    fs::remove_all(dir);
    fs::create_directories(dir);

    std::vector<NativeCase> ncs(cases.size());
    std::vector<Unit> units;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        NativeCase& nc = ncs[i];
        nc.c = &cases[i];
        CompileResult r = compile_kernel_resilient(
            scalar::parse_kernel(cases[i].text), cases[i].options);
        if (!r.ok) {
            throw std::runtime_error(cases[i].label +
                                     ": compile failed: " + r.error);
        }
        nc.compiled = std::move(*r.compiled);
        const vir::CompiledLayout& layout = nc.compiled.layout;
        EmitCOptions copts;
        copts.symbol = "dios_case" + std::to_string(i);
        copts.vector_width = cases[i].options.target.vector_width;
        copts.memory_words = layout.memory_words();
        copts.pool = layout.pool();
        copts.pool_base = layout.pool_base_words();
        nc.dios_unit = units.size();
        units.push_back({copts.symbol,
                         emit_c_kernel(nc.compiled.machine, copts), false});
        nc.naive_unit = units.size();
        const std::string naive_symbol = "naive_case" + std::to_string(i);
        units.push_back(
            {naive_symbol, naive_c_text(nc.c->kernel, naive_symbol), true});

        const Memory mem = layout.make_memory(cases[i].inputs);
        nc.image.resize(mem.size());
        for (std::size_t w = 0; w < mem.size(); ++w) {
            nc.image[w] = mem.at(w);
        }
        nc.timed_image = aligned_copy(nc.image);
        for (const scalar::ArrayDecl& d : nc.c->kernel.arrays) {
            if (d.role == scalar::ArrayRole::kScratch) {
                continue;
            }
            std::vector<float> init =
                d.role == scalar::ArrayRole::kInput
                    ? cases[i].inputs.at(d.name.str())
                    : std::vector<float>(static_cast<std::size_t>(
                          scalar::array_length(nc.c->kernel, d)));
            nc.lengths.push_back(init.size());
            nc.arrays.push_back(aligned_copy(init));
            nc.array_ptrs.push_back(nc.arrays.back().get());
        }
        // About 1-2 ms per timing of the dispatched leaf.
        nc.reps = std::max<std::uint64_t>(
            1, 2'000'000 / Term::dag_size(nc.compiled.padded_spec));
    }

    const double cc_start = now_seconds();
    build_units(units, dir, shuffled_order(units.size(), cfg.seed));
    const double cc_s = now_seconds() - cc_start;
    double so_bytes = 0.0;
    for (const Unit& u : units) {
        so_bytes += static_cast<double>(fs::file_size(u.so));
    }

    std::uint32_t ulp_max = 0;
    for (NativeCase& nc : ncs) {
        const Unit& dios = units[nc.dios_unit];
        nc.dispatched = reinterpret_cast<KernelFn>(symbol(dios, dios.symbol));
        nc.scalar_core =
            reinterpret_cast<KernelFn>(symbol(dios, dios.symbol + "_scalar"));
        const Unit& naive = units[nc.naive_unit];
        nc.naive = reinterpret_cast<NaiveFn>(symbol(naive, naive.symbol));
        const std::size_t words = *static_cast<const std::size_t*>(
            symbol(dios, dios.symbol + "_mem_words"));
        if (words != nc.image.size()) {
            throw std::runtime_error(nc.c->label +
                                     ": emitted memory size disagrees "
                                     "with the layout");
        }
        check_native(nc, ulp_max, result);
    }
    const double setup_s = now_seconds() - setup_start;

    // As in the compile workloads, each timing's floor over the rounds is
    // its cost: interference on a shared host only adds time.
    int rounds = 0;
    const std::vector<std::size_t> order =
        shuffled_order(ncs.size(), cfg.seed + 1);
    const double start = now_seconds();
    do {
        for (std::size_t k = 0; k < order.size(); ++k) {
            NativeCase& nc = ncs[order[(k + rounds) % order.size()]];
            for (int v = 0; v < 3; ++v) {
                const int variant = (v + rounds) % 3;
                nc.best_ns[variant] =
                    std::min(nc.best_ns[variant], time_call_ns(nc, variant));
            }
            result.attempt();
        }
        ++rounds;
    } while (!cfg.smoke && now_seconds() - start < cfg.seconds);

    std::vector<double> vs_o3, dispatched_ms, scalar_ns, o3_ns, w4_ns,
        w16_ns, costs, cycles;
    double round_s = 0.0;
    double slower_than_o3 = 0.0;
    double slower_than_scalar = 0.0;
    for (const NativeCase& nc : ncs) {
        const double d = nc.best_ns[0];
        const double s = nc.best_ns[1];
        const double o = nc.best_ns[2];
        round_s += (d + s + o) * static_cast<double>(nc.reps) / 1e9;
        vs_o3.push_back(o / d);
        dispatched_ms.push_back(d / 1e6);
        scalar_ns.push_back(s);
        o3_ns.push_back(o);
        (nc.c->options.target.vector_width == 4 ? w4_ns : w16_ns)
            .push_back(d);
        costs.push_back(nc.compiled.report.extracted_cost);
        cycles.push_back(static_cast<double>(nc.sim_cycles));
        slower_than_o3 += d > o ? 1 : 0;
        slower_than_scalar += d > s ? 1 : 0;
    }
    for (const Unit& u : units) {
        dlclose(u.handle);
    }
    fs::remove_all(dir);

    result.metric("setup_s", setup_s, "s");
    result.metric("pass_s", round_s, "s");
    result.metric("latency_p50_ms", quantile(dispatched_ms, 0.5), "ms");
    result.metric("latency_p99_ms", quantile(dispatched_ms, 0.99), "ms");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    result.metric("speedup_geomean", geomean(vs_o3), "x");
    result.info("rounds", rounds, "count");
    result.info("native.cc_s", cc_s, "s");
    result.info("native.so_bytes", so_bytes, "bytes");
    result.info("native.dispatch_ns_geomean.w4", geomean(w4_ns), "ns");
    result.info("native.dispatch_ns_geomean.w16", geomean(w16_ns), "ns");
    result.info("native.scalar_core_ns_geomean", geomean(scalar_ns), "ns");
    result.info("native.o3_ns_geomean", geomean(o3_ns), "ns");
    result.info("native.slower_than_o3", slower_than_o3, "count");
    result.info("native.slower_than_scalar_core", slower_than_scalar,
                "count");
    result.info("native.ulp_max", ulp_max, "ulp");
    result.info("native.cost_spearman", spearman(costs, dispatched_ms),
                "rho");
    result.info("native.cycles_spearman", spearman(cycles, dispatched_ms),
                "rho");
}

}  // namespace diospyros::benchmark
