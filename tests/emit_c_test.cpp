// Differential tests for the native C emitter (machine/emit_c.h): each
// emitted unit is built by the host C compiler, and every body in it
// the host can run (the scalar core, each SIMD leaf, both entry points)
// must leave memory bit for bit as the cycle simulator does. Units are
// built with plain `cc -O2 -fPIC -shared`, without -ffp-contract=off, so
// the tests also hold the unit to turning contraction off itself.

#include <dlfcn.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "compiler/driver.h"
#include "kernels/kernels.h"
#include "machine/emit_c.h"
#include "machine/program.h"
#include "machine/sim.h"
#include "support/rng.h"

namespace diospyros {
namespace {

namespace fs = std::filesystem;

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

struct LeafInfo {
    const char* id;
    const char* feature;  ///< CPU feature it needs; "" = none
};

/** The SIMD leaves an emitted unit defines on this host's
 *  architecture. */
const std::vector<LeafInfo>&
host_leaves()
{
#if defined(__x86_64__) || defined(__i386__)
    static const std::vector<LeafInfo> leaves = {
        {"sse2", "sse2"}, {"avx2", "avx2"}, {"avx512", "avx512f"}};
#elif defined(__aarch64__)
    static const std::vector<LeafInfo> leaves = {{"neon", ""}};
#else
    static const std::vector<LeafInfo> leaves;
#endif
    return leaves;
}

bool
host_cc_available()
{
    return std::system("cc --version > /dev/null 2>&1") == 0;
}

std::uint32_t
bits_of(float f)
{
    std::uint32_t b = 0;
    std::memcpy(&b, &f, sizeof b);
    return b;
}

std::vector<float>
words_of(const Memory& mem)
{
    std::vector<float> w(mem.size());
    for (std::size_t i = 0; i < w.size(); ++i) {
        w[i] = mem.at(i);
    }
    return w;
}

/** One emitted unit built into a shared object. A generated C driver
 *  `#include`s the unit, so it reaches the static leaf bodies, and
 *  exports `dios_test_run(body, mem)`: 1 = ran, 0 = the host cannot run
 *  that leaf. */
class HostUnit {
  public:
    HostUnit(const std::string& unit, const std::string& symbol)
    {
        char tmpl[] = "/tmp/dios_emit_c_test_XXXXXX";
        const char* d = mkdtemp(tmpl);
        if (d == nullptr) {
            ADD_FAILURE() << "mkdtemp failed";
            return;
        }
        dir_ = d;
        std::ofstream(dir_ / "unit.c") << unit;

        std::string driver =
            "#include \"unit.c\"\n"
            "int\ndios_test_run(const char* body, float* mem)\n{\n";
        auto call = [&](const std::string& name, const std::string& fn,
                        const std::string& feature) {
            driver += "    if (strcmp(body, \"" + name + "\") == 0) {\n";
            if (!feature.empty()) {
                driver += "        if (!__builtin_cpu_supports(\"" +
                          feature + "\")) { return 0; }\n";
            }
            driver += "        " + fn + "(mem);\n        return 1;\n    }\n";
        };
        call("entry", symbol, "");
        call("entry_scalar", symbol + "_scalar", "");
        call("scalar", symbol + "_body_scalar", "");
        bodies_ = {"scalar"};
        for (const LeafInfo& leaf : host_leaves()) {
            const std::string fn = symbol + "_body_" + leaf.id;
            if (unit.find(fn + "(") != std::string::npos) {
                call(leaf.id, fn, leaf.feature);
                bodies_.push_back(leaf.id);
            }
        }
        driver += "    return -1;\n}\n";
        std::ofstream(dir_ / "driver.c") << driver;

        const fs::path so = dir_ / "driver.so";
        const std::string cmd = "cc -O2 -fPIC -shared -o " + so.string() +
                                " " + (dir_ / "driver.c").string() +
                                " -lm 2> " + (dir_ / "cc.log").string();
        if (std::system(cmd.c_str()) != 0) {
            std::ifstream log(dir_ / "cc.log");
            ADD_FAILURE() << "host cc failed: " << cmd << "\n"
                          << std::string(std::istreambuf_iterator<char>(log),
                                         {});
            return;
        }
        handle_ = dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
        if (handle_ == nullptr) {
            ADD_FAILURE() << "dlopen failed: " << dlerror();
            return;
        }
        run_ = reinterpret_cast<RunFn>(dlsym(handle_, "dios_test_run"));
        EXPECT_NE(run_, nullptr);
    }

    ~HostUnit()
    {
        if (handle_ != nullptr) {
            dlclose(handle_);
        }
        if (!dir_.empty()) {
            std::error_code ec;
            fs::remove_all(dir_, ec);
        }
    }

    HostUnit(const HostUnit&) = delete;
    HostUnit& operator=(const HostUnit&) = delete;

    bool ok() const { return run_ != nullptr; }

    /** Leaf bodies the unit defines: "scalar" plus its SIMD leaves. */
    const std::vector<std::string>& bodies() const { return bodies_; }

    /** Runs `body` on `mem`; false when the host cannot run it. */
    bool run(const std::string& body, std::vector<float>& mem) const
    {
        const int rc = run_(body.c_str(), mem.data());
        EXPECT_GE(rc, 0) << "no body " << body;
        return rc == 1;
    }

  private:
    using RunFn = int (*)(const char*, float*);

    fs::path dir_;
    void* handle_ = nullptr;
    RunFn run_ = nullptr;
    std::vector<std::string> bodies_;
};

/** Expects `got` to equal `want` bit for bit on every word. */
void
expect_same_words(const std::vector<float>& got,
                  const std::vector<float>& want, const std::string& what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    int reported = 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
        if (bits_of(got[i]) != bits_of(want[i]) && reported++ < 8) {
            ADD_FAILURE() << what << ": word " << i << " is " << got[i]
                          << " (0x" << std::hex << bits_of(got[i])
                          << "), simulator 0x" << bits_of(want[i])
                          << std::dec;
        }
    }
}

/** Emits, builds and runs `program` through every body the host can
 *  execute, each on a copy of `mem`, against the simulator. */
void
check_every_body(const Program& program, int width, const Memory& mem)
{
    TargetSpec spec = TargetSpec::fusion_g3_like();
    spec.vector_width = width;
    Memory sim_mem = mem;
    Simulator(spec).run(program, sim_mem);
    const std::vector<float> want = words_of(sim_mem);

    EmitCOptions options;
    options.symbol = "dios_lanes_w" + std::to_string(width);
    options.vector_width = width;
    options.memory_words = mem.size();
    const HostUnit unit(emit_c_kernel(program, options), options.symbol);
    ASSERT_TRUE(unit.ok());
    EXPECT_EQ(unit.bodies().size(), 1 + host_leaves().size());
    std::vector<std::string> bodies = unit.bodies();
    bodies.insert(bodies.end(), {"entry", "entry_scalar"});
    for (const std::string& body : bodies) {
        std::vector<float> got = words_of(mem);
        if (unit.run(body, got)) {
            expect_same_words(got, want,
                              "w" + std::to_string(width) + " " + body);
        }
    }
}

/**
 * A program over every lane-level op, with the edge cases the leaves
 * must reproduce: `sel` whose destination aliases either source, a
 * broadcast `shuf`, `vinsert`/`vextract`, and `vneg`/`vsqrt`/`vrecip`/
 * `vsgn` of ±0, ±inf, NaN and negatives. NaNs only flow through
 * single-operand ops and permutes, so no result depends on which of two
 * NaN payloads an add keeps.
 */
TEST(EmitCTest, EveryLaneOpMatchesSimulatorAtEveryWidth)
{
    if (!host_cc_available()) {
        GTEST_SKIP() << "no host C compiler (cc)";
    }
    const float specials[] = {0.0f,   -0.0f, kNaN,  -1.0f, 2.25f, kInf,
                              -kInf,  1e-40f, -3.5f, 7.0f,  0.5f,  -0.0f,
                              16.0f,  kNaN,  -2.0f, 1.0f};
    for (const int w : {1, 2, 4, 8, 16}) {
        SCOPED_TRACE("width " + std::to_string(w));
        Rng rng(static_cast<std::uint64_t>(w));
        std::vector<float> x(static_cast<std::size_t>(w));
        std::vector<float> a(x.size());
        std::vector<float> b(x.size());
        for (std::size_t l = 0; l < x.size(); ++l) {
            x[l] = specials[l];
            a[l] = rng.uniform_float(-4.0f, 4.0f);
            b[l] = rng.uniform_float(0.5f, 4.0f);
        }
        constexpr int kOutputs = 16;
        Memory mem;
        const int xb = mem.alloc("x", x);
        const int ab = mem.alloc("a", a);
        const int bb = mem.alloc("b", b);
        const int ob = mem.alloc("out", static_cast<std::size_t>(
                                            kOutputs * w + 2));

        std::vector<int> broadcast(x.size(), w - 1);
        std::vector<int> reverse(x.size());
        std::vector<int> mix(x.size());
        for (int l = 0; l < w; ++l) {
            reverse[static_cast<std::size_t>(l)] = w - 1 - l;
            mix[static_cast<std::size_t>(l)] =
                l % 2 == 0 ? w - 1 - l : w + (3 * l) % w;
        }

        ProgramBuilder pb;
        const int vx = pb.fresh_vec();
        const int va = pb.fresh_vec();
        const int vb = pb.fresh_vec();
        const int vt = pb.fresh_vec();
        const int f = pb.fresh_float();
        const int g = pb.fresh_float();
        int out = ob;
        auto store = [&](int v) {
            pb.vstore(-1, out, v);
            out += w;
        };
        pb.vload(vx, -1, xb);
        pb.vload(va, -1, ab);
        pb.vload(vb, -1, bb);
        pb.vunop(Opcode::kVNeg, vt, vx);
        store(vt);
        pb.vunop(Opcode::kVSqrt, vt, vx);
        store(vt);
        pb.vunop(Opcode::kVRecip, vt, vx);
        store(vt);
        pb.vunop(Opcode::kVSgn, vt, vx);
        store(vt);
        pb.shuf(vt, vx, broadcast);
        store(vt);
        pb.shuf(vt, vt, reverse);  // in place
        store(vt);
        pb.vbinop(Opcode::kVAdd, vt, va, vb);
        store(vt);
        pb.vbinop(Opcode::kVSub, vt, va, vb);
        store(vt);
        pb.vbinop(Opcode::kVDiv, vt, va, vb);
        store(vt);
        pb.vbinop(Opcode::kVMul, vt, va, vb);
        pb.vmac(vt, va, vb);
        store(vt);
        pb.sel(va, va, vx, mix);  // dst aliases the first source
        store(va);
        pb.sel(vb, va, vb, mix);  // dst aliases the second source
        store(vb);
        pb.vextract(f, vx, w - 1);
        pb.vinsert(vb, 0, f);
        store(vb);
        pb.fload(g, -1, ab);
        pb.fmac(g, f, f);
        pb.vsplat_r(vt, g);
        store(vt);
        pb.vsplat(vt, -0.0f);
        store(vt);
        pb.vsplat(vt, 1.5f);
        pb.vunop(Opcode::kVNeg, vt, vt);
        store(vt);
        pb.fstore(-1, out, f);
        pb.fstore(-1, out + 1, g);
        pb.halt();
        check_every_body(pb.finish(), w, mem);
    }
}

/**
 * With -ffp-contract=fast (GCC's default for GNU C), an avx512f leaf
 * may fuse `d + a * b` into an FMA unless the unit turns contraction off
 * itself. The operands make the fused and unfused results differ in
 * every lane.
 */
TEST(EmitCTest, MacStaysUnfusedWithoutContractFlag)
{
    if (!host_cc_available()) {
        GTEST_SKIP() << "no host C compiler (cc)";
    }
#if defined(__x86_64__) || defined(__i386__)
    if (!__builtin_cpu_supports("avx512f")) {
        GTEST_SKIP() << "host has no avx512f";
    }
#else
    GTEST_SKIP() << "x86-only check";
#endif
    constexpr int kWidth = 16;
    std::vector<float> a(kWidth);
    std::vector<float> acc(kWidth, -1.0f);
    for (int l = 0; l < kWidth; ++l) {
        // (1 + e)^2 - 1 rounds away the e^2 term unless fused.
        a[static_cast<std::size_t>(l)] =
            1.0f + std::ldexp(1.0f, -12) * static_cast<float>(l + 1);
    }
    Memory mem;
    const int ab = mem.alloc("a", a);
    const int cb = mem.alloc("acc", acc);
    const int ob = mem.alloc("out", kWidth + 1);
    ProgramBuilder pb;
    const int va = pb.fresh_vec();
    const int vc = pb.fresh_vec();
    const int fa = pb.fresh_float();
    const int fc = pb.fresh_float();
    pb.vload(va, -1, ab);
    pb.vload(vc, -1, cb);
    pb.vmac(vc, va, va);
    pb.vstore(-1, ob, vc);
    pb.fload(fa, -1, ab);
    pb.fload(fc, -1, cb);
    pb.fmac(fc, fa, fa);
    pb.fstore(-1, ob + kWidth, fc);
    pb.halt();
    check_every_body(pb.finish(), kWidth, mem);
}

/** Compiles the Table-1 kernel labelled `label` at `width`. */
CompileResult
compile_corpus(const std::string& label, int width)
{
    for (const kernels::BenchmarkInstance& inst :
         kernels::table1_instances()) {
        if (inst.label() == label) {
            CompilerOptions options;
            options.target = TargetSpec::for_width(width);
            options.limits = RunnerLimits{.node_limit = 60'000,
                                          .iter_limit = 6,
                                          .time_limit_seconds = 8.0};
            return compile_kernel_resilient(inst.kernel, options);
        }
    }
    CompileResult missing;
    missing.error = "no corpus kernel " + label;
    return missing;
}

/**
 * Corpus kernels with a constant pool. Each leaf body runs on the full
 * memory image. The entry points get an image whose pool region is NaN
 * (callers fill only the inputs): every word below the pool must match
 * the simulator, and each pool word is left NaN or holds the pool.
 */
TEST(EmitCTest, CorpusKernelsMatchSimulatorWithNaNFilledPool)
{
    if (!host_cc_available()) {
        GTEST_SKIP() << "no host C compiler (cc)";
    }
    for (const char* label : {"QProd 4, 3, 4, 3", "2DConv 3x3, 3x3"}) {
        for (const int w : {2, 4, 16}) {
            SCOPED_TRACE(std::string(label) + " @w" + std::to_string(w));
            const CompileResult compiled = compile_corpus(label, w);
            ASSERT_TRUE(compiled.ok) << compiled.error;
            const CompiledKernel& ck = *compiled.compiled;
            const vir::CompiledLayout& layout = ck.layout;
            ASSERT_FALSE(layout.pool().empty());
            const Memory image =
                layout.make_memory(kernels::make_inputs(ck.kernel, 11));
            Memory sim_mem = image;
            Simulator(TargetSpec::for_width(w)).run(ck.machine, sim_mem);
            const std::vector<float> want = words_of(sim_mem);

            EmitCOptions options;
            options.symbol = "dios_corpus_w" + std::to_string(w);
            options.vector_width = w;
            options.memory_words = layout.memory_words();
            options.pool = layout.pool();
            options.pool_base = layout.pool_base_words();
            const HostUnit unit(emit_c_kernel(ck.machine, options),
                                options.symbol);
            ASSERT_TRUE(unit.ok());
            for (const std::string& body : unit.bodies()) {
                std::vector<float> got = words_of(image);
                if (unit.run(body, got)) {
                    expect_same_words(got, want, body);
                }
            }

            const std::size_t base = options.pool_base;
            for (const char* entry : {"entry", "entry_scalar"}) {
                std::vector<float> got = words_of(image);
                std::fill(got.begin() + static_cast<std::ptrdiff_t>(base),
                          got.end(), kNaN);
                ASSERT_TRUE(unit.run(entry, got));
                for (std::size_t k = 0; k < options.pool.size(); ++k) {
                    const float p = got[base + k];
                    EXPECT_TRUE(std::isnan(p) ||
                                bits_of(p) == bits_of(options.pool[k]))
                        << entry << ": pool word " << k << " is " << p;
                }
                got.resize(base);
                expect_same_words(
                    got,
                    std::vector<float>(want.begin(),
                                       want.begin() +
                                           static_cast<std::ptrdiff_t>(base)),
                    entry);
            }
        }
    }
}

}  // namespace
}  // namespace diospyros
