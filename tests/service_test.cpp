// Compile-service tests: canonical hashing, cache-key sensitivity,
// entry serialization round-trips, the two cache levels, in-flight
// coalescing, LRU eviction, determinism across worker counts, and fault
// injection inside worker threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <unistd.h>
#include <vector>

#include "compiler/driver.h"
#include "machine/program.h"
#include "scalar/canonical.h"
#include "service/cache_key.h"
#include "service/compile_service.h"
#include "service/disk_cache.h"
#include "service/serialize.h"
#include "support/hash.h"
#include "support/sexpr.h"

namespace diospyros {
namespace {

using scalar::Kernel;
using scalar::KernelBuilder;
using service::CacheKey;
using service::CacheOutcome;
using service::CompileService;

Kernel
vector_add_kernel(std::int64_t n)
{
    KernelBuilder kb("vadd" + std::to_string(n));
    const scalar::IntRef size = kb.param("n", n);
    kb.input("A", size);
    kb.input("B", size);
    kb.output("C", size);
    const scalar::IntRef i = KernelBuilder::var("i");
    kb.append(scalar::st_for("i", scalar::IntExpr::constant(0), size,
                             {scalar::st_store(
                                 "C", i,
                                 KernelBuilder::load("A", i) +
                                     KernelBuilder::load("B", i))}));
    return kb.build();
}

/** Same program as vector_add_kernel, params declared in reverse order. */
Kernel
vector_add_kernel_reordered_params(std::int64_t n)
{
    KernelBuilder kb("vadd" + std::to_string(n));
    const scalar::IntRef pad = kb.param("z_unused", 7);
    (void)pad;
    const scalar::IntRef size = kb.param("n", n);
    kb.input("A", size);
    kb.input("B", size);
    kb.output("C", size);
    const scalar::IntRef i = KernelBuilder::var("i");
    kb.append(scalar::st_for("i", scalar::IntExpr::constant(0), size,
                             {scalar::st_store(
                                 "C", i,
                                 KernelBuilder::load("A", i) +
                                     KernelBuilder::load("B", i))}));
    return kb.build();
}

Kernel
dot_kernel(std::int64_t n)
{
    KernelBuilder kb("dot" + std::to_string(n));
    const scalar::IntRef size = kb.param("n", n);
    kb.input("A", size);
    kb.input("B", size);
    kb.output("C", scalar::IntExpr::constant(1));
    const scalar::IntRef i = KernelBuilder::var("i");
    kb.append(scalar::st_store("C", scalar::IntExpr::constant(0),
                               scalar::FloatExpr::constant(0.0f)));
    kb.append(scalar::st_for(
        "i", scalar::IntExpr::constant(0), size,
        {scalar::st_store("C", scalar::IntExpr::constant(0),
                          KernelBuilder::load("C",
                                              scalar::IntExpr::constant(0)) +
                              KernelBuilder::load("A", i) *
                                  KernelBuilder::load("B", i))}));
    return kb.build();
}

CompilerOptions
test_options()
{
    CompilerOptions options;
    options.limits = RunnerLimits{.node_limit = 200'000,
                                  .iter_limit = 10,
                                  .time_limit_seconds = 20.0};
    return options;
}

/** A fresh directory under the system temp dir, removed on destruction. */
struct TempDir {
    std::filesystem::path path;

    explicit TempDir(const std::string& tag)
        : path(std::filesystem::temp_directory_path() /
               ("dios_service_test_" + tag + "_" +
                std::to_string(::getpid())))
    {
        std::filesystem::remove_all(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }

    std::string str() const { return path.string(); }
};

std::string
asm_text(const CompiledKernel& c, const CompilerOptions& o)
{
    return disassemble(c.machine, o.target.vector_width);
}

// ---------------------------------------------------------------------------
// Satellite 1: stable hashing
// ---------------------------------------------------------------------------

TEST(StableHasher, ByteStableAndOrderSensitive)
{
    StableHasher a;
    a.str("hello").u64(42).f64(1.5);
    StableHasher b;
    b.str("hello").u64(42).f64(1.5);
    EXPECT_EQ(a.digest(), b.digest());

    StableHasher c;
    c.u64(42).str("hello").f64(1.5);
    EXPECT_NE(a.digest(), c.digest());

    // Length prefixing: ("ab","c") must not collide with ("a","bc").
    StableHasher d, e;
    d.str("ab").str("c");
    e.str("a").str("bc");
    EXPECT_NE(d.digest(), e.digest());
}

TEST(StableHasher, NegativeZeroNormalized)
{
    StableHasher a, b;
    a.f64(0.0);
    b.f64(-0.0);
    EXPECT_EQ(a.digest(), b.digest());
}

TEST(CanonicalHash, IdenticalKernelsHashEqual)
{
    // Two independently built but semantically identical kernels.
    const std::uint64_t h1 = scalar::stable_kernel_hash(vector_add_kernel(8));
    const std::uint64_t h2 = scalar::stable_kernel_hash(vector_add_kernel(8));
    EXPECT_EQ(h1, h2);
    EXPECT_EQ(scalar::canonical_kernel_text(vector_add_kernel(8)),
              scalar::canonical_kernel_text(vector_add_kernel(8)));
}

TEST(CanonicalHash, ParamDeclarationOrderIrrelevant)
{
    // The canonical form sorts parameters by name, so an extra parameter
    // declared before `n` lands in the same place either way; only its
    // *presence* changes the hash, not where it was declared.
    KernelBuilder ka("k");
    ka.param("m", 3);
    ka.param("n", 8);
    ka.input("A", ka.param("p", 4));
    ka.output("C", scalar::IntExpr::constant(4));
    const scalar::IntRef i = KernelBuilder::var("i");
    ka.append(scalar::st_for("i", scalar::IntExpr::constant(0),
                             scalar::IntExpr::constant(4),
                             {scalar::st_store("C", i,
                                               KernelBuilder::load("A", i))}));

    KernelBuilder kb("k");
    kb.param("n", 8);
    kb.param("m", 3);
    kb.input("A", kb.param("p", 4));
    kb.output("C", scalar::IntExpr::constant(4));
    kb.append(scalar::st_for("i", scalar::IntExpr::constant(0),
                             scalar::IntExpr::constant(4),
                             {scalar::st_store("C", i,
                                               KernelBuilder::load("A", i))}));

    EXPECT_EQ(scalar::stable_kernel_hash(ka.build()),
              scalar::stable_kernel_hash(kb.build()));
}

TEST(CanonicalHash, DifferentBodiesHashDifferently)
{
    EXPECT_NE(scalar::stable_kernel_hash(vector_add_kernel(8)),
              scalar::stable_kernel_hash(dot_kernel(8)));
    EXPECT_NE(scalar::stable_kernel_hash(vector_add_kernel(8)),
              scalar::stable_kernel_hash(vector_add_kernel(12)));
    // An extra (unused) parameter is a different spec.
    EXPECT_NE(
        scalar::stable_kernel_hash(vector_add_kernel(8)),
        scalar::stable_kernel_hash(vector_add_kernel_reordered_params(8)));
}

TEST(CanonicalHash, LiftedSpecHashStable)
{
    const scalar::LiftedSpec s1 = scalar::lift(vector_add_kernel(8));
    const scalar::LiftedSpec s2 = scalar::lift(vector_add_kernel(8));
    EXPECT_EQ(scalar::stable_spec_hash(s1), scalar::stable_spec_hash(s2));
    const scalar::LiftedSpec s3 = scalar::lift(dot_kernel(8));
    EXPECT_NE(scalar::stable_spec_hash(s1), scalar::stable_spec_hash(s3));
}

// ---------------------------------------------------------------------------
// Sexpr quoted-string atoms (cache serialization prerequisite)
// ---------------------------------------------------------------------------

TEST(SexprString, QuotedAtomRoundTrip)
{
    const std::string nasty =
        "void f() {\n  // (parens) \"quotes\" \\backslash\t;semicolon\n}\n";
    const Sexpr s = Sexpr::list(
        {Sexpr::atom("src"), Sexpr::string_atom(nasty),
         Sexpr::string_atom(""), Sexpr::string_atom("plain")});
    const Sexpr back = parse_sexpr(s.to_string());
    ASSERT_TRUE(back.is_list());
    ASSERT_EQ(back.size(), 4u);
    EXPECT_EQ(back[1].token(), nasty);
    EXPECT_EQ(back[2].token(), "");
    EXPECT_EQ(back[3].token(), "plain");
    // Serialization is a fixed point after one round trip.
    EXPECT_EQ(back.to_string(), s.to_string());
}

// ---------------------------------------------------------------------------
// Satellite 4: cache-key sensitivity
// ---------------------------------------------------------------------------

TEST(CacheKey, SensitiveToArtifactShapingOptions)
{
    const Kernel kernel = vector_add_kernel(8);
    const CompilerOptions base = test_options();
    const CacheKey k0 = service::compute_cache_key(kernel, base);

    CompilerOptions width = base;
    width.target.vector_width = 8;
    EXPECT_FALSE(k0 == service::compute_cache_key(kernel, width));

    CompilerOptions rules = base;
    rules.rules.enable_vector_rules = false;
    EXPECT_FALSE(k0 == service::compute_cache_key(kernel, rules));

    CompilerOptions nodes = base;
    nodes.limits.node_limit = 50'000;
    EXPECT_FALSE(k0 == service::compute_cache_key(kernel, nodes));

    CompilerOptions cost = base;
    cost.cost.vector_op += 1.0;
    EXPECT_FALSE(k0 == service::compute_cache_key(kernel, cost));
}

TEST(CacheKey, TimeoutAloneDoesNotChangeKey)
{
    const Kernel kernel = vector_add_kernel(8);
    const CompilerOptions base = test_options();
    const CacheKey k0 = service::compute_cache_key(kernel, base);

    CompilerOptions timeout = base;
    timeout.limits.time_limit_seconds = 123.0;
    EXPECT_TRUE(k0 == service::compute_cache_key(kernel, timeout));

    CompilerOptions deadline = base;
    deadline.deadline_seconds = 55.0;
    EXPECT_TRUE(k0 == service::compute_cache_key(kernel, deadline));
}

TEST(CacheKey, SyncedAndUnsyncedOptionsAgree)
{
    const Kernel kernel = vector_add_kernel(8);
    CompilerOptions a = test_options();
    a.target.vector_width = 8;
    CompilerOptions b = a;
    b.sync();  // a is deliberately left un-synced
    EXPECT_TRUE(service::compute_cache_key(kernel, a) ==
                service::compute_cache_key(kernel, b));
}

// ---------------------------------------------------------------------------
// Entry serialization
// ---------------------------------------------------------------------------

TEST(Serialization, EntryRoundTripsByteForByte)
{
    const Kernel kernel = dot_kernel(8);
    const CompilerOptions options = test_options();
    const CompileResult result = compile_kernel_resilient(kernel, options);
    ASSERT_TRUE(result.ok);

    const CacheKey key = service::compute_cache_key(kernel, options);
    const service::CachedEntry entry =
        service::make_entry(key, options, *result.compiled);

    const std::string text = service::encode_entry(entry);
    const service::CachedEntry back = service::decode_entry(text);
    EXPECT_EQ(service::encode_entry(back), text);

    // The reconstructed kernel serves byte-identical artifacts...
    const CompiledKernel served =
        service::compiled_from_entry(kernel, back);
    EXPECT_EQ(served.c_source, result.compiled->c_source);
    EXPECT_EQ(asm_text(served, options), asm_text(*result.compiled, options));
    EXPECT_EQ(served.report.extracted_cost,
              result.compiled->report.extracted_cost);

    // ...and still computes the right answer on the simulator.
    scalar::BufferMap inputs;
    inputs["A"] = {1, 2, 3, 4, 5, 6, 7, 8};
    inputs["B"] = {8, 7, 6, 5, 4, 3, 2, 1};
    const auto run = served.run(inputs, options.target);
    const scalar::BufferMap want = scalar::run_reference(kernel, inputs);
    const OutputComparison cmp = compare_outputs(run.outputs, want);
    ASSERT_TRUE(cmp.shapes_ok()) << cmp.shape_error;
    EXPECT_LE(cmp.max_abs_error, 1e-4f);
}

TEST(Serialization, MalformedReportFieldIsRejectedByName)
{
    const Kernel kernel = vector_add_kernel(8);
    const CompilerOptions options = test_options();
    const CompileResult result = compile_kernel_resilient(kernel, options);
    ASSERT_TRUE(result.ok);
    const std::string text =
        service::encode_entry(
            service::make_entry(service::compute_cache_key(kernel, options),
                                options, *result.compiled));
    const std::string row = "(egraph_nodes ";
    const std::size_t at = text.find(row);
    ASSERT_NE(at, std::string::npos) << text;
    const std::size_t end = text.find(')', at);
    const std::string value =
        text.substr(at + row.size(), end - at - row.size());
    // One value short, one too many, and not a count: each names the row
    // instead of decoding to a report with zero e-graph nodes.
    for (const std::string& bad :
         {std::string("(egraph_nodes"), "(egraph_nodes " + value + " 7",
          std::string("(egraph_nodes x")}) {
        std::string broken = text;
        broken.replace(at, end - at, bad);
        try {
            service::decode_entry(broken);
            ADD_FAILURE() << bad << ") decoded";
        } catch (const UserError& e) {
            EXPECT_NE(std::string(e.what()).find(
                          "report field 'egraph_nodes'"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(OpcodeTable, EveryOpcodeKeepsItsPortsUnitCostsAndMnemonic)
{
    // The ISA facts, literally: register ports of an instruction naming
    // dst 3, a 1 and b 2, the functional unit, the result latency of the
    // 2-, 4-, 8- and 16-lane presets, and the mnemonic, which the cache
    // entry stores.
    struct Fact {
        Opcode op;
        const char* mnemonic;
        FunctionalUnit unit;
        InstrPorts ports;
        int cost[4];
    };
    using O = Opcode;
    using U = FunctionalUnit;
    const Fact facts[] = {
        {O::kMovI, "movi", U::kInt, {{-1, -1}, {-1, -1}, {-1, -1}, 1, 3, false}, {1, 1, 1, 1}},
        {O::kAddI, "addi", U::kInt, {{1, -1}, {-1, -1}, {-1, -1}, 1, 3, false}, {1, 1, 1, 1}},
        {O::kIAdd, "iadd", U::kInt, {{1, 2}, {-1, -1}, {-1, -1}, 1, 3, false}, {1, 1, 1, 1}},
        {O::kIMul, "imul", U::kInt, {{1, 2}, {-1, -1}, {-1, -1}, 1, 3, false}, {1, 1, 1, 1}},
        {O::kIMulI, "imuli", U::kInt, {{1, -1}, {-1, -1}, {-1, -1}, 1, 3, false}, {1, 1, 1, 1}},
        {O::kFLoad, "fload", U::kMemory, {{1, -1}, {-1, -1}, {-1, -1}, 2, 3, false}, {1, 1, 1, 1}},
        {O::kFStore, "fstore", U::kMemory, {{1, -1}, {2, -1}, {-1, -1}, 0, -1, false}, {1, 1, 1, 1}},
        {O::kFMovI, "fmovi", U::kScalarFp, {{-1, -1}, {-1, -1}, {-1, -1}, 2, 3, false}, {1, 1, 1, 1}},
        {O::kFMov, "fmov", U::kScalarFp, {{-1, -1}, {1, -1}, {-1, -1}, 2, 3, false}, {1, 1, 1, 1}},
        {O::kFAdd, "fadd", U::kScalarFp, {{-1, -1}, {1, 2}, {-1, -1}, 2, 3, false}, {2, 2, 2, 2}},
        {O::kFSub, "fsub", U::kScalarFp, {{-1, -1}, {1, 2}, {-1, -1}, 2, 3, false}, {2, 2, 2, 2}},
        {O::kFMul, "fmul", U::kScalarFp, {{-1, -1}, {1, 2}, {-1, -1}, 2, 3, false}, {2, 2, 2, 2}},
        {O::kFDiv, "fdiv", U::kScalarFp, {{-1, -1}, {1, 2}, {-1, -1}, 2, 3, false}, {8, 8, 8, 8}},
        {O::kFNeg, "fneg", U::kScalarFp, {{-1, -1}, {1, -1}, {-1, -1}, 2, 3, false}, {1, 1, 1, 1}},
        {O::kFSqrt, "fsqrt", U::kScalarFp, {{-1, -1}, {1, -1}, {-1, -1}, 2, 3, false}, {10, 10, 10, 10}},
        {O::kFSgn, "fsgn", U::kScalarFp, {{-1, -1}, {1, -1}, {-1, -1}, 2, 3, false}, {1, 1, 1, 1}},
        {O::kFRecip, "frecip", U::kScalarFp, {{-1, -1}, {1, -1}, {-1, -1}, 2, 3, false}, {3, 3, 3, 3}},
        {O::kFMac, "fmac", U::kScalarFp, {{-1, -1}, {1, 2}, {-1, -1}, 2, 3, true}, {2, 2, 2, 2}},
        {O::kVLoad, "vload", U::kMemory, {{1, -1}, {-1, -1}, {-1, -1}, 3, 3, false}, {1, 1, 1, 1}},
        {O::kVStore, "vstore", U::kMemory, {{1, -1}, {-1, -1}, {2, -1}, 0, -1, false}, {1, 1, 1, 1}},
        {O::kVSplat, "vsplat", U::kVector, {{-1, -1}, {-1, -1}, {-1, -1}, 3, 3, false}, {1, 1, 1, 1}},
        {O::kVSplatR, "vsplatr", U::kVector, {{-1, -1}, {1, -1}, {-1, -1}, 3, 3, false}, {1, 1, 1, 1}},
        {O::kVAdd, "vadd", U::kVector, {{-1, -1}, {-1, -1}, {1, 2}, 3, 3, false}, {2, 2, 2, 2}},
        {O::kVSub, "vsub", U::kVector, {{-1, -1}, {-1, -1}, {1, 2}, 3, 3, false}, {2, 2, 2, 2}},
        {O::kVMul, "vmul", U::kVector, {{-1, -1}, {-1, -1}, {1, 2}, 3, 3, false}, {2, 2, 2, 2}},
        {O::kVDiv, "vdiv", U::kVector, {{-1, -1}, {-1, -1}, {1, 2}, 3, 3, false}, {8, 8, 9, 10}},
        {O::kVNeg, "vneg", U::kVector, {{-1, -1}, {-1, -1}, {1, -1}, 3, 3, false}, {1, 1, 1, 1}},
        {O::kVSqrt, "vsqrt", U::kVector, {{-1, -1}, {-1, -1}, {1, -1}, 3, 3, false}, {10, 10, 11, 12}},
        {O::kVSgn, "vsgn", U::kVector, {{-1, -1}, {-1, -1}, {1, -1}, 3, 3, false}, {1, 1, 1, 1}},
        {O::kVRecip, "vrecip", U::kVector, {{-1, -1}, {-1, -1}, {1, -1}, 3, 3, false}, {3, 3, 4, 5}},
        {O::kVMac, "vmac", U::kVector, {{-1, -1}, {-1, -1}, {1, 2}, 3, 3, true}, {2, 2, 2, 2}},
        {O::kShuf, "shuf", U::kVector, {{-1, -1}, {-1, -1}, {1, -1}, 3, 3, false}, {1, 1, 1, 1}},
        {O::kSel, "sel", U::kVector, {{-1, -1}, {-1, -1}, {1, 2}, 3, 3, false}, {1, 1, 1, 1}},
        {O::kVInsert, "vinsert", U::kVector, {{-1, -1}, {1, -1}, {-1, -1}, 3, 3, true}, {1, 1, 1, 1}},
        {O::kVExtract, "vextract", U::kVector, {{-1, -1}, {-1, -1}, {1, -1}, 2, 3, false}, {1, 1, 1, 1}},
        {O::kJump, "jump", U::kControl, {{-1, -1}, {-1, -1}, {-1, -1}, 0, -1, false}, {1, 1, 1, 1}},
        {O::kBranchLt, "blt", U::kControl, {{1, 2}, {-1, -1}, {-1, -1}, 0, -1, false}, {1, 1, 1, 1}},
        {O::kBranchGe, "bge", U::kControl, {{1, 2}, {-1, -1}, {-1, -1}, 0, -1, false}, {1, 1, 1, 1}},
        {O::kHalt, "halt", U::kControl, {{-1, -1}, {-1, -1}, {-1, -1}, 0, -1, false}, {1, 1, 1, 1}},
    };
    ASSERT_EQ(std::size(facts), static_cast<std::size_t>(kNumOpcodes));
    service::CachedEntry entry;
    entry.machine.num_int_regs = 4;
    entry.machine.num_float_regs = 4;
    entry.machine.num_vec_regs = 4;
    for (int k = 0; k < kNumOpcodes; ++k) {
        const Fact& f = facts[k];
        ASSERT_EQ(f.op, static_cast<Opcode>(k));
        SCOPED_TRACE(f.mnemonic);
        EXPECT_STREQ(opcode_name(f.op), f.mnemonic);
        EXPECT_EQ(functional_unit(f.op), f.unit);
        const Instr instr{.op = f.op, .dst = 3, .a = 1, .b = 2};
        const InstrPorts p = instr_ports(instr);
        for (int s = 0; s < 2; ++s) {
            EXPECT_EQ(p.i_src[s], f.ports.i_src[s]);
            EXPECT_EQ(p.f_src[s], f.ports.f_src[s]);
            EXPECT_EQ(p.v_src[s], f.ports.v_src[s]);
        }
        EXPECT_EQ(p.dst_file, f.ports.dst_file);
        EXPECT_EQ(p.dst, f.ports.dst);
        EXPECT_EQ(p.dst_is_acc, f.ports.dst_is_acc);
        const int widths[] = {2, 4, 8, 16};
        for (int w = 0; w < 4; ++w) {
            EXPECT_EQ(TargetSpec::for_width(widths[w]).cost(f.op), f.cost[w])
                << "width " << widths[w];
        }
        entry.machine.code.push_back(instr);
    }
    const service::CachedEntry back =
        service::decode_entry(service::encode_entry(entry));
    ASSERT_EQ(back.machine.code.size(), entry.machine.code.size());
    for (int k = 0; k < kNumOpcodes; ++k) {
        EXPECT_EQ(back.machine.code[static_cast<std::size_t>(k)].op,
                  facts[k].op)
            << facts[k].mnemonic;
    }
}

TEST(Serialization, RegisterOutsideItsFileIsCorrupt)
{
    // A checksum-valid entry whose program names a register past its
    // declared file would make the simulator write past that file.
    const Kernel kernel = vector_add_kernel(8);
    const CompilerOptions options = test_options();
    const CompileResult result = compile_kernel_resilient(kernel, options);
    ASSERT_TRUE(result.ok);
    const CacheKey key = service::compute_cache_key(kernel, options);
    service::CachedEntry entry =
        service::make_entry(key, options, *result.compiled);
    auto& code = entry.machine.code;
    const auto vec_def =
        std::find_if(code.begin(), code.end(), [](const Instr& i) {
            return instr_ports(i).dst_file == 3;
        });
    ASSERT_NE(vec_def, code.end());
    vec_def->dst = entry.machine.num_vec_regs + 1000;
    TempDir dir("bad-register");
    service::DiskCache disk(dir.str());
    disk.store(entry);
    const service::LoadResult r = disk.load(key);
    EXPECT_EQ(r.status, service::LoadStatus::kCorrupt);
    EXPECT_FALSE(r.entry.has_value());
    EXPECT_NE(r.detail.find("instruction " +
                            std::to_string(vec_def - code.begin())),
              std::string::npos)
        << r.detail;

    // A count outside int range and a negative count are malformed too.
    const std::string text =
        service::encode_entry(
            service::make_entry(key, options, *result.compiled));
    const std::size_t at = text.find("(regs ");
    ASSERT_NE(at, std::string::npos);
    const std::size_t end = text.find(')', at);
    for (const std::string& regs :
         {std::string("(regs 0 4294967296 4"), std::string("(regs 0 4 -1")}) {
        std::string broken = text;
        broken.replace(at, end - at, regs);
        EXPECT_THROW(service::decode_entry(broken), UserError)
            << regs;
    }
}

/** Writes `payload` as `key`'s envelope file, under a matching checksum. */
void
write_envelope(const service::DiskCache& disk, const CacheKey& key,
               const std::string& payload)
{
    std::filesystem::create_directories(disk.shard_dir_for(key));
    std::ofstream(disk.path_for(key), std::ios::binary)
        << "(dios-cache-envelope (format-version "
        << service::kCacheFormatVersion << ") (rule-set-version "
        << service::kRuleSetVersion << ") (checksum "
        << hash_hex(stable_hash_string(payload)) << ") (payload " << payload
        << "))\n";
}

TEST(Serialization, FloatOutsideFloatRangeIsCorrupt)
{
    // A finite double outside float range cannot narrow to a float (that
    // is undefined behaviour), so a checksum-valid entry carrying one as
    // an instruction's immediate or as a pool value is corrupt, and the
    // detail names which one. inf and nan are floats and still load.
    const Kernel kernel = vector_add_kernel(8);
    const CompilerOptions options = test_options();
    const CompileResult result = compile_kernel_resilient(kernel, options);
    ASSERT_TRUE(result.ok);
    const CacheKey key = service::compute_cache_key(kernel, options);
    service::CachedEntry entry =
        service::make_entry(key, options, *result.compiled);
    ASSERT_GE(entry.machine.code.size(), 3u);
    entry.machine.code[2].fimm = 4321.25f;
    entry.pool = {1.0f, 1234.5f};
    const std::string text = service::encode_entry(entry);
    TempDir dir("float-range");
    service::DiskCache disk(dir.str());
    for (const auto& [value, names] :
         std::vector<std::pair<float, std::string>>{{4321.25f, "instruction 2"},
                                                    {1234.5f, "pool 1"}}) {
        SexprWriter w;
        const std::string token = w.f64(value).str();
        const std::size_t at = text.find(" " + token);
        ASSERT_NE(at, std::string::npos) << token;
        ASSERT_EQ(text.find(" " + token, at + 1), std::string::npos);
        for (const char* bad : {"1e300", "-0x1p+1000"}) {
            std::string broken = text;
            broken.replace(at + 1, token.size(), bad);
            write_envelope(disk, key, broken);
            const service::LoadResult r = disk.load(key);
            EXPECT_EQ(r.status, service::LoadStatus::kCorrupt) << bad;
            EXPECT_NE(r.detail.find(names), std::string::npos) << r.detail;
        }
        for (const char* good : {"inf", "nan", "0x1.fffffep+127"}) {
            std::string fine = text;
            fine.replace(at + 1, token.size(), good);
            write_envelope(disk, key, fine);
            EXPECT_EQ(disk.load(key).status, service::LoadStatus::kHit)
                << good;
        }
    }
}

TEST(Serialization, EntryFieldOfTheWrongArityIsRejectedByName)
{
    const Kernel kernel = vector_add_kernel(8);
    const CompilerOptions options = test_options();
    const CompileResult result = compile_kernel_resilient(kernel, options);
    ASSERT_TRUE(result.ok);
    const std::string text =
        service::encode_entry(
            service::make_entry(service::compute_cache_key(kernel, options),
                                options, *result.compiled));
    // Each would decode at a default value (width 4, a zero key, no time
    // limit) if the field were skipped.
    const std::pair<std::string, std::string> cases[] = {
        {"width", "(width 8 9)"},
        {"key", "(key x)"},
        {"time-limit", "(time-limit)"},
    };
    for (const auto& [name, bad] : cases) {
        const std::size_t at = text.find("(" + name + " ");
        ASSERT_NE(at, std::string::npos) << name;
        std::string broken = text;
        broken.replace(at, text.find(')', at) + 1 - at, bad);
        try {
            service::decode_entry(broken);
            ADD_FAILURE() << bad << " decoded";
        } catch (const UserError& e) {
            EXPECT_NE(std::string(e.what()).find("field '" + name + "'"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Serialization, VersionMismatchRejected)
{
    const Kernel kernel = vector_add_kernel(8);
    const CompilerOptions options = test_options();
    const CompileResult result = compile_kernel_resilient(kernel, options);
    ASSERT_TRUE(result.ok);
    service::CachedEntry entry = service::make_entry(
        service::compute_cache_key(kernel, options), options,
        *result.compiled);
    entry.rule_set_version = service::kRuleSetVersion + 1;
    // The parser itself is lenient about the version; DiskCache::load is
    // the layer that rejects it. A stale rule-set version is a clean
    // *miss* (legitimately outdated, not corrupt — no quarantine).
    TempDir dir("version");
    service::DiskCache disk(dir.str());
    disk.store(entry);
    const service::LoadResult r =
        disk.load(service::compute_cache_key(kernel, options));
    EXPECT_EQ(r.status, service::LoadStatus::kMiss);
    EXPECT_FALSE(r.entry.has_value());
}

TEST(Serialization, CorruptDiskEntryIsDetected)
{
    TempDir dir("corrupt");
    service::DiskCache disk(dir.str());
    const Kernel kernel = vector_add_kernel(8);
    const CacheKey key =
        service::compute_cache_key(kernel, test_options());
    {
        std::filesystem::create_directories(
            disk.path_for(key).parent_path());
        std::ofstream out(disk.path_for(key));
        out << "(this is (not a cache entry";
    }
    const service::LoadResult r = disk.load(key);
    EXPECT_EQ(r.status, service::LoadStatus::kCorrupt);
    EXPECT_FALSE(r.entry.has_value());
    EXPECT_FALSE(r.detail.empty());
}

// ---------------------------------------------------------------------------
// Tentpole: the compile service
// ---------------------------------------------------------------------------

TEST(CompileService, DeterministicAcrossWorkerCounts)
{
    std::vector<Kernel> kernels;
    for (const std::int64_t n : {4, 8, 12}) {
        kernels.push_back(vector_add_kernel(n));
        kernels.push_back(dot_kernel(n));
    }
    const CompilerOptions options = test_options();

    auto compile_all = [&](int jobs) {
        CompileService::Options sopts;
        sopts.jobs = jobs;
        CompileService svc(sopts);
        std::vector<service::Ticket> tickets;
        for (const Kernel& k : kernels) {
            tickets.push_back(svc.submit(k, options));
        }
        std::vector<std::string> artifacts;
        for (service::Ticket& t : tickets) {
            const CompileResult& r = t.get();
            EXPECT_TRUE(r.ok) << r.error;
            artifacts.push_back(r.compiled->c_source + "\n===\n" +
                                asm_text(*r.compiled, options));
        }
        return artifacts;
    };

    const std::vector<std::string> serial = compile_all(1);
    const std::vector<std::string> parallel = compile_all(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i], parallel[i]) << "kernel #" << i;
    }
}

TEST(CompileService, CoalescesDuplicateInflightKeys)
{
    CompileService::Options sopts;
    sopts.jobs = 1;
    CompileService svc(sopts);
    // One worker: the first ticket occupies it (or the queue) while the
    // duplicates arrive, so they must coalesce rather than recompile.
    const Kernel kernel = dot_kernel(24);
    const CompilerOptions options = test_options();
    std::vector<service::Ticket> tickets;
    for (int i = 0; i < 5; ++i) {
        tickets.push_back(svc.submit(kernel, options));
    }
    svc.wait_idle();

    const service::ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.submitted, 5u);
    EXPECT_EQ(m.misses, 1u);  // exactly one saturation ran
    EXPECT_EQ(m.coalesced + m.memory_hits, 4u);

    // Every ticket resolves to the *same* shared result object.
    const service::ResultPtr first = tickets[0].future.get();
    ASSERT_TRUE(first->ok);
    for (service::Ticket& t : tickets) {
        if (t.outcome() == CacheOutcome::kCoalesced) {
            EXPECT_EQ(t.future.get().get(), first.get());
        }
    }
}

TEST(CompileService, MemoryCacheHitsAndLruEviction)
{
    CompileService::Options sopts;
    sopts.jobs = 1;
    sopts.memory_cache_capacity = 2;
    CompileService svc(sopts);
    const CompilerOptions options = test_options();
    const Kernel a = vector_add_kernel(4);
    const Kernel b = vector_add_kernel(8);
    const Kernel c = vector_add_kernel(12);

    svc.submit(a, options).future.wait();
    svc.submit(b, options).future.wait();
    // Touch `a` so `b` is the LRU victim when `c` arrives.
    service::Ticket hit = svc.submit(a, options);
    hit.future.wait();
    EXPECT_EQ(hit.outcome(), CacheOutcome::kMemoryHit);
    svc.submit(c, options).future.wait();

    service::ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.evictions, 1u);
    EXPECT_EQ(m.misses, 3u);

    // `a` survived (memory hit), `b` was evicted (recompiled).
    EXPECT_EQ(svc.submit(a, options).outcome(), CacheOutcome::kMemoryHit);
    service::Ticket again_b = svc.submit(b, options);
    again_b.future.wait();
    EXPECT_EQ(again_b.outcome(), CacheOutcome::kMiss);
    svc.wait_idle();
    EXPECT_EQ(svc.metrics().misses, 4u);
}

TEST(CompileService, DiskCacheServesAcrossServiceInstances)
{
    TempDir dir("disk");
    const Kernel kernel = dot_kernel(12);
    const CompilerOptions options = test_options();

    std::string cold_c, cold_asm;
    {
        CompileService::Options sopts;
        sopts.cache_dir = dir.str();
        CompileService svc(sopts);
        service::Ticket t = svc.submit(kernel, options);
        const CompileResult& r = t.get();
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(t.outcome(), CacheOutcome::kMiss);
        cold_c = r.compiled->c_source;
        cold_asm = asm_text(*r.compiled, options);
        EXPECT_EQ(svc.metrics().disk_writes, 1u);
    }

    // A brand-new service (fresh memory cache) must hit the disk level
    // and serve byte-identical artifacts without compiling.
    CompileService::Options sopts;
    sopts.cache_dir = dir.str();
    CompileService svc(sopts);
    service::Ticket warm = svc.submit(kernel, options);
    const CompileResult& r = warm.get();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(warm.outcome(), CacheOutcome::kDiskHit);
    EXPECT_EQ(r.compiled->c_source, cold_c);
    EXPECT_EQ(asm_text(*r.compiled, options), cold_asm);
    const service::ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.disk_hits, 1u);
    EXPECT_EQ(m.misses, 0u);
    EXPECT_DOUBLE_EQ(m.saturation_seconds, 0.0);  // zero saturations warm
}

TEST(CompileService, TimeoutChangeStillHitsSuccessfulEntry)
{
    CompileService::Options sopts;
    CompileService svc(sopts);
    const Kernel kernel = vector_add_kernel(8);
    CompilerOptions options = test_options();
    svc.submit(kernel, options).future.wait();

    // Same kernel, wildly different wall-clock budget: the entry
    // saturated (not time-bound), so this must be a hit, not a miss.
    options.limits.time_limit_seconds = 500.0;
    options.deadline_seconds = 500.0;
    service::Ticket t = svc.submit(kernel, options);
    t.future.wait();
    EXPECT_EQ(t.outcome(), CacheOutcome::kMemoryHit);
}

TEST(CompileService, VerifyMachineRunIsNotServedAnUnverifiedArtifact)
{
    // verify_machine decides whether machine validation ran, and the
    // verdict lives in the cached report: a run that asks for it must
    // miss on an entry compiled without it.
    TempDir dir("verify_machine");
    CompileService::Options sopts;
    sopts.cache_dir = dir.str();
    const Kernel kernel = dot_kernel(4);
    const CompilerOptions plain = test_options();
    CompilerOptions verified = plain;
    verified.verify_machine = true;
    {
        CompileService cold(sopts);
        service::Ticket t = cold.submit(kernel, plain);
        ASSERT_TRUE(t.get().ok) << t.get().error;
        EXPECT_FALSE(t.get().report().machine_validated);
        cold.wait_idle();
    }

    CompileService svc(sopts);  // only the disk is warm
    service::Ticket t = svc.submit(kernel, verified);
    const CompileResult& r = t.get();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(t.outcome(), CacheOutcome::kMiss);
    EXPECT_TRUE(r.report().machine_validated);
    EXPECT_EQ(r.report().machine_validation, Verdict::kEquivalent);

    // Its own rerun hits and carries the verdict.
    service::Ticket again = svc.submit(kernel, verified);
    EXPECT_TRUE(again.get().report().machine_validated);
    EXPECT_EQ(again.outcome(), CacheOutcome::kMemoryHit);
}

TEST(CompileService, FaultArmedCompilesBypassTheCache)
{
    TempDir dir("fault");
    CompileService::Options sopts;
    sopts.jobs = 2;
    sopts.cache_dir = dir.str();
    CompileService svc(sopts);
    const Kernel kernel = vector_add_kernel(8);

    // Fault inside the worker thread: lowering blows up on rung 0, the
    // resilient driver degrades, and the service must neither cache the
    // degraded artifact nor serve it to clean requests.
    CompilerOptions faulty = test_options();
    faulty.fault_specs = {"lower.term:1"};
    service::Ticket t1 = svc.submit(kernel, faulty);
    const CompileResult& r1 = t1.get();
    EXPECT_EQ(t1.outcome(), CacheOutcome::kBypass);
    ASSERT_TRUE(r1.ok) << r1.error;
    EXPECT_GT(r1.fallback_level, 0);

    service::ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.bypasses, 1u);
    EXPECT_EQ(m.disk_writes, 0u);

    // A clean submit of the same kernel is a genuine miss (nothing was
    // cached by the bypass) and produces an undegraded artifact.
    service::Ticket t2 = svc.submit(kernel, test_options());
    const CompileResult& r2 = t2.get();
    EXPECT_EQ(t2.outcome(), CacheOutcome::kMiss);
    ASSERT_TRUE(r2.ok) << r2.error;
    EXPECT_EQ(r2.fallback_level, 0);
}

TEST(CompileService, ManyFaultyJobsAcrossWorkersStayIsolated)
{
    // Several fault-armed compiles racing across 4 workers: each must
    // degrade gracefully and none may poison the cache or each other.
    CompileService::Options sopts;
    sopts.jobs = 4;
    CompileService svc(sopts);
    std::vector<service::Ticket> tickets;
    for (int i = 0; i < 8; ++i) {
        CompilerOptions faulty = test_options();
        faulty.fault_specs = {i % 2 == 0 ? "lower.term:1"
                                         : "extract.build:1"};
        tickets.push_back(svc.submit(vector_add_kernel(4 + 4 * (i % 3)),
                                     faulty));
    }
    for (service::Ticket& t : tickets) {
        const CompileResult& r = t.get();
        EXPECT_EQ(t.outcome(), CacheOutcome::kBypass);
        EXPECT_TRUE(r.ok) << r.error;
        EXPECT_GT(r.fallback_level, 0);
    }
    const service::ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.bypasses, 8u);
    EXPECT_EQ(m.memory_hits + m.disk_hits + m.coalesced, 0u);
}

TEST(CompileService, UserErrorsAreCountedAndNotCached)
{
    CompileService::Options sopts;
    CompileService svc(sopts);
    CompilerOptions bad = test_options();
    bad.fault_specs = {"::not a valid fault spec::"};
    service::Ticket t = svc.submit(vector_add_kernel(8), bad);
    const CompileResult& r = t.get();
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.user_error);
    const service::ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.failures, 1u);
    EXPECT_EQ(m.user_errors, 1u);
}

TEST(CompileService, BackpressureQueueDrainsWithoutDeadlock)
{
    CompileService::Options sopts;
    sopts.jobs = 2;
    sopts.queue_capacity = 1;  // every submit beyond the first blocks
    CompileService svc(sopts);
    const CompilerOptions options = test_options();
    std::vector<service::Ticket> tickets;
    for (std::int64_t n = 4; n <= 32; n += 4) {
        tickets.push_back(svc.submit(vector_add_kernel(n), options));
    }
    for (service::Ticket& t : tickets) {
        EXPECT_TRUE(t.get().ok);
    }
    const service::ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.completed, m.submitted);
}

TEST(CompileService, MetricsJsonIsWellFormed)
{
    CompileService svc;
    svc.submit(vector_add_kernel(8), test_options()).future.wait();
    const std::string json = svc.metrics().to_json();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"submitted\":1"), std::string::npos);
    EXPECT_NE(json.find("\"misses\":1"), std::string::npos);
    EXPECT_NE(json.find("\"verifier_rejects\":0"), std::string::npos);
    EXPECT_NE(json.find("\"saturation_seconds\":"), std::string::npos);
}

TEST(CompileService, VerifierGateKeepsCorruptProgramsOutOfTheCaches)
{
    TempDir dir("verifier_gate");
    CompileService::Options sopts;
    sopts.cache_dir = dir.str();
    // Corrupt every freshly compiled program between the compiler and
    // the cache gate: an out-of-bounds shuffle lane the VIR verifier
    // must catch (V004).
    sopts.post_compile_hook = [](CompiledKernel& compiled) {
        vir::VInstr shuf;
        shuf.op = vir::VOp::kShuffle;
        shuf.dst = compiled.vprogram.fresh_vector();
        shuf.a = 0;
        shuf.lanes = {99, 0, 0, 0};
        compiled.vprogram.instrs.push_back(shuf);
    };
    CompileService svc(sopts);

    // The caller still gets the result (the compiler's own gates vouch
    // for what it produced), but neither cache level may keep it.
    service::Ticket first = svc.submit(vector_add_kernel(8), test_options());
    EXPECT_TRUE(first.get().ok);
    svc.wait_idle();
    {
        const service::ServiceMetrics m = svc.metrics();
        EXPECT_EQ(m.verifier_rejects, 1u);
        EXPECT_EQ(m.disk_writes, 0u);
        EXPECT_NE(m.to_json().find("\"verifier_rejects\":1"),
                  std::string::npos);
    }

    // Resubmission must recompile — no memory hit, no disk hit.
    service::Ticket second =
        svc.submit(vector_add_kernel(8), test_options());
    EXPECT_TRUE(second.get().ok);
    EXPECT_EQ(second.outcome(), CacheOutcome::kMiss);
    const service::ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.misses, 2u);
    EXPECT_EQ(m.memory_hits, 0u);
    EXPECT_EQ(m.disk_hits, 0u);
    EXPECT_EQ(m.verifier_rejects, 2u);
}

TEST(CompileService, CleanCompilesPassTheVerifierGate)
{
    TempDir dir("verifier_clean");
    CompileService::Options sopts;
    sopts.cache_dir = dir.str();
    CompileService svc(sopts);
    svc.submit(vector_add_kernel(8), test_options()).future.wait();
    svc.wait_idle();
    const service::ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.verifier_rejects, 0u);
    EXPECT_EQ(m.disk_writes, 1u);
}

}  // namespace
}  // namespace diospyros
