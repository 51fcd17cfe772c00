// Durability tests for the on-disk kernel cache (DESIGN.md §5e):
// envelope checksums, corruption classification and quarantine, the
// startup recovery scan (orphaned .tmp reclaim, disk-budget eviction),
// the cache.* fault-injection matrix with retry/backoff, and the
// self-healing end-to-end property — corrupt entries are never served
// and a warm run stays byte-identical to the cold one that filled the
// cache.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <unistd.h>
#include <vector>

#include "compiler/driver.h"
#include "service/cache_key.h"
#include "service/compile_service.h"
#include "service/disk_cache.h"
#include "service/serialize.h"
#include "support/error.h"
#include "support/faults.h"
#include "support/hash.h"

namespace diospyros {
namespace {

namespace fs = std::filesystem;
using scalar::Kernel;
using scalar::KernelBuilder;
using service::CacheKey;
using service::CachedEntry;
using service::CacheIoError;
using service::CacheOutcome;
using service::CompileService;
using service::DiskCache;
using service::IoPolicy;
using service::LoadResult;
using service::LoadStatus;
using service::RecoveryStats;

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
    fs::path path;

    explicit TempDir(const std::string& tag)
        : path(fs::temp_directory_path() /
               ("dios_durability_test_" + tag + "_" +
                std::to_string(::getpid())))
    {
        fs::remove_all(path);
    }
    ~TempDir() { fs::remove_all(path); }

    std::string str() const { return path.string(); }
};

std::string
slurp(const fs::path& path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
spit(const fs::path& path, const std::string& text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
}

/** Compiles `kernel` once and returns its persistable cache entry. */
CachedEntry
compiled_entry(const Kernel& kernel, const CompilerOptions& options)
{
    const CompileResult result = compile_kernel_resilient(kernel, options);
    EXPECT_TRUE(result.ok);
    return service::make_entry(service::compute_cache_key(kernel, options),
                               options, *result.compiled);
}

/** True when the directory holds any in-progress temp file. */
bool
has_tmp_orphans(const fs::path& dir)
{
    // Recursive: entries (and their torn .tmp files) live in per-key
    // shard subdirectories.
    for (const fs::directory_entry& de :
         fs::recursive_directory_iterator(dir)) {
        if (de.path().filename().string().find(".tmp.") !=
            std::string::npos) {
            return true;
        }
    }
    return false;
}

// ---------------------------------------------------------------------------
// Envelope format
// ---------------------------------------------------------------------------

TEST(Envelope, ChecksumCoversCanonicalPayload)
{
    const Kernel kernel = vector_add_kernel(4);
    const CompilerOptions options = test_options();
    const CachedEntry entry = compiled_entry(kernel, options);

    const std::string file = service::encode_envelope(
        service::encode_entry(entry), entry.rule_set_version);
    const service::EnvelopeFields fields = service::read_envelope(file);
    ASSERT_TRUE(fields.well_formed) << fields.error;
    EXPECT_EQ(fields.format_version, service::kCacheFormatVersion);
    EXPECT_EQ(fields.rule_set_version, service::kRuleSetVersion);
    EXPECT_EQ(fields.checksum, content_checksum(fields.payload_text));
    EXPECT_EQ(fields.payload_text, service::encode_entry(entry));
    // Stored as one flat line: the bytes checksummed are the bytes on disk.
    EXPECT_EQ(file, "(dios-cache-envelope (format-version " +
                        std::to_string(service::kCacheFormatVersion) +
                        ") (rule-set-version " +
                        std::to_string(service::kRuleSetVersion) +
                        ") (checksum " + hash_hex(fields.checksum) +
                        ") (payload " + fields.payload_text + "))\n");
}

TEST(Envelope, MalformedEnvelopesAreReported)
{
    const service::EnvelopeFields atom = service::read_envelope("x");
    EXPECT_FALSE(atom.well_formed);
    EXPECT_FALSE(atom.error.empty());

    const service::EnvelopeFields wrong_head =
        service::read_envelope("(not-an-envelope (format-version 2))");
    EXPECT_FALSE(wrong_head.well_formed);
}

// ---------------------------------------------------------------------------
// Corruption classification + quarantine + self-healing recompile
// ---------------------------------------------------------------------------

struct Corruption {
    const char* name;
    /** Mutates the on-disk text of a valid entry. */
    std::string (*mutate)(const std::string&);
    /** Whether this kind must be flagged as a checksum mismatch. */
    bool expect_checksum_mismatch;
};

std::string
truncate_half(const std::string& text)
{
    return text.substr(0, text.size() / 2);
}

std::string
flip_payload_digit(const std::string& text)
{
    // Flip one content-bearing character inside the payload without
    // breaking parseability: the checksum must catch it.
    std::string out = text;
    const std::size_t payload = out.find("(payload");
    for (std::size_t i = payload; i < out.size(); ++i) {
        if (out[i] >= '0' && out[i] <= '9') {
            out[i] = out[i] == '0' ? '1' : '0';
            return out;
        }
    }
    ADD_FAILURE() << "no digit found in payload";
    return out;
}

std::string
respace_payload(const std::string& text)
{
    // Whitespace inside the payload is content too: the checksum covers
    // the payload bytes as stored, so a space turned newline is caught.
    std::string out = text;
    const std::size_t space = out.find(' ', out.find("(payload") + 9);
    EXPECT_NE(space, std::string::npos);
    out[space] = '\n';
    return out;
}

std::string
bump_format_version(const std::string& text)
{
    std::string out = text;
    const std::string tag = "(format-version";
    const std::size_t at = out.find(tag);
    EXPECT_NE(at, std::string::npos);
    const std::size_t end = out.find(')', at);
    out.replace(at, end - at, tag + " 9999");
    return out;
}

std::string
zero_out(const std::string& text)
{
    return std::string(text.size(), ' ');
}

class CorruptionRecovery : public ::testing::TestWithParam<Corruption> {};

TEST_P(CorruptionRecovery, QuarantinesAndRecompiles)
{
    const Corruption& kind = GetParam();
    TempDir dir(std::string("corrupt_") + kind.name);
    const Kernel kernel = vector_add_kernel(4);
    const CompilerOptions options = test_options();
    const CacheKey key = service::compute_cache_key(kernel, options);

    // Seed a valid entry, then corrupt it on disk.
    DiskCache disk(dir.str());
    disk.store(compiled_entry(kernel, options));
    ASSERT_EQ(disk.load(key).status, LoadStatus::kHit);
    const std::string good = slurp(disk.path_for(key));
    spit(disk.path_for(key), kind.mutate(good));

    // load() classifies it as corruption, never serves it.
    const LoadResult r = disk.load(key);
    EXPECT_EQ(r.status, LoadStatus::kCorrupt);
    EXPECT_FALSE(r.entry.has_value());
    EXPECT_FALSE(r.detail.empty());
    EXPECT_EQ(r.checksum_mismatch, kind.expect_checksum_mismatch);

    // A service starting over this directory quarantines the entry in
    // its recovery scan, surfaces the counts, recompiles on demand, and
    // re-stores a fresh entry under the same key.
    std::string served_source;
    {
        CompileService::Options sopts;
        sopts.jobs = 1;
        sopts.cache_dir = dir.str();
        CompileService svc(sopts);

        const service::ServiceMetrics at_start = svc.metrics();
        EXPECT_EQ(at_start.quarantined, 1u);
        EXPECT_EQ(at_start.checksum_failures,
                  kind.expect_checksum_mismatch ? 1u : 0u);
        EXPECT_TRUE(fs::exists(disk.quarantine_path_for(key)));
        EXPECT_FALSE(fs::exists(disk.path_for(key)));

        service::Ticket t = svc.submit(kernel, options);
        const CompileResult& result = t.get();
        ASSERT_TRUE(result.ok);
        EXPECT_EQ(t.outcome(), CacheOutcome::kMiss);
        served_source = result.compiled->c_source;
        svc.wait_idle();
        EXPECT_GE(svc.metrics().disk_writes, 1u);
    }

    // Self-healed: the key serves a verified hit again, identical to the
    // recompiled artifact, and the quarantined copy was kept as evidence.
    const LoadResult healed = disk.load(key);
    ASSERT_EQ(healed.status, LoadStatus::kHit);
    EXPECT_EQ(healed.entry->c_source, served_source);
    EXPECT_TRUE(fs::exists(disk.quarantine_path_for(key)));
    EXPECT_FALSE(has_tmp_orphans(dir.path));
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, CorruptionRecovery,
    ::testing::Values(
        Corruption{"truncate", &truncate_half, false},
        Corruption{"bitflip", &flip_payload_digit, true},
        Corruption{"respace", &respace_payload, true},
        Corruption{"version_bump", &bump_format_version, false},
        Corruption{"zero_out", &zero_out, false}),
    [](const ::testing::TestParamInfo<Corruption>& info) {
        return info.param.name;
    });

TEST(CorruptionRecoveryExtra, OlderFormatVersionIsCleanMiss)
{
    TempDir dir("stale_format");
    DiskCache disk(dir.str());
    const CompilerOptions options = test_options();
    const Kernel kernel = vector_add_kernel(4);
    const CacheKey key = service::compute_cache_key(kernel, options);
    disk.store(compiled_entry(kernel, options));

    std::string text = slurp(disk.path_for(key));
    const std::string tag = "(format-version";
    const std::size_t at = text.find(tag);
    ASSERT_NE(at, std::string::npos);
    const std::size_t end = text.find(')', at);
    text.replace(at, end - at,
                 tag + " " +
                     std::to_string(service::kCacheFormatVersion - 1));
    spit(disk.path_for(key), text);

    // An entry written by an older build is a legitimate miss: never
    // served (its payload layout may differ) but never quarantined as
    // corruption either.
    const LoadResult r = disk.load(key);
    EXPECT_EQ(r.status, LoadStatus::kMiss);
    EXPECT_FALSE(r.entry.has_value());
    EXPECT_NE(r.detail.find("stale format-version"), std::string::npos);
}

TEST(CorruptionRecoveryExtra, MisfiledEntryIsCorrupt)
{
    TempDir dir("misfiled");
    DiskCache disk(dir.str());
    const CompilerOptions options = test_options();
    const Kernel a = vector_add_kernel(4);
    disk.store(compiled_entry(a, options));

    // Copy A's (internally consistent, checksum-valid) entry to the path
    // of a different key: body/file-name disagreement must not be served.
    const CacheKey key_a = service::compute_cache_key(a, options);
    const CacheKey key_b =
        service::compute_cache_key(vector_add_kernel(8), options);
    fs::create_directories(disk.path_for(key_b).parent_path());
    fs::copy_file(disk.path_for(key_a), disk.path_for(key_b));

    const LoadResult r = disk.load(key_b);
    EXPECT_EQ(r.status, LoadStatus::kCorrupt);
    EXPECT_NE(r.detail.find("misfiled"), std::string::npos) << r.detail;
}

TEST(CorruptionRecoveryExtra, ChecksumValidEntryWithABadWidthIsCorrupt)
{
    // Written by a buggy producer, so the checksum holds; served, the
    // zero width would crash the reader where it pads the spec.
    TempDir dir("bad_width");
    const CompilerOptions options = test_options();
    const Kernel kernel = vector_add_kernel(4);
    const CacheKey key = service::compute_cache_key(kernel, options);
    CachedEntry entry = compiled_entry(kernel, options);
    entry.vector_width = 0;
    {
        DiskCache disk(dir.str());
        disk.store(entry);
        const LoadResult r = disk.load(key);
        EXPECT_EQ(r.status, LoadStatus::kCorrupt);
        EXPECT_FALSE(r.checksum_mismatch);
        EXPECT_NE(r.detail.find("vector width"), std::string::npos)
            << r.detail;
    }

    CompileService::Options sopts;
    sopts.cache_dir = dir.str();
    CompileService svc(sopts);
    service::Ticket t = svc.submit(kernel, options);
    ASSERT_TRUE(t.get().ok) << t.get().error;
    EXPECT_EQ(t.outcome(), CacheOutcome::kMiss);
    EXPECT_EQ(svc.metrics().quarantined, 1u);
}

// ---------------------------------------------------------------------------
// Fault matrix: every cache.* site, with and without retry budget
// ---------------------------------------------------------------------------

TEST(FaultMatrix, StoreSitesRetryThenSucceed)
{
    // Fault-armed *submits* bypass the cache by design, so the matrix
    // drives DiskCache directly under a thread-local fault scope.
    TempDir dir("store_retry");
    DiskCache disk(dir.str());
    const CompilerOptions options = test_options();
    const CachedEntry entry =
        compiled_entry(vector_add_kernel(4), options);

    for (const char* site :
         {"cache.store.write", "cache.store.fsync", "cache.store.rename"}) {
        SCOPED_TRACE(site);
        fs::remove(disk.path_for(entry.key));

        // One transient failure + retry budget: the store succeeds and
        // reports exactly one retried attempt, leaving no torn state.
        {
            faults::ScopedFaults scope({faults::parse_spec(site)});
            IoPolicy policy;
            policy.retries = 2;
            EXPECT_EQ(disk.store(entry, policy), 1);
        }
        EXPECT_EQ(disk.load(entry.key).status, LoadStatus::kHit);
        EXPECT_FALSE(has_tmp_orphans(dir.path));
    }
}

TEST(FaultMatrix, StoreSitesFailFastWithoutBudget)
{
    TempDir dir("store_fail");
    DiskCache disk(dir.str());
    const CompilerOptions options = test_options();
    const CachedEntry entry =
        compiled_entry(vector_add_kernel(4), options);

    for (const char* site :
         {"cache.store.write", "cache.store.fsync", "cache.store.rename"}) {
        SCOPED_TRACE(site);
        faults::ScopedFaults scope(
            {faults::parse_spec(std::string(site) + ":1:*")});
        IoPolicy policy;
        policy.retries = 0;
        EXPECT_THROW(disk.store(entry, policy), faults::InjectedFault);
        EXPECT_FALSE(has_tmp_orphans(dir.path));
    }
    // Nothing was ever published.
    EXPECT_EQ(disk.load(entry.key).status, LoadStatus::kMiss);
}

TEST(FaultMatrix, LoadSitesPropagateAndNeverRetry)
{
    TempDir dir("load_faults");
    DiskCache disk(dir.str());
    const CompilerOptions options = test_options();
    const CachedEntry entry =
        compiled_entry(vector_add_kernel(4), options);
    disk.store(entry);

    // A read-side injected fault is an I/O problem, not corruption: it
    // must reach the caller (who counts load_errors and recompiles)
    // rather than trigger a quarantine of a healthy entry.
    for (const char* site : {"cache.load.read", "cache.load.checksum"}) {
        SCOPED_TRACE(site);
        faults::ScopedFaults scope({faults::parse_spec(site)});
        EXPECT_THROW(disk.load(entry.key), faults::InjectedFault);
    }
    // The entry is untouched afterwards.
    EXPECT_EQ(disk.load(entry.key).status, LoadStatus::kHit);
    EXPECT_FALSE(fs::exists(disk.quarantine_path_for(entry.key)));
}

TEST(FaultMatrix, ScanRetriesTransientFaults)
{
    TempDir dir("scan_faults");
    DiskCache disk(dir.str());
    const CompilerOptions options = test_options();
    disk.store(compiled_entry(vector_add_kernel(4), options));

    // With budget: the per-file fault is retried and the scan completes
    // with the entry intact.
    {
        faults::ScopedFaults scope({faults::parse_spec("cache.scan")});
        IoPolicy policy;
        policy.retries = 2;
        const RecoveryStats stats = disk.scan_and_recover(policy);
        EXPECT_GE(stats.io_retries, 1u);
        EXPECT_EQ(stats.quarantined, 0u);
    }

    // Without budget: the file is skipped, but the scan itself must
    // never be fatal — and a skipped healthy entry is still servable.
    {
        faults::ScopedFaults scope({faults::parse_spec("cache.scan:1:*")});
        IoPolicy policy;
        policy.retries = 0;
        EXPECT_NO_THROW(disk.scan_and_recover(policy));
    }
    EXPECT_EQ(
        disk.load(service::compute_cache_key(vector_add_kernel(4), options))
            .status,
        LoadStatus::kHit);
}

TEST(FaultMatrix, AllCacheSitesAreInTheCatalog)
{
    const std::vector<std::string>& sites = faults::known_sites();
    for (const char* site :
         {"cache.load.read", "cache.load.checksum", "cache.store.write",
          "cache.store.fsync", "cache.store.rename", "cache.scan"}) {
        EXPECT_NE(std::find(sites.begin(), sites.end(), site), sites.end())
            << site;
    }
}

TEST(FaultMatrix, RenameOntoDirectoryIsInternalError)
{
    // A store that cannot publish is the infrastructure's problem, never
    // the caller's: it must surface as InternalError, not UserError.
    TempDir dir("rename_fail");
    DiskCache disk(dir.str());
    const CompilerOptions options = test_options();
    const CachedEntry entry =
        compiled_entry(vector_add_kernel(4), options);
    fs::create_directories(disk.path_for(entry.key));

    IoPolicy policy;
    policy.retries = 0;
    EXPECT_THROW(disk.store(entry, policy), InternalError);
    EXPECT_FALSE(has_tmp_orphans(dir.path));
    fs::remove_all(disk.path_for(entry.key));
}

// ---------------------------------------------------------------------------
// Recovery scan: orphaned .tmp reclaim and the disk budget
// ---------------------------------------------------------------------------

TEST(RecoveryScan, ReclaimsOrphanedTmpFromDeadWriter)
{
    TempDir dir("orphans");
    // Writers leave their temp files in the entry's shard.
    const fs::path shard = dir.path / "shard" / "de";
    fs::create_directories(shard);
    // An orphan from a provably dead writer (pids are well below 10^9).
    spit(shard / "deadbeef.tmp.999999999.0", "torn half-write");
    // A fresh tmp from *this* (live) process must be left alone: its
    // rename may still be in flight.
    const fs::path live =
        shard / ("deca.tmp." + std::to_string(::getpid()) + ".0");
    spit(live, "in-flight write");

    DiskCache disk(dir.str());
    EXPECT_EQ(disk.startup_stats().recovered_tmp, 1u);
    EXPECT_FALSE(fs::exists(shard / "deadbeef.tmp.999999999.0"));
    EXPECT_TRUE(fs::exists(live));
}

TEST(RecoveryScan, EvictsOldestPastDiskBudget)
{
    TempDir dir("budget");
    const CompilerOptions options = test_options();
    std::vector<CacheKey> keys;
    std::uintmax_t largest = 0;
    {
        DiskCache disk(dir.str());
        for (const std::int64_t n : {4, 8, 12}) {
            const CachedEntry entry =
                compiled_entry(vector_add_kernel(n), options);
            disk.store(entry);
            keys.push_back(entry.key);
            largest =
                std::max(largest, fs::file_size(disk.path_for(entry.key)));
        }
        // Stagger mtimes so the LRU order is unambiguous: keys[0] oldest.
        const auto now = fs::file_time_type::clock::now();
        using std::chrono::hours;
        fs::last_write_time(disk.path_for(keys[0]), now - hours(3));
        fs::last_write_time(disk.path_for(keys[1]), now - hours(2));
        fs::last_write_time(disk.path_for(keys[2]), now - hours(1));
    }

    // A budget with room for roughly one entry: the two oldest go.
    DiskCache disk(dir.str(), largest);
    EXPECT_EQ(disk.startup_stats().disk_evicted, 2u);
    EXPECT_EQ(disk.load(keys[0]).status, LoadStatus::kMiss);
    EXPECT_EQ(disk.load(keys[1]).status, LoadStatus::kMiss);
    EXPECT_EQ(disk.load(keys[2]).status, LoadStatus::kHit);

    // Eviction is deletion, not quarantine: evicted entries were valid.
    EXPECT_FALSE(fs::exists(disk.quarantine_path_for(keys[0])));
}

TEST(RecoveryScan, UnlimitedBudgetEvictsNothing)
{
    TempDir dir("no_budget");
    const CompilerOptions options = test_options();
    {
        DiskCache disk(dir.str());
        disk.store(compiled_entry(vector_add_kernel(4), options));
    }
    DiskCache disk(dir.str(), 0);
    EXPECT_EQ(disk.startup_stats().disk_evicted, 0u);
}

// ---------------------------------------------------------------------------
// Service-level: self-healing end to end, metrics surface
// ---------------------------------------------------------------------------

TEST(SelfHealing, WarmRunByteIdenticalAfterMassCorruption)
{
    const CompilerOptions options = test_options();
    std::vector<Kernel> kernels;
    for (const std::int64_t n : {4, 8, 12, 16}) {
        kernels.push_back(vector_add_kernel(n));
    }

    // Cold reference: no cache at all.
    std::vector<std::string> cold_sources;
    for (const Kernel& k : kernels) {
        const CompileResult r = compile_kernel_resilient(k, options);
        ASSERT_TRUE(r.ok);
        cold_sources.push_back(r.compiled->c_source);
    }

    TempDir dir("self_heal");
    CompileService::Options sopts;
    sopts.jobs = 2;
    sopts.cache_dir = dir.str();
    {
        CompileService svc(sopts);
        for (const Kernel& k : kernels) {
            ASSERT_TRUE(svc.submit(k, options).get().ok);
        }
        svc.wait_idle();
    }

    // Bit-flip 25% of the on-disk entries (1 of 4).
    DiskCache probe(dir.str());
    const CacheKey victim =
        service::compute_cache_key(kernels[1], options);
    spit(probe.path_for(victim),
         flip_payload_digit(slurp(probe.path_for(victim))));

    // Warm run over the damaged store: every artifact byte-identical to
    // the cold reference, the victim quarantined and recompiled, zero
    // corrupt bytes served, no torn temp files left behind.
    {
        CompileService svc(sopts);
        for (std::size_t i = 0; i < kernels.size(); ++i) {
            service::Ticket t = svc.submit(kernels[i], options);
            const CompileResult& r = t.get();
            ASSERT_TRUE(r.ok);
            EXPECT_EQ(r.compiled->c_source, cold_sources[i]);
        }
        svc.wait_idle();
        const service::ServiceMetrics m = svc.metrics();
        EXPECT_EQ(m.quarantined, 1u);
        EXPECT_EQ(m.checksum_failures, 1u);
        EXPECT_EQ(m.disk_hits, kernels.size() - 1);
        EXPECT_EQ(m.misses, 1u);
    }
    EXPECT_TRUE(fs::exists(probe.quarantine_path_for(victim)));
    EXPECT_FALSE(has_tmp_orphans(dir.path));

    // The healed store now serves everything.
    for (const Kernel& k : kernels) {
        EXPECT_EQ(
            probe.load(service::compute_cache_key(k, options)).status,
            LoadStatus::kHit);
    }
}

TEST(ServiceMetrics, DurabilityCountersInJson)
{
    TempDir dir("metrics");
    CompileService::Options sopts;
    sopts.cache_dir = dir.str();
    sopts.disk_budget_bytes = 1u << 30;
    CompileService svc(sopts);
    const std::string json = svc.metrics().to_json();
    for (const char* field :
         {"\"quarantined\"", "\"recovered_tmp\"", "\"checksum_failures\"",
          "\"disk_evicted\"", "\"io_retries\"", "\"store_failures\"",
          "\"load_errors\""}) {
        EXPECT_NE(json.find(field), std::string::npos) << field;
    }
}

}  // namespace
}  // namespace diospyros
