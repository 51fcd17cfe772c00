#include "service/disk_cache.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <system_error>
#include <thread>
#include <vector>

#include "support/faults.h"
#include "support/hash.h"

namespace diospyros::service {

namespace fs = std::filesystem;

namespace {

/**
 * Orphaned .tmp files whose writer pid is unkillable-but-maybe-alive
 * (EPERM) are only reclaimed once older than this, so a slow concurrent
 * writer is not sabotaged mid-store.
 */
constexpr double kTmpGraceSeconds = 60.0;

/**
 * Test hook: DIOS_CACHE_KILL=<nth> SIGKILLs the process at the nth kill
 * point visited (two per store: mid-payload-write and pre-rename), with
 * no cleanup and no flush — a deterministic stand-in for a crash or
 * power cut mid-store. Used by the crash-consistency torture loop in
 * tools/check.sh. Unlike DIOS_FAULT this does not arm the fault
 * registry, so compiles still go through the cache.
 */
void
kill_point()
{
    static const long target = [] {
        const char* env = std::getenv("DIOS_CACHE_KILL");
        return env != nullptr ? std::atol(env) : 0L;
    }();
    if (target <= 0) {
        return;
    }
    static std::atomic<long> visits{0};
    if (visits.fetch_add(1, std::memory_order_relaxed) + 1 == target) {
        ::raise(SIGKILL);
    }
}

[[noreturn]] void
raise_io(const std::string& what)
{
    throw CacheIoError(what + " (errno: " + std::strerror(errno) + ")");
}

/** True when the exception represents a retryable (transient) failure. */
bool
is_transient(const std::exception& e)
{
    return dynamic_cast<const CacheIoError*>(&e) != nullptr ||
           dynamic_cast<const faults::InjectedFault*>(&e) != nullptr ||
           dynamic_cast<const fs::filesystem_error*>(&e) != nullptr;
}

/**
 * Deterministic exponential backoff: 1ms, 2ms, 4ms, ... capped at 32ms.
 * Sleeps only as long as the deadline allows.
 */
void
backoff_sleep(int attempt, const Deadline& deadline)
{
    double seconds = 0.001 * static_cast<double>(1 << std::min(attempt, 5));
    seconds = std::min(seconds, deadline.remaining_seconds());
    if (seconds > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    }
}

/**
 * Runs `fn`, retrying transient failures under `policy` with
 * deterministic backoff. Non-transient exceptions, exhausted retries,
 * and an expired deadline all propagate the current failure.
 */
template <typename Fn>
int
with_retries(const IoPolicy& policy, Fn&& fn)
{
    for (int attempt = 0;; ++attempt) {
        try {
            fn();
            return attempt;
        } catch (const std::exception& e) {
            if (!is_transient(e) || attempt >= policy.retries ||
                policy.deadline.expired()) {
                throw;
            }
            backoff_sleep(attempt, policy.deadline);
        }
    }
}

/** RAII advisory lock on `<dir>/lock`, serializing cache maintenance. */
class DirLock {
  public:
    explicit DirLock(const fs::path& dir)
    {
        fd_ = ::open((dir / "lock").c_str(), O_CREAT | O_RDWR | O_CLOEXEC,
                     0644);
        if (fd_ < 0) {
            raise_io("cannot open cache lock file in '" + dir.string() +
                     "'");
        }
        if (::flock(fd_, LOCK_EX) != 0) {
            ::close(fd_);
            fd_ = -1;
            raise_io("cannot lock cache directory '" + dir.string() + "'");
        }
    }

    ~DirLock()
    {
        if (fd_ >= 0) {
            ::close(fd_);  // releases the flock
        }
    }

    DirLock(const DirLock&) = delete;
    DirLock& operator=(const DirLock&) = delete;

  private:
    int fd_ = -1;
};

/** fsync a directory so a just-published rename survives a crash. */
void
fsync_dir(const fs::path& dir)
{
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) {
        raise_io("cannot open cache directory '" + dir.string() +
                 "' for fsync");
    }
    if (::fsync(fd) != 0) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        raise_io("cannot fsync cache directory '" + dir.string() + "'");
    }
    ::close(fd);
}

/** Reads a whole file; nullopt when it cannot be opened (plain miss). */
std::optional<std::string>
read_file(const fs::path& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        return std::nullopt;
    }
    std::ostringstream text;
    text << in.rdbuf();
    return std::move(text).str();
}

/**
 * Parses and verifies one envelope file's text. Returns kHit with the
 * entry, kMiss for stale rule-set versions, or kCorrupt with a reason.
 * UserErrors from the parser become kCorrupt here; anything else
 * (InjectedFault, InternalError) propagates to the caller.
 */
LoadResult
verify_text(const std::string& text, const CacheKey* expected_key)
{
    LoadResult r;
    EnvelopeFields env = read_envelope(text);
    if (!env.well_formed) {
        r.status = LoadStatus::kCorrupt;
        r.detail = "malformed envelope: " + env.error;
        return r;
    }
    if (env.format_version != kCacheFormatVersion) {
        if (env.format_version < kCacheFormatVersion) {
            // A recognizably *older* envelope is a legitimate miss: the
            // writer was simply an earlier build. Only claims of a
            // format this build has never produced smell like
            // corruption.
            r.status = LoadStatus::kMiss;
            r.detail = "stale format-version " +
                       std::to_string(env.format_version);
            return r;
        }
        r.status = LoadStatus::kCorrupt;
        r.detail = "unsupported format-version " +
                   std::to_string(env.format_version);
        return r;
    }

    DIOS_FAULT_POINT("cache.load.checksum");
    const std::uint64_t actual = content_checksum(env.payload_text);
    if (actual != env.checksum) {
        r.status = LoadStatus::kCorrupt;
        r.checksum_mismatch = true;
        r.detail = "checksum mismatch: stored " + hash_hex(env.checksum) +
                   ", computed " + hash_hex(actual);
        return r;
    }

    CachedEntry entry;
    try {
        entry = decode_entry(env.payload_text);
    } catch (const UserError& e) {
        // Checksum-valid but structurally wrong: written by a buggy or
        // incompatible producer. Quarantine rather than serve.
        r.status = LoadStatus::kCorrupt;
        r.detail = std::string("malformed entry: ") + e.what();
        return r;
    }

    if (entry.rule_set_version != kRuleSetVersion ||
        env.rule_set_version != kRuleSetVersion) {
        r.status = LoadStatus::kMiss;  // legitimately stale, not corrupt
        r.detail = "stale rule-set version";
        return r;
    }
    if (expected_key != nullptr && !(entry.key == *expected_key)) {
        r.status = LoadStatus::kCorrupt;
        r.detail = "misfiled entry: body key " + entry.key.hex() +
                   " does not match file name";
        return r;
    }
    r.status = LoadStatus::kHit;
    r.entry = std::move(entry);
    r.payload_text = std::move(env.payload_text);
    return r;
}

/** Writes `text` through a kill-point; raises CacheIoError on failure. */
void
write_all(int fd, const fs::path& path, const std::string& text)
{
    // Split the payload so the DIOS_CACHE_KILL hook can die with a
    // half-written (torn) temp file on disk.
    const std::size_t half = text.size() / 2;
    const char* data = text.data();
    for (const auto& [off, len] :
         {std::pair<std::size_t, std::size_t>{0, half},
          {half, text.size() - half}}) {
        std::size_t done = 0;
        while (done < len) {
            const ssize_t n = ::write(fd, data + off + done, len - done);
            if (n < 0) {
                if (errno == EINTR) {
                    continue;
                }
                raise_io("short write to cache file '" + path.string() +
                         "'");
            }
            done += static_cast<std::size_t>(n);
        }
        if (off == 0) {
            kill_point();
        }
    }
}

/** Is a process with this pid definitely gone? (ESRCH ⇒ yes.) */
bool
pid_is_dead(long pid)
{
    return pid > 0 && ::kill(static_cast<pid_t>(pid), 0) != 0 &&
           errno == ESRCH;
}

/** Parses the writer pid out of "<key>.tmp.<pid>.<counter>"; 0 if none. */
long
tmp_writer_pid(const std::string& filename)
{
    const std::size_t tag = filename.find(".tmp.");
    if (tag == std::string::npos) {
        return 0;
    }
    return std::atol(filename.c_str() + tag + 5);
}

double
seconds_since_mtime(const fs::path& path)
{
    std::error_code ec;
    const auto mtime = fs::last_write_time(path, ec);
    if (ec) {
        return 0.0;
    }
    return std::chrono::duration<double>(
               fs::file_time_type::clock::now() - mtime)
        .count();
}

}  // namespace

DiskCache::DiskCache(const std::string& dir, std::uintmax_t disk_budget_bytes,
                     const IoPolicy& scan_policy)
    : dir_(dir), disk_budget_bytes_(disk_budget_bytes)
{
    std::error_code ec;
    fs::create_directories(dir_ / "shard", ec);
    DIOS_CHECK(!ec && fs::is_directory(dir_),
               "cache directory '" + dir + "' cannot be created: " +
                   (ec ? ec.message() : "path is not a directory"));
    startup_stats_ = scan_and_recover(scan_policy);
}

std::string
shard_name_for(const CacheKey& key)
{
    return key.hex().substr(0, 2);
}

fs::path
DiskCache::shard_dir_for(const CacheKey& key) const
{
    return dir_ / "shard" / shard_name_for(key);
}

fs::path
DiskCache::path_for(const CacheKey& key) const
{
    return shard_dir_for(key) / (key.hex() + ".sexpr");
}

fs::path
DiskCache::quarantine_path_for(const CacheKey& key) const
{
    return shard_dir_for(key) / "quarantine" / (key.hex() + ".sexpr");
}

LoadResult
DiskCache::load(const CacheKey& key) const
{
    DIOS_FAULT_POINT("cache.load.read");
    const std::optional<std::string> text = read_file(path_for(key));
    if (!text) {
        LoadResult r;
        r.status = LoadStatus::kMiss;
        r.detail = "no entry on disk";
        return r;
    }
    return verify_text(*text, &key);
}

int
DiskCache::store(const CachedEntry& entry, const IoPolicy& policy) const
{
    return store_envelope(entry.key, encode_entry(entry),
                          entry.rule_set_version, policy);
}

int
DiskCache::store(const CacheKey& key, std::string_view payload,
                 const IoPolicy& policy) const
{
    return store_envelope(key, payload, kRuleSetVersion, policy);
}

int
DiskCache::store_envelope(const CacheKey& key, std::string_view payload,
                          std::uint64_t rule_set_version,
                          const IoPolicy& policy) const
{
    // The counter makes concurrent *threads* unique; the pid makes
    // concurrent *processes* sharing one cache directory unique. Both
    // are needed: two dioscc processes each start their counter at 0.
    static std::atomic<unsigned> counter{0};
    const fs::path shard_dir = shard_dir_for(key);
    const fs::path final_path = path_for(key);
    const std::string text = encode_envelope(payload, rule_set_version);

    return with_retries(policy, [&] {
        {
            std::error_code ec;
            fs::create_directories(shard_dir, ec);
            if (ec) {
                throw CacheIoError("cannot create shard directory '" +
                                   shard_dir.string() +
                                   "': " + ec.message());
            }
        }
        const fs::path tmp_path =
            shard_dir / (key.hex() + ".tmp." +
                         std::to_string(static_cast<long>(::getpid())) +
                         "." +
                         std::to_string(counter.fetch_add(
                             1, std::memory_order_relaxed)));

        DIOS_FAULT_POINT("cache.store.write");
        const int fd = ::open(tmp_path.c_str(),
                              O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC,
                              0644);
        if (fd < 0) {
            raise_io("cannot create cache file '" + tmp_path.string() +
                     "'");
        }
        try {
            write_all(fd, tmp_path, text);
            DIOS_FAULT_POINT("cache.store.fsync");
            if (::fsync(fd) != 0) {
                raise_io("cannot fsync cache file '" + tmp_path.string() +
                         "'");
            }
        } catch (...) {
            ::close(fd);
            std::error_code ec;
            fs::remove(tmp_path, ec);
            throw;
        }
        ::close(fd);

        kill_point();
        try {
            DIOS_FAULT_POINT("cache.store.rename");
            std::error_code ec;
            fs::rename(tmp_path, final_path, ec);
            if (ec) {
                throw CacheIoError("cannot publish cache file '" +
                                   final_path.string() +
                                   "': " + ec.message());
            }
        } catch (...) {
            std::error_code ec;
            fs::remove(tmp_path, ec);
            throw;
        }
        // Make the publish itself durable: without this, a power cut
        // can roll the rename back even though store() returned.
        fsync_dir(shard_dir);
    });
}

void
DiskCache::quarantine(const CacheKey& key, const std::string& reason) const
{
    const fs::path src = path_for(key);
    const fs::path dst = quarantine_path_for(key);
    const fs::path shard_dir = shard_dir_for(key);
    {
        std::error_code ec;
        fs::create_directories(shard_dir, ec);
        if (ec) {
            throw CacheIoError("cannot create shard directory '" +
                               shard_dir.string() + "': " + ec.message());
        }
    }
    // Per-shard lock: quarantining one entry must not serialize against
    // maintenance of the other 255 shards.
    DirLock lock(shard_dir);
    std::error_code ec;
    fs::create_directories(dst.parent_path(), ec);
    if (ec) {
        throw CacheIoError("cannot create quarantine directory '" +
                           dst.parent_path().string() + "': " + ec.message());
    }
    if (!fs::exists(src, ec)) {
        return;  // already healed or quarantined by another process
    }
    fs::rename(src, dst, ec);
    if (ec) {
        throw CacheIoError("cannot quarantine '" + src.string() +
                           "' (" + reason + "): " + ec.message());
    }
    fsync_dir(shard_dir);
}

RecoveryStats
DiskCache::scan_and_recover(const IoPolicy& policy) const
{
    RecoveryStats stats;
    DirLock lock(dir_);  // whole-store maintenance: one scanner at a time

    struct Survivor {
        fs::path path;
        std::uintmax_t size = 0;
        fs::file_time_type mtime;
    };
    std::vector<Survivor> survivors;
    std::error_code ec;
    const fs::path shard_root = dir_ / "shard";
    fs::create_directories(shard_root, ec);

    // Scans one regular file of shard directory `owner`, whose
    // quarantine/ subdir a corrupt entry moves to.
    const auto scan_file = [&](const fs::directory_entry& de,
                               const fs::path& owner) {
        const std::string name = de.path().filename().string();
        try {
            stats.io_retries += static_cast<std::uint64_t>(
                with_retries(policy, [&] {
                    DIOS_FAULT_POINT("cache.scan");
                    if (name.find(".tmp.") != std::string::npos) {
                        // Reclaim the orphan only when its writer is
                        // provably dead or it has clearly been abandoned;
                        // a live writer's rename must not be sabotaged.
                        if (pid_is_dead(tmp_writer_pid(name)) ||
                            seconds_since_mtime(de.path()) >
                                kTmpGraceSeconds) {
                            std::error_code rec;
                            if (fs::remove(de.path(), rec)) {
                                ++stats.recovered_tmp;
                            }
                        }
                        return;
                    }
                    if (de.path().extension() != ".sexpr") {
                        return;  // the lock file, strangers
                    }
                    const std::optional<std::string> text =
                        read_file(de.path());
                    if (!text) {
                        raise_io("cannot read cache entry '" +
                                 de.path().string() + "'");
                    }
                    const LoadResult r = verify_text(*text, nullptr);
                    if (r.status == LoadStatus::kCorrupt) {
                        std::error_code rec;
                        fs::create_directories(owner / "quarantine", rec);
                        fs::rename(de.path(), owner / "quarantine" / name,
                                   rec);
                        if (!rec) {
                            ++stats.quarantined;
                            if (r.checksum_mismatch) {
                                ++stats.checksum_failures;
                            }
                        }
                        return;
                    }
                    Survivor s;
                    s.path = de.path();
                    std::error_code sec;
                    s.size = fs::file_size(s.path, sec);
                    s.mtime = fs::last_write_time(s.path, sec);
                    survivors.push_back(std::move(s));
                }));
        } catch (const std::exception&) {
            // A file that keeps failing (even after retries) is skipped:
            // the scan must never take the service down. If the entry is
            // truly rotten, the serve-time path quarantines it.
        }
    };

    // Every shard, under its own lock (scan holds root + one shard at a
    // time; quarantine takes only the shard — same order, no deadlock).
    for (const fs::directory_entry& sd :
         fs::directory_iterator(shard_root, ec)) {
        if (!sd.is_directory(ec)) {
            continue;
        }
        try {
            DirLock shard_lock(sd.path());
            std::error_code sec;
            for (const fs::directory_entry& de :
                 fs::directory_iterator(sd.path(), sec)) {
                if (!de.is_regular_file(sec)) {
                    continue;
                }
                scan_file(de, sd.path());
            }
        } catch (const std::exception&) {
            // An unlockable shard is skipped, never fatal; the next scan
            // retries it.
        }
    }

    if (disk_budget_bytes_ > 0) {
        std::uintmax_t total = 0;
        for (const Survivor& s : survivors) {
            total += s.size;
        }
        std::sort(survivors.begin(), survivors.end(),
                  [](const Survivor& a, const Survivor& b) {
                      return a.mtime < b.mtime;  // oldest first
                  });
        for (const Survivor& s : survivors) {
            if (total <= disk_budget_bytes_) {
                break;
            }
            std::error_code rec;
            if (fs::remove(s.path, rec)) {
                total -= s.size;
                ++stats.disk_evicted;
            }
        }
    }
    for (const fs::directory_entry& sd :
         fs::directory_iterator(shard_root, ec)) {
        if (!sd.is_directory(ec)) {
            continue;
        }
        std::error_code sec;
        for (const fs::directory_entry& de :
             fs::directory_iterator(sd.path(), sec)) {
            if (de.is_regular_file(sec) &&
                de.path().extension() == ".sexpr") {
                ++stats.shards_scanned;
                break;
            }
        }
    }
    if (stats.recovered_tmp + stats.quarantined + stats.disk_evicted > 0) {
        try {
            fsync_dir(dir_);
            fsync_dir(shard_root);
        } catch (const CacheIoError&) {
            // Recovery is best-effort; re-running the scan is always safe.
        }
    }
    return stats;
}

}  // namespace diospyros::service
