/**
 * @file
 * On-disk level of the compile cache: one checksummed s-expression
 * envelope per entry, named by the cache key's hex form, under a
 * caller-chosen directory.
 *
 * Sharded layout (DESIGN.md §5j): entries live under
 * `<dir>/shard/<2-hex>/`, where the two hex digits are the leading
 * nibbles of the key's spec hash. Each shard owns its entries, its torn
 * `.tmp` files, its `quarantine/` subdirectory, and its own advisory
 * `lock` file, so maintenance on one shard (quarantine, recovery)
 * never serializes against the other 255 — the property a standing
 * daemon needs when many worker threads publish concurrently. The
 * recovery scan walks every shard and accounts the disk budget across
 * all shards together. Files in the root directory itself are not
 * entries: the flat layout that predates the shards has a cache format
 * older than every current reader accepts.
 *
 * Durability model (DESIGN.md §5e):
 *  - store() is atomic AND durable: write to a temp file in the same
 *    directory (name includes the pid and a per-process counter, so
 *    concurrent *processes* sharing one cache directory never collide),
 *    flush, fsync(2) the file, rename over the final name, then fsync
 *    the directory so the publish survives a power cut. A crash at any
 *    point leaves either the old entry, the new entry, or an orphaned
 *    `.tmp` file — never a torn `.sexpr` entry.
 *  - Every entry is wrapped in a versioned envelope carrying a
 *    `format-version`, the rule-set version, and a StableHasher content
 *    checksum over the payload, so truncation and bit rot are *detected*,
 *    not served.
 *  - load() classifies outcomes instead of flattening them: a missing
 *    file or stale rule-set version is a miss; a parse failure, envelope
 *    violation, checksum mismatch, or misfiled key is kCorrupt (the
 *    caller quarantines and recompiles); injected faults and internal
 *    errors are *rethrown* so the fault harness and the service's
 *    failure policy see them — they are never mistaken for corruption.
 *  - Corrupt entries are moved to a `quarantine/` subdirectory, never
 *    silently deleted and never served; a later successful compile of
 *    the same key overwrites the main entry (self-healing).
 *  - A startup recovery scan (scan_and_recover, run by the constructor)
 *    reclaims orphaned `.tmp` files whose writer is gone, quarantines
 *    entries that fail verification, and — when a disk budget is set —
 *    evicts the oldest entries (mtime LRU) until the store fits.
 *  - the whole-store scan runs under an advisory `flock` on
 *    `<dir>/lock` and takes each shard's `lock` while inside it;
 *    quarantine takes only the affected shard's lock, so concurrent
 *    dioscc/diosd processes sharing the directory serialize their
 *    maintenance per shard; store/load need no lock (atomic rename).
 *  - Transient store/scan I/O failures (fault sites `cache.store.*`,
 *    `cache.scan`) are retried under a bounded deterministic-backoff
 *    policy (IoPolicy: CompilerOptions::io_retries + a Deadline).
 *    Load-side corruption is never retried — it is quarantined.
 *
 * The class is safe to share across threads: all post-construction state
 * is immutable, and each call touches the filesystem independently.
 */
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>

#include "service/cache_key.h"
#include "service/serialize.h"
#include "support/deadline.h"
#include "support/error.h"

namespace diospyros::service {

/**
 * A store/scan I/O step that failed and may be retried (EIO-class
 * trouble, injected `cache.*` faults). An InternalError — a failed
 * publish of an internally produced artifact is never the user's fault;
 * the service's degradation policy absorbs it and still returns the
 * compiled kernel.
 */
class CacheIoError : public InternalError {
  public:
    explicit CacheIoError(const std::string& what) : InternalError(what) {}
};

/** Bounded retry-with-deterministic-backoff policy for store/scan I/O. */
struct IoPolicy {
    /** Extra attempts after the first (0 = fail fast). */
    int retries = 2;
    /** No retry (or backoff sleep) continues past this budget. */
    Deadline deadline;
};

/** How a load() resolved. */
enum class LoadStatus {
    kHit,      ///< verified entry returned
    kMiss,     ///< no file, or a legitimately stale rule-set version
    kCorrupt,  ///< failed verification — quarantine and recompile
};

/** Outcome of one load(): status, the entry on a hit, and diagnostics. */
struct LoadResult {
    LoadStatus status = LoadStatus::kMiss;
    std::optional<CachedEntry> entry;
    /** Human-readable reason for kCorrupt / kMiss ("" on a hit). */
    std::string detail;
    /** True when the corruption was specifically a checksum mismatch. */
    bool checksum_mismatch = false;
};

/** What one recovery scan found and did (counts surfaced in metrics). */
struct RecoveryStats {
    std::uint64_t recovered_tmp = 0;      ///< orphaned .tmp files reclaimed
    std::uint64_t quarantined = 0;        ///< entries moved to quarantine/
    std::uint64_t checksum_failures = 0;  ///< quarantines due to checksums
    std::uint64_t disk_evicted = 0;       ///< entries evicted for the budget
    std::uint64_t io_retries = 0;         ///< transient errors retried
    /** Shard directories that held at least one entry after the scan. */
    std::uint64_t shards_scanned = 0;
};

class DiskCache {
  public:
    /**
     * Opens (creating if needed) the cache directory, then runs the
     * recovery scan (see scan_and_recover). `disk_budget_bytes` of 0
     * disables eviction. Raises UserError when the path exists but is
     * not a directory or cannot be created.
     */
    explicit DiskCache(const std::string& dir,
                       std::uintmax_t disk_budget_bytes = 0,
                       const IoPolicy& scan_policy = {});

    /**
     * Loads and verifies the entry for `key`. Never retries: transient
     * read faults (InjectedFault) and internal errors propagate to the
     * caller; verification failures come back as kCorrupt. See the file
     * header for the full classification.
     */
    LoadResult load(const CacheKey& key) const;

    /**
     * Persists `entry` durably (see file header). Transient failures are
     * retried per `policy`; when retries are exhausted the last
     * CacheIoError (an InternalError) propagates. Returns the number of
     * transient failures that were retried.
     */
    int store(const CachedEntry& entry, const IoPolicy& policy = {}) const;

    /**
     * Moves the entry for `key` into `quarantine/` (under flock). The
     * quarantined copy keeps its file name; a prior quarantined copy of
     * the same key is replaced. No-op if the entry vanished meanwhile.
     */
    void quarantine(const CacheKey& key, const std::string& reason) const;

    /**
     * Recovery scan over the whole directory (under flock): reclaims
     * orphaned `.tmp` files whose writing process is dead (or that are
     * older than a grace period), quarantines entries failing
     * verification, and evicts oldest-mtime entries past the disk
     * budget. Per-file transient errors are retried per `policy`; a
     * file that keeps failing is skipped, never fatal.
     */
    RecoveryStats scan_and_recover(const IoPolicy& policy = {}) const;

    /** Counts from the scan the constructor ran. */
    const RecoveryStats& startup_stats() const { return startup_stats_; }

    /** Filesystem path an entry for `key` would live at. */
    std::filesystem::path path_for(const CacheKey& key) const;

    /** Shard directory (`<dir>/shard/<2-hex>/`) owning `key`. */
    std::filesystem::path shard_dir_for(const CacheKey& key) const;

    /** Quarantine path the entry for `key` would be moved to. */
    std::filesystem::path quarantine_path_for(const CacheKey& key) const;

    const std::filesystem::path& dir() const { return dir_; }

  private:
    std::filesystem::path dir_;
    std::uintmax_t disk_budget_bytes_ = 0;
    RecoveryStats startup_stats_;
};

/** Two-hex-digit shard name for a key (leading spec-hash nibbles). */
std::string shard_name_for(const CacheKey& key);

}  // namespace diospyros::service
