/**
 * @file
 * Concurrent compile service: a fixed worker pool behind a bounded job
 * queue, fronted by a two-level content-addressed cache.
 *
 * Request flow for submit(kernel, options):
 *
 *   1. key = (canonical spec hash, relevant-options hash)
 *      (service/cache_key.h — wall-clock budgets excluded).
 *   2. Memory cache (LRU of shared CompileResults, each beside its
 *      encoded entry text) — hit returns a ready ticket without
 *      touching the queue.
 *   3. In-flight map — an identical key already queued or compiling
 *      *coalesces*: N concurrent requests share one saturation, and the
 *      other N-1 tickets resolve from the same future.
 *   4. Failure memory — a TTL'd, capped, rule-set-versioned *negative*
 *      cache of deterministic failures, plus a per-key circuit breaker.
 *      A known-failing kernel short-circuits with its remembered error;
 *      a key that keeps failing trips the breaker and is rejected until
 *      a backoff elapses, after which exactly one probe compile is
 *      admitted (half-open).
 *   5. Admission control — requests carry a priority class
 *      (interactive/batch/background). Past the shed watermark, only
 *      interactive requests are still admitted; at hard capacity a
 *      timed submit (submit_for) sheds instead of blocking. Shed
 *      requests resolve immediately with a structured Overloaded
 *      result carrying retry_after_ms.
 *   6. Otherwise the job enters the bounded priority queue (a plain
 *      submit() still blocks while the queue is full — backpressure,
 *      not unbounded memory). A worker dequeues interactive first,
 *      drops jobs whose request deadline already expired (counted, not
 *      compiled), then consults the optional disk cache; only a disk
 *      miss runs compile_kernel_resilient().
 *
 * Overload model (DESIGN.md §5g): admission → shed → breaker → drain.
 * Every rejection is *structured* (an Overloaded result with a
 * retry-after hint), every degradation is counted, and drain() lets a
 * standing service stop admission and finish or shed queued work
 * without racing in-flight durable-cache publishes.
 *
 * Caching policy:
 *  - Only successful results are cached (including degraded ones —
 *    their fallback_level rides along in the report). Failures are
 *    returned but never stored.
 *  - A cached entry whose saturation was cut short by a wall-clock limit
 *    (StopReason::kTimeLimit / kDeadline) is only served to requests
 *    whose budget is *no larger* than the one it was produced under;
 *    a larger budget might do better, so the service recompiles.
 *  - Fault-armed requests (options.fault_specs non-empty, or a fault
 *    armed globally) bypass both cache levels *and* coalescing: injected
 *    faults are process-global hit counters, and sharing results across
 *    them would change what the fault tests observe.
 *  - Self-healing (DESIGN.md §5e): a disk entry that fails verification
 *    (torn, bit-rotted, misfiled) is quarantined — never served, never
 *    silently deleted — and the request falls through to a fresh
 *    compile whose re-verified result overwrites the key. One flipped
 *    bit costs one recompile, not an outage. Transient load I/O errors
 *    are likewise treated as misses (counted in `load_errors`); store
 *    failures are retried per CompilerOptions::io_retries and, when
 *    exhausted, absorbed (the caller still gets the compiled kernel).
 *
 * Determinism: a compile job runs single-threaded inside one worker, and
 * every stage of the pipeline is deterministic for a given (kernel,
 * options); the cache serves byte-identical artifacts. Hence jobs=1 and
 * jobs=N produce identical outputs, and a warm run is identical to the
 * cold run that filled the cache.
 */
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "compiler/driver.h"
#include "service/cache_key.h"
#include "service/disk_cache.h"
#include "support/lru.h"

namespace diospyros::service {

/**
 * Priority class of a submit. Workers drain strictly by class
 * (interactive before batch before background), and load shedding past
 * the watermark spares only interactive requests.
 */
enum class Priority {
    kInteractive = 0,
    kBatch = 1,
    kBackground = 2,
};

inline constexpr int kPriorityCount = 3;

/** Failing keys the failure memory remembers; least-recently-used go. */
inline constexpr std::size_t kNegativeCacheCapacity = 256;

/** Debug/CLI spelling ("interactive", "batch", "background"). */
const char* priority_name(Priority p);

/** Parses a priority name; raises UserError on anything else. */
Priority parse_priority(const std::string& text);

/** How a submit() was satisfied. */
enum class CacheOutcome {
    kMiss,         ///< compiled from scratch by a worker
    kMemoryHit,    ///< served from the in-memory LRU
    kDiskHit,      ///< reconstructed from the on-disk store
    kCoalesced,    ///< joined an identical in-flight compile
    kBypass,       ///< fault-armed request: cache and coalescing skipped
    kNegativeHit,  ///< served a remembered deterministic failure
    kBreakerOpen,  ///< rejected by an open per-key circuit breaker
    kShed,         ///< rejected by admission control (overload / drain)
    kExpired,      ///< request deadline passed before a worker ran it
};

/** Report spelling per the CLI contract: both hit kinds map to "hit". */
const char* cache_outcome_json_name(CacheOutcome outcome);

/**
 * Per-request admission knobs. The defaults reproduce the historical
 * submit() behavior exactly: batch priority, block indefinitely when
 * the queue is full, no request deadline.
 */
struct SubmitOptions {
    Priority priority = Priority::kBatch;
    /**
     * How long submit may wait for queue space: < 0 blocks indefinitely
     * (legacy backpressure), 0 sheds immediately when the queue is at
     * capacity, > 0 waits at most this long before shedding.
     */
    double submit_timeout_seconds = -1.0;
    /**
     * End-to-end budget for the *request*, ticking from admission: a
     * queued job whose deadline expires before a worker picks it up is
     * dropped at dequeue (counted in expired_in_queue, never compiled),
     * and the remaining budget is threaded into the compile's Deadline
     * (CompilerOptions::absolute_deadline). 0 disables. Coalescing onto
     * an in-flight job *extends* that job's drop-deadline to the
     * latest waiter's, so joining a request can never cancel it out
     * from under a more patient waiter.
     */
    double request_deadline_seconds = 0.0;
};

/** What drain() does with jobs still queued when it is called. */
enum class DrainMode {
    kFinish,  ///< complete every queued job, then return
    kShed,    ///< resolve queued jobs as Overloaded, wait only for
              ///< the jobs already executing
};

/** What one drain() call did. */
struct DrainStats {
    std::uint64_t finished = 0;  ///< queued jobs completed normally
    std::uint64_t shed = 0;      ///< queued jobs resolved as Overloaded
};

/** Counters and aggregates; snapshot via CompileService::metrics(). */
struct ServiceMetrics {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t memory_hits = 0;
    std::uint64_t disk_hits = 0;
    std::uint64_t misses = 0;      ///< jobs that ran the compiler
    std::uint64_t coalesced = 0;   ///< submits that joined an in-flight job
    std::uint64_t bypasses = 0;    ///< fault-armed submits
    std::uint64_t evictions = 0;   ///< LRU entries displaced
    std::uint64_t disk_writes = 0;
    std::uint64_t failures = 0;    ///< compiles with !ok
    std::uint64_t user_errors = 0; ///< failures that were the caller's fault
    /** Compiled programs the VIR verifier rejected at the cache gate. */
    std::uint64_t verifier_rejects = 0;
    /** Compiled programs the machine verifier rejected at the cache gate. */
    std::uint64_t machine_verifier_rejects = 0;
    /**
     * Executed compiles whose requested validation (term-level or
     * machine-level) came back kUnknown — served and cached, but worth
     * watching: they are the gap between "proved" and "not disproved".
     */
    std::uint64_t validation_unknown = 0;
    // Durability counters (DESIGN.md §5e). The scan-time portion comes
    // from the recovery scan the disk cache runs at startup; the
    // serve-time portion accumulates as corrupt entries are caught.
    std::uint64_t quarantined = 0;        ///< entries moved to quarantine/
    std::uint64_t recovered_tmp = 0;      ///< orphaned .tmp files reclaimed
    std::uint64_t checksum_failures = 0;  ///< checksum mismatches detected
    std::uint64_t disk_evicted = 0;       ///< evicted for the disk budget
    std::uint64_t io_retries = 0;         ///< transient I/O errors retried
    std::uint64_t store_failures = 0;     ///< stores failed after retries
    std::uint64_t load_errors = 0;        ///< loads aborted by I/O errors
    // Overload counters (DESIGN.md §5g). Shed requests resolve with a
    // structured Overloaded result; nothing here ever blocks a caller.
    std::uint64_t shed_overload = 0;   ///< watermark rejections
    std::uint64_t shed_timeout = 0;    ///< timed admissions that gave up
    std::uint64_t shed_draining = 0;   ///< submits after drain() began
    std::uint64_t expired_in_queue = 0;  ///< dropped at dequeue, expired
    std::uint64_t negative_hits = 0;     ///< failures served from memory
    std::uint64_t negative_insertions = 0;
    std::uint64_t negative_evictions = 0;    ///< capacity displacements
    std::uint64_t negative_invalidated = 0;  ///< rule-set-version purges
    std::uint64_t breaker_trips = 0;         ///< open events (incl. re-opens)
    std::uint64_t breaker_open_rejects = 0;  ///< short-circuited submits
    std::uint64_t breaker_probes = 0;        ///< half-open probe compiles
    std::uint64_t breaker_closes = 0;        ///< probes that healed the key
    std::uint64_t drain_finished = 0;  ///< queued jobs drain() completed
    std::uint64_t drain_shed = 0;      ///< queued jobs drain() shed
    std::uint64_t queue_depth = 0; ///< jobs waiting right now
    std::uint64_t peak_queue_depth = 0;
    /** Total admission-to-dequeue wait over all dequeued jobs. */
    double queue_wait_seconds = 0.0;
    /** Aggregated per-phase wall time over all *executed* compiles. */
    double lift_seconds = 0.0;
    double saturation_seconds = 0.0;
    double extract_seconds = 0.0;
    double backend_seconds = 0.0;
    double total_seconds = 0.0;
    /** Aggregated e-matching totals (summed over every rule of every
     *  executed compile's saturation run). */
    std::uint64_t ematch_matches = 0;
    std::uint64_t ematch_applications = 0;
    double ematch_search_seconds = 0.0;
    double ematch_apply_seconds = 0.0;
    // Daemon / remote counters (DESIGN.md §5j). Filled by diosd and the
    // dioscc --remote client so health checks read one document; zero
    // for a purely in-process service.
    std::uint64_t remote_requests = 0;  ///< requests arriving over a socket
    std::uint64_t remote_retries = 0;   ///< client resends (backoff/hints)
    /** Remote-mode requests completed by local fallback compilation. */
    std::uint64_t remote_fallback_local = 0;
    std::uint64_t frames_rejected = 0;  ///< malformed/hostile frames dropped
    std::uint64_t dedup_hits = 0;  ///< retried frames served from dedup cache
    /** Seconds since the serving process started (0 when not a daemon). */
    double uptime_seconds = 0.0;

    /** One JSON object with every field above. */
    std::string to_json() const;
};

/** Shared, immutable view of a finished compile. */
using ResultPtr = std::shared_ptr<const CompileResult>;

/**
 * A result's encoded cache entry (serialize.h's encode_entry), shared by
 * every request the result serves. Encoded once per artifact: by the
 * miss that compiled it, or kept from the disk payload a hit loaded.
 */
using EntryText = std::shared_ptr<const std::string>;

/** What a ticket resolves to. */
struct Resolution {
    ResultPtr result;
    /** Engaged iff result->ok: the bytes diosd sends for it. */
    EntryText entry_text;
};

/**
 * Handle for one submitted compile. `future` is shared: coalesced
 * requests hold the same underlying state. outcome() is final once the
 * future is ready (scheduled jobs refine kMiss -> kDiskHit when the
 * worker finds the entry on disk).
 */
class Ticket {
  public:
    std::shared_future<Resolution> future;

    CacheOutcome
    outcome() const
    {
        return state_->outcome.load(std::memory_order_acquire);
    }

    /**
     * Retry hint for shed / breaker-open rejections, in milliseconds
     * (0 for accepted requests). Derived from the current backlog and a
     * moving average of recent compile times, so clients back off
     * proportionally to how overloaded the service actually is.
     */
    std::uint64_t
    retry_after_ms() const
    {
        return state_->retry_after_ms.load(std::memory_order_acquire);
    }

    /** Admission-to-dequeue wait (0 for hits and rejections). */
    double
    queue_wait_seconds() const
    {
        return static_cast<double>(state_->queue_wait_us.load(
                   std::memory_order_acquire)) /
               1e6;
    }

    /** Blocks until done and returns the result. */
    const CompileResult& get() const { return *future.get().result; }

  private:
    friend class CompileService;
    struct State {
        std::atomic<CacheOutcome> outcome{CacheOutcome::kMiss};
        std::atomic<std::uint64_t> retry_after_ms{0};
        std::atomic<std::uint64_t> queue_wait_us{0};
    };
    std::shared_ptr<State> state_;
};

class CompileService {
  public:
    struct Options {
        /** Worker threads (clamped to >= 1). */
        int jobs = 1;
        /** Bounded queue: submit() blocks past this many waiting jobs. */
        std::size_t queue_capacity = 64;
        /** In-memory LRU capacity in entries (0 disables that level). */
        std::size_t memory_cache_capacity = 128;
        /** On-disk store directory ("" disables that level). */
        std::string cache_dir;
        /**
         * On-disk size budget in bytes (0 = unlimited). Enforced by the
         * recovery scan at startup: oldest-mtime entries are evicted
         * until the store fits, so long-running services sharing a
         * cache directory cannot fill the disk.
         */
        std::uintmax_t disk_budget_bytes = 0;
        /**
         * Load-shedding high-water mark: once this many jobs are
         * queued, batch and background submits are rejected immediately
         * with an Overloaded result (interactive ones are admitted up
         * to the hard queue_capacity). 0 means "no early shedding" —
         * only the hard capacity matters (the legacy behavior).
         */
        std::size_t shed_watermark = 0;
        /**
         * Negative-result cache TTL: a deterministic failure (user
         * error, or a resource blow-up under a no-larger budget) is
         * served from memory for this long before the service tries
         * compiling the key again. 0 disables the failure memory
         * entirely (and with it the circuit breaker).
         */
        double negative_ttl_seconds = 300.0;
        /**
         * Per-key circuit breaker: this many *consecutive* failures trip
         * it open. While open, submits for the key are rejected with
         * retry_after_ms; after the backoff the breaker half-opens and
         * admits exactly one probe compile. A successful probe closes
         * the breaker (and erases the negative entry); a failed one
         * re-opens it with the backoff doubled. 0 disables the breaker.
         */
        int breaker_threshold = 3;
        /** First open window; doubles per re-open, capped at 60 s. */
        double breaker_backoff_seconds = 1.0;
        /**
         * Test-only mutation point: runs on a freshly compiled kernel
         * *before* the service's VIR verifier gate and cache insertion.
         * Lets tests corrupt a program in flight and observe that the
         * gate keeps it out of both cache levels (verifier_rejects). A
         * hook that *throws* converts the compile into a failure
         * classified by the exception type (UserError -> kUser,
         * otherwise kInternal), which is how tests drive the negative
         * cache and circuit breaker through transient failures.
         */
        std::function<void(CompiledKernel&)> post_compile_hook;
    };

    CompileService() : CompileService(Options()) {}
    explicit CompileService(Options options);

    /** Drains the queue, waits for in-flight jobs, joins all workers. */
    ~CompileService();

    CompileService(const CompileService&) = delete;
    CompileService& operator=(const CompileService&) = delete;

    /**
     * Submits one compile (see file header for the full flow) with the
     * default SubmitOptions: batch priority, blocking admission, no
     * request deadline. Raises UserError if called after shutdown
     * began; resolves with an Overloaded result if called after
     * drain() began.
     */
    Ticket submit(const scalar::Kernel& kernel, CompilerOptions options);

    /** Submits with explicit admission-control knobs. */
    Ticket submit(const scalar::Kernel& kernel, CompilerOptions options,
                  const SubmitOptions& sopts);

    /**
     * Timed admission: wait at most `submit_timeout_seconds` for queue
     * space, then shed with a structured Overloaded result instead of
     * blocking. Sugar over submit(kernel, options, SubmitOptions{...}).
     */
    Ticket submit_for(const scalar::Kernel& kernel, CompilerOptions options,
                      Priority priority, double submit_timeout_seconds,
                      double request_deadline_seconds = 0.0);

    /**
     * Graceful drain: stops admission (later submits resolve as
     * Overloaded, counted in shed_draining), disposes of queued work
     * per `mode`, and blocks until no job is queued or executing — by
     * which point every in-flight durable-cache publish has completed,
     * so tearing the process down afterwards cannot orphan a store.
     * Idempotent; concurrent calls all block until the queue empties.
     */
    DrainStats drain(DrainMode mode = DrainMode::kFinish);

    /** True once drain() has been called. */
    bool draining() const;

    /**
     * Declares that artifacts (and failures) recorded under earlier
     * rule-set versions are stale: every negative entry recorded under
     * a different version is invalidated lazily on its next lookup.
     * The hook a rule hot-reload would call; tests use it to prove
     * version bumps un-poison the failure memory.
     */
    void advance_rule_set_version(std::uint64_t version);

    /** Blocks until no job is queued or executing. */
    void wait_idle();

    /** Consistent snapshot of the counters. */
    ServiceMetrics metrics() const;

    const Options& options() const { return options_; }

  private:
    using Clock = std::chrono::steady_clock;

    struct Job {
        CacheKey key;
        scalar::Kernel kernel;
        CompilerOptions options;
        Priority priority = Priority::kBatch;
        bool bypass = false;
        /** True when this job holds the inflight_ registration for key. */
        bool owns_inflight = false;
        /** True when this job is the circuit breaker's half-open probe. */
        bool is_probe = false;
        Clock::time_point admitted_at{};
        /**
         * Drop-at-dequeue deadline (unlimited when the request carried
         * none). Extended to the latest coalesced waiter's deadline, so
         * waiters can never be cancelled by the owner's shorter budget.
         */
        Deadline request_deadline;
        std::promise<Resolution> promise;
        std::shared_future<Resolution> future;
        std::shared_ptr<Ticket::State> state;
    };

    /**
     * One failure-memory entry: the remembered failure, the budgets it
     * ran under (a kResource failure only short-circuits requests whose
     * budgets are no larger), and the circuit-breaker bookkeeping.
     */
    struct NegEntry {
        std::string error;
        bool user_error = false;
        FailureClass failure_class = FailureClass::kInternal;
        std::uint64_t rule_set_version = 0;
        double time_limit_seconds = 0.0;
        double deadline_seconds = 0.0;
        /** Negative serving stops here; failure *history* persists. */
        Clock::time_point neg_expiry{};
        int consecutive_failures = 0;
        bool breaker_open = false;
        Clock::time_point open_until{};
        /** Half-open: the single admitted probe has not resolved yet. */
        bool probe_inflight = false;
        /** Backoff the *next* re-open will use (doubles, capped). */
        double next_backoff_seconds = 0.0;
    };

    /**
     * One memory-cache entry: the result, its entry text, and the
     * budgets it ran under.
     */
    struct MemEntry {
        ResultPtr result;
        EntryText text;
        double time_limit_seconds = 0.0;
        double deadline_seconds = 0.0;
    };

    void worker_loop();
    void process(const std::shared_ptr<Job>& job);
    /**
     * Finishes a job: encodes a successful result's entry text unless a
     * disk hit brings it (`text`), caches (unless
     * bypass/failed/verifier-rejected), updates the failure memory,
     * resolves waiters. `verifier_ok == false` means the post-compile
     * VIR verifier gate rejected the program, `machine_verifier_ok ==
     * false` that the structural machine verifier did: either way the
     * result is still delivered to the caller, but never enters either
     * cache level.
     */
    void finish(const std::shared_ptr<Job>& job, ResultPtr result,
                EntryText text, bool executed, bool verifier_ok = true,
                bool machine_verifier_ok = true);

    /** Jobs queued across all priority classes; must hold mu_. */
    std::size_t queued_total() const;
    /** Retry-after hint from backlog x recent compile EWMA; holds mu_. */
    std::uint64_t estimate_retry_after_ms() const;
    /**
     * Resolves `job` without compiling it (shed / breaker-open /
     * draining / expired): sets the outcome and retry hint, synthesizes
     * the structured failure result, releases any inflight or probe
     * registration. Must hold mu_.
     */
    void reject(const std::shared_ptr<Job>& job, CacheOutcome outcome,
                FailureClass failure_class, std::uint64_t retry_after_ms,
                const std::string& detail);
    /** Failure-memory bookkeeping after an executed compile; holds mu_. */
    void record_outcome(const std::shared_ptr<Job>& job,
                        const CompileResult& result);

    Options options_;
    std::optional<DiskCache> disk_;

    mutable std::mutex mu_;
    std::condition_variable cv_not_empty_;
    std::condition_variable cv_not_full_;
    std::condition_variable cv_idle_;
    bool stopping_ = false;
    bool draining_ = false;
    /** One FIFO per priority class; workers drain lowest index first. */
    std::array<std::deque<std::shared_ptr<Job>>, kPriorityCount> queues_;
    std::size_t executing_ = 0;
    /** Failure memory (negative cache + per-key circuit breakers). */
    Lru<CacheKey, NegEntry, CacheKeyHash> negative_{kNegativeCacheCapacity};
    /** Version negative entries must match to serve (see advance_...). */
    std::uint64_t neg_rule_set_version_ = kRuleSetVersion;
    /** EWMA of executed-compile wall seconds, for retry-after hints. */
    double ewma_compile_seconds_ = 0.05;
    std::unordered_map<CacheKey, std::shared_ptr<Job>, CacheKeyHash>
        inflight_;
    /** Memory cache (options_.memory_cache_capacity entries). */
    Lru<CacheKey, MemEntry, CacheKeyHash> memory_;
    ServiceMetrics metrics_;

    std::vector<std::thread> workers_;
};

}  // namespace diospyros::service
