#include "service/compile_service.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "analysis/verify_machine.h"
#include "analysis/verify_vir.h"
#include "compiler/option_fields.h"
#include "service/serialize.h"
#include "support/error.h"
#include "support/faults.h"
#include "support/json.h"
#include "support/sexpr.h"

namespace diospyros::service {

namespace {

/** Ceiling on the circuit breaker's doubling open window. */
constexpr double kBreakerBackoffCapSeconds = 60.0;

/** A budget of <= 0 means "disabled", i.e. unlimited. */
double
effective_budget(double seconds)
{
    return seconds <= 0.0 ? std::numeric_limits<double>::infinity() : seconds;
}

bool
time_bound(StopReason r)
{
    return r == StopReason::kTimeLimit || r == StopReason::kDeadline;
}

/** True when `req`'s wall-clock budgets are no larger than the given ones. */
bool
budget_within(const CompilerOptions& req, double time_limit_seconds,
              double deadline_seconds)
{
    return effective_budget(req.limits.time_limit_seconds) <=
               effective_budget(time_limit_seconds) &&
           effective_budget(req.deadline_seconds) <=
               effective_budget(deadline_seconds);
}

/**
 * May this disk entry serve `req`? Successful (non-time-bound) entries
 * always may — that is what makes the key's timeout exclusion sound. A
 * kTimeLimit entry only serves requests with no larger saturation
 * budget; a kDeadline entry never does (the deadline it ran under is
 * not persisted, so assume the request's could be larger).
 */
bool
disk_entry_servable(const CachedEntry& entry, const CompilerOptions& req)
{
    if (!time_bound(entry.report.stop_reason)) {
        return true;
    }
    if (entry.report.stop_reason == StopReason::kDeadline) {
        return false;
    }
    return effective_budget(req.limits.time_limit_seconds) <=
           effective_budget(entry.time_limit_seconds);
}

/** Whole wall-clock spent by an executed compile, success or not. */
double
compile_seconds(const CompileResult& result)
{
    if (result.ok) {
        return result.report().total_seconds;
    }
    double total = 0.0;
    for (const AttemptDiagnostic& a : result.attempts) {
        total += a.seconds;
    }
    return total;
}

}  // namespace

const char*
priority_name(Priority p)
{
    switch (p) {
      case Priority::kInteractive:
        return "interactive";
      case Priority::kBatch:
        return "batch";
      case Priority::kBackground:
        return "background";
    }
    return "unknown";
}

Priority
parse_priority(const std::string& text)
{
    return enum_from_name(text, kPriorityCount, priority_name,
                          "unknown priority");
}

const char*
cache_outcome_json_name(CacheOutcome outcome)
{
    switch (outcome) {
      case CacheOutcome::kMemoryHit:
      case CacheOutcome::kDiskHit:
        return "hit";
      case CacheOutcome::kCoalesced:
        return "coalesced";
      case CacheOutcome::kBypass:
        return "bypass";
      case CacheOutcome::kNegativeHit:
        return "negative-hit";
      case CacheOutcome::kBreakerOpen:
        return "breaker-open";
      case CacheOutcome::kShed:
        return "shed";
      case CacheOutcome::kExpired:
        return "expired";
      default:
        return "miss";
    }
}

std::string
ServiceMetrics::to_json() const
{
    JsonWriter w;
    w.open('{')
        .field("submitted", submitted)
        .field("completed", completed)
        .field("memory_hits", memory_hits)
        .field("disk_hits", disk_hits)
        .field("misses", misses)
        .field("coalesced", coalesced)
        .field("bypasses", bypasses)
        .field("evictions", evictions)
        .field("disk_writes", disk_writes)
        .field("failures", failures)
        .field("user_errors", user_errors)
        .field("verifier_rejects", verifier_rejects)
        .field("machine_verifier_rejects", machine_verifier_rejects)
        .field("validation_unknown", validation_unknown)
        .field("quarantined", quarantined)
        .field("recovered_tmp", recovered_tmp)
        .field("checksum_failures", checksum_failures)
        .field("disk_evicted", disk_evicted)
        .field("io_retries", io_retries)
        .field("store_failures", store_failures)
        .field("load_errors", load_errors)
        .field("shed_overload", shed_overload)
        .field("shed_timeout", shed_timeout)
        .field("shed_draining", shed_draining)
        .field("expired_in_queue", expired_in_queue)
        .field("negative_hits", negative_hits)
        .field("negative_insertions", negative_insertions)
        .field("negative_evictions", negative_evictions)
        .field("negative_invalidated", negative_invalidated)
        .field("breaker_trips", breaker_trips)
        .field("breaker_open_rejects", breaker_open_rejects)
        .field("breaker_probes", breaker_probes)
        .field("breaker_closes", breaker_closes)
        .field("drain_finished", drain_finished)
        .field("drain_shed", drain_shed)
        .field("queue_depth", queue_depth)
        .field("peak_queue_depth", peak_queue_depth)
        .field("queue_wait_seconds", queue_wait_seconds)
        .field("ematch_matches", ematch_matches)
        .field("ematch_applications", ematch_applications)
        .field("ematch_search_seconds", ematch_search_seconds)
        .field("ematch_apply_seconds", ematch_apply_seconds)
        .field("remote_requests", remote_requests)
        .field("remote_retries", remote_retries)
        .field("remote_fallback_local", remote_fallback_local)
        .field("frames_rejected", frames_rejected)
        .field("dedup_hits", dedup_hits)
        .field("uptime_seconds", uptime_seconds)
        .field("lift_seconds", lift_seconds)
        .field("saturation_seconds", saturation_seconds)
        .field("extract_seconds", extract_seconds)
        .field("backend_seconds", backend_seconds)
        .field("total_seconds", total_seconds);
    return w.close('}').str();
}

CompileService::CompileService(Options options)
    : options_(options), memory_(options_.memory_cache_capacity)
{
    if (options_.jobs < 1) {
        options_.jobs = 1;
    }
    if (options_.queue_capacity < 1) {
        options_.queue_capacity = 1;
    }
    if (options_.shed_watermark > options_.queue_capacity) {
        options_.shed_watermark = options_.queue_capacity;
    }
    if (!options_.cache_dir.empty()) {
        disk_.emplace(options_.cache_dir, options_.disk_budget_bytes);
        const RecoveryStats& scan = disk_->startup_stats();
        metrics_.quarantined += scan.quarantined;
        metrics_.recovered_tmp += scan.recovered_tmp;
        metrics_.checksum_failures += scan.checksum_failures;
        metrics_.disk_evicted += scan.disk_evicted;
        metrics_.io_retries += scan.io_retries;
    }
    workers_.reserve(static_cast<std::size_t>(options_.jobs));
    for (int i = 0; i < options_.jobs; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

CompileService::~CompileService()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    cv_not_empty_.notify_all();
    cv_not_full_.notify_all();
    for (std::thread& t : workers_) {
        t.join();
    }
}

std::size_t
CompileService::queued_total() const
{
    std::size_t total = 0;
    for (const auto& q : queues_) {
        total += q.size();
    }
    return total;
}

std::uint64_t
CompileService::estimate_retry_after_ms() const
{
    const double backlog =
        static_cast<double>(queued_total() + executing_ + 1);
    const double per_job = std::max(ewma_compile_seconds_, 0.001);
    const double ms =
        per_job * 1000.0 * backlog / static_cast<double>(options_.jobs);
    return static_cast<std::uint64_t>(std::clamp(ms, 25.0, 30'000.0));
}

void
CompileService::reject(const std::shared_ptr<Job>& job, CacheOutcome outcome,
                       FailureClass failure_class,
                       std::uint64_t retry_after_ms,
                       const std::string& detail)
{
    ++metrics_.completed;
    if (job->owns_inflight) {
        inflight_.erase(job->key);
        job->owns_inflight = false;
    }
    if (job->is_probe) {
        if (NegEntry* entry = negative_.find(job->key)) {
            entry->probe_inflight = false;
        }
        job->is_probe = false;
    }
    job->state->retry_after_ms.store(retry_after_ms,
                                     std::memory_order_release);
    job->state->outcome.store(outcome, std::memory_order_release);
    auto result = std::make_shared<CompileResult>();
    result->ok = false;
    result->user_error = failure_class == FailureClass::kUser;
    result->failure_class = failure_class;
    result->error = detail;
    job->promise.set_value(std::move(result));
}

Ticket
CompileService::submit(const scalar::Kernel& kernel, CompilerOptions options)
{
    return submit(kernel, std::move(options), SubmitOptions{});
}

Ticket
CompileService::submit_for(const scalar::Kernel& kernel,
                           CompilerOptions options, Priority priority,
                           double submit_timeout_seconds,
                           double request_deadline_seconds)
{
    SubmitOptions sopts;
    sopts.priority = priority;
    sopts.submit_timeout_seconds = submit_timeout_seconds;
    sopts.request_deadline_seconds = request_deadline_seconds;
    return submit(kernel, std::move(options), sopts);
}

Ticket
CompileService::submit(const scalar::Kernel& kernel, CompilerOptions options,
                       const SubmitOptions& sopts)
{
    options.sync();
    const bool bypass = !options.fault_specs.empty() || faults::any_armed();

    auto job = std::make_shared<Job>();
    job->key = compute_cache_key(kernel, options);
    job->kernel = kernel;
    job->options = std::move(options);
    job->priority = sopts.priority;
    job->bypass = bypass;
    job->admitted_at = Clock::now();
    job->request_deadline =
        sopts.request_deadline_seconds > 0.0
            ? Deadline::after_seconds(sopts.request_deadline_seconds)
            : Deadline::unlimited();
    job->future = job->promise.get_future().share();
    job->state = std::make_shared<Ticket::State>();
    job->state->outcome.store(bypass ? CacheOutcome::kBypass
                                     : CacheOutcome::kMiss,
                              std::memory_order_release);

    Ticket ticket;
    ticket.state_ = job->state;
    ticket.future = job->future;

    std::unique_lock<std::mutex> lock(mu_);
    DIOS_CHECK(!stopping_, "submit() after CompileService shutdown");
    ++metrics_.submitted;

    // Out-of-range options (a zero timeout, say) fail the one request
    // before any cache lookup. Never inside the compile: the kUser
    // failure would be remembered under a key that excludes the budgets
    // and poison valid requests.
    try {
        check_options(job->options);
    } catch (const UserError& e) {
        ++metrics_.failures;
        ++metrics_.user_errors;
        reject(job, CacheOutcome::kMiss, FailureClass::kUser, 0, e.what());
        return ticket;
    }

    if (draining_) {
        ++metrics_.shed_draining;
        reject(job, CacheOutcome::kShed, FailureClass::kOverloaded,
               estimate_retry_after_ms(),
               "service draining: admission closed");
        return ticket;
    }

    if (bypass) {
        ++metrics_.bypasses;
    } else {
        // A time-bound entry serves only requests whose budget is no
        // larger; a larger budget might do better, so it recompiles.
        const MemEntry* hit = memory_.find(job->key);
        if (hit != nullptr &&
            (!time_bound(hit->result->report().stop_reason) ||
             budget_within(job->options, hit->time_limit_seconds,
                           hit->deadline_seconds))) {
            ++metrics_.memory_hits;
            ++metrics_.completed;
            job->state->outcome.store(CacheOutcome::kMemoryHit,
                                      std::memory_order_release);
            job->promise.set_value(hit->result);
            return ticket;
        }

        // Failure memory: a remembered deterministic failure
        // short-circuits; a tripped breaker rejects until its backoff
        // elapses and then admits exactly one half-open probe. Checked
        // before coalescing so waiters can never pile onto a probe.
        if (options_.negative_ttl_seconds > 0.0) {
            NegEntry* found = negative_.find(job->key);
            if (found != nullptr &&
                found->rule_set_version != neg_rule_set_version_) {
                negative_.erase(job->key);
                ++metrics_.negative_invalidated;
                found = nullptr;
            }
            if (found != nullptr) {
                NegEntry& entry = *found;
                const Clock::time_point now = Clock::now();
                if (entry.breaker_open) {
                    if (now < entry.open_until || entry.probe_inflight) {
                        const double remaining =
                            entry.probe_inflight
                                ? 0.0
                                : std::chrono::duration<double>(
                                      entry.open_until - now)
                                      .count();
                        const std::uint64_t retry_ms = std::max<
                            std::uint64_t>(
                            static_cast<std::uint64_t>(remaining * 1000.0),
                            estimate_retry_after_ms());
                        ++metrics_.breaker_open_rejects;
                        reject(job, CacheOutcome::kBreakerOpen,
                               FailureClass::kOverloaded, retry_ms,
                               "circuit breaker open after " +
                                   std::to_string(
                                       entry.consecutive_failures) +
                                   " consecutive failures: " + entry.error);
                        return ticket;
                    }
                    // Half-open: this request becomes the single probe.
                    entry.probe_inflight = true;
                    job->is_probe = true;
                    ++metrics_.breaker_probes;
                } else if (now < entry.neg_expiry &&
                           (entry.failure_class !=
                                FailureClass::kResource ||
                            budget_within(job->options,
                                          entry.time_limit_seconds,
                                          entry.deadline_seconds))) {
                    ++metrics_.negative_hits;
                    ++metrics_.completed;
                    job->state->outcome.store(CacheOutcome::kNegativeHit,
                                              std::memory_order_release);
                    auto remembered = std::make_shared<CompileResult>();
                    remembered->ok = false;
                    remembered->user_error = entry.user_error;
                    remembered->failure_class = entry.failure_class;
                    remembered->error = entry.error;
                    job->promise.set_value(std::move(remembered));
                    return ticket;
                }
                // else: TTL expired, or the request carries a larger
                // budget than the remembered resource failure ran
                // under — let it compile.
            }
        }

        auto it = inflight_.find(job->key);
        if (it != inflight_.end() &&
            budget_within(job->options,
                          it->second->options.limits.time_limit_seconds,
                          it->second->options.deadline_seconds)) {
            ++metrics_.coalesced;
            job->state->outcome.store(CacheOutcome::kCoalesced,
                                      std::memory_order_release);
            // Resolve this ticket from the in-flight job's future: no
            // second saturation, same shared result. A more patient
            // waiter extends the owner's drop-deadline (to the *later*
            // of the two) so coalescing can never cancel the job out
            // from under it.
            Job& owner = *it->second;
            if (owner.request_deadline.is_unlimited() ||
                job->request_deadline.is_unlimited()) {
                owner.request_deadline = Deadline::unlimited();
            } else if (job->request_deadline.remaining_seconds() >
                       owner.request_deadline.remaining_seconds()) {
                owner.request_deadline = job->request_deadline;
            }
            ticket.future = owner.future;
            return ticket;
        }
        if (it == inflight_.end()) {
            inflight_.emplace(job->key, job);
            job->owns_inflight = true;
        }
        // else: identical key in flight but under a *smaller* budget —
        // run our own compile; it just doesn't register as coalescable.
    }

    // Admission to the bounded priority queue. Past the watermark only
    // interactive requests are still admitted; everything else sheds
    // immediately with a structured Overloaded result. A watermark of 0
    // disables early shedding — the hard capacity (and the submit
    // timeout policy) alone decides, which is the legacy behavior.
    if (options_.shed_watermark > 0 &&
        job->priority != Priority::kInteractive &&
        queued_total() >= options_.shed_watermark) {
        ++metrics_.shed_overload;
        const std::uint64_t retry_ms = estimate_retry_after_ms();
        reject(job, CacheOutcome::kShed, FailureClass::kOverloaded,
               retry_ms,
               "service overloaded: " + std::to_string(queued_total()) +
                   " jobs queued (watermark " +
                   std::to_string(options_.shed_watermark) +
                   "); retry after " + std::to_string(retry_ms) + "ms");
        return ticket;
    }

    const auto has_space = [&] {
        return stopping_ || draining_ ||
               queued_total() < options_.queue_capacity;
    };
    if (!has_space()) {
        bool admitted = false;
        if (sopts.submit_timeout_seconds < 0.0) {
            cv_not_full_.wait(lock, has_space);
            admitted = !stopping_ && !draining_;
        } else if (sopts.submit_timeout_seconds > 0.0) {
            admitted = cv_not_full_.wait_for(
                           lock,
                           std::chrono::duration_cast<
                               Clock::duration>(std::chrono::duration<
                                                double>(
                               sopts.submit_timeout_seconds)),
                           has_space) &&
                       !stopping_ && !draining_;
        }
        if (stopping_) {
            if (job->owns_inflight) {
                inflight_.erase(job->key);
            }
            detail::raise_user("submit() after CompileService shutdown");
        }
        if (!admitted) {
            const bool drained = draining_;
            if (drained) {
                ++metrics_.shed_draining;
            } else {
                ++metrics_.shed_timeout;
            }
            const std::uint64_t retry_ms = estimate_retry_after_ms();
            reject(job, CacheOutcome::kShed, FailureClass::kOverloaded,
                   retry_ms,
                   drained ? "service draining: admission closed"
                           : "service overloaded: queue full past the "
                             "submit timeout; retry after " +
                                 std::to_string(retry_ms) + "ms");
            return ticket;
        }
    }

    queues_[static_cast<std::size_t>(job->priority)].push_back(job);
    metrics_.queue_depth = queued_total();
    if (metrics_.queue_depth > metrics_.peak_queue_depth) {
        metrics_.peak_queue_depth = metrics_.queue_depth;
    }
    cv_not_empty_.notify_one();
    return ticket;
}

DrainStats
CompileService::drain(DrainMode mode)
{
    DrainStats stats;
    std::unique_lock<std::mutex> lock(mu_);
    draining_ = true;
    const std::size_t pending = queued_total();
    if (mode == DrainMode::kShed) {
        for (auto& queue : queues_) {
            while (!queue.empty()) {
                std::shared_ptr<Job> job = std::move(queue.front());
                queue.pop_front();
                ++metrics_.drain_shed;
                ++stats.shed;
                reject(job, CacheOutcome::kShed, FailureClass::kOverloaded,
                       estimate_retry_after_ms(),
                       "service draining: queued job shed");
            }
        }
        metrics_.queue_depth = 0;
    }
    // Wake blocked submitters (they will observe draining_ and shed)
    // and idle workers (so a stop-less drain still settles).
    cv_not_full_.notify_all();
    cv_not_empty_.notify_all();
    cv_idle_.wait(lock,
                  [&] { return queued_total() == 0 && executing_ == 0; });
    if (mode == DrainMode::kFinish) {
        stats.finished = pending;
        metrics_.drain_finished += pending;
    }
    return stats;
}

bool
CompileService::draining() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return draining_;
}

void
CompileService::advance_rule_set_version(std::uint64_t version)
{
    std::lock_guard<std::mutex> lock(mu_);
    neg_rule_set_version_ = version;
}

void
CompileService::wait_idle()
{
    std::unique_lock<std::mutex> lock(mu_);
    cv_idle_.wait(lock,
                  [&] { return queued_total() == 0 && executing_ == 0; });
}

ServiceMetrics
CompileService::metrics() const
{
    std::lock_guard<std::mutex> lock(mu_);
    ServiceMetrics snapshot = metrics_;
    snapshot.queue_depth = queued_total();
    snapshot.evictions = memory_.evictions();
    snapshot.negative_evictions = negative_.evictions();
    return snapshot;
}

void
CompileService::worker_loop()
{
    for (;;) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(mu_);
            for (;;) {
                cv_not_empty_.wait(lock, [&] {
                    return stopping_ || queued_total() > 0;
                });
                if (queued_total() == 0) {
                    return;  // stopping and drained
                }
                for (auto& queue : queues_) {
                    if (!queue.empty()) {
                        job = std::move(queue.front());
                        queue.pop_front();
                        break;
                    }
                }
                metrics_.queue_depth = queued_total();
                const double waited =
                    std::chrono::duration<double>(Clock::now() -
                                                  job->admitted_at)
                        .count();
                metrics_.queue_wait_seconds += waited;
                job->state->queue_wait_us.store(
                    static_cast<std::uint64_t>(waited * 1e6),
                    std::memory_order_release);
                cv_not_full_.notify_one();
                if (job->request_deadline.expired()) {
                    // Expired while queued: count and drop, never
                    // compile. Coalesced waiters share this future and
                    // already extended the deadline if they could
                    // afford to wait longer.
                    ++metrics_.expired_in_queue;
                    reject(job, CacheOutcome::kExpired,
                           FailureClass::kExpired, 0,
                           "request deadline expired after " +
                               std::to_string(waited) +
                               "s in the queue");
                    if (queued_total() == 0 && executing_ == 0) {
                        cv_idle_.notify_all();
                    }
                    job.reset();
                    continue;
                }
                // Thread the remaining request budget into the compile
                // deadline: queue wait counts against the request.
                job->options.absolute_deadline = Deadline::sooner(
                    job->options.absolute_deadline, job->request_deadline);
                ++executing_;
                break;
            }
        }

        process(job);

        {
            std::lock_guard<std::mutex> lock(mu_);
            --executing_;
            if (queued_total() == 0 && executing_ == 0) {
                cv_idle_.notify_all();
            }
        }
    }
}

void
CompileService::process(const std::shared_ptr<Job>& job)
{
    // Disk level first: a hit skips the compiler entirely. A corrupt
    // entry is quarantined (never served, never silently deleted) and
    // the request falls through to a fresh compile that overwrites the
    // key — self-healing at the cost of one recompile.
    if (!job->bypass && disk_) {
        LoadResult loaded;
        bool load_failed = false;
        try {
            loaded = disk_->load(job->key);
        } catch (const std::exception&) {
            // Transient read fault (injected or real) or internal error:
            // not corruption — do not quarantine, just recompile. And
            // never a verdict about the kernel: the failure memory is
            // untouched by I/O trouble.
            load_failed = true;
        }
        if (load_failed) {
            std::lock_guard<std::mutex> lock(mu_);
            ++metrics_.load_errors;
        } else if (loaded.status == LoadStatus::kCorrupt) {
            try {
                disk_->quarantine(job->key, loaded.detail);
            } catch (const std::exception&) {
                // Quarantine is best-effort; the entry is still never
                // served, and the recompile below overwrites it.
            }
            std::lock_guard<std::mutex> lock(mu_);
            ++metrics_.quarantined;
            if (loaded.checksum_mismatch) {
                ++metrics_.checksum_failures;
            }
        } else if (loaded.status == LoadStatus::kHit &&
                   disk_entry_servable(*loaded.entry, job->options)) {
            try {
                auto result = std::make_shared<CompileResult>();
                result->ok = true;
                result->fallback_level = loaded.entry->fallback_level;
                result->attempts = loaded.entry->report.attempts;
                result->compiled =
                    compiled_from_entry(job->kernel, *loaded.entry);
                job->state->outcome.store(CacheOutcome::kDiskHit,
                                          std::memory_order_release);
                finish(job, std::move(result), /*executed=*/false);
                return;
            } catch (const std::exception&) {
                // Reconstruction failed: fall through and recompile.
            }
        }
    }

    std::shared_ptr<CompileResult> result;
    try {
        result = std::make_shared<CompileResult>(
            compile_kernel_resilient(job->kernel, job->options));
    } catch (const std::exception& e) {
        // compile_kernel_resilient never throws by contract; this is a
        // belt-and-braces net so a waiter can never hang on our promise.
        auto failed = std::make_shared<CompileResult>();
        failed->ok = false;
        failed->error = e.what();
        failed->failure_class = FailureClass::kInternal;
        result = std::move(failed);
    }

    // The test hook may throw to simulate a failing compile; classify
    // the exception so the failure memory treats it exactly like the
    // equivalent real failure (UserError remembered, anything else not).
    if (result->ok && result->compiled && options_.post_compile_hook) {
        try {
            options_.post_compile_hook(*result->compiled);
        } catch (const UserError& e) {
            auto failed = std::make_shared<CompileResult>();
            failed->ok = false;
            failed->user_error = true;
            failed->failure_class = FailureClass::kUser;
            failed->error = e.what();
            failed->attempts = result->attempts;
            result = std::move(failed);
        } catch (const faults::InjectedFault& e) {
            auto failed = std::make_shared<CompileResult>();
            failed->ok = false;
            failed->failure_class = FailureClass::kInjectedFault;
            failed->error = e.what();
            failed->attempts = result->attempts;
            result = std::move(failed);
        } catch (const std::exception& e) {
            auto failed = std::make_shared<CompileResult>();
            failed->ok = false;
            failed->failure_class = FailureClass::kInternal;
            failed->error = e.what();
            failed->attempts = result->attempts;
            result = std::move(failed);
        }
    }

    // Last line of defense before either cache level: re-verify the
    // compiled VIR against the kernel's declared array extents. A
    // rejected result is still delivered to this caller (the compiler's
    // own gates vouch for what *it* produced) but is never cached, so a
    // corrupt artifact cannot be replayed to future requests.
    bool verifier_ok = true;
    bool machine_verifier_ok = true;
    if (result->ok && result->compiled) {
        analysis::DiagEngine diags = analysis::verify_compiled_kernel(
            result->compiled->kernel, result->compiled->vprogram);
        verifier_ok = !diags.has_errors();
        // Same policy for the final artifact: structurally re-verify the
        // scheduled machine code before it can enter either cache level.
        analysis::DiagEngine mdiags;
        machine_verifier_ok = analysis::verify_machine_program(
            result->compiled->machine, job->options.target, mdiags,
            &result->compiled->layout);
    }
    finish(job, std::move(result), /*executed=*/true, verifier_ok,
           machine_verifier_ok);
}

void
CompileService::record_outcome(const std::shared_ptr<Job>& job,
                               const CompileResult& result)
{
    const Clock::time_point now = Clock::now();
    if (result.ok) {
        if (negative_.erase(job->key) && job->is_probe) {
            ++metrics_.breaker_closes;
        }
        return;
    }
    // Only deterministic failures are safe to remember: a user error
    // fails identically forever, and a resource blow-up fails for every
    // request whose budgets are no larger. Injected faults and internal
    // errors are transient/environmental — remembering them would
    // poison the cache.
    const bool rememberable =
        result.failure_class == FailureClass::kUser ||
        result.failure_class == FailureClass::kResource;
    if (options_.negative_ttl_seconds <= 0.0 || !rememberable) {
        if (job->is_probe) {
            if (NegEntry* entry = negative_.find(job->key)) {
                // Not a verdict about the kernel: free the probe slot
                // so the next submit can probe again.
                entry->probe_inflight = false;
            }
        }
        return;
    }
    NegEntry* found = negative_.find(job->key);
    if (found == nullptr) {
        found = negative_.insert_or_assign(job->key, NegEntry{});
    }
    NegEntry& entry = *found;
    entry.error = result.error;
    entry.user_error = result.user_error;
    entry.failure_class = result.failure_class;
    entry.rule_set_version = neg_rule_set_version_;
    entry.time_limit_seconds = job->options.limits.time_limit_seconds;
    entry.deadline_seconds = job->options.deadline_seconds;
    entry.neg_expiry =
        now + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(
                      options_.negative_ttl_seconds));
    ++entry.consecutive_failures;
    ++metrics_.negative_insertions;
    if (job->is_probe) {
        entry.probe_inflight = false;
    }
    if (options_.breaker_threshold > 0 &&
        entry.consecutive_failures >= options_.breaker_threshold) {
        if (entry.next_backoff_seconds <= 0.0) {
            entry.next_backoff_seconds =
                std::max(options_.breaker_backoff_seconds, 0.001);
        }
        entry.breaker_open = true;
        entry.open_until =
            now + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          entry.next_backoff_seconds));
        entry.next_backoff_seconds =
            std::min(entry.next_backoff_seconds * 2.0,
                     kBreakerBackoffCapSeconds);
        ++metrics_.breaker_trips;
    }
}

void
CompileService::finish(const std::shared_ptr<Job>& job, ResultPtr result,
                       bool executed, bool verifier_ok,
                       bool machine_verifier_ok)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++metrics_.completed;
        if (!executed) {
            ++metrics_.disk_hits;
        } else if (!job->bypass) {
            ++metrics_.misses;
        }
        if (executed) {
            // Feed the retry-after estimator whatever this compile
            // cost, success or not.
            const double spent = compile_seconds(*result);
            ewma_compile_seconds_ =
                0.8 * ewma_compile_seconds_ + 0.2 * spent;
            if (result->ok) {
                const CompileReport& r = result->report();
                if ((r.validated && r.validation == Verdict::kUnknown) ||
                    (r.machine_validated &&
                     r.machine_validation == Verdict::kUnknown)) {
                    ++metrics_.validation_unknown;
                }
                metrics_.lift_seconds += r.lift_seconds;
                metrics_.saturation_seconds += r.saturation_seconds;
                metrics_.extract_seconds += r.extract_seconds;
                metrics_.backend_seconds += r.backend_seconds;
                metrics_.total_seconds += r.total_seconds;
                RuleStats sum;
                for (const RuleStats& rs : r.rule_stats) {
                    sum += rs;
                }
                metrics_.ematch_matches += sum.matches;
                metrics_.ematch_applications += sum.applications;
                metrics_.ematch_search_seconds += sum.search_seconds;
                metrics_.ematch_apply_seconds += sum.apply_seconds;
            } else {
                ++metrics_.failures;
                if (result->user_error) {
                    ++metrics_.user_errors;
                }
                for (const AttemptDiagnostic& a : result->attempts) {
                    metrics_.total_seconds += a.seconds;
                }
            }
        }
        if (!verifier_ok) {
            ++metrics_.verifier_rejects;
        }
        if (!machine_verifier_ok) {
            ++metrics_.machine_verifier_rejects;
        }
        if (!job->bypass) {
            // Even a non-executed (disk-hit) success heals the failure
            // memory: a probe that finds a good cached artifact closes
            // the breaker just like a probe that recompiled.
            record_outcome(job, *result);
        }
        if (verifier_ok && machine_verifier_ok && !job->bypass &&
            result->ok && result->compiled) {
            memory_.insert_or_assign(
                job->key,
                MemEntry{result, job->options.limits.time_limit_seconds,
                         job->options.deadline_seconds});
        }
        if (job->owns_inflight) {
            inflight_.erase(job->key);
        }
    }

    // Disk writes happen outside the lock (filesystem IO); failures to
    // persist are non-fatal — the entry is just recompiled next time.
    // Transient failures are retried with deterministic backoff under a
    // small fixed wall-clock budget (the compile's own deadline has
    // already been spent; persistence must not stall the caller).
    if (verifier_ok && machine_verifier_ok && executed && !job->bypass &&
        result->ok && result->compiled && disk_) {
        IoPolicy policy;
        policy.retries = std::max(0, job->options.io_retries);
        policy.deadline = Deadline::after_seconds(2.0);
        try {
            const int retried = disk_->store(
                make_entry(job->key, job->options, *result->compiled),
                policy);
            std::lock_guard<std::mutex> lock(mu_);
            ++metrics_.disk_writes;
            metrics_.io_retries += static_cast<std::uint64_t>(retried);
        } catch (const std::exception&) {
            std::lock_guard<std::mutex> lock(mu_);
            ++metrics_.store_failures;
        }
    }

    job->promise.set_value(std::move(result));
}

}  // namespace diospyros::service
