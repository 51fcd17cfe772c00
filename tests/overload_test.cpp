// Overload-robustness tests for the compile service: admission control
// (priority classes, watermark shedding, timed submits), request
// deadlines dropped at dequeue, the negative-result cache (TTL,
// rule-set versioning, what is and is not safe to remember), the
// per-key circuit breaker (trip, open rejects, the single half-open
// probe, close-on-success), graceful drain, and lock-consistent metrics
// snapshots under concurrency (run under TSan in check.sh).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "compiler/driver.h"
#include "service/compile_service.h"
#include "support/error.h"
#include "support/faults.h"

namespace diospyros {
namespace {

using scalar::Kernel;
using scalar::KernelBuilder;
using service::CacheOutcome;
using service::CompileService;
using service::DrainMode;
using service::DrainStats;
using service::Priority;
using service::SubmitOptions;

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

/** Loads from an undeclared array: deterministic UserError, always. */
Kernel
poison_kernel(const std::string& name = "bad")
{
    KernelBuilder kb(name);
    const scalar::IntRef size = kb.param("n", 4);
    kb.output("C", size);
    const scalar::IntRef i = KernelBuilder::var("i");
    kb.append(scalar::st_for(
        "i", scalar::IntExpr::constant(0), size,
        {scalar::st_store("C", i, KernelBuilder::load("Z", i))}));
    return kb.build();
}

CompilerOptions
test_options()
{
    CompilerOptions options;
    options.limits.node_limit = 200'000;
    options.limits.iter_limit = 10;
    options.limits.time_limit_seconds = 20.0;
    return options;
}

void
sleep_ms(int ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/**
 * A post_compile_hook gate: while `hold` is set, every compile parks
 * inside the hook, pinning its worker. `entered` counts hook entries so
 * tests can wait until the worker is provably busy.
 */
struct WorkerGate {
    std::atomic<bool> hold{true};
    std::atomic<int> entered{0};

    std::function<void(CompiledKernel&)>
    hook()
    {
        return [this](CompiledKernel&) {
            entered.fetch_add(1);
            while (hold.load()) {
                sleep_ms(1);
            }
        };
    }

    void
    wait_entered(int count)
    {
        while (entered.load() < count) {
            sleep_ms(1);
        }
    }

    void release() { hold.store(false); }
};

TEST(Overload, WatermarkShedsBatchButAdmitsInteractive)
{
    WorkerGate gate;
    CompileService::Options sopts;
    sopts.jobs = 1;
    sopts.queue_capacity = 8;
    sopts.shed_watermark = 1;
    sopts.post_compile_hook = gate.hook();
    CompileService svc(sopts);
    const CompilerOptions options = test_options();

    service::Ticket a = svc.submit(vector_add_kernel(4), options);
    gate.wait_entered(1);  // worker now parked on A
    service::Ticket b = svc.submit(vector_add_kernel(8), options);
    // One job queued == at the watermark: batch sheds, interactive passes.
    service::Ticket shed = svc.submit(vector_add_kernel(12), options);
    EXPECT_EQ(shed.outcome(), CacheOutcome::kShed);
    EXPECT_GT(shed.retry_after_ms(), 0u);
    const CompileResult& shed_result = shed.get();
    EXPECT_FALSE(shed_result.ok);
    EXPECT_FALSE(shed_result.user_error);
    EXPECT_EQ(shed_result.failure_class, FailureClass::kOverloaded);
    EXPECT_NE(shed_result.error.find("overloaded"), std::string::npos);

    SubmitOptions interactive;
    interactive.priority = Priority::kInteractive;
    service::Ticket vip =
        svc.submit(vector_add_kernel(16), options, interactive);

    gate.release();
    EXPECT_TRUE(a.get().ok);
    EXPECT_TRUE(b.get().ok);
    EXPECT_TRUE(vip.get().ok);

    const service::ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.shed_overload, 1u);
    EXPECT_EQ(m.completed, m.submitted);
}

TEST(Overload, InteractiveDequeuesBeforeBackground)
{
    WorkerGate gate;
    CompileService::Options sopts;
    sopts.jobs = 1;
    sopts.queue_capacity = 8;
    sopts.post_compile_hook = gate.hook();
    CompileService svc(sopts);
    const CompilerOptions options = test_options();

    service::Ticket a = svc.submit(vector_add_kernel(4), options);
    gate.wait_entered(1);
    SubmitOptions background;
    background.priority = Priority::kBackground;
    SubmitOptions interactive;
    interactive.priority = Priority::kInteractive;
    // Background enqueued first, interactive second; the worker must
    // still pick the interactive one first once A releases.
    service::Ticket bg =
        svc.submit(vector_add_kernel(8), options, background);
    service::Ticket fg =
        svc.submit(vector_add_kernel(12), options, interactive);
    gate.release();
    EXPECT_TRUE(a.get().ok);
    EXPECT_TRUE(fg.get().ok);
    EXPECT_TRUE(bg.get().ok);
    // Interactive waited no longer than the background job that was
    // enqueued before it.
    EXPECT_LE(fg.queue_wait_seconds(), bg.queue_wait_seconds());
}

TEST(Overload, SubmitTimeoutShedsInsteadOfBlocking)
{
    WorkerGate gate;
    CompileService::Options sopts;
    sopts.jobs = 1;
    sopts.queue_capacity = 1;
    sopts.post_compile_hook = gate.hook();
    CompileService svc(sopts);
    const CompilerOptions options = test_options();

    service::Ticket a = svc.submit(vector_add_kernel(4), options);
    gate.wait_entered(1);
    service::Ticket b = svc.submit(vector_add_kernel(8), options);
    // Queue is now at capacity; a timed submit gives up quickly.
    service::Ticket c = svc.submit_for(vector_add_kernel(12), options,
                                       Priority::kBatch,
                                       /*submit_timeout_seconds=*/0.05);
    EXPECT_EQ(c.outcome(), CacheOutcome::kShed);
    EXPECT_GT(c.retry_after_ms(), 0u);
    EXPECT_FALSE(c.get().ok);
    // And a zero timeout sheds without waiting at all.
    service::Ticket d = svc.submit_for(vector_add_kernel(16), options,
                                       Priority::kBatch,
                                       /*submit_timeout_seconds=*/0.0);
    EXPECT_EQ(d.outcome(), CacheOutcome::kShed);

    gate.release();
    EXPECT_TRUE(a.get().ok);
    EXPECT_TRUE(b.get().ok);
    const service::ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.shed_timeout, 2u);
    EXPECT_EQ(m.completed, m.submitted);
}

TEST(Overload, ExpiredRequestDroppedAtDequeueNotCompiled)
{
    WorkerGate gate;
    CompileService::Options sopts;
    sopts.jobs = 1;
    sopts.queue_capacity = 8;
    sopts.post_compile_hook = gate.hook();
    CompileService svc(sopts);
    const CompilerOptions options = test_options();

    service::Ticket a = svc.submit(vector_add_kernel(4), options);
    gate.wait_entered(1);
    service::Ticket b = svc.submit_for(vector_add_kernel(8), options,
                                       Priority::kBatch,
                                       /*submit_timeout_seconds=*/-1.0,
                                       /*request_deadline_seconds=*/0.02);
    sleep_ms(60);  // B's deadline passes while it is still queued
    gate.release();

    const CompileResult& rb = b.get();
    EXPECT_FALSE(rb.ok);
    EXPECT_EQ(rb.failure_class, FailureClass::kExpired);
    EXPECT_EQ(b.outcome(), CacheOutcome::kExpired);
    EXPECT_TRUE(a.get().ok);

    const service::ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.expired_in_queue, 1u);
    EXPECT_EQ(m.misses, 1u);  // only A ever reached the compiler
    EXPECT_EQ(m.completed, m.submitted);
}

TEST(Overload, CoalescedWaiterExtendsRequestDeadline)
{
    WorkerGate gate;
    CompileService::Options sopts;
    sopts.jobs = 1;
    sopts.queue_capacity = 8;
    sopts.post_compile_hook = gate.hook();
    CompileService svc(sopts);
    const CompilerOptions options = test_options();

    service::Ticket a = svc.submit(vector_add_kernel(4), options);
    gate.wait_entered(1);
    // B would expire while queued, but C coalesces onto it with no
    // deadline at all — the job's drop-deadline must be extended, so
    // neither waiter is cancelled.
    service::Ticket b = svc.submit_for(vector_add_kernel(8), options,
                                       Priority::kBatch, -1.0,
                                       /*request_deadline_seconds=*/0.02);
    service::Ticket c = svc.submit(vector_add_kernel(8), options);
    EXPECT_EQ(c.outcome(), CacheOutcome::kCoalesced);
    sleep_ms(60);
    gate.release();

    EXPECT_TRUE(a.get().ok);
    EXPECT_TRUE(b.get().ok);
    EXPECT_TRUE(c.get().ok);
    const service::ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.expired_in_queue, 0u);
    EXPECT_EQ(m.coalesced, 1u);
}

TEST(Overload, NegativeCacheServesRememberedUserError)
{
    CompileService::Options sopts;
    sopts.breaker_threshold = 0;  // isolate the negative cache
    CompileService svc(sopts);
    const CompilerOptions options = test_options();

    service::Ticket first = svc.submit(poison_kernel(), options);
    const CompileResult& r1 = first.get();
    ASSERT_FALSE(r1.ok);
    EXPECT_TRUE(r1.user_error);
    EXPECT_EQ(r1.failure_class, FailureClass::kUser);

    service::Ticket second = svc.submit(poison_kernel(), options);
    const CompileResult& r2 = second.get();
    EXPECT_EQ(second.outcome(), CacheOutcome::kNegativeHit);
    EXPECT_FALSE(r2.ok);
    EXPECT_TRUE(r2.user_error);
    EXPECT_EQ(r2.error, r1.error);  // the remembered failure, verbatim

    const service::ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.misses, 1u);  // compiled exactly once
    EXPECT_EQ(m.negative_hits, 1u);
    EXPECT_EQ(m.negative_insertions, 1u);
}

TEST(Overload, OutOfRangeBudgetsAreRejectedBeforeTheCaches)
{
    // A zero timeout means "expire now" to the runner but "unlimited" to
    // the service's budget comparison, so compiling it would cache a
    // truncated artifact that larger budgets then hit. Budgets must be
    // finite, the timeout > 0 and the deadline >= 0.
    CompileService svc(CompileService::Options{});
    const Kernel kernel = vector_add_kernel(8);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const double timeout : {0.0, -1.0, nan, inf}) {
        CompilerOptions bad = test_options();
        bad.limits.time_limit_seconds = timeout;
        service::Ticket t = svc.submit(kernel, bad);
        const CompileResult& r = t.get();
        EXPECT_FALSE(r.ok) << "timeout " << timeout;
        EXPECT_EQ(r.failure_class, FailureClass::kUser);
        EXPECT_NE(r.error.find("timeout"), std::string::npos) << r.error;
    }
    for (const double deadline : {-1.0, nan, inf}) {
        CompilerOptions bad = test_options();
        bad.deadline_seconds = deadline;
        service::Ticket t = svc.submit(kernel, bad);
        EXPECT_FALSE(t.get().ok) << "deadline " << deadline;
        EXPECT_EQ(t.get().failure_class, FailureClass::kUser);
    }

    // Nothing was compiled or remembered: a valid budget is a clean miss
    // that runs its full saturation.
    service::Ticket good = svc.submit(kernel, test_options());
    const CompileResult& r = good.get();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(good.outcome(), CacheOutcome::kMiss);
    EXPECT_NE(r.report().stop_reason, StopReason::kTimeLimit);
    const service::ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.misses, 1u);
    EXPECT_EQ(m.user_errors, 7u);
    EXPECT_EQ(m.negative_insertions, 0u);
}

TEST(Overload, NegativeTtlExpiryRecompiles)
{
    CompileService::Options sopts;
    sopts.negative_ttl_seconds = 0.05;
    sopts.breaker_threshold = 0;
    CompileService svc(sopts);
    const CompilerOptions options = test_options();

    EXPECT_FALSE(svc.submit(poison_kernel(), options).get().ok);
    sleep_ms(80);  // TTL passes
    service::Ticket again = svc.submit(poison_kernel(), options);
    EXPECT_FALSE(again.get().ok);
    EXPECT_NE(again.outcome(), CacheOutcome::kNegativeHit);

    const service::ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.misses, 2u);  // recompiled after expiry
    EXPECT_EQ(m.negative_hits, 0u);
}

TEST(Overload, RuleSetVersionBumpInvalidatesNegativeEntries)
{
    CompileService::Options sopts;
    sopts.breaker_threshold = 0;
    CompileService svc(sopts);
    const CompilerOptions options = test_options();

    EXPECT_FALSE(svc.submit(poison_kernel(), options).get().ok);
    svc.advance_rule_set_version(service::kRuleSetVersion + 1);
    service::Ticket again = svc.submit(poison_kernel(), options);
    EXPECT_FALSE(again.get().ok);
    EXPECT_NE(again.outcome(), CacheOutcome::kNegativeHit);

    const service::ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.misses, 2u);
    EXPECT_EQ(m.negative_invalidated, 1u);
}

TEST(Overload, NegativeCacheEvictsLeastRecentlyUsedKey)
{
    CompileService::Options sopts;
    sopts.breaker_threshold = 0;
    CompileService svc(sopts);
    const CompilerOptions options = test_options();
    const auto poison = [](std::size_t i) {
        return poison_kernel("bad" + std::to_string(i));
    };
    const auto outcome = [&](std::size_t i) {
        service::Ticket ticket = svc.submit(poison(i), options);
        EXPECT_FALSE(ticket.get().ok);
        return ticket.outcome();
    };

    for (std::size_t i = 0; i < service::kNegativeCacheCapacity; ++i) {
        EXPECT_EQ(outcome(i), CacheOutcome::kMiss);
    }
    // Touch key 0, then overflow by one: key 1 is now the least
    // recently used, so it is the one displaced.
    EXPECT_EQ(outcome(0), CacheOutcome::kNegativeHit);
    EXPECT_EQ(outcome(service::kNegativeCacheCapacity), CacheOutcome::kMiss);
    EXPECT_EQ(svc.metrics().negative_evictions, 1u);
    EXPECT_EQ(outcome(0), CacheOutcome::kNegativeHit);
    EXPECT_EQ(outcome(1), CacheOutcome::kMiss);
}

TEST(Overload, TransientFailuresAreNeverNegativelyCached)
{
    // The hook fails the first compile with an *internal* error; the
    // second submit must recompile (and succeed), not serve the failure.
    std::atomic<int> compiles{0};
    CompileService::Options sopts;
    sopts.post_compile_hook = [&](CompiledKernel&) {
        if (compiles.fetch_add(1) == 0) {
            throw std::runtime_error("transient environmental failure");
        }
    };
    CompileService svc(sopts);
    const CompilerOptions options = test_options();

    service::Ticket first = svc.submit(vector_add_kernel(4), options);
    const CompileResult& r1 = first.get();
    ASSERT_FALSE(r1.ok);
    EXPECT_EQ(r1.failure_class, FailureClass::kInternal);

    service::Ticket second = svc.submit(vector_add_kernel(4), options);
    EXPECT_TRUE(second.get().ok);
    EXPECT_NE(second.outcome(), CacheOutcome::kNegativeHit);

    const service::ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.negative_hits, 0u);
    EXPECT_EQ(m.negative_insertions, 0u);
}

TEST(Overload, FaultArmedRequestsBypassFailureMemory)
{
    // Injected faults bypass both cache levels *and* the failure
    // memory: a fault-armed request can neither poison nor be served by
    // the negative cache.
    CompileService svc;
    CompilerOptions faulty = test_options();
    faulty.fault_specs = {"runner.iter:1:*"};
    service::Ticket t = svc.submit(vector_add_kernel(4), faulty);
    EXPECT_EQ(t.outcome(), CacheOutcome::kBypass);
    const CompileResult& r = t.get();
    EXPECT_TRUE(r.ok);  // the degradation ladder absorbs the fault
    EXPECT_GT(r.fallback_level, 0);

    const service::ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.negative_insertions, 0u);
    EXPECT_EQ(m.negative_hits, 0u);
}

TEST(Overload, BreakerTripsRejectsAndAdmitsSingleProbe)
{
    std::atomic<int> compiles{0};
    std::atomic<bool> fail{true};
    WorkerGate probe_gate;
    probe_gate.hold.store(false);  // armed later, for the probe only
    CompileService::Options sopts;
    sopts.negative_ttl_seconds = 0.01;  // short TTL so failures repeat
    sopts.breaker_threshold = 2;
    sopts.breaker_backoff_seconds = 0.1;
    sopts.post_compile_hook = [&](CompiledKernel& ck) {
        compiles.fetch_add(1);
        if (fail.load()) {
            throw UserError("synthetic deterministic failure");
        }
        probe_gate.hook()(ck);
    };
    CompileService svc(sopts);
    const CompilerOptions options = test_options();
    const Kernel kernel = vector_add_kernel(4);

    // Failure 1 inserts the entry; after the TTL, failure 2 trips the
    // breaker (threshold 2).
    EXPECT_FALSE(svc.submit(kernel, options).get().ok);
    sleep_ms(30);
    EXPECT_FALSE(svc.submit(kernel, options).get().ok);
    ASSERT_EQ(compiles.load(), 2);

    // Open: submits short-circuit without compiling.
    service::Ticket rejected = svc.submit(kernel, options);
    EXPECT_EQ(rejected.outcome(), CacheOutcome::kBreakerOpen);
    EXPECT_GT(rejected.retry_after_ms(), 0u);
    const CompileResult& rr = rejected.get();
    EXPECT_FALSE(rr.ok);
    EXPECT_EQ(rr.failure_class, FailureClass::kOverloaded);
    EXPECT_EQ(compiles.load(), 2);

    // After the backoff the breaker half-opens: exactly one probe is
    // admitted; a concurrent submit is still rejected.
    fail.store(false);
    probe_gate.hold.store(true);
    sleep_ms(150);
    service::Ticket probe = svc.submit(kernel, options);
    probe_gate.wait_entered(1);  // probe is compiling (parked in hook)
    service::Ticket during = svc.submit(kernel, options);
    EXPECT_EQ(during.outcome(), CacheOutcome::kBreakerOpen);
    probe_gate.release();

    EXPECT_TRUE(probe.get().ok);  // the probe heals the key
    EXPECT_FALSE(during.get().ok);
    service::Ticket after = svc.submit(kernel, options);
    EXPECT_TRUE(after.get().ok);
    EXPECT_EQ(after.outcome(), CacheOutcome::kMemoryHit);

    const service::ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.breaker_trips, 1u);
    EXPECT_EQ(m.breaker_open_rejects, 2u);
    EXPECT_EQ(m.breaker_probes, 1u);
    EXPECT_EQ(m.breaker_closes, 1u);
    EXPECT_EQ(m.completed, m.submitted);
}

TEST(Overload, DrainShedShedsQueuedAndRejectsLaterSubmits)
{
    WorkerGate gate;
    CompileService::Options sopts;
    sopts.jobs = 1;
    sopts.queue_capacity = 8;
    sopts.post_compile_hook = gate.hook();
    CompileService svc(sopts);
    const CompilerOptions options = test_options();

    service::Ticket a = svc.submit(vector_add_kernel(4), options);
    gate.wait_entered(1);
    service::Ticket b = svc.submit(vector_add_kernel(8), options);
    service::Ticket c = svc.submit(vector_add_kernel(12), options);

    std::thread releaser([&] {
        sleep_ms(30);
        gate.release();
    });
    const DrainStats stats = svc.drain(DrainMode::kShed);
    releaser.join();

    EXPECT_EQ(stats.shed, 2u);
    EXPECT_EQ(stats.finished, 0u);
    EXPECT_TRUE(a.get().ok);  // already executing: allowed to finish
    EXPECT_FALSE(b.get().ok);
    EXPECT_FALSE(c.get().ok);
    EXPECT_EQ(b.outcome(), CacheOutcome::kShed);
    EXPECT_TRUE(svc.draining());

    // Admission is closed for good.
    service::Ticket late = svc.submit(vector_add_kernel(16), options);
    EXPECT_EQ(late.outcome(), CacheOutcome::kShed);
    EXPECT_FALSE(late.get().ok);

    const service::ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.drain_shed, 2u);
    EXPECT_EQ(m.shed_draining, 1u);
    EXPECT_EQ(m.completed, m.submitted);
}

TEST(Overload, DrainFinishCompletesQueuedWork)
{
    WorkerGate gate;
    CompileService::Options sopts;
    sopts.jobs = 1;
    sopts.queue_capacity = 8;
    sopts.post_compile_hook = gate.hook();
    CompileService svc(sopts);
    const CompilerOptions options = test_options();

    service::Ticket a = svc.submit(vector_add_kernel(4), options);
    gate.wait_entered(1);
    service::Ticket b = svc.submit(vector_add_kernel(8), options);
    service::Ticket c = svc.submit(vector_add_kernel(12), options);

    std::thread releaser([&] {
        sleep_ms(30);
        gate.release();
    });
    const DrainStats stats = svc.drain(DrainMode::kFinish);
    releaser.join();

    EXPECT_EQ(stats.finished, 2u);
    EXPECT_EQ(stats.shed, 0u);
    EXPECT_TRUE(a.get().ok);
    EXPECT_TRUE(b.get().ok);
    EXPECT_TRUE(c.get().ok);
    const service::ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.drain_finished, 2u);
    EXPECT_EQ(m.completed, m.submitted);
}

TEST(Overload, MetricsSnapshotIsConsistentUnderConcurrency)
{
    // Hammer submits from several threads while another thread renders
    // JSON snapshots. TSan (check.sh gate) proves the snapshot locking;
    // the assertions prove the counters add up afterwards.
    CompileService::Options sopts;
    sopts.jobs = 2;
    sopts.queue_capacity = 64;
    CompileService svc(sopts);
    const CompilerOptions options = test_options();

    std::atomic<bool> stop{false};
    std::thread snapshotter([&] {
        while (!stop.load()) {
            const std::string json = svc.metrics().to_json();
            EXPECT_EQ(json.front(), '{');
            EXPECT_EQ(json.back(), '}');
            sleep_ms(1);
        }
    });

    std::vector<std::thread> clients;
    std::atomic<int> ok_count{0};
    for (int t = 0; t < 3; ++t) {
        clients.emplace_back([&, t] {
            for (int i = 0; i < 8; ++i) {
                service::Ticket ticket = svc.submit(
                    vector_add_kernel(4 + 4 * ((t * 8 + i) % 6)),
                    test_options());
                if (ticket.get().ok) {
                    ok_count.fetch_add(1);
                }
            }
        });
    }
    for (std::thread& c : clients) {
        c.join();
    }
    stop.store(true);
    snapshotter.join();

    EXPECT_EQ(ok_count.load(), 24);
    const service::ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.submitted, 24u);
    // Coalesced submits resolve from the owner's future and are never
    // separately "completed"; everything else must be.
    EXPECT_EQ(m.completed + m.coalesced, 24u);
    EXPECT_EQ(m.queue_depth, 0u);
}

TEST(Overload, PriorityNamesRoundTrip)
{
    EXPECT_EQ(service::parse_priority("interactive"),
              Priority::kInteractive);
    EXPECT_EQ(service::parse_priority("batch"), Priority::kBatch);
    EXPECT_EQ(service::parse_priority("background"),
              Priority::kBackground);
    EXPECT_STREQ(service::priority_name(Priority::kBackground),
                 "background");
    EXPECT_THROW(service::parse_priority("urgent"), UserError);
}

TEST(Overload, MetricsJsonCarriesOverloadCounters)
{
    CompileService svc;
    EXPECT_FALSE(svc.submit(poison_kernel(), test_options()).get().ok);
    const std::string json = svc.metrics().to_json();
    EXPECT_NE(json.find("\"shed_overload\":0"), std::string::npos);
    EXPECT_NE(json.find("\"negative_insertions\":1"), std::string::npos);
    EXPECT_NE(json.find("\"breaker_trips\":0"), std::string::npos);
    EXPECT_NE(json.find("\"queue_wait_seconds\":"), std::string::npos);
    EXPECT_NE(json.find("\"expired_in_queue\":0"), std::string::npos);
}

}  // namespace
}  // namespace diospyros
