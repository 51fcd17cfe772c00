/**
 * @file
 * Chaos soak for the serving layer (DESIGN.md §5g, §5j). One workload
 * core — hot keys (cache hits), a cold set (real compiles) and
 * deterministically failing "poison" kernels, drawn with a priority mix
 * — over one of two transports:
 *
 *   service  client threads submit to one in-process CompileService.
 *            DIOS_FAULT specs (comma-separated, dioscc --fault syntax)
 *            are NOT armed globally, which would put all traffic in
 *            cache-bypass mode; a fraction of requests carries one as a
 *            per-compile fault instead.
 *   daemon   a forked diosd child and forked client processes speaking
 *            the socket protocol through RemoteClient, with local
 *            fallback. The parent SIGKILLs and restarts the daemon on a
 *            schedule (with one dead window long enough to exhaust
 *            client retries), a burst window of unique cold kernels
 *            crosses the shed watermark, and each client sends one
 *            request to a dead socket that must complete locally.
 *
 * Invariants, checked for both: every request resolves exactly once (no
 * loss, no duplicate); every artifact of a kernel hashes the same, and
 * the same as a cold single-process compile; remembered failures replay
 * verbatim. Service: every shed or breaker rejection carries a retry
 * hint. Daemon: no client crashed and local fallback fired.
 *
 * Prints one JSON object (one field per line, awk-friendly) with p50/p99
 * latency and the counters, also to --out; exits non-zero iff an
 * invariant is violated. tools/check.sh gates on both and compares p99
 * with bench/BENCH_{service,daemon}_baseline.json.
 */
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "compiler/driver.h"
#include "daemon/client.h"
#include "daemon/daemon.h"
#include "scalar/parse.h"
#include "service/compile_service.h"
#include "service/serialize.h"
#include "support/hash.h"
#include "support/numeric.h"
#include "support/rng.h"

using namespace diospyros;

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

enum class Transport { kService, kDaemon };

/** Defaults are the service transport's; parse_args swaps in the daemon's. */
struct SoakConfig {
    Transport transport = Transport::kService;
    /** Service: requests in total. Daemon: requests per client. */
    std::size_t requests = 100'000;
    /** Service: client threads. Daemon: client processes. */
    int clients = 4;
    int jobs = 2;
    std::size_t capacity = 64;
    std::size_t watermark = 48;
    // Daemon only.
    int kills = 5;
    double kill_interval_ms = 300.0;
    double dead_window_ms = 800.0;
    /** Per-request client pacing: keeps the soak window open long
     *  enough for the kill schedule to land mid-flight. */
    double pace_ms = 5.0;
    /** Keeps the socket, cache and client result files ("" = temp). */
    std::string dir;
    std::string out_path;
};

[[noreturn]] void
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s --transport service|daemon [--requests N]\n"
                 "          [--clients N] [--jobs N]\n"
                 "          [--capacity N] [--watermark N] [--out FILE]\n"
                 "  daemon: [--kills N] [--kill-interval-ms MS]\n"
                 "          [--dead-window-ms MS] [--pace-ms MS] [--dir D]\n",
                 argv0);
    std::exit(2);
}

SoakConfig
parse_args(int argc, char** argv)
{
    SoakConfig cfg;
    // The transport picks the defaults the other flags then override.
    const auto t = std::find(argv + 1, argv + argc, std::string("--transport"));
    if (t + 1 >= argv + argc) {
        usage(argv[0]);
    }
    if (std::string(t[1]) == "daemon") {
        cfg.transport = Transport::kDaemon;
        cfg.requests = 600;
        cfg.clients = 3;
        cfg.jobs = 1;
        cfg.capacity = 4;
        cfg.watermark = 1;
    } else if (std::string(t[1]) != "service") {
        usage(argv[0]);
    }
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            usage(argv[0]);
        }
        const std::string value = argv[++i];
        if (arg == "--transport") {
            continue;
        } else if (arg == "--requests") {
            cfg.requests = static_cast<std::size_t>(
                require_positive_integer(arg, value));
        } else if (arg == "--clients") {
            cfg.clients =
                static_cast<int>(require_positive_integer(arg, value));
        } else if (arg == "--jobs") {
            cfg.jobs = static_cast<int>(require_positive_integer(arg, value));
        } else if (arg == "--capacity") {
            cfg.capacity = static_cast<std::size_t>(
                require_positive_integer(arg, value));
        } else if (arg == "--watermark") {
            cfg.watermark = static_cast<std::size_t>(
                require_nonnegative_integer(arg, value));
        } else if (arg == "--kills") {
            cfg.kills =
                static_cast<int>(require_nonnegative_integer(arg, value));
        } else if (arg == "--kill-interval-ms") {
            cfg.kill_interval_ms = require_positive_number(arg, value);
        } else if (arg == "--dead-window-ms") {
            cfg.dead_window_ms = require_nonnegative_number(arg, value);
        } else if (arg == "--pace-ms") {
            cfg.pace_ms = require_nonnegative_number(arg, value);
        } else if (arg == "--dir") {
            cfg.dir = value;
        } else if (arg == "--out") {
            cfg.out_path = value;
        } else {
            usage(argv[0]);
        }
    }
    return cfg;
}

// ---------------------------------------------------------------------------
// Workload: kernel texts (what crosses the wire) and the request draw
// ---------------------------------------------------------------------------

struct WorkItem {
    std::string name;
    std::string text;
    std::int64_t n = 0;
    bool poison = false;
};

/** Elementwise add, named vadd<n> unless `name` says otherwise. */
WorkItem
vadd_item(std::int64_t n, std::string name = {})
{
    if (name.empty()) {
        name = "vadd" + std::to_string(n);
    }
    std::ostringstream os;
    os << "(kernel " << name << " (param n " << n
       << ") (input A n) (input B n) (output C n)"
       << " (for i 0 n (store C i (+ (load A i) (load B i)))))";
    return {name, os.str(), n, false};
}

/** Dot product, accumulated straight into C or through a scratch cell. */
WorkItem
dot_item(std::int64_t n, bool scratch)
{
    std::ostringstream os;
    os << "(kernel dot" << n << " (param n " << n
       << ") (input A n) (input B n) (output C 1)";
    if (scratch) {
        os << " (scratch acc 1) (store acc 0 0)"
           << " (for i 0 n (accumulate acc 0 (* (load A i) (load B i))))"
           << " (store C 0 (load acc 0)))";
    } else {
        os << " (store C 0 0)"
           << " (for i 0 n (accumulate C 0 (* (load A i) (load B i)))))";
    }
    return {"dot" + std::to_string(n), os.str(), n, false};
}

/** Deterministic UserError: loads from an undeclared array. */
WorkItem
poison_item(std::int64_t n)
{
    std::ostringstream os;
    os << "(kernel poison" << n << " (param n " << n
       << ") (output C n) (for i 0 n (store C i (load Z i))))";
    return {"poison" + std::to_string(n), os.str(), n, true};
}

/**
 * The kernel a work item names, for the in-process transport. The parser
 * rejects a poison kernel's text up front (which is how the daemon fails
 * it), so poison kernels are built directly and fail in the compile.
 */
scalar::Kernel
kernel_of(const WorkItem& item)
{
    if (!item.poison) {
        return scalar::parse_kernel(item.text);
    }
    scalar::KernelBuilder kb(item.name);
    const scalar::IntRef size = kb.param("n", item.n);
    kb.output("C", size);
    const scalar::IntRef i = scalar::KernelBuilder::var("i");
    kb.append(scalar::st_for(
        "i", scalar::IntExpr::constant(0), size,
        {scalar::st_store("C", i, scalar::KernelBuilder::load("Z", i))}));
    return kb.build();
}

/** Everything that differs between the two transports' traffic. */
struct Profile {
    std::vector<WorkItem> hot;
    std::vector<WorkItem> cold;
    std::vector<WorkItem> poison;
    CompilerOptions options;
    /** Draws are `% scale`: below hot_below hot, below cold_below cold,
     *  below poison_below poison, the rest fault-armed hot; and
     *  `interactive_tenths` of the traffic is interactive. */
    struct Mix {
        std::uint64_t scale, hot_below, cold_below, poison_below,
            interactive_tenths;
    } mix{};
};

Profile
make_profile(Transport transport)
{
    Profile p;
    for (std::int64_t n = 4; n <= 16; n += 4) {
        p.hot.push_back(vadd_item(n));
    }
    const bool service = transport == Transport::kService;
    for (std::int64_t n = 20; n <= (service ? 64 : 32); n += 4) {
        p.cold.push_back(vadd_item(n));
    }
    for (std::int64_t n = 4; n <= (service ? 48 : 12); n += 4) {
        p.cold.push_back(dot_item(n, /*scratch=*/!service));
    }
    for (std::int64_t n = 4; n <= (service ? 6 : 5); ++n) {
        p.poison.push_back(poison_item(n));
    }
    p.options.limits.node_limit = service ? 200'000 : 20'000;
    p.options.limits.iter_limit = service ? 10 : 6;
    p.options.limits.time_limit_seconds = service ? 20.0 : 10.0;
    p.mix = service ? Profile::Mix{1000, 700, 930, 970, 2}
                    : Profile::Mix{100, 55, 90, 100, 3};
    return p;
}

/** One drawn request: what to compile, and how to be admitted. */
struct Pick {
    const WorkItem* item = nullptr;
    /** Per-compile fault spec ("" = none). */
    std::string fault;
    service::Priority priority = service::Priority::kBatch;
    double submit_timeout_seconds = -1.0;
};

Pick
pick_request(Rng& rng, const Profile& p,
             const std::vector<std::string>& faults)
{
    Pick pick;
    const std::uint64_t draw = rng.next_u64() % p.mix.scale;
    if (draw < p.mix.hot_below) {
        pick.item = &p.hot[rng.next_u64() % p.hot.size()];
    } else if (draw < p.mix.cold_below) {
        pick.item = &p.cold[rng.next_u64() % p.cold.size()];
    } else if (draw < p.mix.poison_below || faults.empty()) {
        pick.item = &p.poison[rng.next_u64() % p.poison.size()];
    } else {
        pick.item = &p.hot[rng.next_u64() % p.hot.size()];
        pick.fault = faults[rng.next_u64() % faults.size()];
    }
    const std::uint64_t cls = rng.next_u64() % 10;
    if (cls < p.mix.interactive_tenths) {
        pick.priority = service::Priority::kInteractive;
    } else if (cls < 8) {
        pick.priority = service::Priority::kBatch;
        pick.submit_timeout_seconds = 0.25;
    } else {
        pick.priority = service::Priority::kBackground;
        pick.submit_timeout_seconds = 0.1;
    }
    return pick;
}

std::string
text_hash(const std::string& text)
{
    StableHasher h;
    h.tag("dios-soak").str(text);
    return hash_hex(h.digest());
}

// ---------------------------------------------------------------------------
// Report and books
// ---------------------------------------------------------------------------

/** One JSON object, one `"name": value` field per line. */
struct JsonReport {
    std::vector<std::string> fields;

    void
    count(const char* name, std::uint64_t v)
    {
        fields.push_back(std::string("\"") + name + "\": " +
                         std::to_string(v));
    }

    void
    real(const char* name, double v)
    {
        char buf[160];
        std::snprintf(buf, sizeof buf, "\"%s\": %.6f", name, v);
        fields.emplace_back(buf);
    }
};

/**
 * Every request index of every stream (a daemon client process, or the
 * service transport's one shared request counter) must resolve exactly
 * once. The first artifact hash and the first failure hash recorded per
 * kernel are the references every later response must match.
 * Thread-safe.
 */
class Books {
  public:
    Books(std::size_t streams, std::size_t per_stream)
        : resolved_(streams, std::vector<std::uint8_t>(per_stream, 0))
    {
    }

    /** One response to request `index` of `stream`. */
    void
    resolve(std::size_t stream, std::size_t index, double latency_ms)
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::uint8_t& slot = resolved_[stream][index];
        slot = static_cast<std::uint8_t>(std::min(slot + 1, 2));
        latencies_ms_.push_back(latency_ms);
    }

    /** A kernel's artifact (`ok`) or failure text, compared by hash. */
    void
    record(const std::string& kernel, bool ok, const std::string& hash)
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto [it, fresh] =
            (ok ? artifacts_ : failures_).try_emplace(kernel, hash);
        if (!fresh && it->second != hash) {
            ++(ok ? byte_mismatches_ : error_mismatches_);
        }
    }

    /**
     * Compiles every kernel served ok from scratch — one process, no
     * service, no cache — then adds the shared fields to `out`. Returns
     * whether the shared invariants hold.
     */
    bool
    report(const Profile& p, JsonReport& out)
    {
        std::uint64_t cold_mismatches = 0;
        for (const auto* set : {&p.hot, &p.cold}) {
            for (const WorkItem& item : *set) {
                const auto it = artifacts_.find(item.name);
                if (it == artifacts_.end()) {
                    continue;
                }
                const CompileResult reference = compile_kernel_resilient(
                    scalar::parse_kernel(item.text), p.options);
                cold_mismatches +=
                    !reference.ok ||
                    text_hash(reference.compiled->c_source) != it->second;
            }
        }
        std::uint64_t lost = 0;
        std::uint64_t duplicated = 0;
        for (const auto& stream : resolved_) {
            lost += static_cast<std::uint64_t>(
                std::count(stream.begin(), stream.end(), 0));
            duplicated += static_cast<std::uint64_t>(
                std::count(stream.begin(), stream.end(), 2));
        }
        std::sort(latencies_ms_.begin(), latencies_ms_.end());
        const auto percentile = [&](double q) {
            if (latencies_ms_.empty()) {
                return 0.0;
            }
            return latencies_ms_[std::min(
                latencies_ms_.size() - 1,
                static_cast<std::size_t>(
                    q * static_cast<double>(latencies_ms_.size())))];
        };
        out.count("responses", latencies_ms_.size());
        out.count("lost", lost);
        out.count("duplicated", duplicated);
        out.count("byte_mismatches", byte_mismatches_);
        out.count("error_mismatches", error_mismatches_);
        out.count("cold_mismatches", cold_mismatches);
        out.real("p50_ms", percentile(0.50));
        out.real("p99_ms", percentile(0.99));
        return lost == 0 && duplicated == 0 && byte_mismatches_ == 0 &&
               error_mismatches_ == 0 && cold_mismatches == 0;
    }

  private:
    std::mutex mu_;
    std::vector<std::vector<std::uint8_t>> resolved_;
    std::vector<double> latencies_ms_;
    std::map<std::string, std::string> artifacts_;
    std::map<std::string, std::string> failures_;
    std::uint64_t byte_mismatches_ = 0;
    std::uint64_t error_mismatches_ = 0;
};

// ---------------------------------------------------------------------------
// Service transport: client threads against one in-process service
// ---------------------------------------------------------------------------

/** Runs the soak; adds its fields to `out` and returns its invariant. */
bool
run_service(const SoakConfig& cfg, const Profile& profile, Books& books,
            JsonReport& out)
{
    std::vector<std::string> faults;
    const char* env = std::getenv("DIOS_FAULT");
    std::istringstream specs(env == nullptr ? "" : env);
    for (std::string spec; std::getline(specs, spec, ',');) {
        if (!spec.empty()) {
            faults.push_back(spec);
        }
    }
    std::map<std::string, scalar::Kernel> kernels;
    for (const auto* set : {&profile.hot, &profile.cold, &profile.poison}) {
        for (const WorkItem& item : *set) {
            kernels.emplace(item.name, kernel_of(item));
        }
    }

    service::CompileService::Options sopts;
    sopts.jobs = cfg.jobs;
    sopts.queue_capacity = cfg.capacity;
    sopts.shed_watermark = cfg.watermark;
    service::CompileService svc(sopts);

    using service::CacheOutcome;
    std::array<std::atomic<std::uint64_t>, 9> outcomes{};
    std::atomic<std::uint64_t> ok{0}, failed{0}, fault_armed{0},
        missing_retry{0};
    std::atomic<std::size_t> next_request{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < cfg.clients; ++t) {
        clients.emplace_back([&, t] {
            Rng rng(0x9E3779B97F4A7C15ULL * (t + 1));
            for (;;) {
                const std::size_t idx = next_request.fetch_add(1);
                if (idx >= cfg.requests) {
                    return;
                }
                const Pick pick = pick_request(rng, profile, faults);
                CompilerOptions req = profile.options;
                const bool faulted = !pick.fault.empty();
                if (faulted) {
                    req.fault_specs = {pick.fault};
                    fault_armed.fetch_add(1);
                }
                service::SubmitOptions subopts;
                subopts.priority = pick.priority;
                subopts.submit_timeout_seconds = pick.submit_timeout_seconds;
                if (rng.next_u64() % 20 == 0) {
                    subopts.request_deadline_seconds = 5.0;
                }

                const Clock::time_point begin = Clock::now();
                service::Ticket ticket =
                    svc.submit(kernels.at(pick.item->name), req, subopts);
                if (ticket.future.wait_for(std::chrono::seconds(120)) !=
                    std::future_status::ready) {
                    continue;  // slot stays unresolved -> reported lost
                }
                const CompileResult& result = ticket.get();
                books.resolve(0, idx,
                              std::chrono::duration<double, std::milli>(
                                  Clock::now() - begin)
                                  .count());

                const CacheOutcome outcome = ticket.outcome();
                outcomes[static_cast<std::size_t>(outcome)].fetch_add(1);
                if (outcome == CacheOutcome::kShed ||
                    outcome == CacheOutcome::kBreakerOpen) {
                    if (ticket.retry_after_ms() == 0 ||
                        result.error.empty()) {
                        missing_retry.fetch_add(1);
                    }
                    continue;
                }
                if (outcome == CacheOutcome::kExpired) {
                    continue;
                }
                (result.ok ? ok : failed).fetch_add(1);
                // Fault-armed compiles may legitimately degrade;
                // everything else must be byte-identical.
                if (!faulted) {
                    books.record(pick.item->name, result.ok,
                                 text_hash(result.ok
                                               ? result.compiled->c_source
                                               : result.error));
                }
            }
        });
    }
    for (std::thread& c : clients) {
        c.join();
    }
    svc.drain(service::DrainMode::kFinish);

    const auto n = [&](CacheOutcome o) {
        return outcomes[static_cast<std::size_t>(o)].load();
    };
    const service::ServiceMetrics m = svc.metrics();
    out.count("ok", ok.load());
    out.count("shed", n(CacheOutcome::kShed));
    out.count("breaker_open", n(CacheOutcome::kBreakerOpen));
    out.count("negative_hits", n(CacheOutcome::kNegativeHit));
    out.count("expired", n(CacheOutcome::kExpired));
    out.count("failed", failed.load());
    out.count("fault_armed", fault_armed.load());
    out.count("shed_missing_retry", missing_retry.load());
    out.count("memory_hits", m.memory_hits);
    out.count("misses", m.misses);
    out.count("coalesced", m.coalesced);
    out.count("shed_overload", m.shed_overload);
    out.count("shed_timeout", m.shed_timeout);
    out.count("expired_in_queue", m.expired_in_queue);
    out.real("shed_rate", static_cast<double>(n(CacheOutcome::kShed) +
                                              n(CacheOutcome::kBreakerOpen)) /
                              static_cast<double>(cfg.requests));
    return missing_retry.load() == 0;
}

// ---------------------------------------------------------------------------
// Daemon transport: forked diosd + forked clients + the kill schedule
// ---------------------------------------------------------------------------

pid_t
spawn_daemon(const SoakConfig& cfg, const std::string& socket,
             const std::string& cache_dir)
{
    const pid_t pid = ::fork();
    if (pid != 0) {
        return pid;
    }
    // Child: run the daemon until SIGKILLed (chaos) or SIGTERMed
    // (orderly end of soak). No cleanup on the SIGKILL path — that is
    // the point.
    try {
        daemon::DaemonOptions opts;
        opts.socket_path = socket;
        opts.service.jobs = cfg.jobs;
        opts.service.cache_dir = cache_dir;
        opts.service.queue_capacity = cfg.capacity;
        opts.service.shed_watermark = cfg.watermark;
        opts.drain_deadline_seconds = 2.0;
        daemon::Daemon d(opts);
        d.start();
        static std::atomic<bool> stop{false};
        struct sigaction sa = {};
        sa.sa_handler = [](int) { stop.store(true); };
        sigemptyset(&sa.sa_mask);
        sigaction(SIGTERM, &sa, nullptr);
        while (!stop.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        d.shutdown(service::DrainMode::kFinish);
        ::_exit(0);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "soak[daemon]: %s\n", e.what());
        ::_exit(3);
    }
}

/**
 * One client process. Writes `<index> <kernel> <outcome> <hash>
 * <latency_ms>` per request to `results_path`, then a `#counters` line.
 */
int
run_client(const SoakConfig& cfg, const Profile& profile, int id,
           const std::string& socket, const std::string& results_path)
{
    std::ofstream out(results_path);
    if (!out) {
        std::fprintf(stderr, "soak[client %d]: cannot open %s\n", id,
                     results_path.c_str());
        return 3;
    }

    daemon::RemoteOptions ropts;
    ropts.socket_path = socket;
    ropts.request_timeout_seconds = 60.0;
    ropts.max_attempts = 4;
    ropts.backoff_initial_ms = 25.0;
    ropts.backoff_max_ms = 400.0;
    ropts.jitter_seed = 0x5eed + static_cast<std::uint64_t>(id);
    daemon::RemoteClient client(ropts);
    Rng rng(0xC0FFEE ^ (static_cast<std::uint64_t>(id) << 32));
    std::uint64_t fallback_ok = 0;
    std::uint64_t fallback_failed = 0;

    // One deterministic unreachable-daemon probe rides along at a
    // random position: a request aimed at a socket nobody serves MUST
    // complete locally.
    daemon::RemoteOptions dead = ropts;
    dead.socket_path = socket + ".nobody";
    dead.max_attempts = 2;
    dead.backoff_initial_ms = 1.0;
    dead.backoff_max_ms = 2.0;
    daemon::RemoteClient dead_client(dead);
    const std::size_t probe_at = rng.next_u64() % cfg.requests;

    // Clients fork together, so elapsed wall time lines up across all
    // of them: inside this window every client fires unpaced batch
    // requests for run-unique kernels (the kernel name feeds the cache
    // key, so each is a genuine compile, never a cache hit). The
    // overlapping cold storms pile onto the small daemon queue and
    // deterministically cross the shed watermark. The window sits after
    // the kill schedule so the daemon is up to do the shedding.
    const Clock::time_point client_start = Clock::now();
    const double burst_start_s =
        (static_cast<double>(cfg.kills) * cfg.kill_interval_ms +
         cfg.dead_window_ms) /
            1000.0 +
        0.3;
    std::size_t burst_counter = 0;

    for (std::size_t i = 0; i < cfg.requests; ++i) {
        const double elapsed_s =
            std::chrono::duration<double>(Clock::now() - client_start)
                .count();
        const bool burst =
            elapsed_s >= burst_start_s && elapsed_s < burst_start_s + 0.5;
        Pick pick = pick_request(rng, profile, {});
        WorkItem burst_item;
        if (burst) {
            burst_item = vadd_item(8, "burst" + std::to_string(id) + "x" +
                                          std::to_string(burst_counter++) +
                                          "x" + std::to_string(::getpid()));
            pick.item = &burst_item;
            pick.priority = service::Priority::kBatch;
            pick.submit_timeout_seconds = 0.05;
        }
        const WorkItem& item = *pick.item;

        daemon::CompileRequest req;
        req.kernel_name = item.name;
        req.kernel_text = item.text;
        req.options = profile.options;
        req.priority = pick.priority;
        req.submit_timeout_seconds = pick.submit_timeout_seconds;

        const Clock::time_point begin = Clock::now();
        const auto resp = (i == probe_at ? dead_client : client).compile(req);
        std::string outcome;
        std::string hash;
        if (resp && resp->status == daemon::ResponseStatus::kOk) {
            // Reconstruct the artifact the daemon promised: byte
            // identity is checked on the *C source*, post-transport.
            outcome = "ok";
            hash = text_hash(service::compiled_from_entry(
                                 scalar::parse_kernel(item.text),
                                 *resp->entry)
                                 .c_source);
        } else if (resp) {
            outcome = "failed";
            hash = text_hash(resp->error);
        } else {
            // Daemon unreachable after retries: the request must still
            // complete, locally, with the same bytes. A kernel the
            // server would reject at parse time fails the same way
            // here.
            bool local_ok = false;
            try {
                const CompileResult local = compile_kernel_resilient(
                    scalar::parse_kernel(item.text), profile.options);
                local_ok = local.ok;
                hash = text_hash(local.ok ? local.compiled->c_source
                                          : local.error);
            } catch (const UserError& e) {
                hash = text_hash(e.what());
            }
            outcome = local_ok ? "fallback-ok" : "fallback-failed";
            ++(local_ok ? fallback_ok : fallback_failed);
        }
        const double ms = std::chrono::duration<double, std::milli>(
                              Clock::now() - begin)
                              .count();
        out << i << ' ' << item.name << ' ' << outcome << ' ' << hash << ' '
            << ms << '\n';
        if (cfg.pace_ms > 0 && !burst) {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(cfg.pace_ms));
        }
    }

    const daemon::ClientCounters& a = client.counters();
    const daemon::ClientCounters& b = dead_client.counters();
    out << "#counters " << a.remote_requests + b.remote_requests << ' '
        << a.remote_retries + b.remote_retries << ' '
        << a.remote_shed + b.remote_shed << ' '
        << a.remote_fallback_local + b.remote_fallback_local << ' '
        << fallback_ok << ' ' << fallback_failed << '\n';
    return 0;
}

/** Reaps finished clients; true while any is still running. */
bool
any_alive(const std::vector<pid_t>& pids, std::vector<int>& status,
          std::vector<bool>& done)
{
    bool alive = false;
    for (std::size_t i = 0; i < pids.size(); ++i) {
        if (!done[i] && ::waitpid(pids[i], &status[i], WNOHANG) == pids[i]) {
            done[i] = true;
        }
        alive = alive || !done[i];
    }
    return alive;
}

/** Runs the soak; adds its fields to `out` and returns its invariant. */
bool
run_daemon(const SoakConfig& cfg, const Profile& profile, Books& books,
           JsonReport& out)
{
    const fs::path root =
        cfg.dir.empty() ? fs::temp_directory_path() /
                              ("dios_soak_" + std::to_string(::getpid()))
                        : fs::path(cfg.dir);
    fs::remove_all(root);
    fs::create_directories(root);
    const std::string socket = (root / "diosd.sock").string();
    const std::string cache_dir = (root / "cache").string();

    pid_t daemon_pid = spawn_daemon(cfg, socket, cache_dir);
    // Wait for the first daemon to bind before unleashing clients.
    for (int spin = 0; spin < 100 && !fs::exists(socket); ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }

    std::vector<pid_t> client_pids;
    std::vector<std::string> client_files;
    for (int c = 0; c < cfg.clients; ++c) {
        const std::string path =
            (root / ("client" + std::to_string(c) + ".txt")).string();
        client_files.push_back(path);
        const pid_t pid = ::fork();
        if (pid == 0) {
            try {
                ::_exit(run_client(cfg, profile, c, socket, path));
            } catch (const std::exception& e) {
                std::fprintf(stderr, "soak[client %d]: %s\n", c, e.what());
                ::_exit(3);
            }
        }
        client_pids.push_back(pid);
    }

    // Chaos schedule: SIGKILL + restart, with one extended dead window
    // in the middle where retry budgets exhaust and clients go local.
    std::vector<int> client_status(client_pids.size(), 0);
    std::vector<bool> client_done(client_pids.size(), false);
    int kills_done = 0;
    for (int k = 0; k < cfg.kills; ++k) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(cfg.kill_interval_ms));
        if (!any_alive(client_pids, client_status, client_done)) {
            break;  // workload already finished; chaos would be theater
        }
        ::kill(daemon_pid, SIGKILL);
        ::waitpid(daemon_pid, nullptr, 0);
        ++kills_done;
        if (k == cfg.kills / 2 && cfg.dead_window_ms > 0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(
                    cfg.dead_window_ms));
        }
        daemon_pid = spawn_daemon(cfg, socket, cache_dir);
    }
    while (any_alive(client_pids, client_status, client_done)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    // Orderly daemon shutdown (drain + final fsync of the shared cache).
    ::kill(daemon_pid, SIGTERM);
    ::waitpid(daemon_pid, nullptr, 0);

    std::uint64_t ok = 0, failed = 0, client_errors = 0;
    // remote_requests, remote_retries, shed, fallback_local,
    // fallback_ok, fallback_failed — summed over the #counters lines.
    std::uint64_t sums[6] = {0, 0, 0, 0, 0, 0};
    for (std::size_t c = 0; c < client_files.size(); ++c) {
        client_errors += client_status[c] != 0;
        std::ifstream in(client_files[c]);
        bool counters_seen = false;
        for (std::string line; std::getline(in, line);) {
            std::istringstream is(line);
            if (line.rfind("#counters ", 0) == 0) {
                is.ignore(10);
                for (std::uint64_t& sum : sums) {
                    std::uint64_t v = 0;
                    is >> v;
                    sum += v;
                }
                counters_seen = true;
                continue;
            }
            std::size_t idx = 0;
            std::string name, outcome, hash;
            double ms = 0.0;
            if (!(is >> idx >> name >> outcome >> hash >> ms) ||
                idx >= cfg.requests) {
                ++client_errors;
                continue;
            }
            books.resolve(c, idx, ms);
            ok += outcome == "ok";
            failed += outcome == "failed";
            books.record(name, outcome == "ok" || outcome == "fallback-ok",
                         hash);
        }
        client_errors += !counters_seen;
    }
    if (cfg.dir.empty()) {
        std::error_code ec;
        fs::remove_all(root, ec);
    }

    out.count("clients", static_cast<std::uint64_t>(cfg.clients));
    out.count("kills", static_cast<std::uint64_t>(kills_done));
    out.count("ok", ok);
    out.count("failed", failed);
    out.count("fallback_ok", sums[4]);
    out.count("fallback_failed", sums[5]);
    out.count("remote_requests", sums[0]);
    out.count("remote_retries", sums[1]);
    out.count("shed", sums[2]);
    out.count("fallback_local", sums[3]);
    out.count("client_errors", client_errors);
    return client_errors == 0 && sums[3] != 0;
}

}  // namespace

int
main(int argc, char** argv)
try {
    const SoakConfig cfg = parse_args(argc, argv);
    const Profile profile = make_profile(cfg.transport);
    const bool daemon = cfg.transport == Transport::kDaemon;
    const std::size_t streams =
        daemon ? static_cast<std::size_t>(cfg.clients) : 1;
    Books books(streams, cfg.requests);
    const std::uint64_t requests = streams * cfg.requests;

    JsonReport report;
    report.count("requests", requests);
    const Clock::time_point soak_start = Clock::now();
    const bool transport_ok =
        daemon ? run_daemon(cfg, profile, books, report)
               : run_service(cfg, profile, books, report);
    const double soak_seconds =
        std::chrono::duration<double>(Clock::now() - soak_start).count();
    const bool books_ok = books.report(profile, report);
    report.real("soak_seconds", soak_seconds);
    report.real("throughput_rps",
                static_cast<double>(requests) / soak_seconds);

    std::string json = "{\n";
    for (std::size_t i = 0; i < report.fields.size(); ++i) {
        json += report.fields[i] +
                (i + 1 < report.fields.size() ? ",\n" : "\n");
    }
    json += "}\n";
    std::fputs(json.c_str(), stdout);
    if (!cfg.out_path.empty()) {
        std::ofstream(cfg.out_path) << json;
    }
    if (!transport_ok || !books_ok) {
        std::fprintf(stderr, "soak: INVARIANT VIOLATION\n");
        return 1;
    }
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "soak: error: %s\n", e.what());
    return 1;
}
