/**
 * @file
 * daemon_mixed: kernel text → cached artifact through diosd. A daemon
 * runs in a forked child (one compile worker, a 32-entry memory cache
 * over a disk cache); this process drives it with two closed-loop
 * RemoteClients, each waiting for its reply before sending again.
 *
 * Traffic per request: 88% hot (Zipf over 24 keys, served from memory),
 * 9% warm (60 keys in turn, each a disk hit after eviction), 2% cold (a
 * renamed width-4 Table-1 kernel, so it compiles and is stored), 1%
 * poison (a kernel that fails to parse; kUser is the expected answer).
 * The mix and the hot/warm split of the 84 keys are fixed; the seed
 * draws the sequence.
 */
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "daemon/client.h"
#include "daemon/daemon.h"
#include "scalar/canonical.h"
#include "scalar/parse.h"
#include "service/serialize.h"
#include "support/hash.h"
#include "support/rng.h"

namespace diospyros::benchmark {

namespace {

namespace fs = std::filesystem;

constexpr int kClients = 2;
constexpr std::size_t kBatchPerClient = 500;
constexpr std::size_t kWarmupPerClient = 500;
constexpr std::size_t kHotKeys = 24;
/** Cold requests rename one of the 15 Table-1 kernels whose width-4
 *  e-graphs stay smallest, so a cold compile is a realistic miss, not a
 *  wall. */
constexpr std::size_t kColdKernels = 15;

enum class Kind { kHot, kWarm, kCold, kPoison };

const char*
kind_name(Kind k)
{
    switch (k) {
      case Kind::kHot:
        return "hot";
      case Kind::kWarm:
        return "warm";
      case Kind::kCold:
        return "cold";
      case Kind::kPoison:
        return "poison";
    }
    return "?";
}

/** The forked daemon; stopped (and reaped) on every exit path. */
class DaemonProcess {
  public:
    DaemonProcess(const std::string& socket, const std::string& cache_dir)
    {
        pid_ = ::fork();
        if (pid_ < 0) {
            throw std::runtime_error("fork failed");
        }
        if (pid_ == 0) {
            serve(socket, cache_dir);
        }
    }
    ~DaemonProcess()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
    }
    DaemonProcess(const DaemonProcess&) = delete;
    DaemonProcess& operator=(const DaemonProcess&) = delete;

    /** Orderly shutdown; returns the daemon's peak resident set in MB. */
    double
    stop()
    {
        ::kill(pid_, SIGTERM);
        int status = 0;
        rusage usage{};
        ::wait4(pid_, &status, 0, &usage);
        pid_ = -1;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            throw std::runtime_error("the daemon did not exit cleanly");
        }
        return static_cast<double>(usage.ru_maxrss) / 1024.0;
    }

  private:
    [[noreturn]] static void
    serve(const std::string& socket, const std::string& cache_dir)
    {
        try {
            sigset_t term;
            sigemptyset(&term);
            sigaddset(&term, SIGTERM);
            // Blocked before any thread starts, so only sigwait sees it.
            pthread_sigmask(SIG_BLOCK, &term, nullptr);
            daemon::DaemonOptions opts;
            opts.socket_path = socket;
            opts.service.jobs = 1;
            opts.service.memory_cache_capacity = 32;
            opts.service.cache_dir = cache_dir;
            daemon::Daemon d(opts);
            d.start();
            int sig = 0;
            sigwait(&term, &sig);
            d.shutdown(service::DrainMode::kFinish);
            ::_exit(0);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "daemon: %s\n", e.what());
            ::_exit(3);
        }
    }

    pid_t pid_ = -1;
};

/** Cheap digest of a served entry, to group identical responses. */
std::uint64_t
entry_digest(const service::CachedEntry& e)
{
    StableHasher h;
    h.str(e.kernel_name).str(e.c_source);
    for (const float f : e.pool) {
        h.f64(f);
    }
    for (const Instr& in : e.machine.code) {
        h.u64(static_cast<std::uint64_t>(in.op))
            .i64(in.dst)
            .i64(in.a)
            .i64(in.b)
            .i64(in.imm)
            .f64(in.fimm);
        for (const std::int16_t lane : in.lanes) {
            h.i64(lane);
        }
    }
    return h.digest();
}

/** One class of identical requests, with its designed share of traffic. */
struct RequestClass {
    Kind kind = Kind::kHot;
    /** Case index (of the original kernel for cold); poison: its size. */
    std::size_t key = 0;
    double weight = 0.0;
};

/** One request a client sent. */
struct Sent {
    std::size_t cls = 0;  ///< index into Traffic::classes
    double latency_ms = 0.0;
};

/** Responses grouped by content: one decoded entry per distinct digest. */
struct Served {
    Kind kind = Kind::kHot;
    std::size_t key = 0;
    std::string text;  ///< the kernel text sent (renamed for cold)
    service::CachedEntry entry;
};

/** State shared by the client threads. */
struct Traffic {
    const std::vector<CompileCase>* cases = nullptr;
    std::vector<RequestClass> classes;
    /** Cumulative class weights, normalized to end at 1. */
    std::vector<double> cdf;
    /** Warm requests walk the warm classes in this order, shared by the
     *  clients, so a warm key comes back only after ~70 cache insertions
     *  have evicted it from memory: every warm request is a disk hit. */
    std::vector<std::size_t> warm_order;
    std::atomic<std::size_t> warm_next{0};
    std::string socket;

    std::mutex mu;
    std::map<std::uint64_t, Served> served;
    std::vector<std::string> failures;
};

class Client {
  public:
    Client(Traffic& traffic, int id, std::uint64_t seed)
        : traffic_(traffic), id_(id), rng_(seed), remote_(options(traffic))
    {
    }

    /** Sends `n` requests, one after another. */
    void
    run(std::size_t n, std::vector<Sent>* log)
    {
        for (std::size_t i = 0; i < n; ++i) {
            const Sent s = one();
            if (log != nullptr) {
                log->push_back(s);
            }
        }
    }

    const daemon::ClientCounters& counters() const
    {
        return remote_.counters();
    }

  private:
    static daemon::RemoteOptions
    options(const Traffic& traffic)
    {
        daemon::RemoteOptions o;
        o.socket_path = traffic.socket;
        o.request_timeout_seconds = 60.0;
        o.max_attempts = 2;
        o.backoff_initial_ms = 5.0;
        o.jitter_seed = 1;
        return o;
    }

    Sent
    one()
    {
        const std::vector<CompileCase>& cases = *traffic_.cases;
        Sent s;
        s.cls = std::min<std::size_t>(
            std::lower_bound(traffic_.cdf.begin(), traffic_.cdf.end(),
                             rng_.uniform01()) -
                traffic_.cdf.begin(),
            traffic_.cdf.size() - 1);
        if (traffic_.classes[s.cls].kind == Kind::kWarm) {
            s.cls = traffic_.warm_order[traffic_.warm_next++ %
                                        traffic_.warm_order.size()];
        }
        const RequestClass& rc = traffic_.classes[s.cls];
        daemon::CompileRequest req;
        if (rc.kind == Kind::kPoison) {
            req.kernel_name = "poison";
            req.kernel_text =
                "(kernel poison (param n " + std::to_string(rc.key) +
                ") (output C n) (for i 0 n (store C i (load Z i))))";
        } else {
            const CompileCase& c = cases[rc.key];
            req.options = c.options;
            if (rc.kind == Kind::kCold) {
                scalar::Kernel renamed = c.kernel;
                renamed.name = c.kernel.name + "_c" + std::to_string(id_) +
                               "_" + std::to_string(++cold_count_);
                req.kernel_text = kernel_text(renamed);
                req.kernel_name = renamed.name;
            } else {
                req.kernel_text = c.text;
                req.kernel_name = c.kernel.name;
            }
        }

        const double t0 = now_seconds();
        const std::optional<daemon::CompileResponse> resp =
            remote_.compile(req);
        s.latency_ms = (now_seconds() - t0) * 1e3;

        std::lock_guard<std::mutex> lock(traffic_.mu);
        const std::string what = std::string(kind_name(rc.kind)) + " request";
        if (!resp) {
            traffic_.failures.push_back(what + ": no response");
        } else if (rc.kind == Kind::kPoison) {
            if (resp->status != daemon::ResponseStatus::kFailed ||
                resp->failure_class != FailureClass::kUser) {
                traffic_.failures.push_back(
                    what + ": expected a kUser rejection");
            }
        } else if (resp->status != daemon::ResponseStatus::kOk ||
                   !resp->entry) {
            traffic_.failures.push_back(what + " for " +
                                        cases[rc.key].label + ": " +
                                        resp->error);
        } else {
            const std::uint64_t d = entry_digest(*resp->entry);
            if (traffic_.served.find(d) == traffic_.served.end()) {
                traffic_.served.emplace(
                    d, Served{rc.kind, rc.key, req.kernel_text,
                              *resp->entry});
            }
        }
        return s;
    }

    Traffic& traffic_;
    int id_;
    Rng rng_;
    daemon::RemoteClient remote_;
    std::uint64_t cold_count_ = 0;
};

/** Each client sends `per_client` requests, all clients at once. */
void
batch(std::vector<std::unique_ptr<Client>>& clients, std::size_t per_client,
      std::vector<std::vector<Sent>>* logs)
{
    std::vector<std::string> errors(clients.size());
    {
        std::vector<std::jthread> threads;
        for (std::size_t c = 0; c < clients.size(); ++c) {
            threads.emplace_back([&, c] {
                try {
                    clients[c]->run(per_client,
                                    logs != nullptr ? &(*logs)[c] : nullptr);
                } catch (const std::exception& e) {
                    errors[c] = e.what();
                }
            });
        }
    }
    for (const std::string& e : errors) {
        if (!e.empty()) {
            throw std::runtime_error("client: " + e);
        }
    }
}

/** A numeric field of the daemon's flat status JSON. */
double
status_field(const std::string& json, const std::string& name)
{
    const std::string needle = "\"" + name + "\":";
    const std::size_t at = json.find(needle);
    if (at == std::string::npos) {
        throw std::runtime_error("status has no field " + name);
    }
    return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

/** Quantile of a discrete distribution of (value, weight) pairs. */
double
weighted_quantile(std::vector<std::pair<double, double>> mix, double q)
{
    std::sort(mix.begin(), mix.end());
    double total = 0.0;
    for (const auto& [value, weight] : mix) {
        total += weight;
    }
    double cumulative = 0.0;
    for (const auto& [value, weight] : mix) {
        cumulative += weight;
        if (cumulative >= q * total) {
            return value;
        }
    }
    return mix.back().first;
}

}  // namespace

void
run_daemon(const RunConfig& cfg, Result& result)
{
    const double setup_start = now_seconds();
    const fs::path dir = fs::path(cfg.workdir) / "daemon";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string socket = (dir / "diosd.sock").string();

    // Forked before this process allocates anything large, so the
    // child's peak RSS is the daemon's own.
    DaemonProcess daemon_proc(socket, (dir / "cache").string());
    std::optional<std::string> status;
    {
        daemon::RemoteOptions probe;
        probe.socket_path = socket;
        probe.max_attempts = 1;
        daemon::RemoteClient client(probe);
        for (int i = 0; i < 500 && !(status = client.status()); ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    }
    if (!status) {
        throw std::runtime_error("the daemon never answered " + socket);
    }
    const double ready_ms = (now_seconds() - setup_start) * 1e3;

    const std::vector<CompileCase> cases =
        build_cases(workload_specs(cfg), cfg.seed);

    Traffic traffic;
    traffic.cases = &cases;
    traffic.socket = socket;

    // Fill the daemon's disk cache with every key while this process
    // compiles the same keys locally as the byte-identity reference.
    std::vector<std::string> reference(cases.size());
    std::string fill_error;
    std::jthread fill([&] {
        try {
            daemon::RemoteOptions o;
            o.socket_path = socket;
            daemon::RemoteClient client(o);
            for (const CompileCase& c : cases) {
                daemon::CompileRequest req;
                req.kernel_name = c.kernel.name;
                req.kernel_text = c.text;
                req.options = c.options;
                const auto resp = client.compile(req);
                if (!resp || resp->status != daemon::ResponseStatus::kOk) {
                    throw std::runtime_error("fill failed for " + c.label);
                }
            }
        } catch (const std::exception& e) {
            fill_error = e.what();
        }
    });
    std::vector<std::pair<std::size_t, std::size_t>> by_nodes;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const CompileResult r =
            compile_kernel_resilient(cases[i].kernel, cases[i].options);
        if (!r.ok) {
            throw std::runtime_error(cases[i].label + ": " + r.error);
        }
        reference[i] =
            artifact_text(r.compiled->machine, r.compiled->c_source,
                          cases[i].options.target.vector_width);
        if (cases[i].options.target.vector_width == 4 || cfg.smoke) {
            by_nodes.emplace_back(r.report().egraph_nodes, i);
        }
    }
    fill.join();
    if (!fill_error.empty()) {
        throw std::runtime_error(fill_error);
    }

    // The traffic mix is fixed; the seed only draws the sequence. The
    // hot/warm split of the keys comes from seed 0, and cold requests
    // rename the width-4 kernels with the smallest e-graphs.
    const std::vector<std::size_t> perm = shuffled_order(cases.size(), 0);
    const std::size_t hot_n = std::min(kHotKeys, cases.size());
    double harmonic = 0.0;
    for (std::size_t r = 1; r <= hot_n; ++r) {
        harmonic += 1.0 / static_cast<double>(r);
    }
    for (std::size_t r = 0; r < hot_n; ++r) {
        traffic.classes.push_back(
            {Kind::kHot, perm[r],
             0.88 / static_cast<double>(r + 1) / harmonic});
    }
    for (std::size_t r = hot_n; r < perm.size(); ++r) {
        traffic.warm_order.push_back(traffic.classes.size());
        traffic.classes.push_back(
            {Kind::kWarm, perm[r],
             0.09 / static_cast<double>(perm.size() - hot_n)});
    }
    const std::vector<std::size_t> warm_perm =
        shuffled_order(traffic.warm_order.size(), cfg.seed);
    std::vector<std::size_t> warm_order;
    for (const std::size_t i : warm_perm) {
        warm_order.push_back(traffic.warm_order[i]);
    }
    traffic.warm_order = warm_order;
    std::sort(by_nodes.begin(), by_nodes.end());
    by_nodes.resize(std::min(by_nodes.size(), kColdKernels));
    for (const auto& [nodes, i] : by_nodes) {
        traffic.classes.push_back(
            {Kind::kCold, i, 0.02 / static_cast<double>(by_nodes.size())});
    }
    for (std::size_t n = 4; n < 8; ++n) {
        traffic.classes.push_back({Kind::kPoison, n, 0.01 / 4});
    }
    double cumulative = 0.0;
    for (const RequestClass& rc : traffic.classes) {
        cumulative += rc.weight;
        traffic.cdf.push_back(cumulative);
    }
    for (double& v : traffic.cdf) {
        v /= cumulative;
    }

    std::vector<std::unique_ptr<Client>> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.push_back(std::make_unique<Client>(
            traffic, c, cfg.seed * 0x9E3779B97F4A7C15ULL + c));
    }
    if (!cfg.smoke) {
        batch(clients, kWarmupPerClient, nullptr);
    }
    const double setup_s = now_seconds() - setup_start;

    std::vector<Sent> timed;
    const std::size_t per_client = cfg.smoke ? 10 : kBatchPerClient;
    const double start = now_seconds();
    do {
        std::vector<std::vector<Sent>> logs(clients.size());
        batch(clients, per_client, &logs);
        for (const std::vector<Sent>& log : logs) {
            timed.insert(timed.end(), log.begin(), log.end());
        }
    } while (!cfg.smoke && now_seconds() - start < cfg.seconds);

    // Interference on a shared host only adds time, so each request class
    // (identical requests: same kind, same key) is charged the fastest
    // latency it saw in this run. The metrics are taken over the designed
    // mix, each class at its floor and weighted by its share, so the
    // seed's particular draw does not move them.
    std::vector<double> floor_ms(traffic.classes.size(),
                                 std::numeric_limits<double>::infinity());
    std::map<Kind, std::vector<double>> by_kind;
    for (const Sent& s : timed) {
        floor_ms[s.cls] = std::min(floor_ms[s.cls], s.latency_ms);
        by_kind[traffic.classes[s.cls].kind].push_back(s.latency_ms);
    }
    std::vector<std::pair<double, double>> mix;
    double mix_weight = 0.0;
    double mean_ms = 0.0;
    for (std::size_t c = 0; c < floor_ms.size(); ++c) {
        if (std::isfinite(floor_ms[c])) {
            mix.emplace_back(floor_ms[c], traffic.classes[c].weight);
            mix_weight += traffic.classes[c].weight;
            mean_ms += traffic.classes[c].weight * floor_ms[c];
        }
    }
    mean_ms /= mix_weight;
    const std::size_t sent = timed.size();

    // Verify every distinct response: hot and warm artifacts must equal
    // the local reference byte for byte; cold ones must round-trip as
    // text and simulate correctly.
    result.attempt(sent);
    for (const std::string& f : traffic.failures) {
        result.fail(f);
    }
    std::vector<double> speedups;
    for (const auto& [digest, s] : traffic.served) {
        const CompileCase& c = cases[s.key];
        const int width = c.options.target.vector_width;
        const scalar::Kernel kernel = scalar::parse_kernel(s.text);
        const CompiledKernel ck = service::compiled_from_entry(kernel, s.entry);
        if (s.kind == Kind::kCold) {
            scalar::Kernel renamed = c.kernel;
            renamed.name = kernel.name;
            if (scalar::canonical_kernel_text(kernel) !=
                scalar::canonical_kernel_text(renamed)) {
                result.fail(kernel.name + ": cold kernel text does not "
                                          "round-trip");
            }
            const std::string err = check_outputs(c, ck);
            if (!err.empty()) {
                result.fail("cold " + err);
            }
        } else if (artifact_text(ck.machine, ck.c_source, width) !=
                   reference[s.key]) {
            result.fail(c.label + ": served artifact differs from the "
                                  "local reference");
        } else {
            std::uint64_t cycles = 0;
            const std::string err = check_outputs(c, ck, &cycles);
            if (!err.empty()) {
                result.fail(err);
            }
            speedups.push_back(static_cast<double>(c.naive_fixed_cycles) /
                               static_cast<double>(cycles));
        }
    }
    std::uint64_t retries = 0;
    std::uint64_t fallbacks = 0;
    for (const auto& client : clients) {
        retries += client->counters().remote_retries;
        fallbacks += client->counters().remote_fallback_local;
    }

    daemon::RemoteOptions probe;
    probe.socket_path = socket;
    status = daemon::RemoteClient(probe).status();
    if (!status) {
        throw std::runtime_error("no status from the daemon");
    }
    const double frames_rejected = status_field(*status, "frames_rejected");
    if (retries + fallbacks > 0 || frames_rejected > 0) {
        result.fail("transport trouble: " + std::to_string(retries) +
                    " retries, " + std::to_string(fallbacks) +
                    " fallbacks, " + std::to_string(frames_rejected) +
                    " rejected frames");
    }
    const double daemon_rss_mb = daemon_proc.stop();
    fs::remove_all(dir);

    result.metric("setup_s", setup_s, "s");
    // One pass is a batch: the closed-loop clients split it evenly.
    result.metric("pass_s",
                  static_cast<double>(kBatchPerClient) * mean_ms / 1e3, "s");
    result.metric("latency_p50_ms", weighted_quantile(mix, 0.5), "ms");
    result.metric("latency_p99_ms", weighted_quantile(mix, 0.99), "ms");
    result.metric("peak_rss_mb", daemon_rss_mb, "MB");
    result.metric("speedup_geomean", geomean(speedups), "x");
    result.info("requests", static_cast<double>(sent), "count");
    result.info("daemon.ready_ms", ready_ms, "ms");
    for (const auto& [kind, lat] : by_kind) {
        result.info(std::string("daemon.") + kind_name(kind) + "_p50_ms",
                    quantile(lat, 0.5), "ms");
    }
    const double mem = status_field(*status, "memory_hits");
    const double disk = status_field(*status, "disk_hits");
    const double miss = status_field(*status, "misses");
    result.info("service.memory_hits", mem, "count");
    result.info("service.disk_hits", disk, "count");
    result.info("service.misses", miss, "count");
    result.info("service.evictions", status_field(*status, "evictions"),
                "count");
    result.info("service.hit_ratio", (mem + disk) / (mem + disk + miss),
                "ratio");
    result.info("service.queue_wait_ms_mean",
                status_field(*status, "queue_wait_seconds") * 1e3 /
                    std::max(1.0, miss + disk),
                "ms");
}

}  // namespace diospyros::benchmark
