/**
 * @file
 * diosd: the standing compile daemon (DESIGN.md §5j). Wraps a
 * CompileService behind the Unix-domain-socket frame protocol so many
 * dioscc processes share one warm cache and one admission-controlled
 * worker pool.
 *
 *   diosd --socket PATH [--jobs N] [--cache-dir D]
 *         [--cache-disk-budget BYTES] [--queue-capacity N]
 *         [--shed-watermark N] [--neg-cache-ttl-s S]
 *         [--read-deadline-s S] [--drain-deadline-s S] [--json]
 *
 * SIGTERM/SIGINT trigger a graceful drain: queued work is finished
 * (kFinish) and a watchdog escalates to kShed at the drain deadline, so
 * termination is bounded. The final metrics document is printed on exit
 * (a JSON object with --json, a commentary line otherwise).
 *
 * Exit codes: 0 clean shutdown, 2 bad flags or a live daemon already
 * owns the socket.
 */
#include <csignal>
#include <cstdio>
#include <string>

#include <atomic>
#include <chrono>
#include <thread>

#include <unistd.h>

#include "daemon/daemon.h"
#include "support/error.h"
#include "support/numeric.h"

using namespace diospyros;

namespace {

std::atomic<bool> g_stop{false};

void
handle_stop(int)
{
    g_stop.store(true);
}

void
install_stop_handlers()
{
    struct sigaction sa = {};
    sa.sa_handler = handle_stop;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
}

[[noreturn]] void
usage(const char* argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --socket PATH [--jobs N] [--cache-dir D]\n"
        "          [--cache-disk-budget BYTES] [--queue-capacity N]\n"
        "          [--shed-watermark N] [--neg-cache-ttl-s S]\n"
        "          [--read-deadline-s S] [--drain-deadline-s S] [--json]\n",
        argv0);
    std::exit(2);
}

}  // namespace

int
main(int argc, char** argv)
try {
    daemon::DaemonOptions opts;
    bool json = false;
    auto next_arg = [&](int& i) -> std::string {
        if (i + 1 >= argc) {
            usage(argv[0]);
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--socket") {
            opts.socket_path = next_arg(i);
        } else if (arg == "--jobs") {
            const long long jobs = require_positive_integer(arg, next_arg(i));
            DIOS_CHECK(jobs <= 1024, arg + " must be at most 1024");
            opts.service.jobs = static_cast<int>(jobs);
        } else if (arg == "--cache-dir") {
            opts.service.cache_dir = next_arg(i);
        } else if (arg == "--cache-disk-budget") {
            opts.service.disk_budget_bytes = static_cast<std::uintmax_t>(
                require_nonnegative_integer(arg, next_arg(i)));
        } else if (arg == "--queue-capacity") {
            opts.service.queue_capacity = static_cast<std::size_t>(
                require_positive_integer(arg, next_arg(i)));
        } else if (arg == "--shed-watermark") {
            opts.service.shed_watermark = static_cast<std::size_t>(
                require_nonnegative_integer(arg, next_arg(i)));
        } else if (arg == "--neg-cache-ttl-s") {
            opts.service.negative_ttl_seconds =
                require_nonnegative_number(arg, next_arg(i));
        } else if (arg == "--read-deadline-s") {
            opts.read_deadline_seconds =
                require_positive_number(arg, next_arg(i));
        } else if (arg == "--drain-deadline-s") {
            opts.drain_deadline_seconds =
                require_nonnegative_number(arg, next_arg(i));
        } else if (arg == "--json") {
            json = true;
        } else {
            usage(argv[0]);
        }
    }
    if (opts.socket_path.empty()) {
        usage(argv[0]);
    }

    daemon::Daemon daemon(opts);
    daemon.start();
    install_stop_handlers();
    std::fprintf(stderr, "; diosd: serving on %s (pid %d, %d jobs)\n",
                 opts.socket_path.c_str(), ::getpid(), opts.service.jobs);
    while (!g_stop.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    std::fprintf(stderr, "; diosd: signal received, draining\n");
    daemon.shutdown(service::DrainMode::kFinish);
    if (json) {
        std::printf("%s\n", daemon.status_json().c_str());
    } else {
        std::fprintf(stderr, "; diosd: final metrics: %s\n",
                     daemon.status_json().c_str());
    }
    return 0;
} catch (const UserError& e) {
    std::fprintf(stderr, "diosd: error: %s\n", e.what());
    return 2;
} catch (const std::exception& e) {
    std::fprintf(stderr, "diosd: error: %s\n", e.what());
    return 1;
}
