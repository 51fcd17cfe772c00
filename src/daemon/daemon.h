/**
 * @file
 * diosd: CompileService behind a Unix-domain-socket frame protocol
 * (DESIGN.md §5j).
 *
 * Lifecycle and robustness machinery:
 *  - Singleton per socket: a pid/lock file (`<socket>.pid`) held under
 *    an exclusive flock for the daemon's lifetime. flock dies with the
 *    process, so a failed non-blocking acquire means a *live* owner —
 *    refuse to start. A successful acquire over an existing file is a
 *    dead-pid takeover (mirroring the §5e `.tmp` reclaim rules): the
 *    stale socket file is unlinked and rebound.
 *  - One handler thread per connection, each with a read deadline: a
 *    connection that stalls (idle, or mid-frame after a client died)
 *    past `read_deadline_seconds` is dropped; a torn frame can never
 *    pin a thread forever.
 *  - Malformed frames (bad magic/version/type, oversized length, bad
 *    checksum) and malformed payloads get a structured error frame and
 *    the connection is dropped — counted in `frames_rejected`, never a
 *    crash, never an allocation beyond the declared cap (see frame.h).
 *  - A hit is bytes: an ok reply is the response fields with the entry
 *    text the compile service already holds spliced in
 *    (protocol.h's encode_compile_response(resp, text)); no entry is
 *    rebuilt or re-encoded, and each request computes its cache key
 *    once, in the service.
 *  - Request dedup: replies are remembered in a bounded LRU keyed by
 *    (client_id, seq), by reference: the small response fields and a
 *    share of the entry text, not a copy of the frame. A client that
 *    resends after a torn reply gets the *identical bytes* back
 *    (`dedup_hits`), re-framed from the record, not a second compile —
 *    the at-most-once half of the retry story.
 *  - Graceful shutdown: shutdown(kFinish) stops accepting, then drains
 *    the service; a watchdog escalates to drain(kShed) at
 *    `drain_deadline_seconds` so termination is bounded — shed clients
 *    get structured Overloaded responses with retry hints and fall
 *    back locally.
 *  - `status_json()` (served for kStatusRequest frames) is
 *    ServiceMetrics::to_json() with the daemon counters and uptime
 *    filled in — one document for health checks and the soak gate.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "daemon/frame.h"
#include "daemon/protocol.h"
#include "service/compile_service.h"
#include "support/lru.h"

namespace diospyros::daemon {

/** Responses the dedup table remembers for retried frames. */
inline constexpr std::size_t kDedupCapacity = 1024;

struct DaemonOptions {
    /** Filesystem path of the Unix socket to bind. */
    std::string socket_path;
    /** Service configuration (jobs, cache dir, admission control...). */
    service::CompileService::Options service;
    /** Drop a connection making no progress for this long. */
    double read_deadline_seconds = 30.0;
    /** kFinish drain escalates to kShed after this long. */
    double drain_deadline_seconds = 10.0;
};

class Daemon {
  public:
    explicit Daemon(DaemonOptions options);
    /** shutdown(kShed) if still running (never blocks on the queue). */
    ~Daemon();

    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /**
     * Acquires the pid/lock file, binds the socket, builds the service
     * (running its startup cache recovery scan), and starts accepting.
     * Raises UserError when another live daemon owns the socket or the
     * path cannot be bound.
     */
    void start();

    /**
     * Stops accepting, drains the service (`mode` as the initial mode;
     * kFinish escalates to kShed at the drain deadline), joins every
     * handler, unlinks the socket and pid file. Idempotent.
     */
    void shutdown(service::DrainMode mode = service::DrainMode::kFinish);

    /** True between start() and shutdown(). */
    bool running() const { return running_.load(); }

    /** Metrics JSON incl. daemon counters + uptime (thread-safe). */
    std::string status_json() const;

    const std::string& socket_path() const { return options_.socket_path; }

    std::uint64_t remote_requests() const { return remote_requests_.load(); }
    std::uint64_t frames_rejected() const { return frames_rejected_.load(); }
    std::uint64_t dedup_hits() const { return dedup_hits_.load(); }

  private:
    struct Connection {
        std::thread thread;
        std::atomic<bool> done{false};
    };

    /** Identity of one request frame: (client_id, seq). */
    using RequestId = std::pair<std::uint64_t, std::uint64_t>;
    struct RequestIdHash {
        std::size_t
        operator()(const RequestId& id) const
        {
            return static_cast<std::size_t>(
                id.first ^ (id.second * 0x9e3779b97f4a7c15ULL));
        }
    };

    /**
     * One compile reply as the dedup table keeps it: the response
     * fields (`entry` never engaged) and, for an ok reply, a share of
     * the entry text. Framing it twice gives the same bytes.
     */
    struct RecordedReply {
        CompileResponse fields;
        service::EntryText entry_text;
    };

    /** The reply frame to `request`. */
    static std::string frame_reply(const Frame& request,
                                   const RecordedReply& reply);

    void accept_loop();
    void handle_connection(int fd);
    /** Returns false when the connection must be dropped. */
    bool handle_frame(int fd, const Frame& frame);
    bool send_all(int fd, const std::string& bytes);
    void reap_connections(bool join_all);

    DaemonOptions options_;
    std::unique_ptr<service::CompileService> service_;
    std::chrono::steady_clock::time_point start_time_;

    int listen_fd_ = -1;
    int pidfile_fd_ = -1;
    std::thread accept_thread_;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};

    std::mutex conn_mu_;
    std::vector<std::unique_ptr<Connection>> connections_;

    // Dedup LRU: (client_id, seq) -> the reply, by reference.
    std::mutex dedup_mu_;
    Lru<RequestId, RecordedReply, RequestIdHash> dedup_{kDedupCapacity};

    std::atomic<std::uint64_t> remote_requests_{0};
    std::atomic<std::uint64_t> frames_rejected_{0};
    std::atomic<std::uint64_t> dedup_hits_{0};
};

}  // namespace diospyros::daemon
