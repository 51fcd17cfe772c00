/**
 * @file
 * RemoteClient: the dioscc side of the diosd protocol (DESIGN.md §5j).
 *
 * Retry state machine, per request:
 *  - Each logical request gets a fresh (client_id, seq) identity.
 *  - A connect failure, send/read error, torn reply, or per-request
 *    timeout is retried under bounded exponential backoff with
 *    deterministic jitter, KEEPING the same seq — the daemon's dedup
 *    table turns the resend into a replay of the recorded response, so
 *    a retry can never recompute (or double-apply) anything.
 *  - A received *shed* response is definitive: the client honors its
 *    `retry_after_ms` hint (sleeping at least that long) and retries as
 *    a NEW request (bumped seq) — the previous identity was answered.
 *  - When the attempt budget is exhausted the call returns nullopt and
 *    the caller falls back to local in-process compilation (counted in
 *    `remote_fallback_local`). Fallback uses the same pipeline on the
 *    same input, so a daemon outage never changes the bytes of a
 *    successful result — only where they were computed.
 *
 * Not thread-safe: one RemoteClient per thread (dioscc uses one per
 * process).
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "daemon/frame.h"
#include "daemon/protocol.h"
#include "support/rng.h"

namespace diospyros::daemon {

struct RemoteOptions {
    std::string socket_path;
    /** Per-attempt reply deadline (covers the compile itself). */
    double request_timeout_seconds = 300.0;
    /** Total tries per request (first attempt + retries). */
    int max_attempts = 5;
    double backoff_initial_ms = 50.0;
    double backoff_max_ms = 2000.0;
    /** Jitter seed; 0 derives one from the pid. */
    std::uint64_t jitter_seed = 0;
};

/** Client-side counters, mirrored into ServiceMetrics for --json. */
struct ClientCounters {
    std::uint64_t remote_requests = 0;
    std::uint64_t remote_retries = 0;
    std::uint64_t remote_fallback_local = 0;
    /** Shed responses received (each one honored, then retried). */
    std::uint64_t remote_shed = 0;
};

class RemoteClient {
  public:
    explicit RemoteClient(RemoteOptions options);
    ~RemoteClient();

    RemoteClient(const RemoteClient&) = delete;
    RemoteClient& operator=(const RemoteClient&) = delete;

    /**
     * One remote compile under the retry policy above. nullopt means
     * the daemon stayed unreachable (or kept failing at the protocol
     * level): compile locally.
     */
    std::optional<CompileResponse> compile(const CompileRequest& req);

    /** Fetches the daemon's status JSON (one attempt per retry rules). */
    std::optional<std::string> status();

    const ClientCounters& counters() const { return counters_; }

  private:
    bool ensure_connected();
    void disconnect();
    /** One send+receive attempt; nullopt on any transport failure. */
    std::optional<Frame> roundtrip(const Frame& request);
    void sleep_ms(double ms);
    /** Deterministic jitter in [0.5, 1.5) * base. */
    double jittered(double base_ms);

    RemoteOptions options_;
    int fd_ = -1;
    std::uint64_t client_id_ = 0;
    std::uint64_t next_seq_ = 1;
    Rng rng_;
    ClientCounters counters_;
};

}  // namespace diospyros::daemon
