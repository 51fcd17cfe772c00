#include "daemon/client.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "support/error.h"
#include "support/hash.h"

namespace diospyros::daemon {

RemoteClient::RemoteClient(RemoteOptions options)
    : options_(std::move(options))
{
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    StableHasher h;
    h.tag("dios-client")
        .u64(static_cast<std::uint64_t>(::getpid()))
        .u64(static_cast<std::uint64_t>(now.count()))
        .u64(options_.jitter_seed);
    client_id_ = h.digest();
    rng_ = Rng(options_.jitter_seed != 0 ? options_.jitter_seed
                                         : (client_id_ | 1));
}

RemoteClient::~RemoteClient() { disconnect(); }

void
RemoteClient::disconnect()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
RemoteClient::ensure_connected()
{
    if (fd_ >= 0) {
        return true;
    }
    sockaddr_un addr{};
    if (options_.socket_path.size() + 1 > sizeof addr.sun_path) {
        return false;
    }
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) {
        return false;
    }
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, options_.socket_path.c_str(),
                 sizeof addr.sun_path - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
        disconnect();
        return false;
    }
    return true;
}

double
RemoteClient::jittered(double base_ms)
{
    return base_ms * rng_.uniform(0.5, 1.5);
}

void
RemoteClient::sleep_ms(double ms)
{
    if (ms > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
    }
}

std::optional<Frame>
RemoteClient::roundtrip(const Frame& request)
{
    const std::string bytes = encode_frame(request);
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n = ::send(fd_, bytes.data() + off,
                                 bytes.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            return std::nullopt;
        }
        off += static_cast<std::size_t>(n);
    }

    FrameDecoder decoder;
    const auto t0 = std::chrono::steady_clock::now();
    char buf[65536];
    for (;;) {
        Frame frame;
        FrameError err;
        const FrameDecoder::Status st = decoder.poll(frame, err);
        if (st == FrameDecoder::Status::kFrame) {
            return frame;
        }
        if (st == FrameDecoder::Status::kError) {
            return std::nullopt;  // server speaking garbage: reconnect
        }
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
        if (elapsed > options_.request_timeout_seconds) {
            return std::nullopt;
        }
        pollfd p{};
        p.fd = fd_;
        p.events = POLLIN;
        const int r = ::poll(&p, 1, 100);
        if (r < 0 && errno != EINTR) {
            return std::nullopt;
        }
        if (r <= 0) {
            continue;
        }
        const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
        if (n <= 0) {
            return std::nullopt;  // torn reply; the retry dedups
        }
        decoder.feed(buf, static_cast<std::size_t>(n));
    }
}

std::optional<CompileResponse>
RemoteClient::compile(const CompileRequest& req)
{
    ++counters_.remote_requests;
    const std::string payload = encode_compile_request(req);
    std::uint64_t seq = next_seq_++;
    double backoff_ms = options_.backoff_initial_ms;

    for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
        if (attempt > 0) {
            ++counters_.remote_retries;
        }
        std::optional<Frame> reply;
        if (ensure_connected()) {
            Frame request;
            request.type = FrameType::kCompileRequest;
            request.client_id = client_id_;
            request.seq = seq;
            request.payload = payload;
            reply = roundtrip(request);
        }
        if (reply && reply->type == FrameType::kCompileResponse) {
            CompileResponse resp;
            try {
                resp = decode_compile_response(reply->payload);
            } catch (const UserError&) {
                disconnect();
                reply.reset();
            }
            if (reply) {
                if (resp.status == ResponseStatus::kShed) {
                    // Definitive answer: honor the hint, come back as a
                    // new request (the old identity was served).
                    ++counters_.remote_shed;
                    seq = next_seq_++;
                    if (attempt + 1 < options_.max_attempts) {
                        sleep_ms(resp.retry_after_ms > 0
                                     ? static_cast<double>(
                                           resp.retry_after_ms)
                                     : jittered(backoff_ms));
                    }
                    continue;
                }
                return resp;  // kOk or kFailed — final
            }
        } else {
            disconnect();  // connect/IO failure or protocol error frame
        }
        if (attempt + 1 < options_.max_attempts) {
            sleep_ms(jittered(backoff_ms));
            backoff_ms =
                std::min(backoff_ms * 2.0, options_.backoff_max_ms);
        }
    }
    ++counters_.remote_fallback_local;
    return std::nullopt;
}

std::optional<std::string>
RemoteClient::status()
{
    double backoff_ms = options_.backoff_initial_ms;
    for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
        if (attempt > 0) {
            ++counters_.remote_retries;
        }
        if (ensure_connected()) {
            Frame request;
            request.type = FrameType::kStatusRequest;
            request.client_id = client_id_;
            request.seq = next_seq_++;
            const std::optional<Frame> reply = roundtrip(request);
            if (reply && reply->type == FrameType::kStatusResponse) {
                return reply->payload;
            }
        }
        disconnect();
        if (attempt + 1 < options_.max_attempts) {
            sleep_ms(jittered(backoff_ms));
            backoff_ms =
                std::min(backoff_ms * 2.0, options_.backoff_max_ms);
        }
    }
    return std::nullopt;
}

}  // namespace diospyros::daemon
