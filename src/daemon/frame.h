/**
 * @file
 * Wire codec for the diosd Unix-domain-socket protocol (DESIGN.md §5j):
 * length-prefixed, versioned, checksummed frames.
 *
 * Frame layout (40-byte header, little-endian fixed-width fields, then
 * `payload_len` bytes of s-expression text):
 *
 *     offset  size  field
 *     0       4     magic "DIOS"
 *     4       4     u32 protocol version (kProtocolVersion)
 *     8       4     u32 frame type (FrameType)
 *     12      8     u64 client id
 *     20      8     u64 sequence number (per-client, for dedup)
 *     28      4     u32 payload length (<= kMaxPayloadLen)
 *     32      8     u64 StableHasher checksum over version, type,
 *                   client id, seq, and the payload bytes
 *
 * Robustness contract, enforced here and fuzzed in daemon_test:
 *  - The decoder validates the header (magic, version, type, length cap)
 *    as soon as 40 bytes are available — an oversized or hostile length
 *    is rejected *before* any payload-sized allocation happens, so a
 *    malicious frame can never make the server allocate more than the
 *    declared cap.
 *  - A checksum mismatch, bad magic, unknown version/type, or oversized
 *    length is a *fatal, structured* error: framing is byte-precise, so
 *    there is no safe resync — the connection must be dropped. The
 *    decoder never throws and never crashes on arbitrary bytes.
 *  - Truncation (stream ends mid-frame) simply leaves the decoder in
 *    kNeedMore; the transport's read deadline turns a stalled torn
 *    frame into a dropped connection.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace diospyros::daemon {

/** Protocol version this build speaks; 2 carries format-5 entries. */
inline constexpr std::uint32_t kProtocolVersion = 2;

/** Hard cap on payload size; larger declared lengths are hostile. */
inline constexpr std::uint32_t kMaxPayloadLen = 16u << 20;  // 16 MiB

/** Fixed header size in bytes. */
inline constexpr std::size_t kHeaderSize = 40;

/** Frame kinds. Values are wire-stable; never renumber. */
enum class FrameType : std::uint32_t {
    kCompileRequest = 1,
    kCompileResponse = 2,
    kStatusRequest = 3,
    kStatusResponse = 4,
    kError = 5,  ///< structured protocol-level rejection
};

/** One decoded (or to-be-encoded) frame. */
struct Frame {
    FrameType type = FrameType::kError;
    std::uint64_t client_id = 0;
    std::uint64_t seq = 0;
    std::string payload;
};

/** Why a decode failed. Structured — never an exception, never a crash. */
enum class FrameErrorKind {
    kBadMagic,
    kBadVersion,
    kBadType,
    kOversized,    ///< declared payload length exceeds kMaxPayloadLen
    kBadChecksum,  ///< header+payload arrived but the checksum disagrees
};

/** Human spelling of a FrameErrorKind ("bad-magic", ...). */
const char* frame_error_name(FrameErrorKind kind);

struct FrameError {
    FrameErrorKind kind = FrameErrorKind::kBadMagic;
    std::string detail;
};

/** Checksum over the integrity-relevant fields (see file header). */
std::uint64_t frame_checksum(FrameType type, std::uint64_t client_id,
                             std::uint64_t seq, const std::string& payload);

/**
 * Serializes `frame` (header + payload). Raises InternalError if the
 * payload exceeds kMaxPayloadLen — the sender's bug, not the peer's.
 */
std::string encode_frame(const Frame& frame);

/**
 * Incremental decoder over a byte stream. Feed arbitrary chunks; poll
 * for complete frames. After any error the decoder is poisoned: further
 * feeds are discarded and poll keeps returning the same error (the
 * caller drops the connection).
 */
class FrameDecoder {
  public:
    enum class Status {
        kFrame,     ///< one frame decoded into `out`
        kNeedMore,  ///< valid so far, awaiting bytes
        kError,     ///< fatal; `err` filled; connection must be dropped
    };

    /** Appends bytes (ignored once poisoned). */
    void feed(const char* data, std::size_t n);

    /** Attempts to decode the next frame. */
    Status poll(Frame& out, FrameError& err);

    /** Bytes currently buffered (tests assert the allocation cap). */
    std::size_t buffered() const { return buf_.size(); }

    /** True when mid-frame (header seen, payload incomplete). */
    bool mid_frame() const { return header_valid_ || !buf_.empty(); }

  private:
    std::string buf_;
    bool header_valid_ = false;
    Frame pending_;
    std::uint32_t pending_len_ = 0;
    std::uint64_t pending_checksum_ = 0;
    std::optional<FrameError> fatal_;
};

}  // namespace diospyros::daemon
