#include "daemon/frame.h"

#include <cstring>

#include "support/error.h"
#include "support/hash.h"

namespace diospyros::daemon {

namespace {

constexpr char kMagic[4] = {'D', 'I', 'O', 'S'};

void
put_u32(std::string& out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i) {
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
}

void
put_u64(std::string& out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
}

std::uint32_t
get_u32(const char* p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
        v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
             << (8 * i);
    }
    return v;
}

std::uint64_t
get_u64(const char* p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
             << (8 * i);
    }
    return v;
}

bool
valid_type(std::uint32_t t)
{
    return t >= static_cast<std::uint32_t>(FrameType::kCompileRequest) &&
           t <= static_cast<std::uint32_t>(FrameType::kError);
}

}  // namespace

const char*
frame_error_name(FrameErrorKind kind)
{
    switch (kind) {
        case FrameErrorKind::kBadMagic: return "bad-magic";
        case FrameErrorKind::kBadVersion: return "bad-version";
        case FrameErrorKind::kBadType: return "bad-type";
        case FrameErrorKind::kOversized: return "oversized";
        case FrameErrorKind::kBadChecksum: return "bad-checksum";
    }
    return "unknown";
}

std::uint64_t
frame_checksum(FrameType type, std::uint64_t client_id, std::uint64_t seq,
               std::string_view payload)
{
    StableHasher h;
    h.tag("dios-frame")
        .u64(kProtocolVersion)
        .u64(static_cast<std::uint64_t>(type))
        .u64(client_id)
        .u64(seq)
        .u64(content_checksum(payload));
    return h.digest();
}

std::string
encode_frame(FrameType type, std::uint64_t client_id, std::uint64_t seq,
             std::string_view payload)
{
    DIOS_CHECK(payload.size() <= kMaxPayloadLen,
               "frame payload exceeds the protocol cap");
    std::string out;
    out.reserve(kHeaderSize + payload.size());
    out.append(kMagic, sizeof kMagic);
    put_u32(out, kProtocolVersion);
    put_u32(out, static_cast<std::uint32_t>(type));
    put_u64(out, client_id);
    put_u64(out, seq);
    put_u32(out, static_cast<std::uint32_t>(payload.size()));
    put_u64(out, frame_checksum(type, client_id, seq, payload));
    out += payload;
    return out;
}

std::string
encode_frame(const Frame& frame)
{
    return encode_frame(frame.type, frame.client_id, frame.seq,
                        frame.payload);
}

void
FrameDecoder::feed(const char* data, std::size_t n)
{
    if (fatal_) {
        return;  // poisoned: the connection is being dropped anyway
    }
    buf_.append(data, n);
}

FrameDecoder::Status
FrameDecoder::poll(Frame& out, FrameError& err)
{
    if (fatal_) {
        err = *fatal_;
        return Status::kError;
    }
    if (!header_valid_) {
        if (buf_.size() < kHeaderSize) {
            return Status::kNeedMore;
        }
        const char* p = buf_.data();
        if (std::memcmp(p, kMagic, sizeof kMagic) != 0) {
            fatal_ = FrameError{FrameErrorKind::kBadMagic,
                                "frame does not start with DIOS magic"};
            err = *fatal_;
            return Status::kError;
        }
        const std::uint32_t version = get_u32(p + 4);
        if (version != kProtocolVersion) {
            fatal_ = FrameError{FrameErrorKind::kBadVersion,
                                "unsupported protocol version " +
                                    std::to_string(version)};
            err = *fatal_;
            return Status::kError;
        }
        const std::uint32_t type = get_u32(p + 8);
        if (!valid_type(type)) {
            fatal_ = FrameError{FrameErrorKind::kBadType,
                                "unknown frame type " + std::to_string(type)};
            err = *fatal_;
            return Status::kError;
        }
        const std::uint32_t len = get_u32(p + 28);
        if (len > kMaxPayloadLen) {
            // Rejected from the header alone: no payload-sized buffer is
            // ever allocated for a hostile length.
            fatal_ = FrameError{FrameErrorKind::kOversized,
                                "declared payload length " +
                                    std::to_string(len) +
                                    " exceeds the protocol cap"};
            err = *fatal_;
            return Status::kError;
        }
        pending_.type = static_cast<FrameType>(type);
        pending_.client_id = get_u64(p + 12);
        pending_.seq = get_u64(p + 20);
        pending_len_ = len;
        pending_checksum_ = get_u64(p + 32);
        header_valid_ = true;
    }
    if (buf_.size() < kHeaderSize + pending_len_) {
        return Status::kNeedMore;
    }
    const std::string_view payload(buf_.data() + kHeaderSize, pending_len_);
    const std::uint64_t want = frame_checksum(
        pending_.type, pending_.client_id, pending_.seq, payload);
    if (want != pending_checksum_) {
        fatal_ = FrameError{FrameErrorKind::kBadChecksum,
                            "frame checksum mismatch"};
        err = *fatal_;
        return Status::kError;
    }
    pending_.payload.assign(payload);
    out = std::move(pending_);
    pending_ = Frame{};
    buf_.erase(0, kHeaderSize + pending_len_);
    pending_len_ = 0;
    header_valid_ = false;
    return Status::kFrame;
}

}  // namespace diospyros::daemon
