// Daemon tests: the wire codec under hostile bytes (truncation,
// oversized lengths, checksum damage, bit flips — never a crash, never
// an allocation past the declared cap), protocol payload round-trips,
// and the live daemon end to end over a real Unix socket: compile,
// byte-identity vs a local compile and vs the golden payloads on a
// miss, a memory hit and a disk hit, request dedup after a replay,
// status frames, malformed-frame rejection, and local fallback when no
// daemon is listening or it speaks another protocol version.

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "../benchmark/bench.h"
#include "compiler/driver.h"
#include "compiler/option_fields.h"
#include "daemon/client.h"
#include "daemon/daemon.h"
#include "daemon/frame.h"
#include "daemon/protocol.h"
#include "format_golden.h"
#include "machine/program.h"
#include "scalar/parse.h"
#include "service/cache_key.h"
#include "service/serialize.h"
#include "strategy/strategy.h"
#include "support/error.h"

namespace diospyros {
namespace {

namespace fs = std::filesystem;

using daemon::CompileRequest;
using service::CacheKey;
using daemon::CompileResponse;
using daemon::Frame;
using daemon::FrameDecoder;
using daemon::FrameError;
using daemon::FrameErrorKind;
using daemon::FrameType;
using daemon::RemoteClient;
using daemon::RemoteOptions;
using daemon::ResponseStatus;

const char* const kVaddText =
    "(kernel vadd4\n"
    "  (param n 4) (input A n) (input B n) (output C n)\n"
    "  (for i 0 n (store C i (+ (load A i) (load B i)))))\n";

CompilerOptions
test_options()
{
    CompilerOptions options;
    options.target.vector_width = 4;
    options.limits.iter_limit = 6;
    options.limits.node_limit = 20'000;
    options.limits.time_limit_seconds = 5.0;
    return options;
}

/** xorshift64* — deterministic fuzz bytes, no <random> variance. */
std::uint64_t
next_rand(std::uint64_t& state)
{
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state * 0x2545F4914F6CDD1DULL;
}

struct TempDir {
    fs::path path;
    explicit TempDir(const std::string& tag)
    {
        path = fs::temp_directory_path() /
               ("dios_daemon_test_" + tag + "_" +
                std::to_string(::getpid()));
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    std::string sock() const { return (path / "d.sock").string(); }
};

Frame
make_request_frame(std::uint64_t client_id, std::uint64_t seq)
{
    CompileRequest req;
    req.kernel_name = "vadd4";
    req.kernel_text = kVaddText;
    req.options = test_options();
    Frame frame;
    frame.type = FrameType::kCompileRequest;
    frame.client_id = client_id;
    frame.seq = seq;
    frame.payload = encode_compile_request(req);
    return frame;
}

/** Sends `wire` on a new connection to `sock`; returns the reply frame. */
Frame
exchange(const std::string& sock, const std::string& wire)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, sock.c_str(), sizeof addr.sun_path - 1);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    EXPECT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(wire.size()));
    FrameDecoder decoder;
    Frame out;
    FrameError err;
    char buf[65536];
    while (decoder.poll(out, err) != FrameDecoder::Status::kFrame) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0) {
            ADD_FAILURE() << "connection closed before a reply";
            break;
        }
        decoder.feed(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return out;
}

// ---------------------------------------------------------------------------
// Wire codec: round trip and hostile bytes
// ---------------------------------------------------------------------------

TEST(FrameCodec, RoundTripsAndStreamsMultipleFrames)
{
    Frame a;
    a.type = FrameType::kCompileRequest;
    a.client_id = 7;
    a.seq = 42;
    a.payload = "(hello)";
    Frame b;
    b.type = FrameType::kStatusRequest;
    b.client_id = 7;
    b.seq = 43;
    b.payload = "";

    const std::string wire = encode_frame(a) + encode_frame(b);
    FrameDecoder decoder;
    // Feed one byte at a time: every split point must be handled.
    Frame out;
    FrameError err;
    std::vector<Frame> frames;
    for (const char c : wire) {
        decoder.feed(&c, 1);
        while (decoder.poll(out, err) == FrameDecoder::Status::kFrame) {
            frames.push_back(out);
        }
    }
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0].type, FrameType::kCompileRequest);
    EXPECT_EQ(frames[0].client_id, 7u);
    EXPECT_EQ(frames[0].seq, 42u);
    EXPECT_EQ(frames[0].payload, "(hello)");
    EXPECT_EQ(frames[1].type, FrameType::kStatusRequest);
    EXPECT_EQ(frames[1].payload, "");
}

TEST(FrameCodec, TruncatedFrameStaysNeedMoreNeverCrashes)
{
    Frame a;
    a.type = FrameType::kCompileRequest;
    a.client_id = 1;
    a.seq = 1;
    a.payload = std::string(1000, 'x');
    const std::string wire = encode_frame(a);
    // Every truncation point: decoder reports kNeedMore, never kFrame.
    for (std::size_t cut = 0; cut + 1 < wire.size(); cut += 37) {
        FrameDecoder decoder;
        decoder.feed(wire.data(), cut);
        Frame out;
        FrameError err;
        EXPECT_EQ(decoder.poll(out, err), FrameDecoder::Status::kNeedMore)
            << "cut at " << cut;
    }
}

TEST(FrameCodec, OversizedLengthRejectedBeforePayloadAllocation)
{
    Frame a;
    a.type = FrameType::kCompileRequest;
    a.payload = "small";
    std::string wire = encode_frame(a);
    // Forge a hostile declared length (4 GiB-ish) into the header.
    const std::uint32_t hostile = 0xf0000000u;
    std::memcpy(&wire[28], &hostile, sizeof hostile);

    FrameDecoder decoder;
    decoder.feed(wire.data(), daemon::kHeaderSize);  // header only
    Frame out;
    FrameError err;
    EXPECT_EQ(decoder.poll(out, err), FrameDecoder::Status::kError);
    EXPECT_EQ(err.kind, FrameErrorKind::kOversized);
    // The decoder held only the header: it never allocated anything
    // approaching the declared length.
    EXPECT_LE(decoder.buffered(), daemon::kHeaderSize);
}

TEST(FrameCodec, BadMagicVersionTypeAndChecksumAreStructuredErrors)
{
    const Frame good = make_request_frame(1, 1);
    const std::string wire = encode_frame(good);

    struct Case {
        std::size_t offset;
        FrameErrorKind want;
    };
    const Case cases[] = {
        {0, FrameErrorKind::kBadMagic},      // magic byte
        {4, FrameErrorKind::kBadVersion},    // version field
        {8, FrameErrorKind::kBadType},       // type field
        {33, FrameErrorKind::kBadChecksum},  // checksum field
    };
    for (const Case& c : cases) {
        std::string damaged = wire;
        damaged[c.offset] = static_cast<char>(damaged[c.offset] ^ 0x5a);
        FrameDecoder decoder;
        decoder.feed(damaged.data(), damaged.size());
        Frame out;
        FrameError err;
        EXPECT_EQ(decoder.poll(out, err), FrameDecoder::Status::kError)
            << "offset " << c.offset;
        EXPECT_EQ(err.kind, c.want) << "offset " << c.offset;
        // Poisoned: further feeds are discarded, the error is sticky.
        decoder.feed(wire.data(), wire.size());
        EXPECT_EQ(decoder.poll(out, err), FrameDecoder::Status::kError);
    }
}

TEST(FrameCodec, PayloadBitFlipsAreCaughtByTheChecksum)
{
    const Frame good = make_request_frame(9, 9);
    const std::string wire = encode_frame(good);
    std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
    for (int trial = 0; trial < 64; ++trial) {
        std::string damaged = wire;
        const std::size_t pos =
            daemon::kHeaderSize +
            next_rand(rng) % (damaged.size() - daemon::kHeaderSize);
        const char bit = static_cast<char>(1u << (next_rand(rng) % 8));
        damaged[pos] = static_cast<char>(damaged[pos] ^ bit);
        FrameDecoder decoder;
        decoder.feed(damaged.data(), damaged.size());
        Frame out;
        FrameError err;
        EXPECT_EQ(decoder.poll(out, err), FrameDecoder::Status::kError)
            << "flip at " << pos;
        EXPECT_EQ(err.kind, FrameErrorKind::kBadChecksum);
    }
}

TEST(FrameCodec, RandomGarbageNeverCrashesAndNeverOverbuffers)
{
    std::uint64_t rng = 0xdeadbeefcafef00dULL;
    for (int trial = 0; trial < 256; ++trial) {
        const std::size_t len = 1 + next_rand(rng) % 4096;
        std::string garbage(len, '\0');
        for (char& c : garbage) {
            c = static_cast<char>(next_rand(rng) & 0xff);
        }
        FrameDecoder decoder;
        // Arbitrary chunking.
        std::size_t off = 0;
        while (off < garbage.size()) {
            const std::size_t chunk =
                std::min<std::size_t>(1 + next_rand(rng) % 97,
                                      garbage.size() - off);
            decoder.feed(garbage.data() + off, chunk);
            off += chunk;
            Frame out;
            FrameError err;
            while (decoder.poll(out, err) == FrameDecoder::Status::kFrame) {
            }
        }
        // The decoder never buffers more than it was fed, and a valid
        // header would have capped the pending frame at the protocol
        // limit.
        EXPECT_LE(decoder.buffered(), garbage.size());
        EXPECT_LE(decoder.buffered(),
                  daemon::kHeaderSize + daemon::kMaxPayloadLen);
    }
}

// ---------------------------------------------------------------------------
// Protocol payloads
// ---------------------------------------------------------------------------

TEST(Protocol, CompileRequestRoundTripsOptions)
{
    CompileRequest req;
    req.kernel_name = "dot4";
    req.kernel_text = "(kernel dot4 (param n 4))";
    req.options = test_options();
    req.options.rules.full_ac = true;
    req.options.target.has_reciprocal = true;
    req.options.validate = true;
    req.options.random_check = true;
    req.options.verify_ir = true;
    req.options.io_retries = 7;
    req.priority = service::Priority::kInteractive;
    req.submit_timeout_seconds = 1.5;

    const CompileRequest back =
        daemon::decode_compile_request(encode_compile_request(req));
    EXPECT_EQ(back.kernel_name, req.kernel_name);
    EXPECT_EQ(back.kernel_text, req.kernel_text);
    EXPECT_EQ(back.priority, service::Priority::kInteractive);
    EXPECT_DOUBLE_EQ(back.submit_timeout_seconds, 1.5);
    EXPECT_EQ(back.options.target.vector_width, 4);
    EXPECT_TRUE(back.options.rules.full_ac);
    EXPECT_TRUE(back.options.target.has_reciprocal);
    EXPECT_TRUE(back.options.rules.target_has_recip);  // sync() ran
    EXPECT_TRUE(back.options.validate);
    EXPECT_TRUE(back.options.verify_ir);
    EXPECT_EQ(back.options.io_retries, 7);
    EXPECT_EQ(back.options.limits.iter_limit, 6);
}

TEST(Protocol, CacheKeySurvivesTheWireForEveryPreset)
{
    const scalar::Kernel kernel = scalar::parse_kernel(kVaddText);
    std::vector<CompilerOptions> cases;
    for (const int width : {2, 4, 8, 16}) {
        CompilerOptions o = test_options();
        o.target = TargetSpec::for_width(width);
        cases.push_back(o);
    }
    CompilerOptions tuned = test_options();
    tuned.target = TargetSpec::fusion_g3_vliw();
    tuned.target.taken_branch_penalty = 3;
    tuned.cost.vec_with_exprs = 3.25;
    tuned.cost.literal = 0.3;
    cases.push_back(tuned);

    for (const CompilerOptions& o : cases) {
        CompileRequest req;
        req.kernel_name = "vadd4";
        req.kernel_text = kVaddText;
        req.options = o;
        const CompileRequest back =
            daemon::decode_compile_request(encode_compile_request(req));
        EXPECT_EQ(service::compute_cache_key(kernel, back.options).hex(),
                  service::compute_cache_key(kernel, o).hex())
            << o.target.name;
    }
}

TEST(Protocol, RejectsUnsupportedWidthAtTheBoundary)
{
    CompileRequest req;
    req.kernel_name = "dot4";
    req.kernel_text = "(kernel dot4 (param n 4))";
    req.options = test_options();
    std::string wire = encode_compile_request(req);
    const std::string tag = "(width ";
    const std::size_t at = wire.find(tag);
    ASSERT_NE(at, std::string::npos);
    const std::size_t end = wire.find(')', at);
    for (const char* bad : {"0", "-4", "3", "32", "1024"}) {
        std::string mutated = wire;
        mutated.replace(at, end - at, tag + std::string(bad));
        EXPECT_THROW(daemon::decode_compile_request(mutated), UserError)
            << "width " << bad;
    }
    // Every in-range power of two decodes.
    for (const char* good : {"1", "2", "4", "8", "16"}) {
        std::string mutated = wire;
        mutated.replace(at, end - at, tag + std::string(good));
        const CompileRequest back =
            daemon::decode_compile_request(mutated);
        EXPECT_EQ(back.options.target.vector_width,
                  std::stoi(std::string(good)));
    }
}

TEST(Protocol, CompileResponseRoundTripsAllStatuses)
{
    CompileResponse shed;
    shed.status = ResponseStatus::kShed;
    shed.retry_after_ms = 125;
    shed.failure_class = FailureClass::kOverloaded;
    shed.error = "service overloaded";
    const CompileResponse shed_back = daemon::decode_compile_response(
        daemon::encode_compile_response(shed));
    EXPECT_EQ(shed_back.status, ResponseStatus::kShed);
    EXPECT_EQ(shed_back.retry_after_ms, 125u);
    EXPECT_EQ(shed_back.failure_class, FailureClass::kOverloaded);

    CompileResponse failed;
    failed.status = ResponseStatus::kFailed;
    failed.failure_class = FailureClass::kUser;
    failed.error = "bad kernel \"quoted\"";
    const CompileResponse failed_back = daemon::decode_compile_response(
        daemon::encode_compile_response(failed));
    EXPECT_EQ(failed_back.status, ResponseStatus::kFailed);
    EXPECT_EQ(failed_back.failure_class, FailureClass::kUser);
    EXPECT_EQ(failed_back.error, failed.error);
}

TEST(Protocol, MalformedPayloadsRaiseUserErrorNeverCrash)
{
    EXPECT_THROW(daemon::decode_compile_request("(((("), UserError);
    EXPECT_THROW(daemon::decode_compile_request("(not-a-request)"),
                 UserError);
    EXPECT_THROW(daemon::decode_compile_request("(compile-request)"),
                 UserError);
    EXPECT_THROW(daemon::decode_compile_response("(compile-response)"),
                 UserError);
    EXPECT_THROW(
        daemon::decode_compile_response(
            "(compile-response (status ok))"),  // ok without an entry
        UserError);

    // Out-of-range target and cost fields fail the one request.
    CompileRequest req;
    req.kernel_name = "vadd4";
    req.kernel_text = kVaddText;
    req.options = test_options();
    const std::string wire = encode_compile_request(req);
    for (const auto& [from, to] :
         std::vector<std::pair<std::string, std::string>>{
             {"(issue-width 1)", "(issue-width 0)"},
             {"(branch-penalty 1)", "(branch-penalty -1)"},
             {"(cost-table ", "(cost-table 1 "},
             {"(cost ", "(cost -1 "},
         }) {
        std::string mutated = wire;
        const std::size_t at = mutated.find(from);
        ASSERT_NE(at, std::string::npos) << from;
        mutated.replace(at, from.size(), to);
        EXPECT_THROW(daemon::decode_compile_request(mutated), UserError)
            << to;
    }

    // Budgets must be finite, the timeout > 0 and the deadline >= 0: a
    // zero timeout would compile a truncated artifact under a key that
    // larger budgets hit.
    for (const auto& [name, value] :
         std::vector<std::pair<std::string, std::string>>{
             {"timeout", "0"},
             {"timeout", "-0x1p+0"},
             {"timeout", "inf"},
             {"timeout", "nan"},
             {"deadline", "-1"},
             {"deadline", "inf"},
         }) {
        std::string mutated = wire;
        const std::string tag = "(" + name + " ";
        const std::size_t at = mutated.find(tag);
        ASSERT_NE(at, std::string::npos) << name;
        mutated.replace(at, mutated.find(')', at) - at, tag + value);
        EXPECT_THROW(daemon::decode_compile_request(mutated), UserError)
            << name << " " << value;
    }
}

TEST(Protocol, ResponseEntryWithAFloatOutsideFloatRangeIsRejected)
{
    // Narrowing a finite double outside float range is undefined: an
    // instruction's immediate or a pool value of 1e300 fails the decode,
    // naming the instruction or pool index, while inf and nan decode.
    CompileResponse ok;
    ok.status = ResponseStatus::kOk;
    ok.entry.emplace();
    ok.entry->machine.code = {Instr{.op = Opcode::kHalt},
                              Instr{.op = Opcode::kHalt, .fimm = 4321.25f}};
    ok.entry->pool = {1.0f, 1234.5f};
    const std::string wire = daemon::encode_compile_response(ok);
    for (const auto& [value, names] :
         std::vector<std::pair<double, std::string>>{
             {4321.25, "instruction 1"}, {1234.5, "pool 1"}}) {
        SexprWriter w;
        const std::string token = w.f64(value).str();
        const std::size_t at = wire.find(" " + token);
        ASSERT_NE(at, std::string::npos) << token;
        std::string bad = wire;
        bad.replace(at + 1, token.size(), "1e300");
        try {
            daemon::decode_compile_response(bad);
            ADD_FAILURE() << names << " = 1e300 decoded";
        } catch (const UserError& e) {
            EXPECT_NE(std::string(e.what()).find(names), std::string::npos)
                << e.what();
        }
        for (const char* good : {"inf", "nan"}) {
            std::string fine = wire;
            fine.replace(at + 1, token.size(), good);
            EXPECT_NO_THROW(daemon::decode_compile_response(fine)) << good;
        }
    }
}

TEST(Protocol, ResponseEntryWithABadWidthIsRejected)
{
    // The reader pads the spec to the entry's width, so a zero width
    // would divide by zero there: decoding must fail instead, and the
    // client then retries or falls back.
    for (const int width : {0, 3, -4, 32}) {
        CompileResponse ok;
        ok.status = ResponseStatus::kOk;
        ok.entry.emplace();
        ok.entry->vector_width = width;
        EXPECT_THROW(daemon::decode_compile_response(
                         daemon::encode_compile_response(ok)),
                     UserError)
            << "width " << width;
    }
    CompileResponse ok;
    ok.status = ResponseStatus::kOk;
    ok.entry.emplace();
    ok.entry->vector_width = 8;
    EXPECT_EQ(daemon::decode_compile_response(
                  daemon::encode_compile_response(ok))
                  .entry->vector_width,
              8);
}

TEST(Protocol, EveryOptionFieldRoundTripsAndKeysByIdentity)
{
    // Walks the one CompilerOptions field list: each wire field survives
    // the codec at a non-default value, and it changes the cache key
    // exactly when the list marks it as part of the artifact identity.
    const scalar::Kernel kernel = scalar::parse_kernel(kVaddText);
    const CompilerOptions base = test_options();
    const CacheKey base_key = service::compute_cache_key(kernel, base);
    std::size_t wire_fields = 0;
    for (const OptionField& f : option_fields()) {
        SCOPED_TRACE(f.name);
        if (!f.identity()) {
            EXPECT_GT(std::strlen(f.not_identity), 0u);
        }
        ++wire_fields;
        CompilerOptions o = base;
        if (f.kind == OptionKind::kStrategy) {
            o.strategy = strategy::builtin_phased();
        }
        for (std::size_t i = 0; i < f.count; ++i) {
            const double v = f.access.get(base, i);
            const double other = v != f.range.hi ? f.range.hi
                                 : f.range.lo_open ? f.range.hi / 2
                                                   : f.range.lo;
            ASSERT_NO_THROW(f.check(other)) << other;
            f.access.set(o, i, other);
            ASSERT_NE(f.access.get(o, i), v);
        }
        CompileRequest req;
        req.kernel_name = "vadd4";
        req.kernel_text = kVaddText;
        req.options = o;
        const std::string wire = encode_compile_request(req);
        EXPECT_NE(wire.find(std::string("(") + f.name + " "),
                  std::string::npos);
        const CompilerOptions back =
            daemon::decode_compile_request(wire).options;
        for (std::size_t i = 0; i < f.count; ++i) {
            EXPECT_EQ(f.access.get(back, i), f.access.get(o, i)) << i;
        }
        EXPECT_EQ(back.strategy.has_value(), o.strategy.has_value());
        EXPECT_EQ(service::compute_cache_key(kernel, o) != base_key,
                  f.identity());
    }
    EXPECT_GE(wire_fields, 20u);

    // The fields never on the wire are never hashed either.
    CompilerOptions local = base;
    local.fault_specs = {"lower.term:1"};
    local.absolute_deadline = Deadline::after_seconds(5.0);
    EXPECT_EQ(service::compute_cache_key(kernel, local), base_key);
    CompileRequest req;
    req.kernel_name = "vadd4";
    req.kernel_text = kVaddText;
    req.options = local;
    EXPECT_TRUE(daemon::decode_compile_request(encode_compile_request(req))
                    .options.fault_specs.empty());

    // Wire order does not matter, and unknown option fields are skipped.
    CompilerOptions tuned = base;
    tuned.target = TargetSpec::fusion_g3_vliw();
    tuned.limits.time_limit_seconds = 7.0;
    tuned.strategy = strategy::builtin_phased();
    req.options = tuned;
    std::vector<Sexpr> top =
        parse_sexpr(encode_compile_request(req)).children();
    for (Sexpr& part : top) {
        if (is_field(part, "options")) {
            std::vector<Sexpr> opts = part.children();
            std::reverse(opts.begin() + 1, opts.end());
            opts.push_back(parse_sexpr("(from-a-newer-client 1)"));
            part = Sexpr::list(std::move(opts));
        }
    }
    const CompilerOptions back =
        daemon::decode_compile_request(Sexpr::list(top).to_string()).options;
    EXPECT_EQ(service::compute_cache_key(kernel, back),
              service::compute_cache_key(kernel, tuned));
    EXPECT_EQ(back.limits.time_limit_seconds, 7.0);
}

TEST(Protocol, StrategyPhaseTimeoutTravelsExactly)
{
    // The strategy crosses the wire as its canonical text, so a phase
    // timeout must render in full: a rounded one would run a different
    // budget remotely and share a cache key with a different strategy.
    const scalar::Kernel kernel = scalar::parse_kernel(kVaddText);
    CompilerOptions o = test_options();
    o.strategy = strategy::builtin_phased();
    o.strategy->phases[0].limits.time_limit_seconds = 0.1234567;
    CompileRequest req;
    req.kernel_name = "vadd4";
    req.kernel_text = kVaddText;
    req.options = o;
    const CompilerOptions back =
        daemon::decode_compile_request(encode_compile_request(req)).options;
    ASSERT_TRUE(back.strategy.has_value());
    EXPECT_EQ(*back.strategy, *o.strategy);
    EXPECT_EQ(service::compute_cache_key(kernel, back),
              service::compute_cache_key(kernel, o));

    CompilerOptions near = o;
    near.strategy->phases[0].limits.time_limit_seconds = 0.1234568;
    EXPECT_NE(service::compute_cache_key(kernel, near),
              service::compute_cache_key(kernel, o));
}

// ---------------------------------------------------------------------------
// Live daemon end to end
// ---------------------------------------------------------------------------

TEST(DaemonEndToEnd, RemoteCompileIsByteIdenticalToLocal)
{
    TempDir dir("e2e");
    daemon::DaemonOptions dopts;
    dopts.socket_path = dir.sock();
    dopts.service.jobs = 1;
    dopts.service.cache_dir = (dir.path / "cache").string();
    daemon::Daemon d(dopts);
    d.start();

    RemoteOptions ropts;
    ropts.socket_path = dir.sock();
    ropts.jitter_seed = 1;
    RemoteClient client(ropts);

    // The width-2 preset differs from the default target in fields the
    // width alone does not carry (a scalar MAC, here), which change the
    // emitted program for this kernel.
    CompilerOptions narrow = test_options();
    narrow.target = TargetSpec::narrow_2wide();
    const std::pair<const char*, CompilerOptions> cases[] = {
        {kVaddText, test_options()},
        {"(kernel norm3 (param n 3) (input a n) (output out 1)\n"
         "  (store out 0 (sqrt (+ (* (load a 0) (load a 0))\n"
         "    (* (load a 1) (load a 1)) (* (load a 2) (load a 2))))))\n",
         narrow},
    };
    for (const auto& [text, options] : cases) {
        const scalar::Kernel kernel = scalar::parse_kernel(text);
        CompileRequest req;
        req.kernel_name = kernel.name;
        req.kernel_text = text;
        req.options = options;
        const auto resp = client.compile(req);
        ASSERT_TRUE(resp.has_value());
        ASSERT_EQ(resp->status, ResponseStatus::kOk);
        const CompiledKernel remote =
            service::compiled_from_entry(kernel, *resp->entry);

        const CompileResult local =
            compile_kernel_resilient(kernel, options);
        ASSERT_TRUE(local.ok);
        EXPECT_EQ(remote.c_source, local.compiled->c_source) << kernel.name;
        EXPECT_EQ(disassemble(remote.machine, options.target.vector_width),
                  disassemble(local.compiled->machine,
                              options.target.vector_width))
            << kernel.name;
    }

    d.shutdown();
}

TEST(DaemonEndToEnd, ReplayedFrameIsServedFromDedupNotRecompiled)
{
    TempDir dir("dedup");
    daemon::DaemonOptions dopts;
    dopts.socket_path = dir.sock();
    dopts.service.jobs = 1;
    daemon::Daemon d(dopts);
    d.start();

    // Speak the protocol by hand so the exact same (client_id, seq)
    // frame goes out twice — what a retry after a torn reply does. The
    // first identity is answered by a compile, the second by the memory
    // cache; each is replayed on a NEW connection.
    const std::string miss = encode_frame(make_request_frame(0xc11e47, 1));
    const std::string hit = encode_frame(make_request_frame(0xc11e47, 2));
    const Frame first = exchange(dir.sock(), miss);
    const Frame first_again = exchange(dir.sock(), miss);
    const Frame second = exchange(dir.sock(), hit);
    const Frame second_again = exchange(dir.sock(), hit);
    for (const Frame* f : {&first, &first_again, &second, &second_again}) {
        EXPECT_EQ(f->type, FrameType::kCompileResponse);
        EXPECT_EQ(f->client_id, 0xc11e47u);
    }
    EXPECT_EQ(first.seq, 1u);
    EXPECT_EQ(second_again.seq, 2u);
    // Identical bytes, and the daemon counted dedup hits instead of
    // compiling (or looking up) again. A hit's reply is the miss's.
    EXPECT_EQ(encode_frame(first_again), encode_frame(first));
    EXPECT_EQ(encode_frame(second_again), encode_frame(second));
    EXPECT_EQ(second.payload, first.payload);
    EXPECT_EQ(daemon::decode_compile_response(first.payload).status,
              ResponseStatus::kOk);
    EXPECT_EQ(d.dedup_hits(), 2u);
    EXPECT_EQ(d.remote_requests(), 4u);

    const std::string status = d.status_json();
    EXPECT_NE(status.find("\"dedup_hits\":2"), std::string::npos);
    EXPECT_NE(status.find("\"misses\":1,"), std::string::npos) << status;
    EXPECT_NE(status.find("\"memory_hits\":1,"), std::string::npos)
        << status;
    EXPECT_NE(status.find("\"uptime_seconds\":"), std::string::npos);

    d.shutdown();
}

TEST(DaemonEndToEnd, EveryGoldenPayloadIsServedOnMissMemoryHitAndDiskHit)
{
    TempDir dir("golden");
    daemon::DaemonOptions dopts;
    dopts.socket_path = dir.sock();
    dopts.service.jobs = 1;
    dopts.service.cache_dir = (dir.path / "cache").string();

    std::map<std::string, std::string> golden;
    for (const format_golden::Record& r : format_golden::read_golden()) {
        golden.emplace(r.name, r.text);
    }
    const std::vector<format_golden::Case> cases = format_golden::cases();
    ASSERT_EQ(golden.size(), 2 * cases.size());
    std::uint64_t seq = 0;
    const auto serve_every_case = [&](const char* pass) {
        for (const format_golden::Case& c : cases) {
            CompileRequest req;
            req.kernel_name = c.kernel.name;
            req.kernel_text = benchmark::kernel_text(c.kernel);
            req.options = format_golden::options_for(c.width);
            const Frame reply = exchange(
                dir.sock(),
                daemon::encode_frame(FrameType::kCompileRequest, 0x901d,
                                     ++seq, encode_compile_request(req)));
            EXPECT_EQ(reply.type, FrameType::kCompileResponse);
            EXPECT_TRUE(reply.payload == golden[c.name + " payload"])
                << c.name << ", " << pass;
        }
    };
    const auto counted = [&](const daemon::Daemon& d, const char* name) {
        return d.status_json().find("\"" + std::string(name) + "\":" +
                                    std::to_string(cases.size()) + ",") !=
               std::string::npos;
    };

    {
        daemon::Daemon d(dopts);
        d.start();
        serve_every_case("miss");
        serve_every_case("memory hit");
        EXPECT_TRUE(counted(d, "misses")) << d.status_json();
        EXPECT_TRUE(counted(d, "memory_hits")) << d.status_json();
        d.shutdown();
    }
    // A restarted daemon has an empty memory cache: every case is now
    // served from the payload text its disk entry holds.
    daemon::Daemon d(dopts);
    d.start();
    serve_every_case("disk hit");
    EXPECT_TRUE(counted(d, "disk_hits")) << d.status_json();
    d.shutdown();
}

TEST(DaemonEndToEnd, MalformedFramesAreRejectedWithoutCrashing)
{
    TempDir dir("reject");
    daemon::DaemonOptions dopts;
    dopts.socket_path = dir.sock();
    dopts.service.jobs = 1;
    dopts.read_deadline_seconds = 0.5;
    daemon::Daemon d(dopts);
    d.start();

    auto open_conn = [&]() -> int {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        EXPECT_GE(fd, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, dir.sock().c_str(),
                     sizeof addr.sun_path - 1);
        EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                            sizeof addr),
                  0);
        return fd;
    };
    auto drain_until_closed = [](int fd) {
        char buf[4096];
        while (::recv(fd, buf, sizeof buf, 0) > 0) {
        }
        ::close(fd);
    };

    // Garbage covering a full header: rejected instantly (bad magic),
    // error frame sent, connection dropped.
    const int fd = open_conn();
    const std::string garbage(64, '!');
    ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(garbage.size()));
    drain_until_closed(fd);
    EXPECT_GE(d.frames_rejected(), 1u);

    // A torn frame whose sender stalls: the read deadline frees the
    // handler thread and counts the stall.
    const std::uint64_t rejected_before = d.frames_rejected();
    const int torn = open_conn();
    const std::string partial = "DIOS";  // header prefix, then silence
    ASSERT_EQ(::send(torn, partial.data(), partial.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(partial.size()));
    drain_until_closed(torn);  // daemon closes at the deadline
    EXPECT_GT(d.frames_rejected(), rejected_before);

    RemoteOptions ropts;
    ropts.socket_path = dir.sock();
    ropts.jitter_seed = 2;
    RemoteClient client(ropts);
    CompileRequest req;
    req.kernel_name = "vadd4";
    req.kernel_text = kVaddText;
    req.options = test_options();
    const auto resp = client.compile(req);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, ResponseStatus::kOk);

    d.shutdown();
}

TEST(DaemonEndToEnd, SecondDaemonOnTheSameSocketIsRefused)
{
    TempDir dir("lock");
    daemon::DaemonOptions dopts;
    dopts.socket_path = dir.sock();
    dopts.service.jobs = 1;
    daemon::Daemon first(dopts);
    first.start();

    daemon::Daemon second(dopts);
    EXPECT_THROW(second.start(), UserError);

    first.shutdown();
    // With the first daemon gone (flock released, socket unlinked), the
    // same socket is takeoverable.
    daemon::Daemon third(dopts);
    third.start();
    EXPECT_TRUE(third.running());
    third.shutdown();
}

TEST(RemoteClientFallback, UnreachableSocketReturnsNulloptQuickly)
{
    RemoteOptions ropts;
    ropts.socket_path = "/tmp/dios_daemon_test_no_such_socket.sock";
    ropts.max_attempts = 2;
    ropts.backoff_initial_ms = 1.0;
    ropts.backoff_max_ms = 2.0;
    ropts.jitter_seed = 3;
    RemoteClient client(ropts);
    CompileRequest req;
    req.kernel_name = "vadd4";
    req.kernel_text = kVaddText;
    req.options = test_options();
    const auto resp = client.compile(req);
    EXPECT_FALSE(resp.has_value());
    EXPECT_EQ(client.counters().remote_fallback_local, 1u);
    EXPECT_EQ(client.counters().remote_retries, 1u);
    EXPECT_FALSE(client.status().has_value());
}

TEST(RemoteClientFallback, AnotherProtocolVersionFallsBackAfterOneFrame)
{
    // A stand-in for a diosd of another build: it answers each frame as
    // that daemon does, with an error frame at its own version, then
    // hangs up. No retry can change the answer, so the client must fall
    // back after the first one.
    TempDir dir("version");
    const int listener = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(listener, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, dir.sock().c_str(), sizeof addr.sun_path - 1);
    ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                     sizeof addr),
              0);
    ASSERT_EQ(::listen(listener, 8), 0);
    std::atomic<bool> done{false};
    std::atomic<int> frames{0};
    std::thread server([&] {
        Frame refusal;
        refusal.type = FrameType::kError;
        refusal.payload = daemon::encode_error_payload(
            "bad-version", "unsupported protocol version");
        std::string bytes = encode_frame(refusal);
        bytes[4] = static_cast<char>(daemon::kProtocolVersion - 1);
        while (!done.load()) {
            pollfd p{listener, POLLIN, 0};
            if (::poll(&p, 1, 20) <= 0) {
                continue;
            }
            const int fd = ::accept(listener, nullptr, nullptr);
            char buf[65536];
            if (fd >= 0 && ::recv(fd, buf, sizeof buf, 0) > 0) {
                ++frames;
                ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
            }
            if (fd >= 0) {
                ::close(fd);
            }
        }
    });

    RemoteOptions ropts;
    ropts.socket_path = dir.sock();
    ropts.jitter_seed = 5;
    RemoteClient client(ropts);
    CompileRequest req;
    req.kernel_name = "vadd4";
    req.kernel_text = kVaddText;
    req.options = test_options();
    EXPECT_FALSE(client.compile(req).has_value());
    EXPECT_EQ(frames.load(), 1);
    EXPECT_EQ(client.counters().remote_retries, 0u);
    EXPECT_EQ(client.counters().remote_fallback_local, 1u);
    EXPECT_FALSE(client.status().has_value());
    EXPECT_EQ(frames.load(), 2);

    done.store(true);
    server.join();
    ::close(listener);
}

}  // namespace
}  // namespace diospyros
