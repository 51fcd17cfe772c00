/**
 * @file
 * Payload schemas for diosd frames (DESIGN.md §5j). Payloads are
 * s-expression text — the same dialect as the on-disk cache envelope —
 * so one parser and one set of escaping rules serves the wire and the
 * store.
 *
 *   compile-request:  kernel name + full kernel source text + the
 *     `(options ...)` written by looping over the one CompilerOptions
 *     field list (compiler/option_fields.h), plus the admission knobs.
 *     The decoder range-checks every option there. The server re-parses
 *     the kernel with the ordinary scalar parser, so a remote compile
 *     runs exactly the pipeline a local one would — the precondition
 *     for byte-identical results.
 *   compile-response: ok (cached-entry payload, reusing the §5e envelope
 *     body, spliced in from the text the compile service keeps), shed
 *     (retry_after_ms hint), or failed (failure class + message).
 *   status-response:  ServiceMetrics::to_json() text, with the daemon
 *     counters and uptime filled in.
 *   error:            structured protocol-level rejection (frame-error
 *     kind + detail), sent before the server drops a connection.
 *
 * Decoders raise UserError on malformed payloads — the transport layer
 * catches and answers with an error frame; nothing here crashes the
 * server.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "compiler/driver.h"
#include "service/compile_service.h"
#include "service/serialize.h"

namespace diospyros::daemon {

/** One remote compile request. */
struct CompileRequest {
    /** Diagnostic name (usually the kernel file's stem). */
    std::string kernel_name;
    /** Full kernel source text; the daemon re-parses it. */
    std::string kernel_text;
    /** Compiler options: every field of compiler/option_fields.h. */
    CompilerOptions options;
    service::Priority priority = service::Priority::kBatch;
    /** Admission timeout forwarded to submit_for (< 0 blocks). */
    double submit_timeout_seconds = -1.0;
};

std::string encode_compile_request(const CompileRequest& req);
/** Raises UserError on malformed payloads (incl. bad strategy text). */
CompileRequest decode_compile_request(const std::string& payload);

/** How the daemon resolved a compile request. */
enum class ResponseStatus {
    kOk,    ///< entry engaged; reconstructs to the exact local artifact
    kShed,  ///< admission control rejected; retry_after_ms is the hint
    kFailed,  ///< compile ran and failed; class + error carried
};

struct CompileResponse {
    ResponseStatus status = ResponseStatus::kFailed;
    std::uint64_t retry_after_ms = 0;
    FailureClass failure_class = FailureClass::kNone;
    std::string error;
    /** Engaged iff status == kOk. */
    std::optional<service::CachedEntry> entry;
};

std::string encode_compile_response(const CompileResponse& resp);

/**
 * The response around an entry already encoded (`entry_text` ==
 * service::encode_entry(entry), `resp.entry` disengaged): the same bytes
 * as encode_compile_response with `entry` engaged, the text spliced in
 * as it is. diosd answers every ok request this way.
 */
std::string encode_compile_response(const CompileResponse& resp,
                                    std::string_view entry_text);

CompileResponse decode_compile_response(const std::string& payload);

/** Error-frame payload: `(error (kind "...") (detail "..."))`. */
std::string encode_error_payload(const std::string& kind,
                                 const std::string& detail);

}  // namespace diospyros::daemon
