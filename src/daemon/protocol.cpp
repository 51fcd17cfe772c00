#include "daemon/protocol.h"

#include <array>
#include <optional>
#include <span>

#include "compiler/option_fields.h"
#include "support/error.h"
#include "support/sexpr.h"

namespace diospyros::daemon {

namespace {

using Item = SexprCursor::Item;

constexpr const char* kWhere = "daemon payload";

const char*
status_name(ResponseStatus status)
{
    constexpr const char* kNames[] = {"ok", "shed", "failed"};
    return kNames[static_cast<int>(status)];
}

/** Enters the payload's `(head ...)` list; syntax errors name the payload. */
void
enter_payload(SexprCursor& c, const char* head)
{
    const std::optional<Item> h = c.field();
    DIOS_CHECK(h && h->is(head), std::string("daemon payload: expected (") +
                                     head + " ...)");
}

/** The single atom of the field whose head `c` has just read. */
Item
field_value(SexprCursor& c, const Item& head)
{
    std::array<Item, 1> v;
    DIOS_CHECK(c.read_rest(v) == 1 && v[0].is_atom(),
               std::string(kWhere) + ": field '" + head.token() +
                   "' expects one atom");
    return v[0];
}

}  // namespace

// ---------------------------------------------------------------------------
// compile-request
// ---------------------------------------------------------------------------

std::string
encode_compile_request(const CompileRequest& req)
{
    SexprWriter w;
    w.open("compile-request").field("kernel-name", req.kernel_name);
    w.field("kernel-text", req.kernel_text);
    w.field("priority", service::priority_name(req.priority));
    w.field("submit-timeout", req.submit_timeout_seconds);
    w.open("options");
    for (const OptionField& f : option_fields()) {
        f.encode(req.options, w);
    }
    w.close().close();
    return w.take();
}

CompileRequest
decode_compile_request(const std::string& payload)
{
    SexprCursor c(payload, "daemon payload: ");
    enter_payload(c, "compile-request");
    CompileRequest req;
    bool saw_name = false, saw_text = false;
    while (c.more()) {
        const std::optional<Item> f = c.field();
        if (!f) {
            continue;
        }
        if (f->is("kernel-name")) {
            req.kernel_name = field_value(c, *f).token();
            saw_name = true;
        } else if (f->is("kernel-text")) {
            req.kernel_text = field_value(c, *f).token();
            saw_text = true;
        } else if (f->is("priority")) {
            req.priority =
                service::parse_priority(field_value(c, *f).token());
        } else if (f->is("submit-timeout")) {
            req.submit_timeout_seconds =
                as_f64(field_value(c, *f), kWhere);
        } else if (f->is("options")) {
            // Unknown option fields are skipped: a newer client may send
            // fields this server does not know, and the cache key
            // (computed server-side) still reflects what the server will
            // actually do. The encoder writes the list's order, so each
            // search starts at the entry after the last match.
            const std::span<const OptionField> fields = option_fields();
            std::size_t next = 0;
            while (c.more()) {
                const std::optional<Item> name = c.field();
                if (!name) {
                    continue;
                }
                bool known = false;
                for (std::size_t k = next; k < next + fields.size() && !known;
                     ++k) {
                    if (name->is(fields[k % fields.size()].name)) {
                        fields[k % fields.size()].decode(c, req.options);
                        next = k + 1;
                        known = true;
                    }
                }
                if (!known) {
                    c.skip_rest();
                }
            }
        } else {
            c.skip_rest();
        }
    }
    c.finish();
    DIOS_CHECK(saw_name && saw_text,
               "daemon payload: compile-request missing kernel-name or "
               "kernel-text");
    req.options.sync();
    return req;
}

// ---------------------------------------------------------------------------
// compile-response
// ---------------------------------------------------------------------------

namespace {

/** Opens the response and writes every field but the entry. */
void
write_response_fields(SexprWriter& w, const CompileResponse& resp)
{
    w.open("compile-response").field("status", status_name(resp.status));
    w.field("retry-after-ms", resp.retry_after_ms);
    w.field("failure-class", failure_class_name(resp.failure_class));
    w.field("error", resp.error);
}

}  // namespace

std::string
encode_compile_response(const CompileResponse& resp)
{
    SexprWriter w;
    write_response_fields(w, resp);
    if (resp.entry) {
        w.open("entry");
        service::write_entry(w, *resp.entry);
        w.close();
    }
    w.close();
    return w.take();
}

std::string
encode_compile_response(const CompileResponse& resp,
                        std::string_view entry_text)
{
    DIOS_ASSERT(!resp.entry, "an entry and its text both given");
    SexprWriter w;
    write_response_fields(w, resp);
    w.open("entry").raw(entry_text).close().close();
    return w.take();
}

CompileResponse
decode_compile_response(const std::string& payload)
{
    SexprCursor c(payload, "daemon payload: ");
    enter_payload(c, "compile-response");
    CompileResponse resp;
    bool saw_status = false;
    while (c.more()) {
        const std::optional<Item> f = c.field();
        if (!f) {
            continue;
        }
        if (f->is("status")) {
            resp.status = enum_from_name(
                field_value(c, *f).token(),
                static_cast<int>(ResponseStatus::kFailed) + 1, status_name,
                "daemon payload: unknown response status");
            saw_status = true;
        } else if (f->is("retry-after-ms")) {
            resp.retry_after_ms = static_cast<std::uint64_t>(
                as_i64(field_value(c, *f), kWhere));
        } else if (f->is("failure-class")) {
            resp.failure_class = enum_from_name(
                field_value(c, *f).token(),
                static_cast<int>(FailureClass::kExpired) + 1,
                failure_class_name, "daemon payload: unknown failure class");
        } else if (f->is("error")) {
            resp.error = field_value(c, *f).token();
        } else if (f->is("entry")) {
            DIOS_CHECK(c.more(),
                       "daemon payload: entry field expects one value");
            resp.entry = service::read_entry(c);
            DIOS_CHECK(!c.more(),
                       "daemon payload: entry field expects one value");
        } else {
            c.skip_rest();
        }
    }
    c.finish();
    DIOS_CHECK(saw_status, "daemon payload: compile-response missing status");
    DIOS_CHECK(resp.status != ResponseStatus::kOk || resp.entry.has_value(),
               "daemon payload: ok response carries no entry");
    return resp;
}

std::string
encode_error_payload(const std::string& kind, const std::string& detail)
{
    SexprWriter w;
    w.open("error").field("kind", kind).field("detail", detail).close();
    return w.take();
}

}  // namespace diospyros::daemon
