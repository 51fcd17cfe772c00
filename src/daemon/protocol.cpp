#include "daemon/protocol.h"

#include <vector>

#include "compiler/option_fields.h"
#include "support/error.h"
#include "support/sexpr.h"

namespace diospyros::daemon {

namespace {

constexpr const char* kWhere = "daemon payload";

const char*
status_name(ResponseStatus status)
{
    constexpr const char* kNames[] = {"ok", "shed", "failed"};
    return kNames[static_cast<int>(status)];
}

Sexpr
parse_payload(const std::string& payload, const char* head)
{
    try {
        Sexpr root = parse_sexpr(payload);
        DIOS_CHECK(is_field(root, head),
                   std::string("expected (") + head + " ...)");
        return root;
    } catch (const UserError& e) {
        detail::raise_user(std::string("daemon payload: ") + e.what());
    }
}

}  // namespace

// ---------------------------------------------------------------------------
// compile-request
// ---------------------------------------------------------------------------

std::string
encode_compile_request(const CompileRequest& req)
{
    std::vector<Sexpr> options = {Sexpr::atom("options")};
    for (const OptionField& f : option_fields()) {
        options.push_back(f.encode(req.options));
    }
    std::vector<Sexpr> children = {
        Sexpr::atom("compile-request"),
        field("kernel-name", {Sexpr::string_atom(req.kernel_name)}),
        field("kernel-text", {Sexpr::string_atom(req.kernel_text)}),
        field("priority", {Sexpr::atom(service::priority_name(req.priority))}),
        field("submit-timeout", {f64_atom(req.submit_timeout_seconds)})};
    children.push_back(Sexpr::list(std::move(options)));  // moved, not copied
    return Sexpr::list(std::move(children)).to_string();
}

CompileRequest
decode_compile_request(const std::string& payload)
{
    const Sexpr root = parse_payload(payload, "compile-request");
    CompileRequest req;
    bool saw_name = false, saw_text = false;
    for (std::size_t i = 1; i < root.size(); ++i) {
        const Sexpr& f = root[i];
        if (is_field(f, "kernel-name")) {
            req.kernel_name = field_value(f, kWhere).token();
            saw_name = true;
        } else if (is_field(f, "kernel-text")) {
            req.kernel_text = field_value(f, kWhere).token();
            saw_text = true;
        } else if (is_field(f, "priority")) {
            req.priority =
                service::parse_priority(field_value(f, kWhere).token());
        } else if (is_field(f, "submit-timeout")) {
            req.submit_timeout_seconds =
                as_f64(field_value(f, kWhere), kWhere);
        } else if (is_field(f, "options")) {
            // Unknown option fields are skipped: a newer client may send
            // fields this server does not know, and the cache key
            // (computed server-side) still reflects what the server will
            // actually do. The encoder writes the list's order, so each
            // search starts at the entry after the last match.
            const std::span<const OptionField> fields = option_fields();
            std::size_t next = 0;
            for (std::size_t j = 1; j < f.size(); ++j) {
                for (std::size_t k = next; k < next + fields.size(); ++k) {
                    if (is_field(f[j], fields[k % fields.size()].name)) {
                        fields[k % fields.size()].decode(f[j], req.options);
                        next = k + 1;
                        break;
                    }
                }
            }
        }
    }
    DIOS_CHECK(saw_name && saw_text,
               "daemon payload: compile-request missing kernel-name or "
               "kernel-text");
    req.options.sync();
    return req;
}

// ---------------------------------------------------------------------------
// compile-response
// ---------------------------------------------------------------------------

std::string
encode_compile_response(const CompileResponse& resp)
{
    std::vector<Sexpr> children = {
        Sexpr::atom("compile-response"),
        field("status",
              {Sexpr::atom(status_name(resp.status))}),
        field("retry-after-ms", {i64_atom(static_cast<std::int64_t>(
                                    resp.retry_after_ms))}),
        field("failure-class",
              {Sexpr::atom(failure_class_name(resp.failure_class))}),
        field("error", {Sexpr::string_atom(resp.error)})};
    if (resp.entry) {
        children.push_back(
            field("entry", {service::entry_to_sexpr(*resp.entry)}));
    }
    return Sexpr::list(std::move(children)).to_string();
}

CompileResponse
decode_compile_response(const std::string& payload)
{
    const Sexpr root = parse_payload(payload, "compile-response");
    CompileResponse resp;
    bool saw_status = false;
    for (std::size_t i = 1; i < root.size(); ++i) {
        const Sexpr& f = root[i];
        if (is_field(f, "status")) {
            resp.status = enum_from_name(
                field_value(f, kWhere).token(),
                static_cast<int>(ResponseStatus::kFailed) + 1, status_name,
                "daemon payload: unknown response status");
            saw_status = true;
        } else if (is_field(f, "retry-after-ms")) {
            resp.retry_after_ms = static_cast<std::uint64_t>(
                as_i64(field_value(f, kWhere), kWhere));
        } else if (is_field(f, "failure-class")) {
            resp.failure_class = enum_from_name(
                field_value(f, kWhere).token(),
                static_cast<int>(FailureClass::kExpired) + 1,
                failure_class_name, "daemon payload: unknown failure class");
        } else if (is_field(f, "error")) {
            resp.error = field_value(f, kWhere).token();
        } else if (is_field(f, "entry")) {
            DIOS_CHECK(f.size() == 2,
                       "daemon payload: entry field expects one value");
            resp.entry = service::entry_from_sexpr(f[1]);
        }
    }
    DIOS_CHECK(saw_status, "daemon payload: compile-response missing status");
    DIOS_CHECK(resp.status != ResponseStatus::kOk || resp.entry.has_value(),
               "daemon payload: ok response carries no entry");
    return resp;
}

std::string
encode_error_payload(const std::string& kind, const std::string& detail)
{
    return Sexpr::list({Sexpr::atom("error"),
                        field("kind", {Sexpr::string_atom(kind)}),
                        field("detail", {Sexpr::string_atom(detail)})})
        .to_string();
}

}  // namespace diospyros::daemon
