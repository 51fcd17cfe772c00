#include "daemon/protocol.h"

#include <cstdio>
#include <vector>

#include "analysis/diagnostics.h"
#include "machine/target.h"
#include "strategy/parse.h"
#include "support/error.h"
#include "support/sexpr.h"

namespace diospyros::daemon {

namespace {

Sexpr
f64_atom(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a", v);
    return Sexpr::atom(buf);
}

Sexpr
field(const std::string& name, std::vector<Sexpr> values)
{
    std::vector<Sexpr> children;
    children.reserve(values.size() + 1);
    children.push_back(Sexpr::atom(name));
    for (Sexpr& v : values) {
        children.push_back(std::move(v));
    }
    return Sexpr::list(std::move(children));
}

bool
is_field(const Sexpr& s, const char* name)
{
    return s.is_list() && s.size() >= 2 && s[0].is_atom() &&
           s[0].token() == name;
}

const std::string&
field_token(const Sexpr& s)
{
    DIOS_CHECK(s.size() == 2 && s[1].is_atom(),
               "daemon payload: field '" + s[0].token() +
                   "' expects one atom");
    return s[1].token();
}

std::int64_t
field_i64(const Sexpr& s)
{
    DIOS_CHECK(s.size() == 2 && s[1].is_integer(),
               "daemon payload: field '" + s[0].token() +
                   "' expects an integer");
    return s[1].as_integer();
}

double
field_f64(const Sexpr& s)
{
    DIOS_CHECK(s.size() == 2 && s[1].is_number(),
               "daemon payload: field '" + s[0].token() +
                   "' expects a number");
    return s[1].as_number();
}

bool
field_bool(const Sexpr& s)
{
    return field_i64(s) != 0;
}

Sexpr
bool_atom(bool v)
{
    return Sexpr::atom(v ? "1" : "0");
}

FailureClass
failure_class_from_name(const std::string& name)
{
    for (int i = 0; i <= static_cast<int>(FailureClass::kExpired); ++i) {
        const auto c = static_cast<FailureClass>(i);
        if (name == failure_class_name(c)) {
            return c;
        }
    }
    detail::raise_user("daemon payload: unknown failure class '" + name +
                       "'");
}

Sexpr
parse_payload(const std::string& payload, const char* head)
{
    std::optional<Sexpr> root;
    try {
        root = parse_sexpr(payload);
    } catch (const UserError& e) {
        detail::raise_user(std::string("daemon payload: ") + e.what());
    }
    DIOS_CHECK(root->is_list() && root->size() >= 1 && (*root)[0].is_atom() &&
                   (*root)[0].token() == head,
               std::string("daemon payload: expected (") + head + " ...)");
    return std::move(*root);
}

}  // namespace

// ---------------------------------------------------------------------------
// compile-request
// ---------------------------------------------------------------------------

std::string
encode_compile_request(const CompileRequest& req)
{
    CompilerOptions o = req.options;
    o.sync();
    std::vector<Sexpr> opt_fields;
    opt_fields.push_back(Sexpr::atom("options"));
    opt_fields.push_back(
        field("width", {Sexpr::atom(
                           std::to_string(o.target.vector_width))}));
    opt_fields.push_back(field("recip", {bool_atom(o.target.has_reciprocal)}));
    opt_fields.push_back(
        field("scalar-mac", {bool_atom(o.target.has_scalar_mac)}));
    opt_fields.push_back(field(
        "branch-penalty",
        {Sexpr::atom(std::to_string(o.target.taken_branch_penalty))}));
    opt_fields.push_back(field(
        "issue-width", {Sexpr::atom(std::to_string(o.target.issue_width))}));
    std::vector<Sexpr> costs;
    for (const int c : o.target.cost_table) {
        costs.push_back(Sexpr::atom(std::to_string(c)));
    }
    opt_fields.push_back(field("cost-table", std::move(costs)));
    std::vector<Sexpr> params;
    for (const auto param : kCostParamFields) {
        params.push_back(f64_atom(o.cost.*param));
    }
    opt_fields.push_back(field("cost", std::move(params)));
    opt_fields.push_back(field(
        "nodes", {Sexpr::atom(std::to_string(o.limits.node_limit))}));
    opt_fields.push_back(field(
        "iters", {Sexpr::atom(std::to_string(o.limits.iter_limit))}));
    opt_fields.push_back(
        field("timeout", {f64_atom(o.limits.time_limit_seconds)}));
    opt_fields.push_back(field(
        "match-limit",
        {Sexpr::atom(std::to_string(o.limits.match_limit_per_rule))}));
    opt_fields.push_back(field(
        "backoff",
        {Sexpr::atom(std::to_string(o.limits.backoff_threshold))}));
    opt_fields.push_back(field(
        "memory",
        {Sexpr::atom(std::to_string(o.limits.memory_limit_bytes))}));
    opt_fields.push_back(field("deadline", {f64_atom(o.deadline_seconds)}));
    opt_fields.push_back(
        field("vector-rules", {bool_atom(o.rules.enable_vector_rules)}));
    opt_fields.push_back(
        field("scalar-rules", {bool_atom(o.rules.enable_scalar_rules)}));
    opt_fields.push_back(field("full-ac", {bool_atom(o.rules.full_ac)}));
    opt_fields.push_back(field("validate", {bool_atom(o.validate)}));
    opt_fields.push_back(
        field("random-check", {bool_atom(o.random_check)}));
    opt_fields.push_back(field("verify-ir", {bool_atom(o.verify_ir)}));
    opt_fields.push_back(
        field("verify-machine", {bool_atom(o.verify_machine)}));
    opt_fields.push_back(field(
        "io-retries", {Sexpr::atom(std::to_string(o.io_retries))}));
    opt_fields.push_back(field(
        "strategy", {Sexpr::string_atom(
                        o.strategy ? o.strategy->to_string() : "")}));

    std::vector<Sexpr> children;
    children.push_back(Sexpr::atom("compile-request"));
    children.push_back(
        field("kernel-name", {Sexpr::string_atom(req.kernel_name)}));
    children.push_back(
        field("kernel-text", {Sexpr::string_atom(req.kernel_text)}));
    children.push_back(Sexpr::list(std::move(opt_fields)));
    children.push_back(field(
        "priority",
        {Sexpr::atom(service::priority_name(req.priority))}));
    children.push_back(
        field("submit-timeout", {f64_atom(req.submit_timeout_seconds)}));
    return Sexpr::list(std::move(children)).to_string();
}

CompileRequest
decode_compile_request(const std::string& payload)
{
    const Sexpr root = parse_payload(payload, "compile-request");
    CompileRequest req;
    bool saw_name = false;
    bool saw_text = false;
    for (std::size_t i = 1; i < root.size(); ++i) {
        const Sexpr& f = root[i];
        if (is_field(f, "kernel-name")) {
            req.kernel_name = field_token(f);
            saw_name = true;
        } else if (is_field(f, "kernel-text")) {
            req.kernel_text = field_token(f);
            saw_text = true;
        } else if (is_field(f, "priority")) {
            req.priority = service::parse_priority(field_token(f));
        } else if (is_field(f, "submit-timeout")) {
            req.submit_timeout_seconds = field_f64(f);
        } else if (f.is_list() && f.size() >= 1 && f[0].is_atom() &&
                   f[0].token() == "options") {
            CompilerOptions& o = req.options;
            for (std::size_t j = 1; j < f.size(); ++j) {
                const Sexpr& g = f[j];
                if (is_field(g, "width")) {
                    // Reject bad widths here at the protocol boundary:
                    // a daemon must fail the one request, not crash or
                    // poison the shared cache with an impossible lane
                    // count.
                    const int width = static_cast<int>(field_i64(g));
                    check_vector_width(width);
                    o.target.vector_width = width;
                } else if (is_field(g, "recip")) {
                    o.target.has_reciprocal = field_bool(g);
                } else if (is_field(g, "scalar-mac")) {
                    o.target.has_scalar_mac = field_bool(g);
                } else if (is_field(g, "branch-penalty")) {
                    const std::int64_t penalty = field_i64(g);
                    DIOS_CHECK(penalty >= 0 && penalty <= 1'000'000,
                               "daemon payload: branch-penalty out of "
                               "range");
                    o.target.taken_branch_penalty = static_cast<int>(penalty);
                } else if (is_field(g, "issue-width")) {
                    const std::int64_t issue = field_i64(g);
                    DIOS_CHECK(issue >= 1 && issue <= kNumFunctionalUnits,
                               "daemon payload: issue-width out of range");
                    o.target.issue_width = static_cast<int>(issue);
                } else if (is_field(g, "cost-table")) {
                    DIOS_CHECK(g.size() == o.target.cost_table.size() + 1,
                               "daemon payload: cost-table expects " +
                                   std::to_string(kNumOpcodes) +
                                   " entries");
                    for (std::size_t k = 0; k < o.target.cost_table.size();
                         ++k) {
                        DIOS_CHECK(g[k + 1].is_integer(),
                                   "daemon payload: cost-table expects "
                                   "integers");
                        const std::int64_t latency = g[k + 1].as_integer();
                        DIOS_CHECK(latency >= 0 && latency <= 1'000'000,
                                   "daemon payload: cost-table latency out "
                                   "of range");
                        o.target.cost_table[k] = static_cast<int>(latency);
                    }
                } else if (is_field(g, "cost")) {
                    DIOS_CHECK(g.size() == kCostParamFields.size() + 1,
                               "daemon payload: cost expects " +
                                   std::to_string(kCostParamFields.size()) +
                                   " numbers");
                    for (std::size_t k = 0; k < kCostParamFields.size();
                         ++k) {
                        DIOS_CHECK(g[k + 1].is_number(),
                                   "daemon payload: cost expects numbers");
                        const double cost = g[k + 1].as_number();
                        DIOS_CHECK(cost > 0.0 && cost < 1e9,
                                   "daemon payload: cost out of range");
                        o.cost.*kCostParamFields[k] = cost;
                    }
                } else if (is_field(g, "nodes")) {
                    o.limits.node_limit =
                        static_cast<std::size_t>(field_i64(g));
                } else if (is_field(g, "iters")) {
                    o.limits.iter_limit =
                        static_cast<int>(field_i64(g));
                } else if (is_field(g, "timeout")) {
                    o.limits.time_limit_seconds = field_f64(g);
                } else if (is_field(g, "match-limit")) {
                    o.limits.match_limit_per_rule =
                        static_cast<std::size_t>(field_i64(g));
                } else if (is_field(g, "backoff")) {
                    o.limits.backoff_threshold =
                        static_cast<std::size_t>(field_i64(g));
                } else if (is_field(g, "memory")) {
                    o.limits.memory_limit_bytes =
                        static_cast<std::size_t>(field_i64(g));
                } else if (is_field(g, "deadline")) {
                    o.deadline_seconds = field_f64(g);
                } else if (is_field(g, "vector-rules")) {
                    o.rules.enable_vector_rules = field_bool(g);
                } else if (is_field(g, "scalar-rules")) {
                    o.rules.enable_scalar_rules = field_bool(g);
                } else if (is_field(g, "full-ac")) {
                    o.rules.full_ac = field_bool(g);
                } else if (is_field(g, "validate")) {
                    o.validate = field_bool(g);
                } else if (is_field(g, "random-check")) {
                    o.random_check = field_bool(g);
                } else if (is_field(g, "verify-ir")) {
                    o.verify_ir = field_bool(g);
                } else if (is_field(g, "verify-machine")) {
                    o.verify_machine = field_bool(g);
                } else if (is_field(g, "io-retries")) {
                    o.io_retries = static_cast<int>(field_i64(g));
                } else if (is_field(g, "strategy")) {
                    const std::string& text = field_token(g);
                    if (!text.empty()) {
                        analysis::DiagEngine diags;
                        auto strat = strategy::parse_strategy(text, diags);
                        if (!strat) {
                            detail::raise_user(
                                "daemon payload: bad strategy text:\n" +
                                diags.render_text());
                        }
                        o.strategy = std::move(*strat);
                    }
                }
                // Unknown option fields are skipped: a newer client may
                // send fields this server does not know, and the cache
                // key (computed server-side) still reflects what the
                // server will actually do.
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
    std::vector<Sexpr> children;
    children.push_back(Sexpr::atom("compile-response"));
    const char* status = resp.status == ResponseStatus::kOk     ? "ok"
                         : resp.status == ResponseStatus::kShed ? "shed"
                                                                : "failed";
    children.push_back(field("status", {Sexpr::atom(status)}));
    children.push_back(field(
        "retry-after-ms",
        {Sexpr::atom(std::to_string(resp.retry_after_ms))}));
    children.push_back(field(
        "failure-class",
        {Sexpr::atom(failure_class_name(resp.failure_class))}));
    children.push_back(field("error", {Sexpr::string_atom(resp.error)}));
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
            const std::string& s = field_token(f);
            if (s == "ok") {
                resp.status = ResponseStatus::kOk;
            } else if (s == "shed") {
                resp.status = ResponseStatus::kShed;
            } else if (s == "failed") {
                resp.status = ResponseStatus::kFailed;
            } else {
                detail::raise_user(
                    "daemon payload: unknown response status '" + s + "'");
            }
            saw_status = true;
        } else if (is_field(f, "retry-after-ms")) {
            resp.retry_after_ms =
                static_cast<std::uint64_t>(field_i64(f));
        } else if (is_field(f, "failure-class")) {
            resp.failure_class = failure_class_from_name(field_token(f));
        } else if (is_field(f, "error")) {
            resp.error = field_token(f);
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
    std::vector<Sexpr> children;
    children.push_back(Sexpr::atom("error"));
    children.push_back(field("kind", {Sexpr::string_atom(kind)}));
    children.push_back(field("detail", {Sexpr::string_atom(detail)}));
    return Sexpr::list(std::move(children)).to_string();
}

}  // namespace diospyros::daemon
