#include "service/serialize.h"

#include <cstdlib>

#include "machine/target.h"
#include "scalar/symbolic.h"
#include "support/error.h"

namespace diospyros::service {

namespace {

// ---------------------------------------------------------------------------
// Atom helpers
// ---------------------------------------------------------------------------

constexpr const char* kWhere = "cache entry";

Verdict
verdict_from_name(const std::string& name)
{
    return enum_from_name(name, static_cast<int>(Verdict::kUnknown) + 1,
                          verdict_name,
                          "cache entry: unknown validation verdict");
}

Sexpr
hex_atom(std::uint64_t v)
{
    return Sexpr::atom(hash_hex(v));
}

std::uint64_t
as_hex(const Sexpr& s)
{
    DIOS_CHECK(s.is_atom(), "cache entry: expected a hex atom");
    return std::strtoull(s.token().c_str(), nullptr, 16);
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

Sexpr
report_to_sexpr(const CompileReport& r)
{
    std::vector<Sexpr> attempts;
    attempts.push_back(Sexpr::atom("attempts"));
    for (const AttemptDiagnostic& a : r.attempts) {
        attempts.push_back(Sexpr::list({i64_atom(a.level),
                                        f64_atom(a.seconds),
                                        Sexpr::string_atom(a.error)}));
    }

    return field(
        "report",
        {field("phases",
               {f64_atom(r.lift_seconds), f64_atom(r.saturation_seconds),
                f64_atom(r.extract_seconds), f64_atom(r.backend_seconds),
                f64_atom(r.total_seconds)}),
         field("spec", {i64_atom(r.spec_elements),
                        i64_atom(r.spec_dag_nodes)}),
         field("egraph",
               {i64_atom(r.egraph_nodes), i64_atom(r.egraph_classes),
                i64_atom(r.memory_proxy_bytes),
                i64_atom(r.runner_iterations)}),
         field("stop", {Sexpr::atom(stop_reason_name(r.stop_reason))}),
         field("cost", {f64_atom(r.extracted_cost)}),
         field("lvn",
               {i64_atom(r.lvn.input_instrs), i64_atom(r.lvn.value_numbered),
                i64_atom(r.lvn.dead_removed),
                i64_atom(r.lvn.output_instrs)}),
         field("validation", {Sexpr::atom(verdict_name(r.validation)),
                              i64_atom(r.random_check_passed ? 1 : 0)}),
         field("machine-validation",
               {Sexpr::atom(verdict_name(r.machine_validation)),
                i64_atom(r.machine_validated ? 1 : 0),
                Sexpr::string_atom(r.machine_witness)}),
         field("fallback", {i64_atom(r.fallback_level),
                            Sexpr::string_atom(r.error)}),
         // Only the strategy's *name* is persisted (like rule_stats,
         // per-phase telemetry is live-run-only; cache hits come back
         // with empty `strategy_phases`).
         field("strategy",
               {Sexpr::string_atom(r.strategy_name),
                i64_atom(r.strategy_goal_satisfied ? 1 : 0)}),
         Sexpr::list(std::move(attempts))});
}

CompileReport
report_from_sexpr(const Sexpr& s)
{
    DIOS_CHECK(is_field(s, "report"), "cache entry: missing report");
    CompileReport r;
    for (std::size_t i = 1; i < s.size(); ++i) {
        const Sexpr& f = s[i];
        if (is_field(f, "phases") && f.size() == 6) {
            r.lift_seconds = as_f64(f[1], kWhere);
            r.saturation_seconds = as_f64(f[2], kWhere);
            r.extract_seconds = as_f64(f[3], kWhere);
            r.backend_seconds = as_f64(f[4], kWhere);
            r.total_seconds = as_f64(f[5], kWhere);
        } else if (is_field(f, "spec") && f.size() == 3) {
            r.spec_elements = static_cast<std::size_t>(as_i64(f[1], kWhere));
            r.spec_dag_nodes = static_cast<std::size_t>(as_i64(f[2], kWhere));
        } else if (is_field(f, "egraph") && f.size() == 5) {
            r.egraph_nodes = static_cast<std::size_t>(as_i64(f[1], kWhere));
            r.egraph_classes = static_cast<std::size_t>(as_i64(f[2], kWhere));
            r.memory_proxy_bytes =
                static_cast<std::size_t>(as_i64(f[3], kWhere));
            r.runner_iterations =
                static_cast<std::size_t>(as_i64(f[4], kWhere));
        } else if (is_field(f, "stop") && f.size() == 2) {
            r.stop_reason =
                enum_from_name(f[1].token(), kNumStopReasons, stop_reason_name,
                               "cache entry: unknown stop reason");
        } else if (is_field(f, "cost") && f.size() == 2) {
            r.extracted_cost = as_f64(f[1], kWhere);
        } else if (is_field(f, "lvn") && f.size() == 5) {
            r.lvn.input_instrs =
                static_cast<std::size_t>(as_i64(f[1], kWhere));
            r.lvn.value_numbered =
                static_cast<std::size_t>(as_i64(f[2], kWhere));
            r.lvn.dead_removed =
                static_cast<std::size_t>(as_i64(f[3], kWhere));
            r.lvn.output_instrs =
                static_cast<std::size_t>(as_i64(f[4], kWhere));
        } else if (is_field(f, "validation") && f.size() == 3) {
            r.validation = verdict_from_name(f[1].token());
            r.random_check_passed = as_i64(f[2], kWhere) != 0;
        } else if (is_field(f, "machine-validation") && f.size() == 4) {
            r.machine_validation = verdict_from_name(f[1].token());
            r.machine_validated = as_i64(f[2], kWhere) != 0;
            r.machine_witness = f[3].token();
        } else if (is_field(f, "fallback") && f.size() == 3) {
            r.fallback_level = static_cast<int>(as_i64(f[1], kWhere));
            r.error = f[2].token();
        } else if (is_field(f, "strategy") && f.size() == 3) {
            r.strategy_name = f[1].token();
            r.strategy_goal_satisfied = as_i64(f[2], kWhere) != 0;
        } else if (is_field(f, "attempts")) {
            for (std::size_t j = 1; j < f.size(); ++j) {
                const Sexpr& a = f[j];
                DIOS_CHECK(a.is_list() && a.size() == 3,
                           "cache entry: malformed attempt record");
                AttemptDiagnostic diag;
                diag.level = static_cast<int>(as_i64(a[0], kWhere));
                diag.seconds = as_f64(a[1], kWhere);
                diag.error = a[2].token();
                r.attempts.push_back(std::move(diag));
            }
        }
    }
    return r;
}

// ---------------------------------------------------------------------------
// Machine program
// ---------------------------------------------------------------------------

Sexpr
program_to_sexpr(const Program& p)
{
    std::vector<Sexpr> code;
    code.push_back(Sexpr::atom("code"));
    for (const Instr& instr : p.code) {
        std::vector<Sexpr> fields = {
            Sexpr::atom(opcode_name(instr.op)), i64_atom(instr.dst),
            i64_atom(instr.a),    i64_atom(instr.b),
            i64_atom(instr.imm),  f64_atom(instr.fimm)};
        // Explicit lane count (trailing zeros trimmed) rather than a
        // fixed kMaxVectorWidth slots: entries stay readable across
        // builds whose compile-time maximum width differs.
        std::size_t nlanes = instr.lanes.size();
        while (nlanes > 0 && instr.lanes[nlanes - 1] == 0) {
            --nlanes;
        }
        fields.push_back(i64_atom(static_cast<std::int64_t>(nlanes)));
        for (std::size_t k = 0; k < nlanes; ++k) {
            fields.push_back(i64_atom(instr.lanes[k]));
        }
        code.push_back(Sexpr::list(std::move(fields)));
    }
    return field("machine",
                 {field("regs", {i64_atom(p.num_int_regs),
                                 i64_atom(p.num_float_regs),
                                 i64_atom(p.num_vec_regs)}),
                  Sexpr::list(std::move(code))});
}

Program
program_from_sexpr(const Sexpr& s)
{
    DIOS_CHECK(is_field(s, "machine"), "cache entry: missing machine");
    Program p;
    for (std::size_t i = 1; i < s.size(); ++i) {
        const Sexpr& f = s[i];
        if (is_field(f, "regs") && f.size() == 4) {
            p.num_int_regs = static_cast<int>(as_i64(f[1], kWhere));
            p.num_float_regs = static_cast<int>(as_i64(f[2], kWhere));
            p.num_vec_regs = static_cast<int>(as_i64(f[3], kWhere));
        } else if (is_field(f, "code")) {
            for (std::size_t j = 1; j < f.size(); ++j) {
                const Sexpr& node = f[j];
                DIOS_CHECK(node.is_list() && node.size() >= 7,
                           "cache entry: malformed instruction");
                Instr instr;
                instr.op = enum_from_name(node[0].token(), kNumOpcodes,
                                          opcode_name,
                                          "cache entry: unknown opcode");
                instr.dst = static_cast<int>(as_i64(node[1], kWhere));
                instr.a = static_cast<int>(as_i64(node[2], kWhere));
                instr.b = static_cast<int>(as_i64(node[3], kWhere));
                instr.imm = static_cast<int>(as_i64(node[4], kWhere));
                instr.fimm = static_cast<float>(as_f64(node[5], kWhere));
                const std::int64_t nlanes = as_i64(node[6], kWhere);
                DIOS_CHECK(nlanes >= 0 && nlanes <= kMaxVectorWidth &&
                               node.size() ==
                                   7 + static_cast<std::size_t>(nlanes),
                           "cache entry: malformed lane table");
                for (std::int64_t k = 0; k < nlanes; ++k) {
                    instr.lanes[static_cast<std::size_t>(k)] =
                        static_cast<std::int16_t>(
                            as_i64(node[7 + static_cast<std::size_t>(k)],
                                   kWhere));
                }
                p.code.push_back(instr);
            }
        }
    }
    return p;
}

}  // namespace

Sexpr
entry_to_sexpr(const CachedEntry& entry)
{
    std::vector<Sexpr> pool;
    pool.push_back(Sexpr::atom("pool"));
    for (const float v : entry.pool) {
        pool.push_back(f64_atom(static_cast<double>(v)));
    }

    return Sexpr::list(
        {Sexpr::atom("dios-cache-entry"),
         field("version", {i64_atom(entry.rule_set_version)}),
         field("key", {hex_atom(entry.key.spec_hash),
                       hex_atom(entry.key.options_hash)}),
         field("kernel", {Sexpr::string_atom(entry.kernel_name)}),
         field("width", {i64_atom(entry.vector_width)}),
         field("time-limit", {f64_atom(entry.time_limit_seconds)}),
         field("fallback-level", {i64_atom(entry.fallback_level)}),
         report_to_sexpr(entry.report),
         field("c-source", {Sexpr::string_atom(entry.c_source)}),
         Sexpr::list(std::move(pool)), program_to_sexpr(entry.machine)});
}

CachedEntry
entry_from_sexpr(const Sexpr& sexpr)
{
    DIOS_CHECK(is_field(sexpr, "dios-cache-entry"),
               "not a dios-cache-entry s-expression");
    CachedEntry entry;
    bool saw_version = false;
    for (std::size_t i = 1; i < sexpr.size(); ++i) {
        const Sexpr& f = sexpr[i];
        if (is_field(f, "version") && f.size() == 2) {
            entry.rule_set_version =
                static_cast<std::uint64_t>(as_i64(f[1], kWhere));
            saw_version = true;
        } else if (is_field(f, "key") && f.size() == 3) {
            entry.key.spec_hash = as_hex(f[1]);
            entry.key.options_hash = as_hex(f[2]);
        } else if (is_field(f, "kernel") && f.size() == 2) {
            entry.kernel_name = f[1].token();
        } else if (is_field(f, "width") && f.size() == 2) {
            entry.vector_width = static_cast<int>(as_i64(f[1], kWhere));
        } else if (is_field(f, "time-limit") && f.size() == 2) {
            entry.time_limit_seconds = as_f64(f[1], kWhere);
        } else if (is_field(f, "fallback-level") && f.size() == 2) {
            entry.fallback_level = static_cast<int>(as_i64(f[1], kWhere));
        } else if (is_field(f, "report")) {
            entry.report = report_from_sexpr(f);
        } else if (is_field(f, "c-source") && f.size() == 2) {
            entry.c_source = f[1].token();
        } else if (is_field(f, "pool")) {
            for (std::size_t j = 1; j < f.size(); ++j) {
                entry.pool.push_back(static_cast<float>(as_f64(f[j], kWhere)));
            }
        } else if (is_field(f, "machine")) {
            entry.machine = program_from_sexpr(f);
        }
    }
    DIOS_CHECK(saw_version, "cache entry: missing version field");
    // A bad lane count would crash the reader (pad_lifted_spec divides
    // by it): fail here, so a disk entry is quarantined and a daemon
    // response is retried.
    check_vector_width(entry.vector_width);
    return entry;
}

Sexpr
envelope_to_sexpr(const CachedEntry& entry)
{
    Sexpr payload = entry_to_sexpr(entry);
    const std::uint64_t checksum = stable_hash_string(payload.to_string());
    return Sexpr::list(
        {Sexpr::atom("dios-cache-envelope"),
         field("format-version", {i64_atom(kCacheFormatVersion)}),
         field("rule-set-version", {i64_atom(entry.rule_set_version)}),
         field("checksum", {hex_atom(checksum)}),
         field("payload", {std::move(payload)})});
}

EnvelopeFields
envelope_fields(const Sexpr& sexpr)
{
    EnvelopeFields env;
    if (!is_field(sexpr, "dios-cache-envelope") || sexpr.size() != 5) {
        env.error = "not a dios-cache-envelope";
        return env;
    }
    bool saw_format = false, saw_rules = false, saw_checksum = false;
    for (std::size_t i = 1; i < sexpr.size(); ++i) {
        const Sexpr& f = sexpr[i];
        if (is_field(f, "format-version") && f.size() == 2 &&
            f[1].is_integer()) {
            env.format_version =
                static_cast<std::uint64_t>(as_i64(f[1], kWhere));
            saw_format = true;
        } else if (is_field(f, "rule-set-version") && f.size() == 2 &&
                   f[1].is_integer()) {
            env.rule_set_version =
                static_cast<std::uint64_t>(as_i64(f[1], kWhere));
            saw_rules = true;
        } else if (is_field(f, "checksum") && f.size() == 2 &&
                   f[1].is_atom()) {
            env.checksum = as_hex(f[1]);
            saw_checksum = true;
        } else if (is_field(f, "payload") && f.size() == 2) {
            env.payload = &f[1];
        }
    }
    if (!saw_format || !saw_rules || !saw_checksum ||
        env.payload == nullptr) {
        env.error = "missing envelope field";
        env.payload = nullptr;
        return env;
    }
    env.payload_text = env.payload->to_string();
    env.well_formed = true;
    return env;
}

CachedEntry
make_entry(const CacheKey& key, const CompilerOptions& options,
           const CompiledKernel& compiled)
{
    CachedEntry entry;
    entry.key = key;
    entry.kernel_name = compiled.kernel.name;
    entry.vector_width = options.target.vector_width;
    entry.time_limit_seconds = options.limits.time_limit_seconds;
    entry.fallback_level = compiled.report.fallback_level;
    entry.report = compiled.report;
    entry.c_source = compiled.c_source;
    entry.pool = compiled.layout.pool();
    entry.machine = compiled.machine;
    return entry;
}

CompiledKernel
compiled_from_entry(const scalar::Kernel& kernel, const CachedEntry& entry)
{
    CompiledKernel ck;
    ck.kernel = kernel;
    ck.spec = scalar::lift(kernel);
    auto [padded, slots] = pad_lifted_spec(ck.spec, entry.vector_width);
    (void)slots;
    ck.padded_spec = padded;
    // The optimized term is not persisted (see serialize.h file header);
    // alias the spec so printers never dereference a null term.
    ck.extracted = padded;
    ck.layout = vir::CompiledLayout::make(kernel, entry.vector_width);
    ck.layout.set_pool(entry.pool);
    ck.machine = entry.machine;
    ck.c_source = entry.c_source;
    ck.report = entry.report;
    return ck;
}

}  // namespace diospyros::service
