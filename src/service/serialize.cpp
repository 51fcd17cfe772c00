#include "service/serialize.h"

#include <cstdlib>
#include <limits>

#include "compiler/report_fields.h"
#include "machine/program.h"
#include "scalar/symbolic.h"
#include "support/error.h"

namespace diospyros::service {

namespace {

// ---------------------------------------------------------------------------
// Atom helpers
// ---------------------------------------------------------------------------

constexpr const char* kWhere = "cache entry";

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

int
as_int(const Sexpr& s)
{
    const std::int64_t v = as_i64(s, kWhere);
    DIOS_CHECK(v >= std::numeric_limits<int>::min() &&
                   v <= std::numeric_limits<int>::max(),
               "cache entry: " + s.token() + " is outside int range");
    return static_cast<int>(v);
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

Sexpr
report_to_sexpr(const CompileReport& r)
{
    std::vector<Sexpr> rows = {Sexpr::atom("report")};
    for (const ReportField& f : report_fields()) {
        if (f.persisted()) {
            rows.push_back(f.encode(r));
        }
    }
    return Sexpr::list(std::move(rows));
}

CompileReport
report_from_sexpr(const Sexpr& s)
{
    DIOS_CHECK(is_field(s, "report"), "cache entry: missing report");
    // Unknown rows are skipped. The writer keeps the table's order, so
    // each search starts at the row after the last match.
    const std::span<const ReportField> fields = report_fields();
    CompileReport r;
    std::size_t next = 0;
    for (std::size_t i = 1; i < s.size(); ++i) {
        for (std::size_t k = next; k < next + fields.size(); ++k) {
            const ReportField& f = fields[k % fields.size()];
            if (f.persisted() && is_field(s[i], f.name)) {
                f.decode(s[i], r);
                next = k + 1;
                break;
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
        if (is_field(f, "regs")) {
            DIOS_CHECK(f.size() == 4, "cache entry: malformed regs field");
            p.num_int_regs = as_int(f[1]);
            p.num_float_regs = as_int(f[2]);
            p.num_vec_regs = as_int(f[3]);
            DIOS_CHECK(p.num_int_regs >= 0 && p.num_float_regs >= 0 &&
                           p.num_vec_regs >= 0,
                       "cache entry: negative register count");
        } else if (is_field(f, "code")) {
            for (std::size_t j = 1; j < f.size(); ++j) {
                const Sexpr& node = f[j];
                DIOS_CHECK(node.is_list() && node.size() >= 7,
                           "cache entry: malformed instruction");
                Instr instr;
                instr.op = enum_from_name(node[0].token(), kNumOpcodes,
                                          opcode_name,
                                          "cache entry: unknown opcode");
                instr.dst = as_int(node[1]);
                instr.a = as_int(node[2]);
                instr.b = as_int(node[3]);
                instr.imm = as_int(node[4]);
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
    // The simulator indexes its register files by these fields unchecked.
    for (std::size_t k = 0; k < p.code.size(); ++k) {
        const Instr& instr = p.code[k];
        const OpcodeInfo& o = opcode_info(instr.op);
        auto check = [&](RegFile file, int reg, bool may_be_absent) {
            const int n = register_file_size(p, file);
            DIOS_CHECK(file == RegFile::kNone ||
                           (may_be_absent && reg == -1) ||
                           (reg >= 0 && reg < n),
                       "cache entry: instruction " + std::to_string(k) +
                           " (" + o.mnemonic + ") names " +
                           reg_file_name(file) + " register " +
                           std::to_string(reg) + " outside its file of " +
                           std::to_string(n));
        };
        check(o.dst, instr.dst, false);
        // -1 as a memory op's base register means absolute addressing.
        check(o.a, instr.a, is_memory_op(instr.op));
        check(o.b, instr.b, false);
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
        // A known field of the wrong arity is malformed; unknown names
        // are skipped.
        auto is = [&f](const char* name, std::size_t values) {
            if (!is_field(f, name)) {
                return false;
            }
            DIOS_CHECK(f.size() == values + 1,
                       std::string("cache entry field '") + name +
                           "' expects " + std::to_string(values) +
                           (values == 1 ? " value" : " values") + ", got " +
                           std::to_string(f.size() - 1));
            return true;
        };
        if (is("version", 1)) {
            entry.rule_set_version =
                static_cast<std::uint64_t>(as_i64(f[1], kWhere));
            saw_version = true;
        } else if (is("key", 2)) {
            entry.key.spec_hash = as_hex(f[1]);
            entry.key.options_hash = as_hex(f[2]);
        } else if (is("kernel", 1)) {
            entry.kernel_name = f[1].token();
        } else if (is("width", 1)) {
            entry.vector_width = as_int(f[1]);
        } else if (is("time-limit", 1)) {
            entry.time_limit_seconds = as_f64(f[1], kWhere);
        } else if (is("fallback-level", 1)) {
            entry.fallback_level = as_int(f[1]);
        } else if (is_field(f, "report")) {
            entry.report = report_from_sexpr(f);
        } else if (is("c-source", 1)) {
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
