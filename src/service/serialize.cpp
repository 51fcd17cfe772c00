#include "service/serialize.h"

#include <array>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>

#include "compiler/report_fields.h"
#include "machine/program.h"
#include "scalar/symbolic.h"
#include "support/error.h"

namespace diospyros::service {

namespace {

using Item = SexprCursor::Item;

constexpr const char* kWhere = "cache entry";

std::uint64_t
as_hex(const Item& v)
{
    DIOS_CHECK(v.is_atom(), "cache entry: expected a hex atom");
    return std::strtoull(v.token().c_str(), nullptr, 16);
}

int
as_int(const Item& v)
{
    const std::int64_t n = as_i64(v, kWhere);
    DIOS_CHECK(n >= std::numeric_limits<int>::min() &&
                   n <= std::numeric_limits<int>::max(),
               "cache entry: " + std::string(v.raw) +
                   " is outside int range");
    return static_cast<int>(n);
}

std::string
as_text(const Item& v)
{
    DIOS_CHECK(v.is_atom(), "cache entry: expected an atom, got '" +
                                std::string(v.raw) + "'");
    return v.token();
}

/**
 * A float stored as a double. Narrowing a finite double outside float
 * range is undefined, so such a value fails, naming `what` and its
 * `index`; inf and nan pass.
 */
float
as_float(const Item& v, const char* what, std::size_t index)
{
    const double d = as_f64(v, kWhere);
    DIOS_CHECK(!std::isfinite(d) ||
                   std::abs(d) <= std::numeric_limits<float>::max(),
               std::string("cache entry: ") + what + " " +
                   std::to_string(index) + " value " + std::string(v.raw) +
                   " is outside float range");
    return static_cast<float>(d);
}

/**
 * The values of field `name`, whose head the cursor has read: raises
 * UserError unless the field holds exactly N of them.
 */
template <std::size_t N>
std::array<Item, N>
values(SexprCursor& c, const char* name)
{
    std::array<Item, N> v;
    const std::size_t got = c.read_rest(v);
    DIOS_CHECK(got == N, std::string("cache entry field '") + name +
                             "' expects " + std::to_string(N) +
                             (N == 1 ? " value" : " values") + ", got " +
                             std::to_string(got));
    return v;
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

void
write_report(SexprWriter& w, const CompileReport& r)
{
    w.open("report");
    for (const ReportField& f : report_fields()) {
        if (f.persisted()) {
            f.encode(r, w);
        }
    }
    w.close();
}

CompileReport
read_report(SexprCursor& c)
{
    // Unknown rows are skipped. The writer keeps the table's order, so
    // each search starts at the row after the last match.
    const std::span<const ReportField> fields = report_fields();
    CompileReport r;
    std::size_t next = 0;
    while (c.more()) {
        const std::optional<Item> head = c.field();
        if (!head) {
            continue;
        }
        bool known = false;
        for (std::size_t k = next; k < next + fields.size() && !known; ++k) {
            const ReportField& f = fields[k % fields.size()];
            if (f.persisted() && head->is(f.name)) {
                f.decode(c, r);
                next = k + 1;
                known = true;
            }
        }
        if (!known) {
            c.skip_rest();
        }
    }
    return r;
}

// ---------------------------------------------------------------------------
// Machine program
// ---------------------------------------------------------------------------

void
write_program(SexprWriter& w, const Program& p)
{
    w.open("machine");
    w.open("regs").i64(p.num_int_regs).i64(p.num_float_regs);
    w.i64(p.num_vec_regs).close();
    w.open("code");
    for (const Instr& instr : p.code) {
        w.open(opcode_name(instr.op)).i64(instr.dst).i64(instr.a);
        w.i64(instr.b).i64(instr.imm).f64(instr.fimm);
        // Explicit lane count (trailing zeros trimmed) rather than a
        // fixed kMaxVectorWidth slots: entries stay readable across
        // builds whose compile-time maximum width differs.
        std::size_t nlanes = instr.lanes.size();
        while (nlanes > 0 && instr.lanes[nlanes - 1] == 0) {
            --nlanes;
        }
        w.i64(static_cast<std::int64_t>(nlanes));
        for (std::size_t k = 0; k < nlanes; ++k) {
            w.i64(instr.lanes[k]);
        }
        w.close();
    }
    w.close().close();
}

Instr
read_instr(SexprCursor& c, std::size_t index)
{
    DIOS_CHECK(c.at_list(), "cache entry: malformed instruction");
    c.enter();
    std::array<Item, 7 + kMaxVectorWidth> v;
    const std::size_t n = c.read_rest(v);
    DIOS_CHECK(n >= 7 && v[0].is_atom(),
               "cache entry: malformed instruction");
    // Looked up as written: the writer never quotes a mnemonic.
    const std::optional<Opcode> op = opcode_from_name(v[0].raw);
    DIOS_CHECK(op.has_value(), "cache entry: unknown opcode '" +
                                   std::string(v[0].raw) + "'");
    Instr instr;
    instr.op = *op;
    instr.dst = as_int(v[1]);
    instr.a = as_int(v[2]);
    instr.b = as_int(v[3]);
    instr.imm = as_int(v[4]);
    instr.fimm = as_float(v[5], "instruction", index);
    const std::int64_t nlanes = as_i64(v[6], kWhere);
    DIOS_CHECK(nlanes >= 0 && nlanes <= kMaxVectorWidth &&
                   n == 7 + static_cast<std::size_t>(nlanes),
               "cache entry: malformed lane table");
    for (std::size_t k = 0; k < static_cast<std::size_t>(nlanes); ++k) {
        instr.lanes[k] = static_cast<std::int16_t>(as_i64(v[7 + k], kWhere));
    }
    return instr;
}

Program
read_program(SexprCursor& c)
{
    Program p;
    while (c.more()) {
        const std::optional<Item> head = c.field();
        if (!head) {
            continue;
        }
        if (head->is("regs")) {
            std::array<Item, 3> v;
            DIOS_CHECK(c.read_rest(v) == 3,
                       "cache entry: malformed regs field");
            p.num_int_regs = as_int(v[0]);
            p.num_float_regs = as_int(v[1]);
            p.num_vec_regs = as_int(v[2]);
            DIOS_CHECK(p.num_int_regs >= 0 && p.num_float_regs >= 0 &&
                           p.num_vec_regs >= 0,
                       "cache entry: negative register count");
        } else if (head->is("code")) {
            // The writer spells no instruction in fewer than 23 bytes
            // with its separator (`(bge 0 0 0 0 0x0p+0 0) `), and the
            // code list ends the entry.
            p.code.reserve(c.remaining() / 23);
            while (c.more()) {
                p.code.push_back(read_instr(c, p.code.size()));
            }
        } else {
            c.skip_rest();
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

void
write_entry(SexprWriter& w, const CachedEntry& entry)
{
    w.open("dios-cache-entry").field("version", entry.rule_set_version);
    w.open("key").atom(hash_hex(entry.key.spec_hash));
    w.atom(hash_hex(entry.key.options_hash)).close();
    w.field("kernel", entry.kernel_name);
    w.field("width", entry.vector_width);
    w.field("time-limit", entry.time_limit_seconds);
    write_report(w, entry.report);
    w.field("c-source", entry.c_source);
    w.open("pool");
    for (const float v : entry.pool) {
        w.f64(static_cast<double>(v));
    }
    w.close();
    write_program(w, entry.machine);
    w.close();
}

CachedEntry
read_entry(SexprCursor& c)
{
    const std::optional<Item> head = c.field();
    DIOS_CHECK(head && head->is("dios-cache-entry"),
               "not a dios-cache-entry s-expression");
    CachedEntry entry;
    bool saw_version = false;
    // A known field of the wrong arity is malformed; unknown names are
    // skipped.
    while (c.more()) {
        const std::optional<Item> f = c.field();
        if (!f) {
            continue;
        }
        if (f->is("version")) {
            entry.rule_set_version = static_cast<std::uint64_t>(
                as_i64(values<1>(c, "version")[0], kWhere));
            saw_version = true;
        } else if (f->is("key")) {
            const auto v = values<2>(c, "key");
            entry.key.spec_hash = as_hex(v[0]);
            entry.key.options_hash = as_hex(v[1]);
        } else if (f->is("kernel")) {
            entry.kernel_name = as_text(values<1>(c, "kernel")[0]);
        } else if (f->is("width")) {
            entry.vector_width = as_int(values<1>(c, "width")[0]);
        } else if (f->is("time-limit")) {
            entry.time_limit_seconds =
                as_f64(values<1>(c, "time-limit")[0], kWhere);
        } else if (f->is("report")) {
            entry.report = read_report(c);
        } else if (f->is("c-source")) {
            entry.c_source = as_text(values<1>(c, "c-source")[0]);
        } else if (f->is("pool")) {
            while (c.more()) {
                entry.pool.push_back(
                    as_float(c.next(), "pool", entry.pool.size()));
            }
        } else if (f->is("machine")) {
            entry.machine = read_program(c);
        } else {
            c.skip_rest();
        }
    }
    DIOS_CHECK(saw_version, "cache entry: missing version field");
    entry.fallback_level = entry.report.fallback_level;
    // A bad lane count would crash the reader (pad_lifted_spec divides
    // by it): fail here, so a disk entry is quarantined and a daemon
    // response is retried.
    check_vector_width(entry.vector_width);
    return entry;
}

std::string
encode_entry(const CachedEntry& entry)
{
    SexprWriter w;
    write_entry(w, entry);
    return w.take();
}

CachedEntry
decode_entry(std::string_view text)
{
    SexprCursor c(text);
    CachedEntry entry = read_entry(c);
    c.finish();
    return entry;
}

std::string
encode_envelope(std::string_view payload, std::uint64_t rule_set_version)
{
    SexprWriter w;
    w.open("dios-cache-envelope");
    w.field("format-version", kCacheFormatVersion);
    w.field("rule-set-version", rule_set_version);
    w.open("checksum").atom(hash_hex(content_checksum(payload))).close();
    w.open("payload").raw(payload).close().close();
    return w.take() + '\n';
}

EnvelopeFields
read_envelope(std::string_view text)
{
    EnvelopeFields env;
    std::string_view payload;
    bool saw_format = false, saw_rules = false, saw_checksum = false;
    std::size_t fields = 0;
    try {
        SexprCursor c(text);
        const std::optional<Item> head = c.field();
        if (!head || !head->is("dios-cache-envelope")) {
            env.error = "not a dios-cache-envelope";
            return env;
        }
        for (; c.more(); ++fields) {
            // A known field of the wrong shape is ignored, then reported
            // missing.
            std::array<Item, 1> v;
            const std::optional<Item> f = c.field();
            if (!f || c.read_rest(v) != 1) {
                continue;
            }
            std::int64_t n = 0;
            if (f->is("format-version") && v[0].integer(n)) {
                env.format_version = static_cast<std::uint64_t>(n);
                saw_format = true;
            } else if (f->is("rule-set-version") && v[0].integer(n)) {
                env.rule_set_version = static_cast<std::uint64_t>(n);
                saw_rules = true;
            } else if (f->is("checksum") && v[0].is_atom()) {
                env.checksum = as_hex(v[0]);
                saw_checksum = true;
            } else if (f->is("payload")) {
                payload = v[0].raw;
            }
        }
        c.finish();
        if (fields != 4) {
            env.error = "not a dios-cache-envelope";
            return env;
        }
        if (!saw_format || !saw_rules || !saw_checksum || payload.empty()) {
            env.error = "missing envelope field";
            return env;
        }
        env.payload_text = payload;
    } catch (const UserError& e) {
        env.error = std::string("unparsable: ") + e.what();
        return env;
    }
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
