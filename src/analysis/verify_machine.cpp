#include "analysis/verify_machine.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <random>
#include <sstream>
#include <unordered_map>

#include "ir/eval.h"

namespace diospyros::analysis {

namespace {

constexpr const char* kPass = "machine-verify";

std::string
at(const Instr& i, int index, int width)
{
    return "instruction " + std::to_string(index) + " (" +
           disassemble(i, width) + ")";
}

/** Successor pcs; invalid branch targets (diagnosed as M005) add none. */
void
successors(const Program& p, std::size_t pc, std::vector<std::size_t>* out)
{
    out->clear();
    const Instr& i = p.code[pc];
    if (is_control(i.op) && i.imm >= 0 &&
        static_cast<std::size_t>(i.imm) < p.code.size()) {
        out->push_back(static_cast<std::size_t>(i.imm));
    }
    if (i.op != Opcode::kHalt && i.op != Opcode::kJump) {
        out->push_back(pc + 1);  // fall-through (may be == n: fall-off)
    }
}

/** True if two instructions are bit-for-bit the same operation. */
bool
instr_equal(const Instr& a, const Instr& b)
{
    return a.op == b.op && a.dst == b.dst && a.a == b.a && a.b == b.b &&
           a.imm == b.imm && a.fimm == b.fimm && a.lanes == b.lanes;
}

/**
 * The exact register RAW/WAR/WAW + per-word memory dependence edges of a
 * straight-line body, recomputed from the program alone (independent of
 * machine/schedule.cpp, which this check audits).
 */
std::vector<std::pair<int, int>>
dependence_edges(const Program& p, int body, int vector_width)
{
    std::vector<std::pair<int, int>> edges;
    struct Loc {
        int last_writer = -1;
        std::vector<int> readers;
    };
    std::unordered_map<std::int64_t, Loc> regs;
    std::unordered_map<std::int64_t, Loc> mem;
    auto reg_key = [](int file, int idx) {
        return static_cast<std::int64_t>(file) * (1LL << 32) + idx;
    };

    for (int i = 0; i < body; ++i) {
        const Instr& instr = p.code[static_cast<std::size_t>(i)];
        const InstrPorts ports = instr_ports(instr);

        for_each_read(ports, [&](RegFile file, int idx) {
            Loc& loc = regs[reg_key(static_cast<int>(file), idx)];
            if (loc.last_writer >= 0) {
                edges.emplace_back(loc.last_writer, i);  // RAW
            }
            loc.readers.push_back(i);
        });
        if (ports.dst >= 0 && ports.dst_file != 0) {
            Loc& loc = regs[reg_key(ports.dst_file, ports.dst)];
            if (loc.last_writer >= 0 && loc.last_writer != i) {
                edges.emplace_back(loc.last_writer, i);  // WAW
            }
            for (const int r : loc.readers) {
                if (r != i) {
                    edges.emplace_back(r, i);  // WAR
                }
            }
            loc.readers.clear();
            loc.last_writer = i;
        }

        if (is_memory_read(instr.op)) {
            for (int w = 0; w < access_words(instr.op, vector_width); ++w) {
                Loc& loc = mem[instr.imm + w];
                if (loc.last_writer >= 0) {
                    edges.emplace_back(loc.last_writer, i);  // mem RAW
                }
                loc.readers.push_back(i);
            }
        } else if (is_memory_write(instr.op)) {
            for (int w = 0; w < access_words(instr.op, vector_width); ++w) {
                Loc& loc = mem[instr.imm + w];
                if (loc.last_writer >= 0) {
                    edges.emplace_back(loc.last_writer, i);  // mem WAW
                }
                for (const int r : loc.readers) {
                    edges.emplace_back(r, i);  // mem WAR
                }
                loc.readers.clear();
                loc.last_writer = i;
            }
        }
    }
    return edges;
}

}  // namespace

// ---------------------------------------------------------------------------
// Structural verifier (M001–M007)
// ---------------------------------------------------------------------------

bool
verify_machine_program(const Program& program, const TargetSpec& target,
                       DiagEngine& diags, const vir::CompiledLayout* layout)
{
    const std::size_t errors_before = diags.error_count();
    const int width = target.vector_width;
    const auto n = program.code.size();

    // Memory segments for M007: the padded arrays plus the constant pool
    // appended after them (emit.cpp lays pool addresses out this way).
    struct Segment {
        std::string name;
        std::int64_t base = 0;
        std::int64_t len = 0;
        bool pool = false;
    };
    std::vector<Segment> segments;
    if (layout != nullptr) {
        std::int64_t end = 0;
        for (const auto& e : layout->entries()) {
            segments.push_back(Segment{e.name, e.base, e.padded_len, false});
            end = std::max(end, e.base + e.padded_len);
        }
        if (!layout->pool().empty()) {
            segments.push_back(
                Segment{"__pool", end,
                        static_cast<std::int64_t>(layout->pool().size()),
                        true});
        }
    }

    // --- Per-instruction checks: M002, M003, M004, M005, M007. ----------
    for (std::size_t pc = 0; pc < n; ++pc) {
        const Instr& i = program.code[pc];
        const int index = static_cast<int>(pc);
        const OpcodeInfo& o = opcode_info(i.op);

        auto check_src = [&](const char* field, int value, RegFile file,
                             bool optional) {
            if (file == RegFile::kNone) {
                if (value != -1) {
                    diags.error(kPass, "M003",
                                at(i, index, width) + ": operand `" +
                                    field + "` is set to " +
                                    std::to_string(value) + " but " +
                                    opcode_name(i.op) + " never reads it",
                                index);
                }
                return;
            }
            if (value < 0) {
                if (!optional) {
                    diags.error(kPass, "M003",
                                at(i, index, width) + ": " +
                                    opcode_name(i.op) + " requires a " +
                                    reg_file_name(file) + " register in `" +
                                    field + "`",
                                index);
                }
                return;
            }
            if (value >= register_file_size(program, file)) {
                diags.error(
                    kPass, "M002",
                    at(i, index, width) + ": " + reg_file_name(file) +
                        " register " + std::to_string(value) +
                        " is outside the declared file of " +
                        std::to_string(register_file_size(program, file)),
                    index);
            }
        };
        // Memory ops may use absolute addressing: `a` (the base) is the
        // one legitimately-optional register operand in the ISA.
        check_src("a", i.a, o.a, is_memory_op(i.op));
        check_src("b", i.b, o.b, false);

        if (o.dst != RegFile::kNone) {
            if (i.dst < 0) {
                diags.error(kPass, "M003",
                            at(i, index, width) + ": " + opcode_name(i.op) +
                                " requires a " + reg_file_name(o.dst) +
                                " destination register",
                            index);
            } else if (i.dst >= register_file_size(program, o.dst)) {
                diags.error(
                    kPass, "M002",
                    at(i, index, width) + ": destination " +
                        reg_file_name(o.dst) + " register " +
                        std::to_string(i.dst) +
                        " is outside the declared file of " +
                        std::to_string(register_file_size(program, o.dst)),
                    index);
            }
        } else if (i.dst != -1) {
            diags.error(kPass, "M003",
                        at(i, index, width) + ": destination is set to " +
                            std::to_string(i.dst) + " but " +
                            opcode_name(i.op) + " writes no register",
                        index);
        }

        // M004: lane bounds.
        if (o.imm == Imm::kLanes) {
            const int limit = o.b == RegFile::kVector ? 2 * width : width;
            for (int l = 0; l < width; ++l) {
                const int lane = i.lanes[static_cast<std::size_t>(l)];
                if (lane < 0 || lane >= limit) {
                    diags.error(
                        kPass, "M004",
                        at(i, index, width) + ": lane " +
                            std::to_string(l) + " selects source lane " +
                            std::to_string(lane) + ", outside [0, " +
                            std::to_string(limit) + ")",
                        index);
                }
            }
        }
        if (o.imm == Imm::kLane) {
            if (i.imm < 0 || i.imm >= width) {
                diags.error(kPass, "M004",
                            at(i, index, width) + ": lane immediate " +
                                std::to_string(i.imm) + " is outside [0, " +
                                std::to_string(width) + ")",
                            index);
            }
        }

        // M005: control-flow targets.
        if (is_control(i.op)) {
            if (i.imm < 0 || static_cast<std::size_t>(i.imm) >= n) {
                diags.error(kPass, "M005",
                            at(i, index, width) + ": branch target " +
                                std::to_string(i.imm) +
                                " is outside the program of " +
                                std::to_string(n) + " instructions",
                            index);
            }
        }

        // M007: absolute memory accesses vs the declared layout.
        if (layout != nullptr && is_memory_op(i.op) && i.a < 0) {
            const std::int64_t addr = i.imm;
            const std::int64_t words = access_words(i.op, width);
            const Segment* hit = nullptr;
            for (const Segment& s : segments) {
                if (addr >= s.base && addr + words <= s.base + s.len) {
                    hit = &s;
                    break;
                }
            }
            if (hit == nullptr) {
                diags.error(
                    kPass, "M007",
                    at(i, index, width) + ": accesses [" +
                        std::to_string(addr) + ", " +
                        std::to_string(addr + words) +
                        "), which no declared array extent contains",
                    index);
            } else if (hit->pool && is_memory_write(i.op)) {
                diags.error(kPass, "M007",
                            at(i, index, width) +
                                ": stores into the constant pool",
                            index);
            }
        }
    }

    // --- CFG reachability: M006. -----------------------------------------
    std::vector<char> reachable(n, 0);
    bool falls_off = n == 0;
    {
        std::vector<std::size_t> stack;
        std::vector<std::size_t> succs;
        if (n > 0) {
            stack.push_back(0);
            reachable[0] = 1;
        }
        while (!stack.empty()) {
            const std::size_t pc = stack.back();
            stack.pop_back();
            successors(program, pc, &succs);
            // A default or fall-through successor equal to n means
            // execution runs past the last instruction.
            for (const std::size_t s : succs) {
                if (s == n) {
                    falls_off = true;
                } else if (!reachable[s]) {
                    reachable[s] = 1;
                    stack.push_back(s);
                }
            }
        }
    }
    if (falls_off) {
        diags.error(kPass, "M006",
                    "execution can run past the end of the program "
                    "without reaching a halt");
    }
    // Every reachable instruction must have *some* path to a halt (a
    // jump-to-self or a loop with no exit would otherwise pass).
    {
        std::vector<char> reaches_halt(n, 0);
        // Reverse reachability from halts via fixpoint iteration (the
        // programs this gate sees are tiny; O(n^2) worst case is fine).
        bool changed = true;
        std::vector<std::size_t> succs;
        while (changed) {
            changed = false;
            for (std::size_t pc = n; pc-- > 0;) {
                if (reaches_halt[pc]) {
                    continue;
                }
                if (program.code[pc].op == Opcode::kHalt) {
                    reaches_halt[pc] = 1;
                    changed = true;
                    continue;
                }
                successors(program, pc, &succs);
                for (const std::size_t s : succs) {
                    if (s < n && reaches_halt[s]) {
                        reaches_halt[pc] = 1;
                        changed = true;
                        break;
                    }
                }
            }
        }
        for (std::size_t pc = 0; pc < n; ++pc) {
            if (reachable[pc] && !reaches_halt[pc]) {
                diags.error(kPass, "M006",
                            at(program.code[pc], static_cast<int>(pc),
                               width) +
                                " is reachable but has no path to a halt",
                            static_cast<int>(pc));
                break;  // one finding describes the whole trap region
            }
        }
    }

    // --- Definite-assignment dataflow: M001. ------------------------------
    // Registers are numbered across files: [0, ni) int, [ni, ni+nf)
    // float, [ni+nf, ni+nf+nv) vector. in[pc] = set of registers defined
    // on *every* path from entry (must-analysis, meet = intersection).
    // With zero declared registers the bitsets are empty and every
    // register operand is already an M002, so there is nothing to track.
    const int total_regs = program.num_int_regs + program.num_float_regs +
                           program.num_vec_regs;
    if (total_regs > 0) {
        const int ni = program.num_int_regs;
        const int nf = program.num_float_regs;
        const int words = (total_regs + 63) / 64;
        const int file_base[4] = {0, 0, ni, ni + nf};  // by RegFile
        auto bit_of = [&](int file, int idx) { return file_base[file] + idx; };
        // in-sets start at "top" (all defined); entry starts empty.
        std::vector<std::uint64_t> in(
            n * static_cast<std::size_t>(words), ~std::uint64_t{0});
        if (n > 0) {
            std::fill_n(in.begin(), words, std::uint64_t{0});
        }
        std::deque<std::size_t> work;
        std::vector<char> queued(n, 0);
        if (n > 0) {
            work.push_back(0);
            queued[0] = 1;
        }
        std::vector<std::uint64_t> out(static_cast<std::size_t>(words));
        std::vector<std::size_t> succs;
        while (!work.empty()) {
            const std::size_t pc = work.front();
            work.pop_front();
            queued[pc] = 0;
            const std::uint64_t* cur = &in[pc * words];
            std::copy(cur, cur + words, out.begin());
            const InstrPorts p = instr_ports(program.code[pc]);
            if (p.dst >= 0 && p.dst_file != 0 &&
                p.dst < register_file_size(
                            program, static_cast<RegFile>(p.dst_file))) {
                const int b = bit_of(p.dst_file, p.dst);
                out[static_cast<std::size_t>(b / 64)] |=
                    std::uint64_t{1} << (b % 64);
            }
            successors(program, pc, &succs);
            for (const std::size_t s : succs) {
                if (s >= n) {
                    continue;
                }
                std::uint64_t* sin = &in[s * words];
                bool changed = false;
                for (int w = 0; w < words; ++w) {
                    const std::uint64_t met = sin[w] & out[w];
                    if (met != sin[w]) {
                        sin[w] = met;
                        changed = true;
                    }
                }
                if (changed && !queued[s]) {
                    work.push_back(s);
                    queued[s] = 1;
                }
            }
        }
        for (std::size_t pc = 0; pc < n; ++pc) {
            if (!reachable[pc]) {
                continue;
            }
            const std::uint64_t* cur = &in[pc * words];
            const InstrPorts p = instr_ports(program.code[pc]);
            auto check_read = [&](RegFile file, int idx) {
                if (idx >= register_file_size(program, file)) {
                    return;  // M002/M003 already cover malformed regs
                }
                const int b = bit_of(static_cast<int>(file), idx);
                if ((cur[b / 64] >> (b % 64) & 1) == 0) {
                    diags.error(
                        kPass, "M001",
                        at(program.code[pc], static_cast<int>(pc), width) +
                            ": reads " + reg_file_name(file) + " register " +
                            std::to_string(idx) +
                            " before any guaranteed definition",
                        static_cast<int>(pc));
                }
            };
            for_each_read(p, check_read);
        }
    }

    return diags.error_count() == errors_before;
}

// ---------------------------------------------------------------------------
// Scheduler preservation (M008)
// ---------------------------------------------------------------------------

bool
check_schedule_preservation(const Program& before, const Program& after,
                            const ScheduleStats& stats,
                            const TargetSpec& target, DiagEngine& diags)
{
    const std::size_t errors_before = diags.error_count();
    const int width = target.vector_width;

    auto fail = [&](const std::string& msg, int index = -1) {
        diags.error(kPass, "M008", msg, index);
    };

    if (after.num_int_regs != before.num_int_regs ||
        after.num_float_regs != before.num_float_regs ||
        after.num_vec_regs != before.num_vec_regs) {
        fail("scheduling changed the declared register file sizes");
    }
    if (after.code.size() != before.code.size()) {
        fail("scheduling changed the instruction count from " +
             std::to_string(before.code.size()) + " to " +
             std::to_string(after.code.size()));
        return false;
    }

    if (stats.order.empty()) {
        // Scheduling did not apply: the program must be untouched.
        for (std::size_t i = 0; i < before.code.size(); ++i) {
            if (!instr_equal(before.code[i], after.code[i])) {
                fail("scheduler reported no reordering, but " +
                         at(after.code[i], static_cast<int>(i), width) +
                         " differs from the input program",
                     static_cast<int>(i));
                return false;
            }
        }
        return diags.error_count() == errors_before;
    }

    // Scheduling applied: it only ever does so for straight-line bodies
    // (no control flow, absolute addressing) ending in an optional halt.
    std::size_t body = before.code.size();
    if (body > 0 && before.code.back().op == Opcode::kHalt) {
        --body;
    }
    for (std::size_t i = 0; i < body; ++i) {
        const Instr& instr = before.code[i];
        if (is_control(instr.op) || instr.op == Opcode::kHalt ||
            (is_memory_op(instr.op) && instr.a >= 0)) {
            fail("scheduler claims to have reordered a program that is "
                 "not straight-line (" +
                     at(instr, static_cast<int>(i), width) + ")",
                 static_cast<int>(i));
            return false;
        }
    }
    if (stats.order.size() != body) {
        fail("schedule permutation has " +
             std::to_string(stats.order.size()) + " entries for a body of " +
             std::to_string(body) + " instructions");
        return false;
    }

    // The claimed order must be a bijection onto [0, body) ...
    std::vector<int> pos(body, -1);  // pos[original] = scheduled slot
    for (std::size_t slot = 0; slot < body; ++slot) {
        const int orig = stats.order[slot];
        if (orig < 0 || static_cast<std::size_t>(orig) >= body) {
            fail("schedule permutation entry " + std::to_string(slot) +
                 " points at instruction " + std::to_string(orig) +
                 ", outside the body");
            return false;
        }
        if (pos[static_cast<std::size_t>(orig)] != -1) {
            fail("schedule permutation places instruction " +
                 std::to_string(orig) + " at two slots");
            return false;
        }
        pos[static_cast<std::size_t>(orig)] = static_cast<int>(slot);
    }
    // ... that copies each instruction verbatim and leaves the tail alone.
    for (std::size_t slot = 0; slot < body; ++slot) {
        const auto orig = static_cast<std::size_t>(stats.order[slot]);
        if (!instr_equal(after.code[slot], before.code[orig])) {
            fail("scheduled slot " + std::to_string(slot) +
                     " does not match claimed source instruction " +
                     std::to_string(orig) + ": found " +
                     disassemble(after.code[slot], width) + ", expected " +
                     disassemble(before.code[orig], width),
                 static_cast<int>(slot));
            return false;
        }
    }
    for (std::size_t i = body; i < before.code.size(); ++i) {
        if (!instr_equal(after.code[i], before.code[i])) {
            fail("scheduling altered the program tail at " +
                     at(after.code[i], static_cast<int>(i), width),
                 static_cast<int>(i));
            return false;
        }
    }

    // Topological check against the independently recomputed dependence
    // graph: every RAW/WAR/WAW and memory edge must keep its direction.
    const auto edges =
        dependence_edges(before, static_cast<int>(body), width);
    for (const auto& [from, to] : edges) {
        if (pos[static_cast<std::size_t>(from)] >=
            pos[static_cast<std::size_t>(to)]) {
            fail("schedule violates the dependence of " +
                     at(before.code[static_cast<std::size_t>(to)], to,
                        width) +
                     " on " +
                     at(before.code[static_cast<std::size_t>(from)], from,
                        width) +
                     ": the consumer now issues at slot " +
                     std::to_string(pos[static_cast<std::size_t>(to)]) +
                     ", its producer at slot " +
                     std::to_string(pos[static_cast<std::size_t>(from)]),
                 to);
            return false;
        }
    }
    return diags.error_count() == errors_before;
}

// ---------------------------------------------------------------------------
// Symbolic machine-level translation validation (M009/M010)
// ---------------------------------------------------------------------------

namespace {

/**
 * Exact rational value of a float, when it fits in 64-bit num/den.
 * Every float is dyadic, so the conversion itself is exact; only
 * extreme exponents (huge values, deep denormals) fail, and those
 * degrade the verdict to kUnknown rather than guessing.
 */
std::optional<Rational>
rational_from_float(float f)
{
    if (f == 0.0f) {
        return Rational(0);
    }
    if (!std::isfinite(f)) {
        return std::nullopt;
    }
    int exp = 0;
    const double frac = std::frexp(static_cast<double>(f), &exp);
    // 53 bits is enough to hold any float mantissa exactly.
    auto mant = static_cast<std::int64_t>(std::ldexp(frac, 53));
    exp -= 53;
    while (mant != 0 && mant % 2 == 0 && exp < 0) {
        mant /= 2;
        ++exp;
    }
    if (exp >= 0) {
        if (exp > 62) {
            return std::nullopt;
        }
        const __int128 v = static_cast<__int128>(mant) << exp;
        if (v > INT64_MAX || v < INT64_MIN) {
            return std::nullopt;
        }
        return Rational(static_cast<std::int64_t>(v));
    }
    if (-exp > 62) {
        return std::nullopt;
    }
    return Rational(mant, std::int64_t{1} << -exp);
}

/** One lane of `op` as a term; `d` is the destination's old value. */
TermRef
lane_term(LaneOp op, const TermRef& d, const TermRef& a, const TermRef& b)
{
    switch (op) {
      case LaneOp::kAdd:
        return t_add(a, b);
      case LaneOp::kSub:
        return t_sub(a, b);
      case LaneOp::kMul:
        return t_mul(a, b);
      case LaneOp::kDiv:
        return t_div(a, b);
      case LaneOp::kNeg:
        return t_neg(a);
      case LaneOp::kSqrt:
        return t_sqrt(a);
      case LaneOp::kSgn:
        return t_sgn(a);
      case LaneOp::kRecip:
        return Term::make(Op::kRecip, {a});
      case LaneOp::kMac:
        return t_add(d, t_mul(a, b));
      case LaneOp::kNone:
        break;
    }
    throw InternalError("machine-verify: not a lane operation");
}

/** Symbolic machine state: every register and memory word is a term. */
struct SymbolicMachine {
    std::vector<TermRef> fregs;
    std::vector<std::array<TermRef, kMaxVectorWidth>> vregs;
    std::vector<TermRef> mem;
    int width = 0;

    /** "" on success; else why symbolic execution gave up. */
    std::string
    run(const Program& program)
    {
        for (std::size_t pc = 0; pc < program.code.size(); ++pc) {
            const Instr& i = program.code[pc];
            if (i.op == Opcode::kHalt) {
                return "";
            }
            const std::string err = step(i, static_cast<int>(pc));
            if (!err.empty()) {
                return err;
            }
        }
        return "";
    }

  private:
    std::string
    step(const Instr& i, int pc)
    {
        auto bad = [&](const std::string& why) {
            return "instruction " + std::to_string(pc) + " (" +
                   disassemble(i, width) + "): " + why;
        };
        auto load = [&](std::int64_t addr) -> TermRef {
            if (addr < 0 ||
                static_cast<std::size_t>(addr) >= mem.size()) {
                return nullptr;
            }
            return mem[static_cast<std::size_t>(addr)];
        };
        auto f = [&](int r) -> TermRef& {
            return fregs[static_cast<std::size_t>(r)];
        };
        auto v = [&](int r) -> std::array<TermRef, kMaxVectorWidth>& {
            return vregs[static_cast<std::size_t>(r)];
        };
        if (is_memory_op(i.op) && i.a >= 0) {
            return bad("register-relative addressing is not symbolically "
                       "executable");
        }
        const OpcodeInfo& o = opcode_info(i.op);
        if (o.lane != LaneOp::kNone) {
            const bool vec = o.dst == RegFile::kVector;
            TermRef* d = vec ? v(i.dst).data() : &f(i.dst);
            const TermRef* a = vec ? v(i.a).data() : &f(i.a);
            const TermRef* b = o.b == RegFile::kNone ? a
                               : vec                 ? v(i.b).data()
                                                     : &f(i.b);
            for (int l = 0; l < (vec ? width : 1); ++l) {
                d[l] = lane_term(o.lane, d[l], a[l], b[l]);
            }
            return "";
        }
        switch (i.op) {
          case Opcode::kFLoad: {
            const TermRef t = load(i.imm);
            if (t == nullptr) {
                return bad("load outside the symbolic memory image");
            }
            f(i.dst) = t;
            return "";
          }
          case Opcode::kFStore:
            if (load(i.imm) == nullptr) {
                return bad("store outside the symbolic memory image");
            }
            mem[static_cast<std::size_t>(i.imm)] = f(i.b);
            return "";
          case Opcode::kFMovI: {
            const auto r = rational_from_float(i.fimm);
            if (!r) {
                return bad("float immediate has no exact rational form");
            }
            f(i.dst) = Term::constant(*r);
            return "";
          }
          case Opcode::kFMov:
            f(i.dst) = f(i.a);
            return "";
          case Opcode::kVLoad: {
            for (int l = 0; l < width; ++l) {
                const TermRef t = load(i.imm + l);
                if (t == nullptr) {
                    return bad("load outside the symbolic memory image");
                }
                v(i.dst)[static_cast<std::size_t>(l)] = t;
            }
            return "";
          }
          case Opcode::kVStore:
            for (int l = 0; l < width; ++l) {
                if (load(i.imm + l) == nullptr) {
                    return bad("store outside the symbolic memory image");
                }
                mem[static_cast<std::size_t>(i.imm + l)] =
                    v(i.b)[static_cast<std::size_t>(l)];
            }
            return "";
          case Opcode::kVSplat: {
            const auto r = rational_from_float(i.fimm);
            if (!r) {
                return bad("float immediate has no exact rational form");
            }
            const TermRef c = Term::constant(*r);
            for (int l = 0; l < width; ++l) {
                v(i.dst)[static_cast<std::size_t>(l)] = c;
            }
            return "";
          }
          case Opcode::kVSplatR:
            for (int l = 0; l < width; ++l) {
                v(i.dst)[static_cast<std::size_t>(l)] = f(i.a);
            }
            return "";
          case Opcode::kShuf: {
            const auto a = v(i.a);
            for (int l = 0; l < width; ++l) {
                const int lane = i.lanes[static_cast<std::size_t>(l)];
                if (lane < 0 || lane >= width) {
                    return bad("shuffle lane out of range");
                }
                v(i.dst)[static_cast<std::size_t>(l)] =
                    a[static_cast<std::size_t>(lane)];
            }
            return "";
          }
          case Opcode::kSel: {
            const auto a = v(i.a);
            const auto b = v(i.b);
            for (int l = 0; l < width; ++l) {
                const int lane = i.lanes[static_cast<std::size_t>(l)];
                if (lane < 0 || lane >= 2 * width) {
                    return bad("select lane out of range");
                }
                v(i.dst)[static_cast<std::size_t>(l)] =
                    lane < width
                        ? a[static_cast<std::size_t>(lane)]
                        : b[static_cast<std::size_t>(lane - width)];
            }
            return "";
          }
          case Opcode::kVInsert:
            if (i.imm < 0 || i.imm >= width) {
                return bad("insert lane out of range");
            }
            v(i.dst)[static_cast<std::size_t>(i.imm)] = f(i.a);
            return "";
          case Opcode::kVExtract:
            if (i.imm < 0 || i.imm >= width) {
                return bad("extract lane out of range");
            }
            f(i.dst) = v(i.a)[static_cast<std::size_t>(i.imm)];
            return "";
          default:
            return bad(std::string("opcode ") + opcode_name(i.op) +
                       " is not symbolically executable (control flow or "
                       "integer unit)");
        }
    }
};

/** The input arrays a witness environment must bind, from the layout. */
std::vector<std::pair<std::string, std::int64_t>>
input_arrays(const vir::CompiledLayout& layout)
{
    std::vector<std::pair<std::string, std::int64_t>> inputs;
    for (const auto& e : layout.entries()) {
        if (e.role == scalar::ArrayRole::kInput) {
            inputs.emplace_back(e.name, e.real_len);
        }
    }
    return inputs;
}

/** Relative divergence test matching random_equivalent's tolerance. */
bool
diverges(double a, double b, double tolerance)
{
    if (!std::isfinite(a) || !std::isfinite(b)) {
        return false;  // never build a witness on NaN/inf noise
    }
    const double scale =
        std::max({1.0, std::fabs(a), std::fabs(b)});
    return std::fabs(a - b) > tolerance * scale;
}

/**
 * Searches random environments for a concrete input where `spec_term`
 * and `machine_term` disagree; greedily minimizes it (zeroing elements,
 * then snapping survivors to 1) while divergence persists.
 */
std::optional<MachineWitness>
find_witness(const TermRef& spec_term, const TermRef& machine_term,
             const std::vector<std::pair<std::string, std::int64_t>>& inputs,
             const std::string& output_array, std::int64_t output_index)
{
    constexpr int kTrials = 64;
    constexpr double kTolerance = 1e-4;
    std::mt19937_64 rng(0x5eed'd105'c0de'0001ULL);
    std::uniform_real_distribution<double> mag(0.5, 3.0);

    auto eval_both = [&](const std::vector<std::vector<double>>& data,
                         double* spec_value, double* machine_value) {
        EvalEnv env;
        for (std::size_t k = 0; k < inputs.size(); ++k) {
            env.bind_array(inputs[k].first, data[k]);
        }
        try {
            *spec_value = evaluate_scalar(spec_term, env);
            *machine_value = evaluate_scalar(machine_term, env);
        } catch (const std::exception&) {
            return false;  // unbound call/symbol: cannot evaluate here
        }
        return true;
    };

    for (int trial = 0; trial < kTrials; ++trial) {
        std::vector<std::vector<double>> data;
        data.reserve(inputs.size());
        for (const auto& [name, len] : inputs) {
            std::vector<double> values(static_cast<std::size_t>(len));
            for (double& x : values) {
                x = mag(rng) * (rng() % 2 == 0 ? 1.0 : -1.0);
            }
            data.push_back(std::move(values));
        }
        double sv = 0.0;
        double mv = 0.0;
        if (!eval_both(data, &sv, &mv) || !diverges(sv, mv, kTolerance)) {
            continue;
        }
        // Minimize: zero every element that is not needed to diverge.
        for (auto& values : data) {
            for (double& x : values) {
                const double saved = x;
                x = 0.0;
                double s2 = 0.0;
                double m2 = 0.0;
                if (!eval_both(data, &s2, &m2) ||
                    !diverges(s2, m2, kTolerance)) {
                    x = saved;
                } else {
                    sv = s2;
                    mv = m2;
                }
            }
        }
        // Snap the survivors to 1 where divergence persists.
        for (auto& values : data) {
            for (double& x : values) {
                if (x == 0.0 || x == 1.0) {
                    continue;
                }
                const double saved = x;
                x = 1.0;
                double s2 = 0.0;
                double m2 = 0.0;
                if (!eval_both(data, &s2, &m2) ||
                    !diverges(s2, m2, kTolerance)) {
                    x = saved;
                } else {
                    sv = s2;
                    mv = m2;
                }
            }
        }
        MachineWitness w;
        for (std::size_t k = 0; k < inputs.size(); ++k) {
            w.inputs.emplace_back(inputs[k].first, std::move(data[k]));
        }
        w.output_array = output_array;
        w.output_index = output_index;
        w.spec_value = sv;
        w.machine_value = mv;
        return w;
    }
    return std::nullopt;
}

}  // namespace

std::string
MachineWitness::to_string() const
{
    std::ostringstream os;
    os << "output " << output_array << "[" << output_index
       << "]: spec=" << spec_value << ", machine=" << machine_value
       << "; inputs:";
    bool any = false;
    for (const auto& [name, values] : inputs) {
        for (std::size_t i = 0; i < values.size(); ++i) {
            if (values[i] != 0.0) {
                os << " " << name << "[" << i << "]=" << values[i];
                any = true;
            }
        }
    }
    os << (any ? " (all other elements 0)" : " all zero");
    return os.str();
}

MachineValidation
validate_machine_translation(const TermRef& padded_spec,
                             const std::vector<vir::OutputSlot>& slots,
                             const Program& program,
                             const vir::CompiledLayout& layout,
                             const TargetSpec& target,
                             const ValidationLimits& limits)
{
    MachineValidation result;

    // Build the symbolic memory image exactly as make_memory() would:
    // padded arrays in layout order (inputs as Get atoms, their padding
    // and all outputs/scratch zero), then the constant pool.
    SymbolicMachine m;
    m.width = target.vector_width;
    const TermRef zero = Term::constant(Rational(0));
    std::int64_t total = 0;
    for (const auto& e : layout.entries()) {
        total = std::max(total, e.base + e.padded_len);
    }
    const std::int64_t pool_base = total;
    total += static_cast<std::int64_t>(layout.pool().size());
    m.mem.assign(static_cast<std::size_t>(total), zero);
    for (const auto& e : layout.entries()) {
        if (e.role != scalar::ArrayRole::kInput) {
            continue;
        }
        for (std::int64_t j = 0; j < e.real_len; ++j) {
            m.mem[static_cast<std::size_t>(e.base + j)] =
                t_get(e.name, j);
        }
    }
    for (std::size_t j = 0; j < layout.pool().size(); ++j) {
        const auto r = rational_from_float(layout.pool()[j]);
        if (!r) {
            result.detail = "constant pool entry " + std::to_string(j) +
                            " has no exact rational form";
            return result;
        }
        m.mem[static_cast<std::size_t>(pool_base) + j] =
            Term::constant(*r);
    }
    m.fregs.assign(static_cast<std::size_t>(program.num_float_regs), zero);
    m.vregs.resize(static_cast<std::size_t>(program.num_vec_regs));
    for (auto& v : m.vregs) {
        v.fill(zero);
    }

    const std::string err = m.run(program);
    if (!err.empty()) {
        result.detail = err;
        return result;  // kUnknown
    }

    // Compare every padded output location against its spec element.
    const auto inputs = input_arrays(layout);
    std::string unknown_detail;
    std::size_t cursor = 0;
    for (const auto& slot : slots) {
        const vir::CompiledLayout::Entry* entry = nullptr;
        for (const auto& e : layout.entries()) {
            if (e.name == slot.name) {
                entry = &e;
                break;
            }
        }
        if (entry == nullptr || entry->padded_len != slot.padded_len) {
            result.detail = "output slot " + slot.name +
                            " does not match the compiled layout";
            return result;
        }
        for (std::int64_t j = 0; j < slot.padded_len; ++j) {
            if (cursor + static_cast<std::size_t>(j) >=
                padded_spec->arity()) {
                result.detail = "padded spec shorter than output slots";
                return result;
            }
            const TermRef& spec_el =
                padded_spec->child(cursor + static_cast<std::size_t>(j));
            const TermRef& mach_el =
                m.mem[static_cast<std::size_t>(entry->base + j)];
            Verdict v = scalar_equivalent(spec_el, mach_el, limits);
            if (v == Verdict::kUnknown &&
                !random_equivalent(spec_el, mach_el)) {
                // The exact check capped out but random testing already
                // disagrees: treat as a candidate inequivalence.
                v = Verdict::kNotEquivalent;
            }
            const std::string where =
                slot.name + "[" + std::to_string(j) + "]";
            if (v == Verdict::kNotEquivalent) {
                auto witness = find_witness(spec_el, mach_el, inputs,
                                            slot.name, j);
                if (witness) {
                    result.verdict = Verdict::kNotEquivalent;
                    result.detail =
                        "machine code diverges from the spec at " + where;
                    result.witness = std::move(witness);
                    return result;
                }
                // Canonical mismatch with no concrete divergence: do not
                // cry wolf (float-rounded constants can do this); the
                // verdict honestly stays unknown.
                if (unknown_detail.empty()) {
                    unknown_detail = "canonical mismatch at " + where +
                                     " but no concrete diverging input "
                                     "was found";
                }
            } else if (v == Verdict::kUnknown && unknown_detail.empty()) {
                unknown_detail =
                    "exact canonicalization capped out at " + where;
            }
        }
        cursor += static_cast<std::size_t>(slot.padded_len);
    }
    if (!unknown_detail.empty()) {
        result.verdict = Verdict::kUnknown;
        result.detail = unknown_detail;
        return result;
    }
    result.verdict = Verdict::kEquivalent;
    return result;
}

}  // namespace diospyros::analysis
