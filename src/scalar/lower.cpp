#include "scalar/lower.h"

#include <deque>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "machine/schedule.h"
#include "support/error.h"

namespace diospyros::scalar {

KernelLayout
KernelLayout::make(const Kernel& kernel)
{
    KernelLayout layout;
    int base = 0;
    for (const ArrayDecl& decl : kernel.arrays) {
        const std::int64_t n = array_length(kernel, decl);
        layout.entries_.push_back(
            Entry{decl.name.str(), base, n, decl.role});
        base += static_cast<int>(n);
    }
    layout.total_ = base;
    return layout;
}

int
KernelLayout::base_of(const std::string& name) const
{
    for (const Entry& e : entries_) {
        if (e.name == name) {
            return e.base;
        }
    }
    throw UserError("layout has no array named " + name);
}

Memory
KernelLayout::make_memory(const BufferMap& inputs) const
{
    Memory mem;
    for (const Entry& e : entries_) {
        if (e.role == ArrayRole::kInput) {
            auto it = inputs.find(e.name);
            DIOS_CHECK(it != inputs.end(), "missing input array " + e.name);
            DIOS_CHECK(it->second.size() ==
                           static_cast<std::size_t>(e.length),
                       "input " + e.name + " has wrong size");
            mem.alloc(e.name, it->second);
        } else {
            mem.alloc(e.name, static_cast<std::size_t>(e.length));
        }
    }
    return mem;
}

BufferMap
KernelLayout::read_outputs(const Memory& memory) const
{
    BufferMap out;
    for (const Entry& e : entries_) {
        if (e.role == ArrayRole::kOutput) {
            out.emplace(e.name, memory.read(e.name));
        }
    }
    return out;
}

namespace {

/** The machine lane operation of an arithmetic FloatExpr. */
LaneOp
lane_of(FloatExpr::Kind kind)
{
    switch (kind) {
      case FloatExpr::Kind::kAdd:
        return LaneOp::kAdd;
      case FloatExpr::Kind::kSub:
        return LaneOp::kSub;
      case FloatExpr::Kind::kMul:
        return LaneOp::kMul;
      case FloatExpr::Kind::kDiv:
        return LaneOp::kDiv;
      case FloatExpr::Kind::kNeg:
        return LaneOp::kNeg;
      case FloatExpr::Kind::kSqrt:
        return LaneOp::kSqrt;
      case FloatExpr::Kind::kSgn:
        return LaneOp::kSgn;
      default:
        throw InternalError("not an arithmetic float expression");
    }
}

// ---------------------------------------------------------------------------
// Naive parametric lowering: loops, branches, runtime index arithmetic.
// ---------------------------------------------------------------------------

class NaiveLowering {
  public:
    NaiveLowering(const Kernel& kernel, const KernelLayout& layout,
                  const LowerParams& params)
        : kernel_(kernel), layout_(layout), params_(params)
    {
    }

    Program
    run()
    {
        for (int c = 0; c < params_.entry_overhead; ++c) {
            pb_.mov_i(pb_.fresh_int(), 0);
        }
        // Parameters are runtime values: materialized once into registers
        // (like function arguments), then *used* from registers so bounds
        // checks and index math stay dynamic.
        for (const auto& [sym, value] : kernel_.params) {
            const int reg = pb_.fresh_int();
            pb_.mov_i(reg, static_cast<int>(value));
            int_vars_.emplace(sym, reg);
        }
        // Materialize every distinct integer literal at entry. Doing this
        // up front (rather than at first use) keeps constant registers
        // valid on all control-flow paths.
        for (const StmtRef& s : kernel_.body) {
            collect_constants(*s);
        }
        for (const StmtRef& s : kernel_.body) {
            lower_stmt(*s);
        }
        pb_.halt();
        return pb_.finish();
    }

  private:
    void
    materialize_constant(std::int64_t value)
    {
        if (const_regs_.count(value)) {
            return;
        }
        const int reg = pb_.fresh_int();
        pb_.mov_i(reg, static_cast<int>(value));
        const_regs_.emplace(value, reg);
    }

    void
    collect_constants_int(const IntExpr& e, bool reg_position)
    {
        switch (e.kind) {
          case IntExpr::Kind::kConst:
            // Right operands of binary ops fold into immediates and need
            // no register.
            if (reg_position) {
                materialize_constant(e.value);
            }
            return;
          case IntExpr::Kind::kVar:
            return;
          default:
            collect_constants_int(*e.a, true);
            collect_constants_int(*e.b,
                                  e.b->kind != IntExpr::Kind::kConst);
            return;
        }
    }

    void
    collect_constants_cond(const Cond& c)
    {
        switch (c.kind) {
          case Cond::Kind::kAnd:
          case Cond::Kind::kOr:
            collect_constants_cond(*c.c1);
            collect_constants_cond(*c.c2);
            return;
          case Cond::Kind::kNot:
            collect_constants_cond(*c.c1);
            return;
          default:
            collect_constants_int(*c.x, true);
            collect_constants_int(*c.y, true);
            return;
        }
    }

    void
    collect_constants_float(const FloatExpr& e)
    {
        if (e.kind == FloatExpr::Kind::kLoad) {
            collect_constants_int(*e.index, true);
            return;
        }
        for (const FloatRef& a : e.args) {
            collect_constants_float(*a);
        }
    }

    void
    collect_constants(const Stmt& s)
    {
        switch (s.kind) {
          case Stmt::Kind::kStore:
            collect_constants_int(*s.index, true);
            collect_constants_float(*s.value);
            return;
          case Stmt::Kind::kFor:
            collect_constants_int(*s.lo, true);
            collect_constants_int(*s.hi, true);
            break;
          case Stmt::Kind::kIf:
            collect_constants_cond(*s.cond);
            break;
          case Stmt::Kind::kBlock:
            break;
        }
        for (const StmtRef& c : s.body) {
            collect_constants(*c);
        }
        for (const StmtRef& c : s.else_body) {
            collect_constants(*c);
        }
    }

    /**
     * Structural key of an integer expression with variables resolved to
     * their current registers — the basis of block-scoped CSE on index
     * arithmetic (what -O3 achieves without full loop optimization).
     */
    std::string
    int_expr_key(const IntExpr& e)
    {
        switch (e.kind) {
          case IntExpr::Kind::kConst:
            return "#" + std::to_string(e.value);
          case IntExpr::Kind::kVar: {
            auto it = int_vars_.find(e.var);
            DIOS_CHECK(it != int_vars_.end(),
                       "unbound integer variable: " + e.var.str());
            return "r" + std::to_string(it->second);
          }
          default: {
            const char op = e.kind == IntExpr::Kind::kAdd   ? '+'
                            : e.kind == IntExpr::Kind::kSub ? '-'
                                                            : '*';
            return std::string(1, op) + "(" + int_expr_key(*e.a) + "," +
                   int_expr_key(*e.b) + ")";
        }
        }
    }

    int
    cse_lookup(const std::string& key) const
    {
        for (auto it = int_cse_.rbegin(); it != int_cse_.rend(); ++it) {
            if (it->first == key) {
                return it->second;
            }
        }
        return -1;
    }

    /** Evaluates an integer expression into a register. */
    int
    eval_int_expr(const IntExpr& e)
    {
        switch (e.kind) {
          case IntExpr::Kind::kConst: {
            auto it = const_regs_.find(e.value);
            if (it != const_regs_.end()) {
                return it->second;
            }
            const int reg = pb_.fresh_int();
            pb_.mov_i(reg, static_cast<int>(e.value));
            const_regs_.emplace(e.value, reg);
            return reg;
          }
          case IntExpr::Kind::kVar: {
            auto it = int_vars_.find(e.var);
            DIOS_CHECK(it != int_vars_.end(),
                       "unbound integer variable: " + e.var.str());
            return it->second;
          }
          case IntExpr::Kind::kAdd:
          case IntExpr::Kind::kSub:
          case IntExpr::Kind::kMul: {
            const std::string key = int_expr_key(e);
            if (const int hit = cse_lookup(key); hit >= 0) {
                return hit;
            }
            // Fold a constant right operand into the immediate form; a
            // compiler at any optimization level does this.
            const int ra = eval_int_expr(*e.a);
            const int dst = pb_.fresh_int();
            if (e.b->kind == IntExpr::Kind::kConst) {
                const int imm = static_cast<int>(e.b->value);
                if (e.kind == IntExpr::Kind::kAdd) {
                    pb_.add_i(dst, ra, imm);
                } else if (e.kind == IntExpr::Kind::kSub) {
                    pb_.add_i(dst, ra, -imm);
                } else {
                    pb_.imul_i(dst, ra, imm);
                }
                int_cse_.emplace_back(key, dst);
                return dst;
            }
            const int rb = eval_int_expr(*e.b);
            if (e.kind == IntExpr::Kind::kAdd) {
                pb_.iadd(dst, ra, rb);
            } else if (e.kind == IntExpr::Kind::kSub) {
                // a - b = a + (-1)*b
                const int neg = pb_.fresh_int();
                pb_.imul_i(neg, rb, -1);
                pb_.iadd(dst, ra, neg);
            } else {
                pb_.imul(dst, ra, rb);
            }
            int_cse_.emplace_back(key, dst);
            return dst;
          }
        }
        DIOS_ASSERT(false, "unhandled IntExpr kind");
    }

    /**
     * Emits code that branches to `target` iff the condition evaluates to
     * `sense`; control falls through otherwise. One machine branch per
     * comparison on the common paths, as a real -O3 backend produces.
     */
    void
    branch_cond(const Cond& c, ProgramBuilder::Label target, bool sense)
    {
        switch (c.kind) {
          case Cond::Kind::kLt: {
            const int ra = eval_int_expr(*c.x);
            const int rb = eval_int_expr(*c.y);
            if (sense) {
                pb_.branch_lt(ra, rb, target);
            } else {
                pb_.branch_ge(ra, rb, target);
            }
            return;
          }
          case Cond::Kind::kGe:
            branch_cond(*Cond::compare(Cond::Kind::kLt, c.x, c.y), target,
                        !sense);
            return;
          case Cond::Kind::kGt:
            branch_cond(*Cond::compare(Cond::Kind::kLt, c.y, c.x), target,
                        sense);
            return;
          case Cond::Kind::kLe:
            // x <= y  iff  !(y < x).
            branch_cond(*Cond::compare(Cond::Kind::kLt, c.y, c.x), target,
                        !sense);
            return;
          case Cond::Kind::kEq: {
            const int ra = eval_int_expr(*c.x);
            const int rb = eval_int_expr(*c.y);
            if (!sense) {
                // Jump iff x != y.
                pb_.branch_lt(ra, rb, target);
                pb_.branch_lt(rb, ra, target);
            } else {
                auto skip = pb_.new_label();
                pb_.branch_lt(ra, rb, skip);
                pb_.branch_lt(rb, ra, skip);
                pb_.jump(target);
                pb_.bind(skip);
            }
            return;
          }
          case Cond::Kind::kNe:
            branch_cond(*Cond::compare(Cond::Kind::kEq, c.x, c.y), target,
                        !sense);
            return;
          case Cond::Kind::kAnd:
            if (sense) {
                auto out = pb_.new_label();
                branch_cond(*c.c1, out, false);
                branch_cond(*c.c2, target, true);
                pb_.bind(out);
            } else {
                branch_cond(*c.c1, target, false);
                branch_cond(*c.c2, target, false);
            }
            return;
          case Cond::Kind::kOr:
            if (sense) {
                branch_cond(*c.c1, target, true);
                branch_cond(*c.c2, target, true);
            } else {
                // Jump iff both are false.
                auto out = pb_.new_label();
                branch_cond(*c.c1, out, true);
                branch_cond(*c.c2, target, false);
                pb_.bind(out);
            }
            return;
          case Cond::Kind::kNot:
            branch_cond(*c.c1, target, !sense);
            return;
        }
        DIOS_ASSERT(false, "unhandled Cond kind");
    }

    int
    eval_float_expr(const FloatExpr& e)
    {
        switch (e.kind) {
          case FloatExpr::Kind::kConst: {
            const int reg = pb_.fresh_float();
            pb_.fmov_i(reg,
                       static_cast<float>(e.value.to_double()));
            return reg;
          }
          case FloatExpr::Kind::kLoad: {
            const int idx = eval_int_expr(*e.index);
            const int reg = pb_.fresh_float();
            pb_.fload(reg, idx, layout_.base_of(e.array.str()));
            return reg;
          }
          case FloatExpr::Kind::kAdd:
          case FloatExpr::Kind::kSub:
          case FloatExpr::Kind::kMul:
          case FloatExpr::Kind::kDiv: {
            const int ra = eval_float_expr(*e.args[0]);
            const int rb = eval_float_expr(*e.args[1]);
            const int dst = pb_.fresh_float();
            pb_.fbinop(lane_opcode(lane_of(e.kind), false), dst, ra, rb);
            return dst;
          }
          case FloatExpr::Kind::kNeg:
          case FloatExpr::Kind::kSqrt:
          case FloatExpr::Kind::kSgn: {
            const int ra = eval_float_expr(*e.args[0]);
            const int dst = pb_.fresh_float();
            pb_.funop(lane_opcode(lane_of(e.kind), false), dst, ra);
            return dst;
          }
          case FloatExpr::Kind::kCall:
            throw UserError(
                "baseline lowering does not support user functions");
        }
        DIOS_ASSERT(false, "unhandled FloatExpr kind");
    }

    void
    lower_stmt(const Stmt& s)
    {
        switch (s.kind) {
          case Stmt::Kind::kStore: {
            const int value = eval_float_expr(*s.value);
            const int idx = eval_int_expr(*s.index);
            pb_.fstore(idx, layout_.base_of(s.array.str()), value);
            return;
          }
          case Stmt::Kind::kFor: {
            const int lo = eval_int_expr(*s.lo);
            const int hi = eval_int_expr(*s.hi);
            const int var = pb_.fresh_int();
            pb_.add_i(var, lo, 0);
            int_vars_[s.loop_var] = var;
            auto head = pb_.new_label();
            auto end = pb_.new_label();
            pb_.bind(head);
            pb_.branch_ge(var, hi, end);
            // CSE entries created inside the body are not valid after the
            // loop (it may run zero times), nor across iterations' control
            // flow; scope them to the body.
            const std::size_t mark = int_cse_.size();
            for (const StmtRef& c : s.body) {
                lower_stmt(*c);
            }
            int_cse_.resize(mark);
            pb_.add_i(var, var, 1);
            pb_.jump(head);
            pb_.bind(end);
            int_vars_.erase(s.loop_var);
            return;
          }
          case Stmt::Kind::kIf: {
            if (s.else_body.empty()) {
                auto end_l = pb_.new_label();
                branch_cond(*s.cond, end_l, false);
                const std::size_t mark = int_cse_.size();
                for (const StmtRef& c : s.body) {
                    lower_stmt(*c);
                }
                int_cse_.resize(mark);
                pb_.bind(end_l);
                return;
            }
            auto else_l = pb_.new_label();
            auto end_l = pb_.new_label();
            branch_cond(*s.cond, else_l, false);
            std::size_t mark = int_cse_.size();
            for (const StmtRef& c : s.body) {
                lower_stmt(*c);
            }
            int_cse_.resize(mark);
            pb_.jump(end_l);
            pb_.bind(else_l);
            mark = int_cse_.size();
            for (const StmtRef& c : s.else_body) {
                lower_stmt(*c);
            }
            int_cse_.resize(mark);
            pb_.bind(end_l);
            return;
          }
          case Stmt::Kind::kBlock:
            for (const StmtRef& c : s.body) {
                lower_stmt(*c);
            }
            return;
        }
    }

    const Kernel& kernel_;
    const KernelLayout& layout_;
    LowerParams params_;
    ProgramBuilder pb_;
    std::unordered_map<Symbol, int> int_vars_;
    std::unordered_map<std::int64_t, int> const_regs_;
    /** Block-scoped (key, register) CSE entries for index expressions. */
    std::vector<std::pair<std::string, int>> int_cse_;
};

// ---------------------------------------------------------------------------
// Naive fixed-size lowering: full unroll + register promotion + window CSE.
// ---------------------------------------------------------------------------

/**
 * Models a vendor compiler at -O3 on a fixed-size kernel. Control flow is
 * resolved at lowering time; the emitted program is straight-line.
 *
 * Register-pressure model: the store-forwarding table (promoted array
 * cells) and the value-numbering window are bounded; evictions write back
 * / recompute, which is what distinguishes this baseline from Diospyros's
 * unbounded LVN over the lifted spec (§5.6).
 */
class FixedLowering {
  public:
    FixedLowering(const Kernel& kernel, const KernelLayout& layout,
                  const LowerParams& params)
        : kernel_(kernel), layout_(layout), params_(params)
    {
        // Store-forwarding needs at least one register; a zero capacity
        // would deadlock eviction.
        params_.forward_capacity = std::max<std::size_t>(
            1, params_.forward_capacity);
        for (const auto& [sym, value] : kernel.params) {
            env_.emplace(sym, value);
        }
    }

    Program
    run()
    {
        for (int c = 0; c < params_.entry_overhead; ++c) {
            pb_.mov_i(pb_.fresh_int(), 0);
        }
        for (const StmtRef& s : kernel_.body) {
            exec(*s);
        }
        flush_all();
        pb_.halt();
        return pb_.finish();
    }

  private:
    struct CseEntry {
        std::string key;
        int reg = -1;
        std::unordered_set<int> load_addrs;
    };

    int
    address_of(Symbol array, const IntExpr& index)
    {
        const std::int64_t i = eval_int(index, env_);
        const int base = layout_.base_of(array.str());
        return base + static_cast<int>(i);
    }

    /** Store-forwarding: register currently holding mem[addr], if any. */
    int
    forwarded(int addr) const
    {
        auto it = forward_.find(addr);
        return it == forward_.end() ? -1 : it->second;
    }

    void
    forward_insert(int addr, int reg, bool dirty)
    {
        if (!forward_.count(addr)) {
            while (forward_order_.size() >= params_.forward_capacity) {
                evict_forward();
            }
            forward_order_.push_back(addr);
        }
        forward_[addr] = reg;
        if (dirty) {
            dirty_.insert(addr);
        } else {
            dirty_.erase(addr);
        }
    }

    void
    evict_forward()
    {
        const int addr = forward_order_.front();
        forward_order_.pop_front();
        if (dirty_.count(addr)) {
            pb_.fstore(-1, addr, forward_.at(addr));
            dirty_.erase(addr);
        }
        forward_.erase(addr);
    }

    void
    flush_all()
    {
        for (const int addr : forward_order_) {
            if (dirty_.count(addr)) {
                pb_.fstore(-1, addr, forward_.at(addr));
            }
        }
        forward_.clear();
        forward_order_.clear();
        dirty_.clear();
    }

    void
    invalidate_cse_for(int addr)
    {
        for (auto it = cse_.begin(); it != cse_.end();) {
            if (it->load_addrs.count(addr)) {
                it = cse_.erase(it);
            } else {
                ++it;
            }
        }
    }

    const CseEntry*
    cse_lookup(const std::string& key) const
    {
        for (const CseEntry& e : cse_) {
            if (e.key == key) {
                return &e;
            }
        }
        return nullptr;
    }

    void
    cse_insert(CseEntry entry)
    {
        if (params_.cse_capacity == 0) {
            return;
        }
        while (cse_.size() >= params_.cse_capacity) {
            cse_.pop_front();
        }
        cse_.push_back(std::move(entry));
    }

    /**
     * Evaluates a float expression; returns (register, CSE key, load
     * addresses used).
     */
    int
    eval(const FloatExpr& e, std::string& key,
         std::unordered_set<int>& loads)
    {
        switch (e.kind) {
          case FloatExpr::Kind::kConst: {
            key = "#" + e.value.to_string();
            if (const CseEntry* hit = cse_lookup(key)) {
                return hit->reg;
            }
            const int reg = pb_.fresh_float();
            pb_.fmov_i(reg, static_cast<float>(e.value.to_double()));
            cse_insert(CseEntry{key, reg, {}});
            return reg;
          }
          case FloatExpr::Kind::kLoad: {
            const int addr = address_of(e.array, *e.index);
            loads.insert(addr);
            key = "L" + std::to_string(addr);
            if (const int reg = forwarded(addr); reg >= 0) {
                return reg;
            }
            if (const CseEntry* hit = cse_lookup(key)) {
                return hit->reg;
            }
            const int reg = pb_.fresh_float();
            pb_.fload(reg, -1, addr);
            forward_insert(addr, reg, /*dirty=*/false);
            return reg;
          }
          case FloatExpr::Kind::kAdd:
          case FloatExpr::Kind::kSub:
          case FloatExpr::Kind::kMul:
          case FloatExpr::Kind::kDiv: {
            std::string ka, kb;
            std::unordered_set<int> la, lb;
            const int ra = eval(*e.args[0], ka, la);
            const int rb = eval(*e.args[1], kb, lb);
            loads.insert(la.begin(), la.end());
            loads.insert(lb.begin(), lb.end());
            const char op_ch = e.kind == FloatExpr::Kind::kAdd   ? '+'
                               : e.kind == FloatExpr::Kind::kSub ? '-'
                               : e.kind == FloatExpr::Kind::kMul ? '*'
                                                                 : '/';
            key = std::string(1, op_ch) + "(" + ka + "," + kb + ")";
            if (const CseEntry* hit = cse_lookup(key)) {
                return hit->reg;
            }
            const int dst = pb_.fresh_float();
            pb_.fbinop(lane_opcode(lane_of(e.kind), false), dst, ra, rb);
            std::unordered_set<int> all = la;
            all.insert(lb.begin(), lb.end());
            cse_insert(CseEntry{key, dst, std::move(all)});
            return dst;
          }
          case FloatExpr::Kind::kNeg:
          case FloatExpr::Kind::kSqrt:
          case FloatExpr::Kind::kSgn: {
            std::string ka;
            std::unordered_set<int> la;
            const int ra = eval(*e.args[0], ka, la);
            loads.insert(la.begin(), la.end());
            const char op_ch = e.kind == FloatExpr::Kind::kNeg    ? 'n'
                               : e.kind == FloatExpr::Kind::kSqrt ? 'q'
                                                                  : 's';
            key = std::string(1, op_ch) + "(" + ka + ")";
            if (const CseEntry* hit = cse_lookup(key)) {
                return hit->reg;
            }
            const int dst = pb_.fresh_float();
            pb_.funop(lane_opcode(lane_of(e.kind), false), dst, ra);
            cse_insert(CseEntry{key, dst, std::move(la)});
            return dst;
          }
          case FloatExpr::Kind::kCall:
            throw UserError(
                "baseline lowering does not support user functions");
        }
        DIOS_ASSERT(false, "unhandled FloatExpr kind");
    }

    void
    do_store(const Stmt& s)
    {
        const int addr = address_of(s.array, *s.index);

        // Accumulation peephole: a[addr] = a[addr] + x*y with the cell
        // already promoted to a register becomes a single FMac.
        const FloatExpr& v = *s.value;
        if (v.kind == FloatExpr::Kind::kAdd) {
            const FloatExpr* load = v.args[0].get();
            const FloatExpr* mul = v.args[1].get();
            if (load->kind != FloatExpr::Kind::kLoad ||
                mul->kind != FloatExpr::Kind::kMul) {
                std::swap(load, mul);
            }
            if (load->kind == FloatExpr::Kind::kLoad &&
                mul->kind == FloatExpr::Kind::kMul &&
                address_of(load->array, *load->index) == addr) {
                int acc = forwarded(addr);
                if (acc < 0) {
                    acc = pb_.fresh_float();
                    pb_.fload(acc, -1, addr);
                }
                std::string kx, ky;
                std::unordered_set<int> lx, ly;
                const int rx = eval(*mul->args[0], kx, lx);
                const int ry = eval(*mul->args[1], ky, ly);
                if (params_.scalar_mac) {
                    pb_.fmac(acc, rx, ry);
                } else {
                    // No scalar fused MAC on this target: multiply into a
                    // temporary, then accumulate.
                    const int tmp = pb_.fresh_float();
                    pb_.fbinop(Opcode::kFMul, tmp, rx, ry);
                    pb_.fbinop(Opcode::kFAdd, acc, acc, tmp);
                }
                invalidate_cse_for(addr);
                forward_insert(addr, acc, /*dirty=*/true);
                return;
            }
        }

        std::string key;
        std::unordered_set<int> loads;
        int reg = eval(*s.value, key, loads);
        // The value register may be shared with a CSE entry; copy into a
        // private register before promoting so later writes don't alias.
        if (loads.count(addr) || cse_lookup(key) != nullptr) {
            const int copy = pb_.fresh_float();
            pb_.fmov(copy, reg);
            reg = copy;
        }
        invalidate_cse_for(addr);
        forward_insert(addr, reg, /*dirty=*/true);
    }

    void
    exec(const Stmt& s)
    {
        switch (s.kind) {
          case Stmt::Kind::kStore:
            do_store(s);
            return;
          case Stmt::Kind::kFor: {
            const std::int64_t lo = eval_int(*s.lo, env_);
            const std::int64_t hi = eval_int(*s.hi, env_);
            for (std::int64_t i = lo; i < hi; ++i) {
                env_[s.loop_var] = i;
                for (const StmtRef& c : s.body) {
                    exec(*c);
                }
            }
            env_.erase(s.loop_var);
            return;
          }
          case Stmt::Kind::kIf: {
            const auto& branch =
                eval_cond(*s.cond, env_) ? s.body : s.else_body;
            for (const StmtRef& c : branch) {
                exec(*c);
            }
            return;
          }
          case Stmt::Kind::kBlock:
            for (const StmtRef& c : s.body) {
                exec(*c);
            }
            return;
        }
    }

    const Kernel& kernel_;
    const KernelLayout& layout_;
    LowerParams params_;
    ProgramBuilder pb_;
    std::unordered_map<Symbol, std::int64_t> env_;
    /** addr -> register holding the current value of that cell. */
    std::unordered_map<int, int> forward_;
    std::deque<int> forward_order_;
    std::unordered_set<int> dirty_;
    std::deque<CseEntry> cse_;
};

}  // namespace

Program
lower_kernel(const Kernel& kernel, const KernelLayout& layout,
             LowerMode mode, const LowerParams& params)
{
    if (mode == LowerMode::kNaiveParametric) {
        NaiveLowering lowering(kernel, layout, params);
        return lowering.run();
    }
    FixedLowering lowering(kernel, layout, params);
    return lowering.run();
}

BaselineRun
run_baseline(const Kernel& kernel, const BufferMap& inputs, LowerMode mode,
             const TargetSpec& spec, const LowerParams* params)
{
    const KernelLayout layout = KernelLayout::make(kernel);
    BaselineRun run;
    run.program = lower_kernel(
        kernel, layout, mode,
        params != nullptr ? *params : LowerParams::for_target(spec));
    // Fixed-size baselines are straight-line; give them the same list
    // scheduling a vendor -O3 backend performs. (Parametric programs
    // contain branches and pass through unchanged.)
    run.program = schedule_program(run.program, spec);
    Memory memory = layout.make_memory(inputs);
    Simulator sim(spec);
    run.result = sim.run(run.program, memory);
    run.outputs = layout.read_outputs(memory);
    return run;
}

}  // namespace diospyros::scalar
