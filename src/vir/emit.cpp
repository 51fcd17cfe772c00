#include "vir/emit.h"

#include <map>
#include <unordered_map>

#include "machine/schedule.h"
#include "support/error.h"
#include "support/faults.h"

namespace diospyros::vir {

CompiledLayout
CompiledLayout::make(const scalar::Kernel& kernel, int width)
{
    CompiledLayout layout;
    int base = 0;
    for (const scalar::ArrayDecl& decl : kernel.arrays) {
        const std::int64_t n = scalar::array_length(kernel, decl);
        const std::int64_t padded =
            (n + width - 1) / width * width;
        layout.entries_.push_back(Entry{decl.name.str(), base, n, padded,
                                        decl.role});
        base += static_cast<int>(padded);
    }
    layout.pool_base_ = base;
    return layout;
}

int
CompiledLayout::base_of(const std::string& name) const
{
    for (const Entry& e : entries_) {
        if (e.name == name) {
            return e.base;
        }
    }
    throw UserError("compiled layout has no array named " + name);
}

int
CompiledLayout::add_pool_constant(const std::vector<float>& values)
{
    const int addr = pool_base_ + static_cast<int>(pool_.size());
    pool_.insert(pool_.end(), values.begin(), values.end());
    return addr;
}

Memory
CompiledLayout::make_memory(const scalar::BufferMap& inputs) const
{
    Memory mem;
    for (const Entry& e : entries_) {
        if (e.role == scalar::ArrayRole::kInput) {
            auto it = inputs.find(e.name);
            DIOS_CHECK(it != inputs.end(), "missing input array " + e.name);
            DIOS_CHECK(it->second.size() ==
                           static_cast<std::size_t>(e.real_len),
                       "input " + e.name + " has wrong size");
            std::vector<float> padded = it->second;
            padded.resize(static_cast<std::size_t>(e.padded_len), 0.0f);
            mem.alloc(e.name, padded);
        } else {
            mem.alloc(e.name, static_cast<std::size_t>(e.padded_len));
        }
    }
    if (!pool_.empty()) {
        mem.alloc("__pool", pool_);
    }
    return mem;
}

scalar::BufferMap
CompiledLayout::read_outputs(const Memory& memory) const
{
    scalar::BufferMap out;
    for (const Entry& e : entries_) {
        if (e.role == scalar::ArrayRole::kOutput) {
            std::vector<float> padded = memory.read(e.name);
            padded.resize(static_cast<std::size_t>(e.real_len));
            out.emplace(e.name, std::move(padded));
        }
    }
    return out;
}

namespace {

/** The machine lane operation of a VIR ALU operator. */
LaneOp
lane_of(Op op)
{
    switch (op) {
      case Op::kAdd:
        return LaneOp::kAdd;
      case Op::kSub:
        return LaneOp::kSub;
      case Op::kMul:
        return LaneOp::kMul;
      case Op::kDiv:
        return LaneOp::kDiv;
      case Op::kNeg:
        return LaneOp::kNeg;
      case Op::kSqrt:
        return LaneOp::kSqrt;
      case Op::kSgn:
        return LaneOp::kSgn;
      case Op::kRecip:
        return LaneOp::kRecip;
      default:
        throw InternalError(std::string("no machine lane operation for ") +
                            op_name(op));
    }
}

class Emitter {
  public:
    Emitter(const VProgram& vp, CompiledLayout& layout,
            const TargetSpec& target)
        : vp_(vp), layout_(layout), target_(target),
          width_(vp.vector_width)
    {
        compute_last_uses();
    }

    Program
    run()
    {
        for (std::size_t idx = 0; idx < vp_.instrs.size(); ++idx) {
            emit(vp_.instrs[idx], idx);
        }
        pb_.halt();
        return pb_.finish();
    }

  private:
    void
    compute_last_uses()
    {
        last_use_s_.assign(
            static_cast<std::size_t>(vp_.num_scalar_values), -1);
        last_use_v_.assign(
            static_cast<std::size_t>(vp_.num_vector_values), -1);
        for (std::size_t idx = 0; idx < vp_.instrs.size(); ++idx) {
            const VInstr& i = vp_.instrs[idx];
            auto use = [&](int id, bool vec) {
                if (id < 0) {
                    return;
                }
                auto& lu = vec ? last_use_v_ : last_use_s_;
                lu[static_cast<std::size_t>(id)] = static_cast<int>(idx);
            };
            switch (i.op) {
              case VOp::kSBinary:
                use(i.a, false);
                use(i.b, false);
                break;
              case VOp::kSMac:
                use(i.a, false);
                use(i.b, false);
                use(i.c, false);
                break;
              case VOp::kSUnary:
              case VOp::kSStore:
                use(i.a, false);
                break;
              case VOp::kSCall:
                for (const int arg : i.args) {
                    use(arg, false);
                }
                break;
              case VOp::kSExtract:
              case VOp::kShuffle:
              case VOp::kVUnary:
              case VOp::kVStore:
                use(i.a, true);
                break;
              case VOp::kSelect:
              case VOp::kVBinary:
                use(i.a, true);
                use(i.b, true);
                break;
              case VOp::kVMac:
                use(i.a, true);
                use(i.b, true);
                use(i.c, true);
                break;
              case VOp::kInsert:
                use(i.a, true);
                use(i.b, false);
                break;
              case VOp::kSConst:
              case VOp::kSLoad:
              case VOp::kVLoadA:
              case VOp::kVConst:
                break;
            }
        }
    }

    int
    sreg(int value)
    {
        auto it = s_regs_.find(value);
        if (it == s_regs_.end()) {
            it = s_regs_.emplace(value, pb_.fresh_float()).first;
        }
        return it->second;
    }

    int
    vreg(int value)
    {
        auto it = v_regs_.find(value);
        if (it == v_regs_.end()) {
            it = v_regs_.emplace(value, pb_.fresh_vec()).first;
        }
        return it->second;
    }

    int
    addr(Symbol array, std::int64_t offset)
    {
        return layout_.base_of(array.str()) + static_cast<int>(offset);
    }

    /**
     * Returns the machine register for an accumulator-style destination:
     * reuses the operand's register in place when this is its last use,
     * otherwise copies (shuffle for vectors, fmov for scalars).
     */
    int
    acc_vreg(int acc_value, std::size_t idx, int dst_value)
    {
        const int src = vreg(acc_value);
        if (last_use_v_[static_cast<std::size_t>(acc_value)] ==
            static_cast<int>(idx)) {
            v_regs_[dst_value] = src;
            return src;
        }
        const int dst = vreg(dst_value);
        std::vector<int> identity(static_cast<std::size_t>(width_));
        for (int l = 0; l < width_; ++l) {
            identity[static_cast<std::size_t>(l)] = l;
        }
        pb_.shuf(dst, src, identity);
        return dst;
    }

    int
    acc_sreg(int acc_value, std::size_t idx, int dst_value)
    {
        const int src = sreg(acc_value);
        if (last_use_s_[static_cast<std::size_t>(acc_value)] ==
            static_cast<int>(idx)) {
            s_regs_[dst_value] = src;
            return src;
        }
        const int dst = sreg(dst_value);
        pb_.fmov(dst, src);
        return dst;
    }

    void
    emit(const VInstr& i, std::size_t idx)
    {
        switch (i.op) {
          case VOp::kSConst:
            pb_.fmov_i(sreg(i.dst), static_cast<float>(i.values[0]));
            return;
          case VOp::kSLoad:
            pb_.fload(sreg(i.dst), -1, addr(i.array, i.offset));
            return;
          case VOp::kSBinary:
            pb_.fbinop(lane_opcode(lane_of(i.alu), false), sreg(i.dst),
                       sreg(i.a), sreg(i.b));
            return;
          case VOp::kSUnary:
            pb_.funop(lane_opcode(lane_of(i.alu), false), sreg(i.dst),
                      sreg(i.a));
            return;
          case VOp::kSMac: {
            if (target_.has_scalar_mac) {
                const int dst = acc_sreg(i.a, idx, i.dst);
                pb_.fmac(dst, sreg(i.b), sreg(i.c));
                return;
            }
            // No scalar fused MAC: multiply into a temporary, then add.
            const int tmp = pb_.fresh_float();
            pb_.fbinop(Opcode::kFMul, tmp, sreg(i.b), sreg(i.c));
            pb_.fbinop(Opcode::kFAdd, sreg(i.dst), sreg(i.a), tmp);
            return;
          }
          case VOp::kSCall:
            throw UserError(
                "user-defined functions cannot be executed on the "
                "simulated DSP; provide a rewrite to primitive ops or run "
                "via the reference evaluator");
          case VOp::kSExtract:
            pb_.vextract(sreg(i.dst), vreg(i.a), i.lane);
            return;
          case VOp::kVLoadA:
            pb_.vload(vreg(i.dst), -1, addr(i.array, i.offset));
            return;
          case VOp::kVConst: {
            std::vector<float> lanes(i.values.begin(), i.values.end());
            lanes.resize(static_cast<std::size_t>(width_), 0.0f);
            // Splat is cheaper when all lanes agree; otherwise pool-load.
            bool uniform = true;
            for (const float v : lanes) {
                uniform &= v == lanes[0];
            }
            if (uniform) {
                pb_.vsplat(vreg(i.dst), lanes[0]);
            } else {
                const int pool_addr = pool_slot(lanes);
                pb_.vload(vreg(i.dst), -1, pool_addr);
            }
            return;
          }
          case VOp::kShuffle:
            pb_.shuf(vreg(i.dst), vreg(i.a), i.lanes);
            return;
          case VOp::kSelect:
            pb_.sel(vreg(i.dst), vreg(i.a), vreg(i.b), i.lanes);
            return;
          case VOp::kInsert: {
            const int dst = acc_vreg(i.a, idx, i.dst);
            pb_.vinsert(dst, i.lane, sreg(i.b));
            return;
          }
          case VOp::kVBinary:
            pb_.vbinop(lane_opcode(lane_of(i.alu), true), vreg(i.dst),
                       vreg(i.a), vreg(i.b));
            return;
          case VOp::kVUnary:
            pb_.vunop(lane_opcode(lane_of(i.alu), true), vreg(i.dst),
                      vreg(i.a));
            return;
          case VOp::kVMac: {
            const int dst = acc_vreg(i.a, idx, i.dst);
            pb_.vmac(dst, vreg(i.b), vreg(i.c));
            return;
          }
          case VOp::kVStore:
            pb_.vstore(-1, addr(i.array, i.offset), vreg(i.a));
            return;
          case VOp::kSStore:
            pb_.fstore(-1, addr(i.array, i.offset), sreg(i.a));
            return;
        }
    }

    int
    pool_slot(const std::vector<float>& lanes)
    {
        // Deduplicate identical literal vectors in the pool.
        auto it = pool_memo_.find(lanes);
        if (it != pool_memo_.end()) {
            return it->second;
        }
        const int addr = layout_.add_pool_constant(lanes);
        pool_memo_.emplace(lanes, addr);
        return addr;
    }

    const VProgram& vp_;
    CompiledLayout& layout_;
    const TargetSpec& target_;
    int width_;
    ProgramBuilder pb_;
    std::unordered_map<int, int> s_regs_;
    std::unordered_map<int, int> v_regs_;
    std::vector<int> last_use_s_;
    std::vector<int> last_use_v_;
    std::map<std::vector<float>, int> pool_memo_;
};

}  // namespace

Program
emit_machine(const VProgram& program, CompiledLayout& layout,
             const TargetSpec& target, EmitTrace* trace)
{
    DIOS_FAULT_POINT("emit.machine");
    Emitter emitter(program, layout, target);
    // Compiled kernels are straight-line: list-schedule to hide operand
    // latencies, as the vendor toolchain would (paper §4 delegates this
    // to xt-xcc).
    Program raw = emitter.run();
    if (trace == nullptr) {
        return schedule_program(raw, target);
    }
    Program scheduled = schedule_program(raw, target, &trace->schedule);
    trace->unscheduled = std::move(raw);
    return scheduled;
}

}  // namespace diospyros::vir
