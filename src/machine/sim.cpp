#include "machine/sim.h"

#include <algorithm>
#include <cmath>

#include "support/error.h"

namespace diospyros {

int
Memory::alloc(const std::string& name, std::size_t words)
{
    DIOS_CHECK(!segments_.count(name),
               "memory segment already exists: " + name);
    Segment seg{static_cast<int>(data_.size()), words};
    segments_.emplace(name, seg);
    data_.resize(data_.size() + words, 0.0f);
    return seg.base;
}

int
Memory::alloc(const std::string& name, const std::vector<float>& values)
{
    const int base = alloc(name, values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
        data_[static_cast<std::size_t>(base) + i] = values[i];
    }
    return base;
}

int
Memory::base(const std::string& name) const
{
    auto it = segments_.find(name);
    DIOS_CHECK(it != segments_.end(), "no memory segment named " + name);
    return it->second.base;
}

std::vector<float>
Memory::read(const std::string& name) const
{
    auto it = segments_.find(name);
    DIOS_CHECK(it != segments_.end(), "no memory segment named " + name);
    const auto first =
        data_.begin() + static_cast<std::ptrdiff_t>(it->second.base);
    return {first, first + static_cast<std::ptrdiff_t>(it->second.words)};
}

void
Memory::write(const std::string& name, const std::vector<float>& values)
{
    auto it = segments_.find(name);
    DIOS_CHECK(it != segments_.end(), "no memory segment named " + name);
    DIOS_CHECK(values.size() == it->second.words,
               "segment size mismatch on write to " + name);
    for (std::size_t i = 0; i < values.size(); ++i) {
        data_[static_cast<std::size_t>(it->second.base) + i] = values[i];
    }
}

float&
Memory::at(std::size_t addr)
{
    DIOS_CHECK(addr < data_.size(), "memory access out of bounds");
    return data_[addr];
}

float
Memory::at(std::size_t addr) const
{
    DIOS_CHECK(addr < data_.size(), "memory access out of bounds");
    return data_[addr];
}

namespace {

/** One lane of `op`; `d` is the destination's old value. */
float
lane_value(LaneOp op, float d, float a, float b)
{
    switch (op) {
      case LaneOp::kAdd:
        return a + b;
      case LaneOp::kSub:
        return a - b;
      case LaneOp::kMul:
        return a * b;
      case LaneOp::kDiv:
        return a / b;
      case LaneOp::kNeg:
        return -a;
      case LaneOp::kSqrt:
        return std::sqrt(a);
      case LaneOp::kSgn:
        return static_cast<float>((a > 0.0f) - (a < 0.0f));
      case LaneOp::kRecip:
        return 1.0f / a;
      case LaneOp::kMac:
        return d + a * b;
      case LaneOp::kNone:
        break;
    }
    throw InternalError("simulator: not a lane operation");
}

}  // namespace

RunResult
Simulator::run(const Program& program, Memory& memory,
               std::uint64_t max_instructions) const
{
    const int width = spec_.vector_width;
    check_vector_width(width);

    std::vector<std::int64_t> iregs(
        static_cast<std::size_t>(program.num_int_regs) + 1, 0);
    std::vector<float> fregs(
        static_cast<std::size_t>(program.num_float_regs) + 1, 0.0f);
    std::vector<std::array<float, kMaxVectorWidth>> vregs(
        static_cast<std::size_t>(program.num_vec_regs) + 1);
    for (auto& v : vregs) {
        v.fill(0.0f);
    }

    // Scoreboard: cycle at which each register's value becomes usable,
    // per file (indexed by RegFile).
    std::vector<std::uint64_t> ready[4] = {
        {}, std::vector<std::uint64_t>(iregs.size(), 0),
        std::vector<std::uint64_t>(fregs.size(), 0),
        std::vector<std::uint64_t>(vregs.size(), 0)};
    // Issue state: current bundle cycle, slots consumed in it, and which
    // functional units it already occupies (one instruction per unit).
    const int issue_width = std::max(1, spec_.issue_width);
    std::uint64_t cur_cycle = 0;
    int slots_used = 0;
    bool unit_used[kNumFunctionalUnits] = {};
    std::uint64_t last_completion = 0;
    auto open_bundle = [&](std::uint64_t cycle) {
        cur_cycle = cycle;
        slots_used = 0;
        for (bool& u : unit_used) {
            u = false;
        }
    };

    RunResult result;
    std::size_t pc = 0;

    auto effective_addr = [&](const Instr& i) -> std::size_t {
        std::int64_t addr = i.imm;
        if (i.a >= 0) {
            addr += iregs[static_cast<std::size_t>(i.a)];
        }
        DIOS_CHECK(addr >= 0, "negative memory address");
        return static_cast<std::size_t>(addr);
    };

    auto finish = [&]() {
        result.cycles = last_completion;
        return result;
    };

    while (pc < program.code.size()) {
        const Instr& i = program.code[pc];
        ++result.instructions;
        DIOS_CHECK(result.instructions <= max_instructions,
                   "instruction budget exceeded (runaway loop?)");
        ++result.op_counts[static_cast<int>(i.op)];
        std::size_t next_pc = pc + 1;

        // --- Timing: in-order (multi-)issue with operand stalls. -------
        const InstrPorts p = instr_ports(i);
        std::uint64_t t = cur_cycle;
        for_each_read(p, [&](RegFile file, int r) {
            t = std::max(t, ready[static_cast<int>(file)]
                                 [static_cast<std::size_t>(r)]);
        });
        // Operand-wait stalls are measured against the first cycle a
        // slot could have been free, so bundle turnover is not counted.
        const int unit = static_cast<int>(functional_unit(i.op));
        const bool bundle_full =
            slots_used >= issue_width || unit_used[unit];
        const std::uint64_t earliest_slot =
            bundle_full ? cur_cycle + 1 : cur_cycle;
        if (t > earliest_slot) {
            result.stall_cycles += t - earliest_slot;
        }
        // Find the first cycle >= t with a free slot and a free unit.
        if (t > cur_cycle) {
            open_bundle(t);
        }
        while (slots_used >= issue_width || unit_used[unit]) {
            open_bundle(cur_cycle + 1);
        }
        ++slots_used;
        unit_used[unit] = true;
        t = cur_cycle;
        const auto latency = static_cast<std::uint64_t>(spec_.cost(i.op));
        const std::uint64_t completion = t + latency;
        if (p.dst >= 0) {
            ready[p.dst_file][static_cast<std::size_t>(p.dst)] = completion;
        }
        if (i.op != Opcode::kHalt) {
            last_completion = std::max(last_completion, completion);
        }

        // --- Semantics. --------------------------------------------------
        auto ir = [&](int idx) -> std::int64_t& {
            return iregs[static_cast<std::size_t>(idx)];
        };
        auto fr = [&](int idx) -> float& {
            return fregs[static_cast<std::size_t>(idx)];
        };
        auto vr = [&](int idx) -> std::array<float, kMaxVectorWidth>& {
            return vregs[static_cast<std::size_t>(idx)];
        };
        auto take_branch = [&](std::size_t target) {
            next_pc = target;
            // Taken branch: the pipeline refills; the next bundle starts
            // after the penalty.
            open_bundle(cur_cycle + 1 +
                        static_cast<std::uint64_t>(
                            spec_.taken_branch_penalty));
        };

        const OpcodeInfo& o = opcode_info(i.op);
        if (o.lane != LaneOp::kNone) {
            // One register, or every lane; lane l reads only lane l, so
            // a destination may alias a source.
            const bool vec = o.dst == RegFile::kVector;
            float* d = vec ? vr(i.dst).data() : &fr(i.dst);
            const float* a = vec ? vr(i.a).data() : &fr(i.a);
            const float* b = o.b == RegFile::kNone ? a
                             : vec                 ? vr(i.b).data()
                                                   : &fr(i.b);
            for (int l = 0; l < (vec ? width : 1); ++l) {
                d[l] = lane_value(o.lane, d[l], a[l], b[l]);
            }
            pc = next_pc;
            continue;
        }
        switch (i.op) {
          case Opcode::kMovI:
            ir(i.dst) = i.imm;
            break;
          case Opcode::kAddI:
            ir(i.dst) = ir(i.a) + i.imm;
            break;
          case Opcode::kIAdd:
            ir(i.dst) = ir(i.a) + ir(i.b);
            break;
          case Opcode::kIMul:
            ir(i.dst) = ir(i.a) * ir(i.b);
            break;
          case Opcode::kIMulI:
            ir(i.dst) = ir(i.a) * i.imm;
            break;
          case Opcode::kFLoad:
            fr(i.dst) = memory.at(effective_addr(i));
            break;
          case Opcode::kFStore:
            memory.at(effective_addr(i)) = fr(i.b);
            break;
          case Opcode::kFMovI:
            fr(i.dst) = i.fimm;
            break;
          case Opcode::kFMov:
            fr(i.dst) = fr(i.a);
            break;
          case Opcode::kVLoad: {
            const std::size_t addr = effective_addr(i);
            auto& d = vr(i.dst);
            for (int l = 0; l < width; ++l) {
                d[static_cast<std::size_t>(l)] =
                    memory.at(addr + static_cast<std::size_t>(l));
            }
            break;
          }
          case Opcode::kVStore: {
            const std::size_t addr = effective_addr(i);
            const auto& s = vr(i.b);
            for (int l = 0; l < width; ++l) {
                memory.at(addr + static_cast<std::size_t>(l)) =
                    s[static_cast<std::size_t>(l)];
            }
            break;
          }
          case Opcode::kVSplat: {
            auto& d = vr(i.dst);
            for (int l = 0; l < width; ++l) {
                d[static_cast<std::size_t>(l)] = i.fimm;
            }
            break;
          }
          case Opcode::kVSplatR: {
            auto& d = vr(i.dst);
            for (int l = 0; l < width; ++l) {
                d[static_cast<std::size_t>(l)] = fr(i.a);
            }
            break;
          }
          case Opcode::kShuf: {
            const auto a = vr(i.a);
            auto& d = vr(i.dst);
            for (int l = 0; l < width; ++l) {
                const int lane = i.lanes[static_cast<std::size_t>(l)];
                DIOS_CHECK(lane >= 0 && lane < width,
                           "shuf lane index out of range");
                d[static_cast<std::size_t>(l)] =
                    a[static_cast<std::size_t>(lane)];
            }
            break;
          }
          case Opcode::kSel: {
            const auto a = vr(i.a);
            const auto b = vr(i.b);
            auto& d = vr(i.dst);
            for (int l = 0; l < width; ++l) {
                const int lane = i.lanes[static_cast<std::size_t>(l)];
                DIOS_CHECK(lane >= 0 && lane < 2 * width,
                           "sel lane index out of range");
                d[static_cast<std::size_t>(l)] =
                    lane < width
                        ? a[static_cast<std::size_t>(lane)]
                        : b[static_cast<std::size_t>(lane - width)];
            }
            break;
          }
          case Opcode::kVInsert:
            DIOS_CHECK(i.imm >= 0 && i.imm < width,
                       "vinsert lane out of range");
            vr(i.dst)[static_cast<std::size_t>(i.imm)] = fr(i.a);
            break;
          case Opcode::kVExtract:
            DIOS_CHECK(i.imm >= 0 && i.imm < width,
                       "vextract lane out of range");
            fr(i.dst) = vr(i.a)[static_cast<std::size_t>(i.imm)];
            break;
          case Opcode::kJump:
            take_branch(static_cast<std::size_t>(i.imm));
            break;
          case Opcode::kBranchLt:
            if (ir(i.a) < ir(i.b)) {
                take_branch(static_cast<std::size_t>(i.imm));
            }
            break;
          case Opcode::kBranchGe:
            if (ir(i.a) >= ir(i.b)) {
                take_branch(static_cast<std::size_t>(i.imm));
            }
            break;
          case Opcode::kHalt:
            return finish();
          default:
            throw InternalError(std::string("simulator: no semantics for ") +
                                opcode_name(i.op));
        }
        pc = next_pc;
    }
    return finish();
}

}  // namespace diospyros
