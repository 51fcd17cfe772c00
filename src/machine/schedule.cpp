#include "machine/schedule.h"

#include <algorithm>
#include <queue>
#include <unordered_map>
#include <vector>

#include "support/error.h"

namespace diospyros {

namespace {

struct Dag {
    /** (successor, min issue distance) edges. */
    std::vector<std::vector<std::pair<int, int>>> succs;
    std::vector<int> indegree;
};

}  // namespace

Program
schedule_program(const Program& program, const TargetSpec& spec,
                 ScheduleStats* stats)
{
    if (stats != nullptr) {
        *stats = ScheduleStats{};
    }

    // Only fully unrolled kernels qualify: no control flow, absolute
    // memory addressing, at most one trailing halt.
    std::size_t body_len = program.code.size();
    if (body_len > 0 && program.code.back().op == Opcode::kHalt) {
        --body_len;
    }
    for (std::size_t i = 0; i < body_len; ++i) {
        const Instr& instr = program.code[i];
        if (is_control(instr.op) || instr.op == Opcode::kHalt) {
            return program;
        }
        if (is_memory_op(instr.op) && instr.a >= 0) {
            return program;
        }
    }
    const int n = static_cast<int>(body_len);
    if (n <= 1) {
        return program;
    }

    // --- Build the dependence DAG. ---------------------------------------
    Dag dag;
    dag.succs.resize(static_cast<std::size_t>(n));
    dag.indegree.assign(static_cast<std::size_t>(n), 0);
    auto add_edge = [&dag](int from, int to, int weight) {
        dag.succs[static_cast<std::size_t>(from)].emplace_back(to, weight);
        ++dag.indegree[static_cast<std::size_t>(to)];
    };

    // Register dependences. Key = file * 2^24 + index.
    struct RegState {
        int last_writer = -1;
        std::vector<int> readers;
    };
    std::unordered_map<int, RegState> regs;
    auto reg_key = [](int file, int idx) { return (file << 24) | idx; };

    // Memory dependences, tracked per word address.
    struct MemState {
        int last_writer = -1;
        std::vector<int> readers;
    };
    std::unordered_map<int, MemState> mem;

    for (int i = 0; i < n; ++i) {
        const Instr& instr = program.code[static_cast<std::size_t>(i)];
        const InstrPorts p = instr_ports(instr);

        for_each_read(p, [&](RegFile file, int idx) {
            RegState& st = regs[reg_key(static_cast<int>(file), idx)];
            if (st.last_writer >= 0) {
                add_edge(st.last_writer, i,
                         spec.cost(program
                                       .code[static_cast<std::size_t>(
                                           st.last_writer)]
                                       .op));
            }
            st.readers.push_back(i);
        });

        if (p.dst >= 0) {
            RegState& st = regs[reg_key(p.dst_file, p.dst)];
            if (st.last_writer >= 0 && st.last_writer != i) {
                add_edge(st.last_writer, i, 1);  // WAW
            }
            for (const int reader : st.readers) {
                if (reader != i) {
                    add_edge(reader, i, 1);  // WAR
                }
            }
            st.readers.clear();
            st.last_writer = i;
        }

        if (is_memory_read(instr.op)) {
            for (int w = 0; w < access_words(instr.op, spec.vector_width);
                 ++w) {
                MemState& st = mem[instr.imm + w];
                if (st.last_writer >= 0) {
                    add_edge(st.last_writer, i, 1);  // mem RAW
                }
                st.readers.push_back(i);
            }
        } else if (is_memory_write(instr.op)) {
            for (int w = 0; w < access_words(instr.op, spec.vector_width);
                 ++w) {
                MemState& st = mem[instr.imm + w];
                if (st.last_writer >= 0) {
                    add_edge(st.last_writer, i, 1);  // WAW
                }
                for (const int reader : st.readers) {
                    add_edge(reader, i, 1);  // WAR
                }
                st.readers.clear();
                st.last_writer = i;
            }
        }
    }

    // --- Critical-path priorities (longest weighted path to a sink). ----
    std::vector<long long> priority(static_cast<std::size_t>(n), 0);
    for (int i = n; i-- > 0;) {
        long long best = 0;
        for (const auto& [succ, weight] :
             dag.succs[static_cast<std::size_t>(i)]) {
            best = std::max(best,
                            priority[static_cast<std::size_t>(succ)] +
                                weight);
        }
        priority[static_cast<std::size_t>(i)] = best;
    }

    // --- List scheduling. --------------------------------------------------
    std::vector<std::uint64_t> issue(static_cast<std::size_t>(n), 0);
    std::vector<std::uint64_t> earliest(static_cast<std::size_t>(n), 0);
    std::vector<int> indeg = dag.indegree;

    // pending: ordered by earliest start; available: by priority.
    using PendingEntry = std::pair<std::uint64_t, int>;
    std::priority_queue<PendingEntry, std::vector<PendingEntry>,
                        std::greater<>>
        pending;
    using AvailEntry = std::pair<long long, int>;
    std::priority_queue<AvailEntry> available;

    for (int i = 0; i < n; ++i) {
        if (indeg[static_cast<std::size_t>(i)] == 0) {
            pending.emplace(0, i);
        }
    }

    std::vector<int> order;
    order.reserve(static_cast<std::size_t>(n));
    std::uint64_t t = 0;
    while (order.size() < static_cast<std::size_t>(n)) {
        while (!pending.empty() && pending.top().first <= t) {
            const int i = pending.top().second;
            pending.pop();
            available.emplace(priority[static_cast<std::size_t>(i)], i);
        }
        if (available.empty()) {
            DIOS_ASSERT(!pending.empty(), "scheduler deadlock");
            t = pending.top().first;
            continue;
        }
        const int i = available.top().second;
        available.pop();
        issue[static_cast<std::size_t>(i)] = t;
        order.push_back(i);
        t += 1;
        for (const auto& [succ, weight] :
             dag.succs[static_cast<std::size_t>(i)]) {
            auto& e = earliest[static_cast<std::size_t>(succ)];
            e = std::max(e, issue[static_cast<std::size_t>(i)] +
                                static_cast<std::uint64_t>(weight));
            if (--indeg[static_cast<std::size_t>(succ)] == 0) {
                pending.emplace(e, succ);
            }
        }
    }

    Program out = program;
    for (int i = 0; i < n; ++i) {
        out.code[static_cast<std::size_t>(i)] =
            program.code[static_cast<std::size_t>(order[static_cast<
                std::size_t>(i)])];
    }
    if (stats != nullptr) {
        stats->applied = true;
        for (int i = 0; i < n; ++i) {
            stats->moved += order[static_cast<std::size_t>(i)] != i;
        }
        stats->order = order;
    }
    return out;
}

}  // namespace diospyros
