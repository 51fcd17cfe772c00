#include "egraph/runner.h"

#include <algorithm>
#include <cstdint>
#include <optional>

#include "support/faults.h"
#include "support/timer.h"

namespace diospyros {

namespace {

#ifndef NDEBUG
/**
 * Debug builds check each semi-naive search against a full one on the
 * graph it read, before any batch is applied to that graph: the
 * incremental matches `found` must be the full matches at dirty roots,
 * in order, and every match it skipped must already hold, so applying it
 * changes nothing. (On a graph with batches applied a stale hashcons key
 * could make a repeat add a node.)
 */
void
check_semi_naive(EGraph& graph, const Rewrite& rule,
                 const std::vector<std::uint8_t>& dirty,
                 const std::vector<RuleMatch>& found)
{
    const int depth = rule.searcher().depth();
    std::size_t kept = 0;
    for (const RuleMatch& match : rule.searcher().search(graph)) {
        if (dirty[match.root] < depth) {
            DIOS_ASSERT(kept < found.size() &&
                            found[kept].root == match.root &&
                            found[kept].vars == match.vars,
                        "semi-naive search lost a match of " + rule.name());
            ++kept;
            continue;
        }
        const std::size_t nodes = graph.num_nodes();
        DIOS_ASSERT(!rule.applier().apply(graph, match) &&
                        graph.num_nodes() == nodes,
                    "semi-naive search skipped a live match of " +
                        rule.name());
    }
    DIOS_ASSERT(kept == found.size(),
                "semi-naive search invented a match of " + rule.name());
}
#endif

}  // namespace

const char*
stop_reason_name(StopReason r)
{
    switch (r) {
      case StopReason::kSaturated:
        return "saturated";
      case StopReason::kNodeLimit:
        return "node-limit";
      case StopReason::kIterLimit:
        return "iter-limit";
      case StopReason::kTimeLimit:
        return "time-limit";
      case StopReason::kMemoryLimit:
        return "memory-limit";
      case StopReason::kDeadline:
        return "deadline";
      case StopReason::kGoalReached:
        return "goal-reached";
    }
    return "unknown";
}

RuleStats&
RuleStats::operator+=(const RuleStats& other)
{
    matches += other.matches;
    applications += other.applications;
    search_seconds += other.search_seconds;
    apply_seconds += other.apply_seconds;
    times_banned += other.times_banned;
    banned_until = std::max(banned_until, other.banned_until);
    return *this;
}

std::size_t
backoff_admit(const RunnerLimits& limits, RuleStats& rule, int iter,
              std::size_t found)
{
    std::size_t allowed = found;
    if (limits.backoff_threshold != 0 && found > limits.backoff_threshold) {
        // Ban for a geometrically growing window and keep only the
        // threshold's worth of matches this round.
        ++rule.times_banned;
        rule.banned_until = iter + 1 + (1 << std::min(rule.times_banned, 10));
        allowed = limits.backoff_threshold;
    }
    if (limits.match_limit_per_rule != 0 &&
        allowed > limits.match_limit_per_rule) {
        allowed = limits.match_limit_per_rule;
    }
    return allowed;
}

RunnerReport
Runner::run(EGraph& graph, const std::vector<Rewrite>& rules,
            const Deadline& deadline) const
{
    RunnerReport report;
    Timer total;
    graph.rebuild();

    // An empty iteration budget means the budget — not saturation —
    // stopped the run; the untouched graph is still valid for extraction.
    if (limits_.iter_limit <= 0) {
        report.stop_reason = StopReason::kIterLimit;
    }

    // Watchdog, in historical priority order. The node-limit check runs
    // per rule batch (as it always has, so partial-saturation e-graph
    // sizes are reproducible); the memory and deadline checks also run
    // every `kWatchdogStride` applications *within* a batch so one
    // explosive rule cannot blow past the ceilings unchecked.
    auto over_budget = [&]() -> std::optional<StopReason> {
        if (graph.num_nodes() > limits_.node_limit) {
            return StopReason::kNodeLimit;
        }
        if (total.elapsed_seconds() > limits_.time_limit_seconds) {
            return StopReason::kTimeLimit;
        }
        if (deadline.expired()) {
            return StopReason::kDeadline;
        }
        if (limits_.memory_limit_bytes != 0 &&
            graph.memory_proxy_bytes() > limits_.memory_limit_bytes) {
            return StopReason::kMemoryLimit;
        }
        return std::nullopt;
    };
    constexpr std::size_t kWatchdogStride = 1024;

    report.rule_stats.resize(rules.size());
    for (std::size_t r = 0; r < rules.size(); ++r) {
        report.rule_stats[r].name = rules[r].name();
    }

    // Semi-naive search (DESIGN.md "Semi-naive search"). `since[r]` is
    // the generation of rule r's last search whose matches were all
    // applied; 0 means search the whole graph. Backoff and the match cap
    // drop matches unapplied, and the ban schedule counts them, so
    // either one keeps every search full.
    const bool semi_naive =
        limits_.backoff_threshold == 0 && limits_.match_limit_per_rule == 0;
    std::vector<std::uint32_t> since(rules.size(), 0);
    auto narrowable = [](const Rewrite& rule) {
        const int depth = rule.searcher().depth();
        return depth > 0 && depth < 0xff;  // levels are bytes
    };
    int max_depth = 0;
    for (const Rewrite& rule : rules) {
        if (narrowable(rule)) {
            max_depth = std::max(max_depth, rule.searcher().depth());
        }
    }
    auto incremental = [&](std::size_t r) {
        return semi_naive && since[r] != 0 && narrowable(rules[r]);
    };

    for (int iter = 0; iter < limits_.iter_limit; ++iter) {
        DIOS_FAULT_POINT("runner.iter");
        IterationStats stats;
        const std::size_t unions_before = graph.union_count();
        const std::size_t nodes_before = graph.num_nodes();
        const std::uint32_t generation = graph.next_generation();
        // Nodes the graph may still gain before the node limit trips.
        const std::size_t headroom =
            limits_.node_limit - std::min(limits_.node_limit, nodes_before);

        // Every rule searches the graph as it was when the iteration
        // began (no phase ordering within an iteration): `clean` is the
        // graph itself until a batch is applied early, and from then on a
        // snapshot taken just before (see take_snapshot).
        std::optional<EGraph> snapshot;
        EGraph* clean = &graph;
        // Dirty levels for the `since` value they were computed at; every
        // rule shares one `since` unless a cut batch held some back.
        std::vector<std::uint8_t> level;
        std::uint32_t level_since = 0;
        auto levels_for = [&](std::uint32_t from) -> const auto& {
            if (level_since != from) {
                clean->dirty_levels(from, max_depth, level);
                level_since = from;
            }
            return level;
        };

        // batches[r]: the matches rule r keeps, until they are applied.
        // complete[r]: rule r was searched and kept every match it found.
        std::vector<std::vector<RuleMatch>> batches(rules.size());
        std::vector<char> complete(rules.size(), 0);
        // Matches kept this iteration so far.
        std::size_t found_so_far = 0;

        // Searches rule r on `clean` into batches[r]. Returns false when
        // the time budget or the deadline has run out.
        auto search = [&](std::size_t r) {
            RuleStats& rule = report.rule_stats[r];
            if (iter < rule.banned_until) {
                ++stats.banned_rules;
                return true;
            }
            Timer search_timer;
            const Searcher& searcher = rules[r].searcher();
            std::vector<RuleMatch>& matches = batches[r];
            matches =
                incremental(r)
                    ? searcher.search_dirty(*clean, levels_for(since[r]))
                    : searcher.search(*clean);
            rule.search_seconds += search_timer.elapsed_seconds();
#ifndef NDEBUG
            if (incremental(r)) {
                check_semi_naive(*clean, rules[r], levels_for(since[r]),
                                 matches);
            }
#endif
            const std::size_t found = matches.size();
            matches.resize(backoff_admit(limits_, rule, iter, found));
            complete[r] = matches.size() == found;
            stats.matches += matches.size();
            rule.matches += matches.size();
            found_so_far += matches.size();
            return total.elapsed_seconds() <= limits_.time_limit_seconds &&
                   !deadline.expired();
        };

        // Applies batches [applied, end) in rule order, each followed by
        // the budget check, and frees each one. A rule whose whole batch
        // was applied moves its `since` to this generation; a batch cut by
        // the watchdog keeps it. `tripped`: a budget ran out, and nothing
        // more is applied this iteration.
        std::size_t applied = 0;
        bool tripped = false;
        auto apply_through = [&](std::size_t end) {
            for (; applied < end && !tripped; ++applied) {
                const std::size_t r = applied;
                Timer apply_timer;
                std::size_t done = 0;
                for (const RuleMatch& match : batches[r]) {
                    if (rules[r].applier().apply(graph, match)) {
                        ++stats.applications;
                        ++report.rule_stats[r].applications;
                    }
                    if (++done % kWatchdogStride == 0 &&
                        (deadline.expired() ||
                         (limits_.memory_limit_bytes != 0 &&
                          graph.memory_proxy_bytes() >
                              limits_.memory_limit_bytes))) {
                        tripped = true;
                        break;
                    }
                }
                report.rule_stats[r].apply_seconds +=
                    apply_timer.elapsed_seconds();
                if (complete[r] && done == batches[r].size()) {
                    since[r] = generation;
                }
                std::vector<RuleMatch>().swap(batches[r]);
                tripped = tripped || over_budget().has_value();
            }
        };

        // Early apply at the node limit (DESIGN.md §5f). Once the matches
        // found this iteration outnumber the nodes the limit has room for,
        // applying them is likely to trip it, and every search after the
        // tripping batch would be wasted. So the remaining rules search a
        // copy of the clean graph, and each pending batch is applied to
        // the graph before the next search starts: a trip then ends the
        // search phase. The batches, their order and the graph they were
        // found on are those of a search-everything-first iteration. The
        // op-index lists the remaining searches read are compacted on the
        // graph before the copy, as searching the graph would have left it.
        auto take_snapshot = [&](std::size_t first) {
            for (std::size_t r = first; r < rules.size(); ++r) {
                const std::optional<Op> op = rules[r].searcher().root_op();
                if (op && iter >= report.rule_stats[r].banned_until) {
                    graph.classes_with_op(*op);
                }
            }
            snapshot.emplace(graph);
            clean = &*snapshot;
        };

        // Search every rule, applying early once the snapshot is taken.
        // `search_truncated` records that the time budget or deadline cut
        // the search phase short — an iteration that then changes nothing
        // must NOT be reported as saturation (unsearched rules may still
        // match).
        bool search_truncated = false;
        std::size_t searched = 0;
        while (searched < rules.size() && !search_truncated) {
            if (!snapshot && found_so_far > headroom) {
                take_snapshot(searched);
            }
            if (snapshot) {
                apply_through(searched);
                if (tripped) {
                    break;
                }
            }
            search_truncated =
                !search(searched++) && searched < rules.size();
        }
        apply_through(searched);

        // One batched congruence restoration.
        graph.rebuild();
#ifndef NDEBUG
        // Debug builds re-verify the e-graph invariants after every
        // rebuild (hashcons, congruence, canonical ids).
        graph.check_invariants();
#endif

        // An early trip left rules unsearched. Of the budgets only the
        // memory ceiling can clear again in rebuild; when it has, the run
        // goes on, and those rules are searched on the snapshot for their
        // backoff and statistics, as they would have been had every rule
        // been searched before the first batch was applied.
        if (!over_budget()) {
            while (searched < rules.size() && !search_truncated) {
                search_truncated =
                    !search(searched++) && searched < rules.size();
            }
        }

        stats.nodes_after = graph.num_nodes();
        stats.classes_after = graph.num_classes();
        report.iterations.push_back(stats);

        const bool changed = graph.union_count() != unions_before ||
                             graph.num_nodes() != nodes_before;
        // A budget trip outranks saturation: when the time limit or the
        // deadline cut the search phase short, "nothing changed" only
        // means the *searched* prefix of the rule set found nothing —
        // unsearched rules may still match, so reporting kSaturated here
        // would be a lie the caller acts on (it skips degradation for
        // "complete" runs). Check the budget first.
        if (const auto reason = over_budget()) {
            report.stop_reason = *reason;
            break;
        }
        if (!changed && !search_truncated && stats.banned_rules == 0) {
            report.stop_reason = StopReason::kSaturated;
            break;
        }
        if (search_truncated) {
            // Defensive backstop: the search phase tripped on time or
            // the deadline, yet over_budget() no longer agrees
            // (unreachable while both signals stay monotone). Still not
            // saturation.
            report.stop_reason = StopReason::kTimeLimit;
            break;
        }
        if (iter + 1 == limits_.iter_limit) {
            report.stop_reason = StopReason::kIterLimit;
        }
    }

    report.total_seconds = total.elapsed_seconds();
    report.final_nodes = graph.num_nodes();
    report.final_classes = graph.num_classes();
    return report;
}

}  // namespace diospyros
