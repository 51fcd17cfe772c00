#include "egraph/runner.h"

#include <algorithm>
#include <cstdint>
#include <optional>

#include "support/faults.h"
#include "support/timer.h"

namespace diospyros {

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
        // Dirty levels for the `since` value they were computed at; every
        // rule shares one `since` unless a cut batch held some back.
        std::vector<std::uint8_t> level;
        std::uint32_t level_since = 0;
        auto levels_for = [&](std::uint32_t from) -> const auto& {
            if (level_since != from) {
                graph.dirty_levels(from, max_depth, level);
                level_since = from;
            }
            return level;
        };

        // Phase 1: search every rule against the clean graph, so all rules
        // see the same snapshot (no phase ordering within an iteration).
        // `search_truncated` records that the time budget or deadline cut
        // this phase short — an iteration that then changes nothing must
        // NOT be reported as saturation (unsearched rules may still match).
        bool search_truncated = false;
        // complete[r]: rule r was searched and kept every match it found.
        std::vector<char> complete(rules.size(), 0);
        std::vector<std::vector<RuleMatch>> all_matches;
        all_matches.reserve(rules.size());
        for (std::size_t r = 0; r < rules.size(); ++r) {
            RuleStats& rule = report.rule_stats[r];
            if (iter < rule.banned_until) {
                ++stats.banned_rules;
                all_matches.emplace_back();
                continue;
            }
            Timer search_timer;
            const Searcher& searcher = rules[r].searcher();
            std::vector<RuleMatch> matches =
                incremental(r)
                    ? searcher.search_dirty(graph, levels_for(since[r]))
                    : searcher.search(graph);
            rule.search_seconds += search_timer.elapsed_seconds();
            const std::size_t found = matches.size();
            matches.resize(backoff_admit(limits_, rule, iter, found));
            complete[r] = matches.size() == found;
            stats.matches += matches.size();
            rule.matches += matches.size();
            all_matches.push_back(std::move(matches));
            if (total.elapsed_seconds() > limits_.time_limit_seconds ||
                deadline.expired()) {
                search_truncated = r + 1 < rules.size();
                break;
            }
        }

#ifndef NDEBUG
        // Debug builds check the semi-naive search against a full one
        // while the graph is still clean: the incremental matches must be
        // the full matches at dirty roots, in order, and every match it
        // skipped must already hold, so applying it changes nothing. (On
        // the dirty graph of phase 2 a stale hashcons key could make a
        // repeat add a node.)
        for (std::size_t r = 0; r < all_matches.size(); ++r) {
            if (!incremental(r)) {
                continue;
            }
            const int depth = rules[r].searcher().depth();
            const std::vector<std::uint8_t>& dirty = levels_for(since[r]);
            std::size_t kept = 0;
            for (const RuleMatch& match : rules[r].searcher().search(graph)) {
                if (dirty[match.root] < depth) {
                    DIOS_ASSERT(kept < all_matches[r].size() &&
                                    all_matches[r][kept].root == match.root &&
                                    all_matches[r][kept].vars == match.vars,
                                "semi-naive search lost a match of " +
                                    rules[r].name());
                    ++kept;
                    continue;
                }
                const std::size_t nodes = graph.num_nodes();
                DIOS_ASSERT(!rules[r].applier().apply(graph, match) &&
                                graph.num_nodes() == nodes,
                            "semi-naive search skipped a live match of " +
                                rules[r].name());
            }
            DIOS_ASSERT(kept == all_matches[r].size(),
                        "semi-naive search invented a match of " +
                            rules[r].name());
        }
#endif
        std::vector<std::uint8_t>().swap(level);

        // Phase 2: apply everything that was found. A rule whose whole
        // batch was applied moves its `since` to this generation; a batch
        // cut by the watchdog keeps it.
        bool tripped = false;
        for (std::size_t r = 0; r < all_matches.size() && !tripped; ++r) {
            Timer apply_timer;
            std::size_t applied = 0;
            for (const RuleMatch& match : all_matches[r]) {
                if (rules[r].applier().apply(graph, match)) {
                    ++stats.applications;
                    ++report.rule_stats[r].applications;
                }
                if (++applied % kWatchdogStride == 0 &&
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
            if (complete[r] && applied == all_matches[r].size()) {
                since[r] = generation;
            }
            if (over_budget()) {
                break;
            }
        }

        // Phase 3: one batched congruence restoration.
        graph.rebuild();
#ifndef NDEBUG
        // Debug builds re-verify the e-graph invariants after every
        // rebuild (hashcons, congruence, canonical ids).
        graph.check_invariants();
#endif

        stats.nodes_after = graph.num_nodes();
        stats.classes_after = graph.num_classes();
        report.iterations.push_back(stats);

        const bool changed = graph.union_count() != unions_before ||
                             graph.num_nodes() != nodes_before;
        // A budget trip outranks saturation: when the time limit or the
        // deadline cut phase 1 short, "nothing changed" only means the
        // *searched* prefix of the rule set found nothing — unsearched
        // rules may still match, so reporting kSaturated here would be a
        // lie the caller acts on (it skips degradation for "complete"
        // runs). Check the budget first.
        if (const auto reason = over_budget()) {
            report.stop_reason = *reason;
            break;
        }
        if (!changed && !search_truncated && stats.banned_rules == 0) {
            report.stop_reason = StopReason::kSaturated;
            break;
        }
        if (search_truncated) {
            // Defensive backstop: phase 1 tripped on time/deadline, yet
            // over_budget() no longer agrees (unreachable while both
            // signals stay monotone). Still not saturation.
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
