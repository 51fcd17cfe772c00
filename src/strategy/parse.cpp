#include "strategy/parse.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "analysis/diagnostics.h"
#include "support/error.h"
#include "support/sexpr.h"

namespace diospyros::strategy {

namespace {

constexpr const char* kPass = "strategy-parse";

std::optional<Sketch>
sketch_from_sexpr(const Sexpr& e, analysis::DiagEngine& diags)
{
    if (!e.is_list() || e.size() < 1 || !e[0].is_atom()) {
        diags.error(kPass, "S406",
                    "sketch must be (any), (op ...), (contains ...) or "
                    "(vec-of ...), got " +
                        e.to_string());
        return std::nullopt;
    }
    const std::string& head = e[0].token();
    if (head == "any") {
        if (e.size() != 1) {
            diags.error(kPass, "S406", "(any) takes no arguments");
            return std::nullopt;
        }
        return Sketch::any();
    }
    if (head == "contains") {
        if (e.size() != 2) {
            diags.error(kPass, "S406",
                        "(contains ...) takes exactly one sub-sketch");
            return std::nullopt;
        }
        auto inner = sketch_from_sexpr(e[1], diags);
        if (!inner) {
            return std::nullopt;
        }
        return Sketch::contains(std::move(*inner));
    }
    if (head == "op" || head == "vec-of") {
        const bool vec = head == "vec-of";
        if (e.size() < 2 || !e[1].is_atom()) {
            diags.error(kPass, "S406",
                        "(" + head + " ...) needs an operator name");
            return std::nullopt;
        }
        Op op = Op::kConst;
        if (!op_from_token(e[1].token(), vec, op)) {
            diags.error(kPass, "S406",
                        "unknown operator '" + e[1].token() + "' in (" +
                            head + " ...)");
            return std::nullopt;
        }
        std::vector<Sketch> kids;
        for (std::size_t i = 2; i < e.size(); ++i) {
            auto kid = sketch_from_sexpr(e[i], diags);
            if (!kid) {
                return std::nullopt;
            }
            kids.push_back(std::move(*kid));
        }
        return Sketch::of_op(op, std::move(kids));
    }
    diags.error(kPass, "S406", "unknown sketch form '" + head + "'");
    return std::nullopt;
}

/** Reads a non-negative integer clause argument. */
bool
clause_uint(const Sexpr& clause, const char* what, std::int64_t& out,
            analysis::DiagEngine& diags)
{
    if (clause.size() != 2 || !clause[1].is_atom() ||
        !clause[1].is_integer() || clause[1].as_integer() < 0) {
        diags.error(kPass, "S403",
                    std::string("(") + what +
                        " ...) needs one non-negative integer, got " +
                        clause.to_string());
        return false;
    }
    out = clause[1].as_integer();
    return true;
}

/**
 * Reads `(scheduler limits|none|backoff T [C]|match-cap C)` into the
 * phase's backoff pair; `limits` leaves it unset (inherit the base).
 */
bool
scheduler_from_sexpr(const Sexpr& clause,
                     std::optional<PhaseLimits::Backoff>& out,
                     analysis::DiagEngine& diags)
{
    if (clause.size() < 2 || !clause[1].is_atom()) {
        diags.error(kPass, "S405",
                    "(scheduler ...) needs a kind: limits, none, backoff "
                    "or match-cap");
        return false;
    }
    const std::string& kind = clause[1].token();
    if (kind == "limits" || kind == "none") {
        if (clause.size() != 2) {
            diags.error(kPass, "S405",
                        "(scheduler " + kind + ") takes no arguments");
            return false;
        }
        if (kind == "none") {
            out.emplace();
        } else {
            out.reset();
        }
        return true;
    }
    if (kind == "backoff") {
        if (clause.size() < 3 || clause.size() > 4 ||
            !clause[2].is_integer() || clause[2].as_integer() < 0 ||
            (clause.size() == 4 && (!clause[3].is_integer() ||
                                    clause[3].as_integer() < 0))) {
            diags.error(kPass, "S405",
                        "(scheduler backoff <threshold> [<cap>]) needs one "
                        "or two non-negative integers");
            return false;
        }
        out = PhaseLimits::Backoff{
            .backoff_threshold =
                static_cast<std::size_t>(clause[2].as_integer()),
            .match_limit_per_rule =
                clause.size() == 4
                    ? static_cast<std::size_t>(clause[3].as_integer())
                    : 0};
        return true;
    }
    if (kind == "match-cap") {
        if (clause.size() != 3 || !clause[2].is_integer() ||
            clause[2].as_integer() <= 0) {
            diags.error(kPass, "S405",
                        "(scheduler match-cap <cap>) needs one positive "
                        "integer");
            return false;
        }
        out = PhaseLimits::Backoff{
            .match_limit_per_rule =
                static_cast<std::size_t>(clause[2].as_integer())};
        return true;
    }
    diags.error(kPass, "S405", "unknown scheduler kind '" + kind + "'");
    return false;
}

std::optional<Phase>
phase_from_sexpr(const Sexpr& e, analysis::DiagEngine& diags)
{
    if (e.size() < 3 || !e[1].is_atom()) {
        diags.error(kPass, "S401",
                    "phase form must be (phase <name> (rules ...) ...), "
                    "got " +
                        e.to_string());
        return std::nullopt;
    }
    Phase phase;
    phase.name = e[1].token();
    bool saw_rules = false;
    for (std::size_t i = 2; i < e.size(); ++i) {
        const Sexpr& clause = e[i];
        if (!clause.is_list() || clause.size() < 1 || !clause[0].is_atom()) {
            diags.error(kPass, "S402",
                        "phase '" + phase.name + "': expected a (<clause> "
                        "...) list, got " +
                            clause.to_string());
            return std::nullopt;
        }
        const std::string& head = clause[0].token();
        if (head == "rules") {
            if (clause.size() < 2) {
                diags.error(kPass, "S402",
                            "phase '" + phase.name +
                                "': (rules ...) needs at least one rule "
                                "reference");
                return std::nullopt;
            }
            for (std::size_t r = 1; r < clause.size(); ++r) {
                if (!clause[r].is_atom()) {
                    diags.error(kPass, "S402",
                                "phase '" + phase.name +
                                    "': rule references must be atoms");
                    return std::nullopt;
                }
                phase.rules.push_back(clause[r].token());
            }
            saw_rules = true;
        } else if (head == "iters") {
            std::int64_t v = 0;
            if (!clause_uint(clause, "iters", v, diags)) {
                return std::nullopt;
            }
            phase.limits.iter_limit = static_cast<int>(v);
        } else if (head == "nodes") {
            std::int64_t v = 0;
            if (!clause_uint(clause, "nodes", v, diags)) {
                return std::nullopt;
            }
            phase.limits.node_limit = static_cast<std::size_t>(v);
        } else if (head == "memory") {
            std::int64_t v = 0;
            if (!clause_uint(clause, "memory", v, diags)) {
                return std::nullopt;
            }
            phase.limits.memory_limit_bytes = static_cast<std::size_t>(v);
        } else if (head == "timeout") {
            if (clause.size() != 2 || !clause[1].is_atom() ||
                !clause[1].is_number() ||
                !std::isfinite(clause[1].as_number()) ||
                clause[1].as_number() < 0.0) {
                diags.error(kPass, "S403",
                            "(timeout ...) needs one finite non-negative "
                            "number, got " +
                                clause.to_string());
                return std::nullopt;
            }
            phase.limits.time_limit_seconds = clause[1].as_number();
        } else if (head == "scheduler") {
            if (!scheduler_from_sexpr(clause, phase.limits.backoff, diags)) {
                return std::nullopt;
            }
        } else if (head == "until") {
            if (clause.size() != 2) {
                diags.error(kPass, "S402",
                            "phase '" + phase.name +
                                "': (until ...) takes exactly one sketch");
                return std::nullopt;
            }
            auto sketch = sketch_from_sexpr(clause[1], diags);
            if (!sketch) {
                return std::nullopt;
            }
            phase.until = std::move(*sketch);
        } else if (head == "repeat") {
            std::int64_t v = 0;
            if (!clause_uint(clause, "repeat", v, diags)) {
                return std::nullopt;
            }
            if (v < 1) {
                diags.error(kPass, "S403",
                            "(repeat ...) needs a positive integer");
                return std::nullopt;
            }
            phase.repeat = static_cast<int>(v);
        } else if (head == "always") {
            if (clause.size() != 1) {
                diags.error(kPass, "S402", "(always) takes no arguments");
                return std::nullopt;
            }
            phase.always = true;
        } else {
            diags.error(kPass, "S402",
                        "phase '" + phase.name + "': unknown clause '" +
                            head + "'");
            return std::nullopt;
        }
    }
    if (!saw_rules) {
        diags.error(kPass, "S401",
                    "phase '" + phase.name + "' has no (rules ...) clause");
        return std::nullopt;
    }
    return phase;
}

}  // namespace

std::optional<Sketch>
parse_sketch(const std::string& text, analysis::DiagEngine& diags)
{
    Sexpr e = Sexpr::atom("nil");
    try {
        e = parse_sexpr(text);
    } catch (const UserError& err) {
        diags.error(kPass, "S406",
                    std::string("unreadable sketch: ") + err.what());
        return std::nullopt;
    }
    return sketch_from_sexpr(e, diags);
}

std::optional<Strategy>
parse_strategy(const std::string& text, analysis::DiagEngine& diags)
{
    Sexpr e = Sexpr::atom("nil");
    try {
        e = parse_sexpr(text);
    } catch (const UserError& err) {
        diags.error(kPass, "S400",
                    std::string("unreadable strategy: ") + err.what());
        return std::nullopt;
    }
    if (!is_field(e, "strategy") || e.size() < 3 || !e[1].is_atom()) {
        diags.error(kPass, "S400",
                    "expected (strategy <name> (phase ...) ... [(goal "
                    "...)]), got " +
                        e.to_string());
        return std::nullopt;
    }
    Strategy strategy;
    strategy.name = e[1].token();
    for (std::size_t i = 2; i < e.size(); ++i) {
        const Sexpr& form = e[i];
        if (is_field(form, "phase")) {
            auto phase = phase_from_sexpr(form, diags);
            if (!phase) {
                return std::nullopt;
            }
            strategy.phases.push_back(std::move(*phase));
        } else if (is_field(form, "goal")) {
            if (form.size() != 2) {
                diags.error(kPass, "S406",
                            "(goal ...) takes exactly one sketch");
                return std::nullopt;
            }
            if (strategy.goal) {
                diags.error(kPass, "S400",
                            "strategy '" + strategy.name +
                                "' has more than one (goal ...)");
                return std::nullopt;
            }
            auto sketch = sketch_from_sexpr(form[1], diags);
            if (!sketch) {
                return std::nullopt;
            }
            strategy.goal = std::move(*sketch);
        } else {
            diags.error(kPass, "S400",
                        "strategy '" + strategy.name +
                            "': expected (phase ...) or (goal ...), got " +
                            form.to_string());
            return std::nullopt;
        }
    }
    if (strategy.phases.empty()) {
        diags.error(kPass, "S400",
                    "strategy '" + strategy.name + "' has no phases");
        return std::nullopt;
    }
    return strategy;
}

std::optional<Strategy>
load_strategy(const std::string& name_or_path, analysis::DiagEngine& diags)
{
    if (auto builtin = builtin_strategy(name_or_path)) {
        return builtin;
    }
    std::ifstream in(name_or_path);
    if (!in) {
        diags.error(kPass, "S409",
                    "cannot open strategy '" + name_or_path +
                        "' (not a built-in strategy — " +
                        [] {
                            std::string names;
                            for (const std::string& n :
                                 builtin_strategy_names()) {
                                if (!names.empty()) {
                                    names += ", ";
                                }
                                names += n;
                            }
                            return names;
                        }() +
                        " — and not a readable file)");
        return std::nullopt;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return parse_strategy(buf.str(), diags);
}

}  // namespace diospyros::strategy
