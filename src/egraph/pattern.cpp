#include "egraph/pattern.h"

#include <algorithm>
#include <array>
#include <utility>

#include "support/error.h"
#include "support/sexpr.h"

namespace diospyros {

PatternRef
PatternNode::var(Symbol name, std::size_t slot)
{
    auto n = std::shared_ptr<PatternNode>(new PatternNode());
    n->kind_ = Kind::kVar;
    n->var_ = name;
    n->slot_ = slot;
    return n;
}

PatternRef
PatternNode::op_node(ENode prototype, std::vector<PatternRef> children)
{
    auto n = std::shared_ptr<PatternNode>(new PatternNode());
    n->kind_ = Kind::kOperator;
    n->proto_ = std::move(prototype);
    n->children_ = std::move(children);
    return n;
}

std::string
PatternNode::to_string() const
{
    if (kind_ == Kind::kVar) {
        return "?" + var_.str();
    }
    if (proto_.op == Op::kConst) {
        return proto_.value.to_string();
    }
    if (proto_.op == Op::kSymbol) {
        return proto_.symbol.str();
    }
    std::string out = "(";
    out += op_name(proto_.op);
    if (proto_.op == Op::kGet) {
        out += ' ' + proto_.symbol.str() + ' ' +
               std::to_string(proto_.index);
    }
    if (proto_.op == Op::kCall) {
        out += ' ' + proto_.symbol.str();
    }
    for (const PatternRef& c : children_) {
        out += ' ' + c->to_string();
    }
    out += ')';
    return out;
}

namespace {

bool
is_pattern_var(const std::string& token)
{
    return token.size() >= 2 && token[0] == '?';
}

/** `vars` is the slot table; `lhs` is set when parsing a right-hand side. */
PatternRef
pattern_from_sexpr(const Sexpr& s, std::vector<Symbol>& vars,
                   const Pattern* lhs)
{
    if (s.is_atom()) {
        const std::string& tok = s.token();
        if (is_pattern_var(tok)) {
            const Symbol v{tok.substr(1)};
            const auto it = std::find(vars.begin(), vars.end(), v);
            if (it != vars.end()) {
                return PatternNode::var(
                    v, static_cast<std::size_t>(it - vars.begin()));
            }
            DIOS_CHECK(lhs == nullptr, "right-hand-side variable " + tok +
                                           " is not bound by " +
                                           lhs->to_string());
            DIOS_CHECK(vars.size() < kMaxPatternVars,
                       "pattern binds more than " +
                           std::to_string(kMaxPatternVars) +
                           " variables: " + tok);
            vars.push_back(v);
            return PatternNode::var(v, vars.size() - 1);
        }
        if (s.is_integer()) {
            return PatternNode::op_node(
                ENode::make_const(Rational(s.as_integer())), {});
        }
        return PatternNode::op_node(ENode::make_symbol(Symbol(tok)), {});
    }
    DIOS_CHECK(s.size() >= 1 && s[0].is_atom(),
               "pattern list must start with an operator");
    const std::string& head = s[0].token();
    if (head == "Get") {
        DIOS_CHECK(s.size() == 3 && s[1].is_atom() && s[2].is_integer(),
                   "pattern Get expects (Get <array> <index>)");
        return PatternNode::op_node(
            ENode::make_get(Symbol(s[1].token()), s[2].as_integer()), {});
    }
    const Op op = op_from_name(head);
    ENode proto;
    std::size_t first_child = 1;
    if (op == Op::kCall) {
        DIOS_CHECK(s.size() >= 2 && s[1].is_atom(),
                   "pattern Call expects (Call <fn> args...)");
        proto = ENode::make_call(Symbol(s[1].token()), {});
        first_child = 2;
    } else {
        proto = ENode::make(op, {});
    }
    std::vector<PatternRef> children;
    for (std::size_t i = first_child; i < s.size(); ++i) {
        children.push_back(pattern_from_sexpr(s[i], vars, lhs));
    }
    return PatternNode::op_node(std::move(proto), std::move(children));
}

/** True when an e-node's operator and payload match a pattern prototype. */
bool
prototype_matches(const ENode& proto, const ENodeView& node,
                  std::size_t pattern_arity)
{
    if (proto.op != node.op || node.children.size() != pattern_arity) {
        return false;
    }
    switch (proto.op) {
      case Op::kConst:
        return proto.value == node.value;
      case Op::kSymbol:
      case Op::kCall:
        return proto.symbol == node.symbol;
      case Op::kGet:
        return proto.symbol == node.symbol && proto.index == node.index;
      default:
        return true;
    }
}

/**
 * Backtracking e-matcher. Goals still to be solved form an intrusive
 * stack-allocated list (`Pending`); one RuleMatch is threaded through the
 * whole search with a bitmask of its bound slots. A branch binds a slot
 * only in the mask it passes down, so backtracking needs no undo. Each
 * complete match is appended straight to the caller's buffer.
 * Enumeration order: depth-first, children left to right, class nodes in
 * storage order.
 */
struct Pending {
    const PatternNode* pattern;
    ClassId cls;
    const Pending* rest;
};

void
solve(const EGraph& graph, const Pending* goals, RuleMatch& match,
      unsigned bound, std::vector<RuleMatch>& out)
{
    if (goals == nullptr) {
        out.push_back(match);
        return;
    }
    const PatternNode& pattern = *goals->pattern;
    const ClassId id = graph.find_const(goals->cls);
    if (pattern.kind() == PatternNode::Kind::kVar) {
        const std::size_t slot = pattern.slot();
        const unsigned bit = 1u << slot;
        if ((bound & bit) == 0) {
            match.vars[slot] = id;
            solve(graph, goals->rest, match, bound | bit, out);
        } else if (graph.find_const(match.vars[slot]) == id) {
            solve(graph, goals->rest, match, bound, out);
        }
        return;
    }
    if (!graph.has_op(id, pattern.prototype().op)) {
        return;
    }
    const std::size_t arity = pattern.children().size();
    // Continuation frames for this operator's children; reused across the
    // node loop (each recursive solve() completes before the next node).
    std::array<Pending, 8> frame_buf;
    std::vector<Pending> frame_heap;
    Pending* frames = frame_buf.data();
    if (arity > frame_buf.size()) {
        frame_heap.resize(arity);
        frames = frame_heap.data();
    }
    for (const ENodeView node : graph.class_nodes(id)) {
        if (!prototype_matches(pattern.prototype(), node, arity)) {
            continue;
        }
        if (arity == 0) {
            solve(graph, goals->rest, match, bound, out);
            continue;
        }
        for (std::size_t i = 0; i < arity; ++i) {
            frames[i].pattern = pattern.children()[i].get();
            frames[i].cls = node.children[i];
            frames[i].rest = i + 1 < arity ? &frames[i + 1] : goals->rest;
        }
        solve(graph, frames, match, bound, out);
    }
}

ClassId
instantiate_node(EGraph& graph, const PatternRef& pattern,
                 const RuleMatch& match)
{
    if (pattern->kind() == PatternNode::Kind::kVar) {
        return match.vars[pattern->slot()];
    }
    ENode node = pattern->prototype();
    node.children.clear();
    node.children.reserve(pattern->children().size());
    for (const PatternRef& c : pattern->children()) {
        node.children.push_back(instantiate_node(graph, c, match));
    }
    return graph.add(std::move(node));
}

}  // namespace

Pattern
Pattern::parse(const std::string& text, const Pattern* lhs)
{
    Pattern p;
    if (lhs != nullptr) {
        p.vars_ = lhs->vars_;
    }
    p.root_ = pattern_from_sexpr(parse_sexpr(text), p.vars_, lhs);
    return p;
}

void
Pattern::search(const EGraph& graph, ClassId id,
                std::vector<RuleMatch>& out) const
{
    RuleMatch match{id, {}};
    const Pending root_goal{root_.get(), id, nullptr};
    solve(graph, &root_goal, match, 0, out);
}

ClassId
Pattern::instantiate(EGraph& graph, const RuleMatch& match) const
{
    return instantiate_node(graph, root_, match);
}

}  // namespace diospyros
