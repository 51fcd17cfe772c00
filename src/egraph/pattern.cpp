#include "egraph/pattern.h"

#include <array>
#include <utility>

#include "support/error.h"
#include "support/sexpr.h"

namespace diospyros {

PatternRef
PatternNode::var(Symbol name)
{
    auto n = std::shared_ptr<PatternNode>(new PatternNode());
    n->kind_ = Kind::kVar;
    n->var_ = name;
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

PatternRef
pattern_from_sexpr(const Sexpr& s, std::vector<Symbol>& vars)
{
    auto note_var = [&vars](Symbol v) {
        for (const Symbol existing : vars) {
            if (existing == v) {
                return;
            }
        }
        vars.push_back(v);
    };

    if (s.is_atom()) {
        const std::string& tok = s.token();
        if (is_pattern_var(tok)) {
            const Symbol v{tok.substr(1)};
            note_var(v);
            return PatternNode::var(v);
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
        children.push_back(pattern_from_sexpr(s[i], vars));
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
 * stack-allocated list (`Pending`); a single mutable Subst is threaded
 * through the whole search, bindings undone via truncate() when a branch
 * is exhausted. Each complete match is appended straight to the caller's
 * buffer as a RuleMatch — the Subst is copied exactly once, into it.
 * Enumeration order (depth-first, children left to right, class nodes in
 * storage order) matches the old matcher exactly.
 */
struct Pending {
    const PatternNode* pattern;
    ClassId cls;
    const Pending* rest;
};

void
solve(const EGraph& graph, const Pending* goals, Subst& subst, ClassId root,
      std::vector<RuleMatch>& out)
{
    if (goals == nullptr) {
        out.push_back(RuleMatch{root, subst});
        return;
    }
    const PatternNode& pattern = *goals->pattern;
    const ClassId id = graph.find_const(goals->cls);
    if (pattern.kind() == PatternNode::Kind::kVar) {
        if (auto bound = subst.find(pattern.var_name())) {
            if (graph.find_const(*bound) == id) {
                solve(graph, goals->rest, subst, root, out);
            }
            return;
        }
        const std::size_t mark = subst.size();
        subst.bind(pattern.var_name(), id);
        solve(graph, goals->rest, subst, root, out);
        subst.truncate(mark);
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
            solve(graph, goals->rest, subst, root, out);
            continue;
        }
        for (std::size_t i = 0; i < arity; ++i) {
            frames[i].pattern = pattern.children()[i].get();
            frames[i].cls = node.children[i];
            frames[i].rest = i + 1 < arity ? &frames[i + 1] : goals->rest;
        }
        solve(graph, frames, subst, root, out);
    }
}

ClassId
instantiate_node(EGraph& graph, const PatternRef& pattern,
                 const Subst& subst)
{
    if (pattern->kind() == PatternNode::Kind::kVar) {
        auto bound = subst.find(pattern->var_name());
        DIOS_ASSERT(bound.has_value(),
                    "unbound pattern variable during instantiation: " +
                        pattern->var_name().str());
        return *bound;
    }
    ENode node = pattern->prototype();
    node.children.clear();
    node.children.reserve(pattern->children().size());
    for (const PatternRef& c : pattern->children()) {
        node.children.push_back(instantiate_node(graph, c, subst));
    }
    return graph.add(std::move(node));
}

}  // namespace

Pattern
Pattern::parse(const std::string& text)
{
    Pattern p;
    p.root_ = pattern_from_sexpr(parse_sexpr(text), p.vars_);
    return p;
}

void
Pattern::search(const EGraph& graph, ClassId id,
                std::vector<RuleMatch>& out) const
{
    Subst subst;
    const Pending root_goal{root_.get(), id, nullptr};
    solve(graph, &root_goal, subst, id, out);
}

ClassId
Pattern::instantiate(EGraph& graph, const Subst& subst) const
{
    return instantiate_node(graph, root_, subst);
}

}  // namespace diospyros
