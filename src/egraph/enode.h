/**
 * @file
 * E-nodes: operator applications over e-class ids.
 *
 * An e-node is a DSL operator plus payload (constant value / symbol /
 * Get index) whose children are e-classes rather than terms. Hash-consing
 * e-nodes is what gives the e-graph its compact representation of
 * exponentially many equivalent programs (paper §3.3).
 *
 * Two shapes: `ENode` owns its children and is the value type passed to
 * EGraph::add()/lookup() and held by patterns; `ENodeView` borrows them
 * and is how the e-graph hands out the nodes it stores (each stored once,
 * children in one shared pool — see egraph.h).
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "egraph/union_find.h"
#include "ir/term.h"
#include "support/hash.h"

namespace diospyros {

/** An operator application over e-class children. */
struct ENode {
    Op op = Op::kConst;
    /** Payload for kConst. */
    Rational value;
    /** Payload for kSymbol / kGet / kCall. */
    Symbol symbol;
    /** Payload for kGet. */
    std::int64_t index = 0;
    std::vector<ClassId> children;

    /** Leaf constructors. */
    static ENode
    make_const(Rational v)
    {
        ENode n;
        n.op = Op::kConst;
        n.value = v;
        return n;
    }

    static ENode
    make_symbol(Symbol s)
    {
        ENode n;
        n.op = Op::kSymbol;
        n.symbol = s;
        return n;
    }

    static ENode
    make_get(Symbol array, std::int64_t idx)
    {
        ENode n;
        n.op = Op::kGet;
        n.symbol = array;
        n.index = idx;
        return n;
    }

    static ENode
    make_call(Symbol fn, std::vector<ClassId> args)
    {
        ENode n;
        n.op = Op::kCall;
        n.symbol = fn;
        n.children = std::move(args);
        return n;
    }

    static ENode
    make(Op op, std::vector<ClassId> kids)
    {
        ENode n;
        n.op = op;
        n.children = std::move(kids);
        return n;
    }

    /** Rewrites children to their canonical representatives. */
    void
    canonicalize(UnionFind& uf)
    {
        for (ClassId& c : children) {
            c = uf.find(c);
        }
    }

    bool operator==(const ENode& o) const;

    /** Debug rendering, e.g. "(+ c3 c7)". */
    std::string to_string() const;
};

/**
 * A borrowed e-node: op and payload by value, children as a span. Valid
 * until the graph it came from next adds a node (the child pool may
 * move); copy what must outlive an add().
 */
struct ENodeView {
    Op op = Op::kConst;
    Rational value;
    Symbol symbol;
    std::int64_t index = 0;
    std::span<const ClassId> children;

    ENodeView() = default;

    ENodeView(const ENode& n)  // NOLINT(implicit): ENode is-a node too
        : op(n.op),
          value(n.value),
          symbol(n.symbol),
          index(n.index),
          children(n.children)
    {
    }

    /** Same operator, payload and child ids. */
    bool
    same_as(const ENodeView& o) const
    {
        return op == o.op && value == o.value && symbol == o.symbol &&
               index == o.index &&
               std::equal(children.begin(), children.end(),
                          o.children.begin(), o.children.end());
    }

    /** An owning copy. */
    ENode
    to_enode() const
    {
        ENode n;
        n.op = op;
        n.value = value;
        n.symbol = symbol;
        n.index = index;
        n.children.assign(children.begin(), children.end());
        return n;
    }

    /** Debug rendering, e.g. "(+ c3 c7)". */
    std::string
    to_string() const
    {
        std::string out = "(";
        out += op_name(op);
        if (op == Op::kConst) {
            out += ' ';
            out += value.to_string();
        }
        if (symbol.valid()) {
            out += ' ';
            out += symbol.str();
        }
        if (op == Op::kGet) {
            out += ' ';
            out += std::to_string(index);
        }
        for (const ClassId c : children) {
            out += " c" + std::to_string(c);
        }
        out += ')';
        return out;
    }
};

/** Content hash of an e-node: the hashcons key of the e-graph. */
inline std::size_t
enode_hash(const ENodeView& n)
{
    std::size_t seed = 0;
    hash_combine(seed, static_cast<int>(n.op));
    hash_combine(seed, n.value);
    hash_combine(seed, n.symbol.id());
    hash_combine(seed, n.index);
    return hash_range(n.children.begin(), n.children.end(), seed);
}

inline bool
ENode::operator==(const ENode& o) const
{
    return ENodeView(*this).same_as(o);
}

inline std::string
ENode::to_string() const
{
    return ENodeView(*this).to_string();
}

/** Hash for hash-consing e-nodes. */
struct ENodeHash {
    std::size_t
    operator()(const ENode& n) const
    {
        return enode_hash(n);
    }
};

}  // namespace diospyros
