/**
 * @file
 * Syntactic rewrite patterns and e-matching.
 *
 * Patterns are written in the same s-expression syntax as terms, with
 * `?x`-style pattern variables, e.g. `(VecAdd ?a (VecMul ?b ?c))`.
 * e-matching enumerates every substitution (pattern variable -> e-class)
 * under which an e-class contains the pattern (paper §3.3; egg's pattern
 * DSL).
 */
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "egraph/egraph.h"

namespace diospyros {

/**
 * A substitution from pattern variables to e-classes.
 *
 * Substitutions are tiny (a handful of variables), so bindings live in a
 * fixed inline array — no heap allocation on the e-matching hot path —
 * with a heap overflow only for pathological patterns. The matcher binds
 * and unbinds in LIFO order (backtracking), so truncate() suffices to
 * undo.
 */
class Subst {
  public:
    using Binding = std::pair<Symbol, ClassId>;

    /** Class bound to a variable, or nullopt. */
    std::optional<ClassId>
    find(Symbol var) const
    {
        for (std::size_t i = 0; i < size_; ++i) {
            const Binding& b = (*this)[i];
            if (b.first == var) {
                return b.second;
            }
        }
        return std::nullopt;
    }

    void
    bind(Symbol var, ClassId id)
    {
        if (size_ < kInline) {
            inline_[size_] = Binding{var, id};
        } else {
            overflow_.emplace_back(var, id);
        }
        ++size_;
    }

    /** Drops bindings back to a previous size() (backtracking undo). */
    void
    truncate(std::size_t n)
    {
        if (size_ > kInline) {
            overflow_.resize(n > kInline ? n - kInline : 0);
        }
        size_ = n;
    }

    std::size_t size() const { return size_; }

    const Binding&
    operator[](std::size_t i) const
    {
        return i < kInline ? inline_[i] : overflow_[i - kInline];
    }

    /** Materialized copy of all bindings, in binding order. */
    std::vector<Binding>
    bindings() const
    {
        std::vector<Binding> out;
        out.reserve(size_);
        for (std::size_t i = 0; i < size_; ++i) {
            out.push_back((*this)[i]);
        }
        return out;
    }

  private:
    /** Covers every shipped pattern (≤3 variables) without spilling. */
    static constexpr std::size_t kInline = 4;

    std::array<Binding, kInline> inline_{};
    std::vector<Binding> overflow_;
    std::size_t size_ = 0;
};

/** One place a rule fired: the matched class plus variable bindings. */
struct RuleMatch {
    ClassId root;
    Subst subst;
};

class PatternNode;
using PatternRef = std::shared_ptr<const PatternNode>;

/** One node of a pattern tree. */
class PatternNode {
  public:
    enum class Kind {
        kVar,       ///< `?x`: matches any e-class, consistently
        kOperator,  ///< operator application with sub-patterns
    };

    static PatternRef var(Symbol name);
    static PatternRef op_node(ENode prototype,
                              std::vector<PatternRef> children);

    Kind kind() const { return kind_; }
    Symbol var_name() const { return var_; }
    const ENode& prototype() const { return proto_; }
    const std::vector<PatternRef>& children() const { return children_; }

    std::string to_string() const;

  private:
    PatternNode() = default;

    Kind kind_ = Kind::kVar;
    Symbol var_;
    /** For kOperator: op + payload template (children ignored). */
    ENode proto_;
    std::vector<PatternRef> children_;
};

/** A complete pattern with its variable list (in first-occurrence order). */
class Pattern {
  public:
    /** Parses pattern text, e.g. "(+ ?a (* ?b ?c))". */
    static Pattern parse(const std::string& text);

    const PatternRef& root() const { return root_; }
    const std::vector<Symbol>& variables() const { return vars_; }
    std::string to_string() const { return root_->to_string(); }

    /**
     * Appends a RuleMatch rooted at `id` for every substitution under
     * which `id` contains this pattern, in enumeration order (depth-first,
     * children left to right, class nodes in storage order). Requires a
     * clean (rebuilt) e-graph.
     */
    void search(const EGraph& graph, ClassId id,
                std::vector<RuleMatch>& out) const;

    /**
     * Instantiates the pattern under a substitution, adding any new nodes,
     * and returns the resulting class. All pattern variables must be bound.
     */
    ClassId instantiate(EGraph& graph, const Subst& subst) const;

  private:
    Pattern() = default;

    PatternRef root_;
    std::vector<Symbol> vars_;
};

}  // namespace diospyros
