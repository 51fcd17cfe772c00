/**
 * @file
 * Syntactic rewrite patterns and e-matching.
 *
 * Patterns are written in the same s-expression syntax as terms, with
 * `?x`-style pattern variables, e.g. `(VecAdd ?a (VecMul ?b ?c))`.
 * Parsing resolves each variable to a slot, so a match is a root class
 * plus one class id per slot (RuleMatch). e-matching enumerates every
 * binding of the slots under which an e-class contains the pattern
 * (paper §3.3; egg's pattern DSL).
 */
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "egraph/egraph.h"

namespace diospyros {

/**
 * Most distinct variables one pattern may bind. The largest shipped rule
 * binds 3; parsing a pattern with more is a UserError.
 */
inline constexpr std::size_t kMaxPatternVars = 4;

/**
 * One place a rule fired: the matched class, and the class bound to each
 * pattern variable by slot. Unused slots hold 0.
 */
struct RuleMatch {
    ClassId root;
    std::array<ClassId, kMaxPatternVars> vars;
};
static_assert(sizeof(RuleMatch) == 20, "a match is a root plus four ids");

class PatternNode;
using PatternRef = std::shared_ptr<const PatternNode>;

/** One node of a pattern tree. */
class PatternNode {
  public:
    enum class Kind {
        kVar,       ///< `?x`: matches any e-class, consistently
        kOperator,  ///< operator application with sub-patterns
    };

    static PatternRef var(Symbol name, std::size_t slot);
    static PatternRef op_node(ENode prototype,
                              std::vector<PatternRef> children);

    Kind kind() const { return kind_; }
    Symbol var_name() const { return var_; }
    /** For kVar: the variable's slot in RuleMatch::vars. */
    std::size_t slot() const { return slot_; }
    const ENode& prototype() const { return proto_; }
    const std::vector<PatternRef>& children() const { return children_; }

    std::string to_string() const;

  private:
    PatternNode() = default;

    Kind kind_ = Kind::kVar;
    Symbol var_;
    std::size_t slot_ = 0;
    /** For kOperator: op + payload template (children ignored). */
    ENode proto_;
    std::vector<PatternRef> children_;
};

/** A pattern plus its slot table: variables()[i] binds RuleMatch::vars[i]. */
class Pattern {
  public:
    /**
     * Parses pattern text, e.g. "(+ ?a (* ?b ?c))". Variables take slots
     * in first-occurrence order. A right-hand side is parsed against its
     * `lhs`: it shares the lhs's slot table, and a variable the lhs does
     * not bind is a UserError.
     */
    static Pattern parse(const std::string& text,
                         const Pattern* lhs = nullptr);

    const PatternRef& root() const { return root_; }
    const std::vector<Symbol>& variables() const { return vars_; }
    std::string to_string() const { return root_->to_string(); }

    /**
     * Appends a RuleMatch rooted at `id` for every binding of the slots
     * under which `id` contains this pattern, in enumeration order
     * (depth-first, children left to right, class nodes in storage
     * order). Requires a clean (rebuilt) e-graph.
     */
    void search(const EGraph& graph, ClassId id,
                std::vector<RuleMatch>& out) const;

    /**
     * Instantiates the pattern with each variable read from its slot of
     * `match`, adding any new nodes, and returns the resulting class.
     */
    ClassId instantiate(EGraph& graph, const RuleMatch& match) const;

  private:
    Pattern() = default;

    PatternRef root_;
    std::vector<Symbol> vars_;
};

}  // namespace diospyros
