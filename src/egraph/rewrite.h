/**
 * @file
 * Rewrite rules: a named searcher/applier pair (mirrors egg's design,
 * paper §3.3).
 *
 * Simple syntactic rules are built from two patterns; the vectorization
 * rules that need lane-wise "operator-or-zero" matching (paper §3.3,
 * "Custom matching for vectorization") implement Searcher/Applier
 * directly — see src/rules/.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "egraph/pattern.h"

namespace diospyros {

/** Finds instances of a rule's left-hand side. */
class Searcher {
  public:
    virtual ~Searcher() = default;

    /**
     * Matches within one e-class, appended to `out` (the rule's one match
     * buffer for the whole search).
     */
    virtual void search_class(const EGraph& graph, ClassId id,
                              std::vector<RuleMatch>& out) const = 0;

    /**
     * Operator that any matched class must contain at its root, or
     * nullopt when no single operator gates the match. When present,
     * search() consults the e-graph's op-index and visits only
     * EGraph::classes_with_op(*root_op()) — the e-matching fast path —
     * instead of scanning every class. The index preserves class_ids()
     * order and has no false negatives, so the match set is identical to
     * a full scan.
     */
    virtual std::optional<Op> root_op() const { return std::nullopt; }

    /**
     * How many levels of classes a match reads, counting its root as
     * level 1: a match rooted at R may depend on R's nodes, the nodes of
     * the classes their children name, and so on down depth() levels,
     * and on the ids of the classes one level further down. Nothing
     * deeper, and nothing that is not reached through child lists. The
     * applier at the same site must read no more. 0 means unknown: the
     * runner then always searches the whole graph.
     */
    virtual int depth() const { return 0; }

    /**
     * Matches across the whole graph: the op-indexed subset when
     * root_op() names one, else every class.
     */
    std::vector<RuleMatch> search(const EGraph& graph) const;

    /**
     * Semi-naive search: search() restricted to the candidates whose
     * entry in `level` (EGraph::dirty_levels) is below depth(), in the
     * same order. Any other candidate reads only classes untouched since
     * the generation `level` was computed for.
     */
    std::vector<RuleMatch>
    search_dirty(const EGraph& graph,
                 const std::vector<std::uint8_t>& level) const;

    /**
     * Full-scan reference search: every class, ignoring the op-index.
     * Kept for differential testing and benchmarking against search().
     */
    std::vector<RuleMatch> search_naive(const EGraph& graph) const;
};

/** Applies a rule's right-hand side at a match site. */
class Applier {
  public:
    virtual ~Applier() = default;

    /**
     * Adds the rewritten program and merges it with the matched class.
     * Returns true if the e-graph changed.
     */
    virtual bool apply(EGraph& graph, const RuleMatch& match) const = 0;
};

/** Searcher driven by a syntactic pattern. */
class PatternSearcher : public Searcher {
  public:
    explicit PatternSearcher(Pattern pattern);

    void search_class(const EGraph& graph, ClassId id,
                      std::vector<RuleMatch>& out) const override;

    /** The root prototype's operator, when the root is not a variable. */
    std::optional<Op> root_op() const override;

    /** Operator depth of the pattern: `(+ ?a 0)` is 2, `?a` is 0. */
    int depth() const override { return depth_; }

    const Pattern& pattern() const { return pattern_; }

  private:
    Pattern pattern_;
    int depth_;
};

/** Applier driven by a syntactic pattern. */
class PatternApplier : public Applier {
  public:
    explicit PatternApplier(Pattern pattern)
        : pattern_(std::move(pattern))
    {
    }

    bool apply(EGraph& graph, const RuleMatch& match) const override;

    const Pattern& pattern() const { return pattern_; }

  private:
    Pattern pattern_;
};

/** A named rewrite rule. */
class Rewrite {
  public:
    Rewrite(std::string name, std::shared_ptr<const Searcher> searcher,
            std::shared_ptr<const Applier> applier)
        : name_(std::move(name)),
          searcher_(std::move(searcher)),
          applier_(std::move(applier))
    {
    }

    /** Builds a unidirectional syntactic rule lhs ⇝ rhs. */
    static Rewrite make(const std::string& name, const std::string& lhs,
                        const std::string& rhs);

    /** Builds both directions of lhs ↭ rhs (names suffixed -fwd/-rev). */
    static std::vector<Rewrite> make_bidirectional(const std::string& name,
                                                   const std::string& lhs,
                                                   const std::string& rhs);

    const std::string& name() const { return name_; }
    const Searcher& searcher() const { return *searcher_; }
    const Applier& applier() const { return *applier_; }

    /**
     * A copy of this rule whose searcher ignores the op-index (reports no
     * root_op(), so search() takes the full-scan path) and reports no
     * depth(), so the runner never narrows it to changed classes. For
     * differential tests and the naive-vs-indexed benchmarks; semantics
     * are identical.
     */
    Rewrite with_naive_search() const;

  private:
    std::string name_;
    std::shared_ptr<const Searcher> searcher_;
    std::shared_ptr<const Applier> applier_;
};

}  // namespace diospyros
