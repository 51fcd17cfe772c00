#include "egraph/rewrite.h"

namespace diospyros {

namespace {

std::vector<RuleMatch>
search_over(const Searcher& searcher, const EGraph& graph,
            const std::vector<ClassId>& ids)
{
    std::vector<RuleMatch> out;
    for (const ClassId id : ids) {
        searcher.search_class(graph, id, out);
    }
    return out;
}

}  // namespace

std::vector<RuleMatch>
Searcher::search(const EGraph& graph) const
{
    if (const std::optional<Op> op = root_op()) {
        return search_over(*this, graph, graph.classes_with_op(*op));
    }
    return search_over(*this, graph, graph.class_ids());
}

std::vector<RuleMatch>
Searcher::search_naive(const EGraph& graph) const
{
    return search_over(*this, graph, graph.class_ids());
}

void
PatternSearcher::search_class(const EGraph& graph, ClassId id,
                              std::vector<RuleMatch>& out) const
{
    pattern_.search(graph, id, out);
}

std::optional<Op>
PatternSearcher::root_op() const
{
    if (pattern_.root()->kind() == PatternNode::Kind::kOperator) {
        return pattern_.root()->prototype().op;
    }
    return std::nullopt;
}

bool
PatternApplier::apply(EGraph& graph, const RuleMatch& match) const
{
    const ClassId rhs = pattern_.instantiate(graph, match);
    return graph.merge(match.root, rhs);
}

namespace {

/**
 * Forwards to an inner searcher but reports no root op, forcing search()
 * down the full-scan path regardless of what the inner searcher indexes.
 */
class NaiveSearchAdapter : public Searcher {
  public:
    explicit NaiveSearchAdapter(std::shared_ptr<const Searcher> inner)
        : inner_(std::move(inner))
    {
    }

    void
    search_class(const EGraph& graph, ClassId id,
                 std::vector<RuleMatch>& out) const override
    {
        inner_->search_class(graph, id, out);
    }

  private:
    std::shared_ptr<const Searcher> inner_;
};

}  // namespace

Rewrite
Rewrite::with_naive_search() const
{
    return Rewrite(name_, std::make_shared<NaiveSearchAdapter>(searcher_),
                   applier_);
}

Rewrite
Rewrite::make(const std::string& name, const std::string& lhs,
              const std::string& rhs)
{
    Pattern lhs_pat = Pattern::parse(lhs);
    Pattern rhs_pat = Pattern::parse(rhs, &lhs_pat);
    return Rewrite(name,
                   std::make_shared<PatternSearcher>(std::move(lhs_pat)),
                   std::make_shared<PatternApplier>(std::move(rhs_pat)));
}

std::vector<Rewrite>
Rewrite::make_bidirectional(const std::string& name, const std::string& lhs,
                            const std::string& rhs)
{
    std::vector<Rewrite> out;
    out.push_back(make(name + "-fwd", lhs, rhs));
    out.push_back(make(name + "-rev", rhs, lhs));
    return out;
}

}  // namespace diospyros
