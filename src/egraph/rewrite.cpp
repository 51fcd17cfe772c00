#include "egraph/rewrite.h"

#include <algorithm>

namespace diospyros {

namespace {

/** Searches the classes of `ids` that `keep` accepts, in order. */
template <typename Keep>
std::vector<RuleMatch>
search_over(const Searcher& searcher, const EGraph& graph,
            const std::vector<ClassId>& ids, Keep keep)
{
    std::vector<RuleMatch> out;
    for (const ClassId id : ids) {
        if (keep(id)) {
            searcher.search_class(graph, id, out);
        }
    }
    return out;
}

constexpr auto kEvery = [](ClassId) { return true; };

/** Longest chain of operator nodes from the root down to a leaf. */
int
operator_depth(const PatternNode& node)
{
    if (node.kind() == PatternNode::Kind::kVar) {
        return 0;
    }
    int below = 0;
    for (const PatternRef& child : node.children()) {
        below = std::max(below, operator_depth(*child));
    }
    return below + 1;
}

}  // namespace

std::vector<RuleMatch>
Searcher::search(const EGraph& graph) const
{
    if (const std::optional<Op> op = root_op()) {
        return search_over(*this, graph, graph.classes_with_op(*op), kEvery);
    }
    return search_over(*this, graph, graph.class_ids(), kEvery);
}

std::vector<RuleMatch>
Searcher::search_dirty(const EGraph& graph,
                       const std::vector<std::uint8_t>& level) const
{
    const int d = depth();
    if (d <= 0) {
        return search(graph);
    }
    auto keep = [&](ClassId id) { return level[id] < d; };
    if (const std::optional<Op> op = root_op()) {
        return search_over(*this, graph, graph.classes_with_op(*op), keep);
    }
    return search_over(*this, graph, graph.class_ids(), keep);
}

std::vector<RuleMatch>
Searcher::search_naive(const EGraph& graph) const
{
    return search_over(*this, graph, graph.class_ids(), kEvery);
}

PatternSearcher::PatternSearcher(Pattern pattern)
    : pattern_(std::move(pattern)), depth_(operator_depth(*pattern_.root()))
{
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
