/**
 * @file
 * Extraction of the cheapest represented program (paper §3.4).
 *
 * The cost model assigns each e-node an additive cost on top of its
 * children's costs and may inspect the *classes* of the children (but not
 * the choice of node within them) — this keeps extraction a linear-time
 * bottom-up fixpoint while still letting the Vec cost depend on lane
 * provenance (single-array shuffles cheaper than cross-array gathers).
 * Strict monotonicity (every node adds > 0) is what the paper requires of
 * its cost models.
 */
#pragma once

#include <limits>
#include <memory>
#include <vector>

#include "egraph/egraph.h"
#include "support/deadline.h"

namespace diospyros {

/** Additive, class-aware node cost. */
class CostModel {
  public:
    virtual ~CostModel() = default;

    /**
     * The cost this node adds on top of the sum of its children's best
     * costs. Must be strictly positive for extraction to terminate with
     * meaningful costs on cyclic e-graphs.
     */
    virtual double node_cost(const EGraph& graph,
                             const ENodeView& node) const = 0;
};

/** Counts every node as 1 (extracts the smallest tree). */
class TreeSizeCost : public CostModel {
  public:
    double
    node_cost(const EGraph&, const ENodeView&) const override
    {
        return 1.0;
    }
};

/** Result of extraction: the chosen term and its modeled cost. */
struct Extraction {
    TermRef term;
    double cost = std::numeric_limits<double>::infinity();
};

/** Bottom-up optimal extraction under a CostModel. */
class Extractor {
  public:
    /**
     * Computes best costs for every class reachable in the graph.
     * Requires a clean (rebuilt) graph, which must outlive the extractor
     * and stay unchanged while it is used. The compile-wide `deadline` is
     * checked once per relaxation pass (each pass is linear in the
     * e-graph, so large partial graphs cannot run away unbounded);
     * expiry raises DeadlineExceeded.
     */
    Extractor(const EGraph& graph, const CostModel& cost,
              const Deadline& deadline = {});

    /** Best cost of a class (infinity if unrealizable). */
    double class_cost(ClassId id) const;

    /** Extracts the best term rooted at `id`. */
    Extraction extract(ClassId id) const;

  private:
    static constexpr NodeId kNoChoice = 0xffffffffu;

    struct Choice {
        double cost = std::numeric_limits<double>::infinity();
        /** The best node of the class, or kNoChoice. */
        NodeId node = kNoChoice;
    };

    /** The choice for a class id (any member of the class). */
    const Choice& choice(ClassId id) const;

    const EGraph& graph_;
    /** Indexed by canonical ClassId. */
    std::vector<Choice> best_;
};

}  // namespace diospyros
