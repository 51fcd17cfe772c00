#include "rules/rules.h"

#include <memory>

#include "machine/target.h"
#include "support/error.h"

namespace diospyros {

std::optional<Rational>
class_constant(const EGraph& graph, ClassId id)
{
    const EClass& cls = graph.eclass(id);
    if (cls.constant.has_value()) {
        return cls.constant;
    }
    for (const ENodeView n : graph.class_nodes(id)) {
        if (n.op == Op::kConst) {
            return n.value;
        }
    }
    return std::nullopt;
}

namespace {

bool
is_zero_class(const EGraph& graph, ClassId id)
{
    const auto c = class_constant(graph, id);
    return c.has_value() && c->is_zero();
}

// ---------------------------------------------------------------------------
// List chunking: (List e0 e1 ... eN) = (Concat (Vec e0..eW-1) ...), with
// zero padding in the final chunk (paper §3.2).
// ---------------------------------------------------------------------------

class ListChunkSearcher : public Searcher {
  public:
    void
    search_class(const EGraph& graph, ClassId id,
                 std::vector<RuleMatch>& out) const override
    {
        for (const ENodeView n : graph.class_nodes(id)) {
            if (n.op == Op::kList) {
                out.push_back(RuleMatch{id, {}});
                return;
            }
        }
    }

    std::optional<Op> root_op() const override { return Op::kList; }
};

class ListChunkApplier : public Applier {
  public:
    explicit ListChunkApplier(int width) : width_(width) {}

    bool
    apply(EGraph& graph, const RuleMatch& match) const override
    {
        const ClassId root = graph.find(match.root);
        // Copy the List nodes first: merging mutates the class, and
        // adding nodes moves the graph's child pool.
        std::vector<ENode> lists;
        for (const ENodeView n : graph.class_nodes(root)) {
            if (n.op == Op::kList) {
                lists.push_back(n.to_enode());
            }
        }
        bool changed = false;
        for (const ENode& list : lists) {
            const ClassId zero = graph.add_const(Rational(0));
            // Build right-nested Concats of width-sized Vec chunks.
            std::vector<ClassId> chunks;
            for (std::size_t i = 0; i < list.children.size();
                 i += static_cast<std::size_t>(width_)) {
                std::vector<ClassId> lanes;
                for (int l = 0; l < width_; ++l) {
                    const std::size_t j = i + static_cast<std::size_t>(l);
                    lanes.push_back(j < list.children.size()
                                        ? graph.find(list.children[j])
                                        : zero);
                }
                chunks.push_back(graph.add_op(Op::kVec, std::move(lanes)));
            }
            ClassId result = chunks.back();
            for (std::size_t i = chunks.size() - 1; i-- > 0;) {
                result = graph.add_op(Op::kConcat, {chunks[i], result});
            }
            changed |= graph.merge(root, result);
        }
        return changed;
    }

  private:
    int width_;
};

// ---------------------------------------------------------------------------
// Lane-wise binary lifting:
//   (Vec (op a0 b0) 0 (op a2 b2) x3)
//     = (VecOp (Vec a0 0 a2 x3') (Vec b0 0 b2 y3'))
// where zero lanes pair with identity-preserving constants and — for add
// only — a bare lane x pairs as x (op) 0. At least one lane must contain a
// real operator application (paper §3.3, "custom matching").
// ---------------------------------------------------------------------------

class VecBinaryLiftSearcher : public Searcher {
  public:
    VecBinaryLiftSearcher(Op scalar_op, int width)
        : scalar_op_(scalar_op), width_(width)
    {
    }

    /** Lane decomposition: (a, b) classes, or nothing if the lane blocks. */
    struct LaneMatch {
        ClassId a = 0;
        ClassId b = 0;
        bool real_op = false;
    };

    std::optional<LaneMatch>
    match_lane(const EGraph& graph, ClassId lane) const
    {
        const ClassId id = graph.find_const(lane);
        for (const ENodeView n : graph.class_nodes(id)) {
            if (n.op == scalar_op_ && n.children.size() == 2) {
                return LaneMatch{graph.find_const(n.children[0]),
                                 graph.find_const(n.children[1]), true};
            }
        }
        if (is_zero_class(graph, id)) {
            // 0 = 0 op k, with k chosen so the identity holds.
            return LaneMatch{kZeroMarker, kZeroMarker, false};
        }
        if (scalar_op_ == Op::kAdd || scalar_op_ == Op::kSub) {
            // x = x + 0 = x - 0: bare lanes still vectorize.
            return LaneMatch{id, kZeroMarker, false};
        }
        return std::nullopt;
    }

    void
    search_class(const EGraph& graph, ClassId id,
                 std::vector<RuleMatch>& out) const override
    {
        for (const ENodeView n : graph.class_nodes(id)) {
            if (n.op != Op::kVec ||
                static_cast<int>(n.children.size()) != width_) {
                continue;
            }
            bool all_ok = true;
            int real = 0;
            for (const ClassId lane : n.children) {
                const auto m = match_lane(graph, lane);
                if (!m) {
                    all_ok = false;
                    break;
                }
                real += m->real_op ? 1 : 0;
            }
            if (all_ok && real >= 1) {
                out.push_back(RuleMatch{id, {}});
                return;
            }
        }
    }

    std::optional<Op> root_op() const override { return Op::kVec; }

    /** Sentinel meaning "materialize the appropriate constant here". */
    static constexpr ClassId kZeroMarker = 0xffffffffu;

    Op scalar_op() const { return scalar_op_; }
    int width() const { return width_; }

  private:
    Op scalar_op_;
    int width_;
};

class VecBinaryLiftApplier : public Applier {
  public:
    VecBinaryLiftApplier(Op scalar_op, Op vector_op, int width)
        : searcher_(scalar_op, width), vector_op_(vector_op)
    {
    }

    bool
    apply(EGraph& graph, const RuleMatch& match) const override
    {
        const ClassId root = graph.find(match.root);
        // Copy the Vec nodes first: merging mutates the class, and
        // adding nodes moves the graph's child pool.
        std::vector<ENode> vecs;
        for (const ENodeView n : graph.class_nodes(root)) {
            if (n.op == Op::kVec && static_cast<int>(n.children.size()) ==
                                        searcher_.width()) {
                vecs.push_back(n.to_enode());
            }
        }
        bool changed = false;
        for (const ENode& vec : vecs) {
            std::vector<ClassId> as, bs;
            bool all_ok = true;
            int real = 0;
            for (const ClassId lane : vec.children) {
                const auto m = searcher_.match_lane(graph, lane);
                if (!m) {
                    all_ok = false;
                    break;
                }
                real += m->real_op ? 1 : 0;
                as.push_back(m->a);
                bs.push_back(m->b);
            }
            if (!all_ok || real < 1) {
                continue;
            }
            const ClassId zero = graph.add_const(Rational(0));
            // Neutral element for the second operand of a zero lane:
            // 0 = 0*k and 0 = 0/k need k != 0; pick 1.
            const bool needs_one = searcher_.scalar_op() == Op::kMul ||
                                   searcher_.scalar_op() == Op::kDiv;
            const ClassId pad =
                needs_one ? graph.add_const(Rational(1)) : zero;
            for (std::size_t i = 0; i < as.size(); ++i) {
                if (as[i] == VecBinaryLiftSearcher::kZeroMarker) {
                    as[i] = zero;
                }
                if (bs[i] == VecBinaryLiftSearcher::kZeroMarker) {
                    bs[i] = pad;
                }
            }
            const ClassId va = graph.add_op(Op::kVec, std::move(as));
            const ClassId vb = graph.add_op(Op::kVec, std::move(bs));
            const ClassId result = graph.add_op(vector_op_, {va, vb});
            changed |= graph.merge(root, result);
        }
        return changed;
    }

  private:
    VecBinaryLiftSearcher searcher_;
    Op vector_op_;
};

// ---------------------------------------------------------------------------
// Lane-wise unary lifting: (Vec (op x0) 0 ...) = (VecOp (Vec x0 0 ...)),
// for operators with op(0) = 0 (neg, sgn, sqrt). recip requires every lane
// to be a real application.
// ---------------------------------------------------------------------------

class VecUnaryLiftSearcher : public Searcher {
  public:
    VecUnaryLiftSearcher(Op scalar_op, int width, bool zero_ok)
        : scalar_op_(scalar_op), width_(width), zero_ok_(zero_ok)
    {
    }

    std::optional<ClassId>
    match_lane(const EGraph& graph, ClassId lane, bool* real_op) const
    {
        const ClassId id = graph.find_const(lane);
        for (const ENodeView n : graph.class_nodes(id)) {
            if (n.op == scalar_op_ && n.children.size() == 1) {
                *real_op = true;
                return graph.find_const(n.children[0]);
            }
        }
        if (zero_ok_ && is_zero_class(graph, id)) {
            *real_op = false;
            return std::nullopt;  // caller substitutes zero
        }
        *real_op = false;
        return std::nullopt;
    }

    void
    search_class(const EGraph& graph, ClassId id,
                 std::vector<RuleMatch>& out) const override
    {
        for (const ENodeView n : graph.class_nodes(id)) {
            if (n.op != Op::kVec ||
                static_cast<int>(n.children.size()) != width_) {
                continue;
            }
            bool all_ok = true;
            int real = 0;
            for (const ClassId lane : n.children) {
                bool lane_real = false;
                const auto m = match_lane(graph, lane, &lane_real);
                if (!m && !(zero_ok_ && is_zero_class(graph, lane))) {
                    all_ok = false;
                    break;
                }
                real += lane_real ? 1 : 0;
            }
            if (all_ok && real >= 1) {
                out.push_back(RuleMatch{id, {}});
                return;
            }
        }
    }

    std::optional<Op> root_op() const override { return Op::kVec; }

    Op scalar_op() const { return scalar_op_; }
    int width() const { return width_; }
    bool zero_ok() const { return zero_ok_; }

  private:
    Op scalar_op_;
    int width_;
    bool zero_ok_;
};

class VecUnaryLiftApplier : public Applier {
  public:
    VecUnaryLiftApplier(Op scalar_op, Op vector_op, int width, bool zero_ok)
        : searcher_(scalar_op, width, zero_ok), vector_op_(vector_op)
    {
    }

    bool
    apply(EGraph& graph, const RuleMatch& match) const override
    {
        const ClassId root = graph.find(match.root);
        // Copy the Vec nodes first: merging mutates the class, and
        // adding nodes moves the graph's child pool.
        std::vector<ENode> vecs;
        for (const ENodeView n : graph.class_nodes(root)) {
            if (n.op == Op::kVec && static_cast<int>(n.children.size()) ==
                                        searcher_.width()) {
                vecs.push_back(n.to_enode());
            }
        }
        bool changed = false;
        for (const ENode& vec : vecs) {
            std::vector<ClassId> xs;
            bool all_ok = true;
            int real = 0;
            for (const ClassId lane : vec.children) {
                bool lane_real = false;
                const auto m = searcher_.match_lane(graph, lane,
                                                    &lane_real);
                if (m) {
                    xs.push_back(*m);
                    real += lane_real ? 1 : 0;
                } else if (searcher_.zero_ok() &&
                           is_zero_class(graph, lane)) {
                    xs.push_back(graph.add_const(Rational(0)));
                } else {
                    all_ok = false;
                    break;
                }
            }
            if (!all_ok || real < 1) {
                continue;
            }
            const ClassId vx = graph.add_op(Op::kVec, std::move(xs));
            const ClassId result = graph.add_op(vector_op_, {vx});
            changed |= graph.merge(root, result);
        }
        return changed;
    }

  private:
    VecUnaryLiftSearcher searcher_;
    Op vector_op_;
};

// ---------------------------------------------------------------------------
// The VecMAC custom searcher (paper §3.3, "Associativity & commutativity"):
// each lane independently matches one of
//     (+ a (* b c))   (+ (* b c) a)   (* b c)   x
// mapping missing pieces to zero, and the results are combined into
//     (VecMAC (Vec a...) (Vec b...) (Vec c...)).
// The bare-x fallback keeps irregular lanes vectorizable (x = x + 0*0);
// at least one lane must contribute a real multiply.
// ---------------------------------------------------------------------------

class VecMacSearcher : public Searcher {
  public:
    explicit VecMacSearcher(int width) : width_(width) {}

    struct LaneMatch {
        ClassId acc = 0;
        ClassId b = 0;
        ClassId c = 0;
        bool has_mul = false;
    };

    /** First Mul node in a class, if any. */
    static std::optional<std::pair<ClassId, ClassId>>
    find_mul(const EGraph& graph, ClassId id)
    {
        for (const ENodeView n : graph.class_nodes(id)) {
            if (n.op == Op::kMul && n.children.size() == 2) {
                return std::make_pair(graph.find_const(n.children[0]),
                                      graph.find_const(n.children[1]));
            }
        }
        return std::nullopt;
    }

    LaneMatch
    match_lane(const EGraph& graph, ClassId lane) const
    {
        const ClassId id = graph.find_const(lane);
        // (+ a (* b c)) or (+ (* b c) a): the limited commutativity the
        // paper re-enables inside the custom searcher.
        for (const ENodeView n : graph.class_nodes(id)) {
            if (n.op != Op::kAdd || n.children.size() != 2) {
                continue;
            }
            if (auto mul = find_mul(graph, n.children[1])) {
                return LaneMatch{graph.find_const(n.children[0]),
                                 mul->first, mul->second, true};
            }
            if (auto mul = find_mul(graph, n.children[0])) {
                return LaneMatch{graph.find_const(n.children[1]),
                                 mul->first, mul->second, true};
            }
        }
        // (* b c): acc = 0.
        if (auto mul = find_mul(graph, id)) {
            return LaneMatch{kZeroMarker, mul->first, mul->second, true};
        }
        // Bare lane: x = x + 0 * 0.
        if (is_zero_class(graph, id)) {
            return LaneMatch{kZeroMarker, kZeroMarker, kZeroMarker, false};
        }
        return LaneMatch{id, kZeroMarker, kZeroMarker, false};
    }

    void
    search_class(const EGraph& graph, ClassId id,
                 std::vector<RuleMatch>& out) const override
    {
        for (const ENodeView n : graph.class_nodes(id)) {
            if (n.op != Op::kVec ||
                static_cast<int>(n.children.size()) != width_) {
                continue;
            }
            int real = 0;
            for (const ClassId lane : n.children) {
                real += match_lane(graph, lane).has_mul ? 1 : 0;
            }
            if (real >= 1) {
                out.push_back(RuleMatch{id, {}});
                return;
            }
        }
    }

    std::optional<Op> root_op() const override { return Op::kVec; }

    static constexpr ClassId kZeroMarker = 0xffffffffu;

    int width() const { return width_; }

  private:
    int width_;
};

class VecMacApplier : public Applier {
  public:
    explicit VecMacApplier(int width) : searcher_(width) {}

    bool
    apply(EGraph& graph, const RuleMatch& match) const override
    {
        const ClassId root = graph.find(match.root);
        // Copy the Vec nodes first: merging mutates the class, and
        // adding nodes moves the graph's child pool.
        std::vector<ENode> vecs;
        for (const ENodeView n : graph.class_nodes(root)) {
            if (n.op == Op::kVec && static_cast<int>(n.children.size()) ==
                                        searcher_.width()) {
                vecs.push_back(n.to_enode());
            }
        }
        bool changed = false;
        for (const ENode& vec : vecs) {
            std::vector<ClassId> accs, bs, cs;
            int real = 0;
            for (const ClassId lane : vec.children) {
                const auto m = searcher_.match_lane(graph, lane);
                real += m.has_mul ? 1 : 0;
                accs.push_back(m.acc);
                bs.push_back(m.b);
                cs.push_back(m.c);
            }
            if (real < 1) {
                continue;
            }
            const ClassId zero = graph.add_const(Rational(0));
            auto patch = [zero](std::vector<ClassId>& v) {
                for (ClassId& id : v) {
                    if (id == VecMacSearcher::kZeroMarker) {
                        id = zero;
                    }
                }
            };
            patch(accs);
            patch(bs);
            patch(cs);
            const ClassId va = graph.add_op(Op::kVec, std::move(accs));
            const ClassId vb = graph.add_op(Op::kVec, std::move(bs));
            const ClassId vc = graph.add_op(Op::kVec, std::move(cs));
            const ClassId result =
                graph.add_op(Op::kVecMAC, {va, vb, vc});
            changed |= graph.merge(root, result);
        }
        return changed;
    }

  private:
    VecMacSearcher searcher_;
};

}  // namespace

std::vector<Rewrite>
build_rules(const RuleConfig& config)
{
    std::vector<Rewrite> rules;
    const int w = config.vector_width;
    check_vector_width(w);

    if (config.enable_scalar_rules) {
        rules.push_back(Rewrite::make("add-0", "(+ ?a 0)", "?a"));
        rules.push_back(Rewrite::make("0-add", "(+ 0 ?a)", "?a"));
        rules.push_back(Rewrite::make("sub-0", "(- ?a 0)", "?a"));
        rules.push_back(Rewrite::make("mul-0", "(* ?a 0)", "0"));
        rules.push_back(Rewrite::make("0-mul", "(* 0 ?a)", "0"));
        rules.push_back(Rewrite::make("mul-1", "(* ?a 1)", "?a"));
        rules.push_back(Rewrite::make("1-mul", "(* 1 ?a)", "?a"));
        rules.push_back(Rewrite::make("div-1", "(/ ?a 1)", "?a"));
        rules.push_back(Rewrite::make("sub-self", "(- ?a ?a)", "0"));
        rules.push_back(
            Rewrite::make("neg-as-sub", "(neg ?a)", "(- 0 ?a)"));
        rules.push_back(
            Rewrite::make("sub-as-neg", "(- 0 ?a)", "(neg ?a)"));
        rules.push_back(
            Rewrite::make("neg-neg", "(neg (neg ?a))", "?a"));
        // sub-to-add normalization exposes MAC patterns under -:
        // a - b*c = a + (neg b)*c is not generally profitable without
        // vector neg, so instead expose (- a b) = (+ a (neg b)) both ways.
        rules.push_back(
            Rewrite::make("sub-to-add", "(- ?a ?b)", "(+ ?a (neg ?b))"));
        rules.push_back(
            Rewrite::make("add-to-sub", "(+ ?a (neg ?b))", "(- ?a ?b)"));
        rules.push_back(Rewrite::make("mul-neg-neg",
                                      "(* (neg ?a) (neg ?b))", "(* ?a ?b)"));
    }

    if (config.full_ac) {
        rules.push_back(Rewrite::make("comm-add", "(+ ?a ?b)", "(+ ?b ?a)"));
        rules.push_back(Rewrite::make("comm-mul", "(* ?a ?b)", "(* ?b ?a)"));
        rules.push_back(Rewrite::make("assoc-add", "(+ (+ ?a ?b) ?c)",
                                      "(+ ?a (+ ?b ?c))"));
        rules.push_back(Rewrite::make("assoc-add-rev", "(+ ?a (+ ?b ?c))",
                                      "(+ (+ ?a ?b) ?c)"));
        rules.push_back(Rewrite::make("assoc-mul", "(* (* ?a ?b) ?c)",
                                      "(* ?a (* ?b ?c))"));
        rules.push_back(Rewrite::make("assoc-mul-rev", "(* ?a (* ?b ?c))",
                                      "(* (* ?a ?b) ?c)"));
    }

    if (config.target_has_recip) {
        // The paper §6 porting recipe, step (1): one scalar rule...
        rules.push_back(
            Rewrite::make("recip-intro", "(/ 1 ?x)", "(recip ?x)"));
        rules.push_back(Rewrite::make("div-as-recip-mul", "(/ ?a ?b)",
                                      "(* ?a (recip ?b))"));
    }

    if (config.enable_vector_rules) {
        rules.emplace_back("list-chunk",
                           std::make_shared<ListChunkSearcher>(),
                           std::make_shared<ListChunkApplier>(w));

        auto lift_binary = [&](const char* name, Op sop, Op vop) {
            rules.emplace_back(
                name, std::make_shared<VecBinaryLiftSearcher>(sop, w),
                std::make_shared<VecBinaryLiftApplier>(sop, vop, w));
        };
        lift_binary("vec-add-lift", Op::kAdd, Op::kVecAdd);
        lift_binary("vec-sub-lift", Op::kSub, Op::kVecMinus);
        lift_binary("vec-mul-lift", Op::kMul, Op::kVecMul);
        lift_binary("vec-div-lift", Op::kDiv, Op::kVecDiv);

        auto lift_unary = [&](const char* name, Op sop, Op vop,
                              bool zero_ok) {
            rules.emplace_back(
                name,
                std::make_shared<VecUnaryLiftSearcher>(sop, w, zero_ok),
                std::make_shared<VecUnaryLiftApplier>(sop, vop, w,
                                                      zero_ok));
        };
        lift_unary("vec-neg-lift", Op::kNeg, Op::kVecNeg, true);
        lift_unary("vec-sqrt-lift", Op::kSqrt, Op::kVecSqrt, true);
        lift_unary("vec-sgn-lift", Op::kSgn, Op::kVecSgn, true);
        if (config.target_has_recip) {
            // ...and step (2): tell the engine recip has a vector form.
            lift_unary("vec-recip-lift", Op::kRecip, Op::kVecRecip, false);
        }

        rules.emplace_back("vec-mac",
                           std::make_shared<VecMacSearcher>(w),
                           std::make_shared<VecMacApplier>(w));

        // Vector-level MAC fusion (paper Figure 4), both operand orders.
        rules.push_back(Rewrite::make(
            "vec-mac-fuse", "(VecAdd ?a (VecMul ?b ?c))", "(VecMAC ?a ?b ?c)"));
        rules.push_back(Rewrite::make(
            "vec-mac-fuse-l", "(VecAdd (VecMul ?b ?c) ?a)",
            "(VecMAC ?a ?b ?c)"));
    }

    return rules;
}

}  // namespace diospyros
