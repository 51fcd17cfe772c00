#include "analysis/lint_rules.h"

#include <algorithm>
#include <map>

#include "egraph/extract.h"
#include "egraph/pattern.h"
#include "support/error.h"

namespace diospyros::analysis {

namespace {

constexpr const char* kPass = "rule-lint";

/** Expression sort a pattern variable must take. */
enum class Sort { kUnknown, kScalar, kVector };

/** Sort the children of an operator node must have. */
Sort
child_sort(Op op)
{
    switch (op) {
      case Op::kVecAdd:
      case Op::kVecMinus:
      case Op::kVecMul:
      case Op::kVecDiv:
      case Op::kVecMAC:
      case Op::kVecNeg:
      case Op::kVecSgn:
      case Op::kVecSqrt:
      case Op::kVecRecip:
      case Op::kConcat:
        return Sort::kVector;
      case Op::kVec:
        return Sort::kScalar;
      case Op::kList:
        return Sort::kUnknown;
      default:
        // Scalar operators (and leaves, which have no children).
        return Sort::kScalar;
    }
}

/** Infers variable sorts from the operator context they appear under. */
bool
infer_sorts(const PatternRef& node, Sort expected,
            std::map<Symbol, Sort>& sorts)
{
    if (node->kind() == PatternNode::Kind::kVar) {
        if (expected == Sort::kUnknown) {
            sorts.try_emplace(node->var_name(), Sort::kUnknown);
            return true;
        }
        auto [it, inserted] = sorts.try_emplace(node->var_name(), expected);
        if (!inserted && it->second != expected) {
            if (it->second == Sort::kUnknown) {
                it->second = expected;
                return true;
            }
            return false;  // used as both scalar and vector
        }
        return true;
    }
    const Sort kids = child_sort(node->prototype().op);
    for (const PatternRef& c : node->children()) {
        if (!infer_sorts(c, kids, sorts)) {
            return false;
        }
    }
    return true;
}

/** Fresh symbolic atom: a Get leaf (bindable by both validators). */
TermRef
fresh_atom(int& counter)
{
    return t_get("lintarg", counter++);
}

/** Instantiates a variable per its sort (vectors get `width` lanes). */
TermRef
instantiate_var(Sort sort, int width, int& counter)
{
    if (sort != Sort::kVector) {
        return fresh_atom(counter);
    }
    std::vector<TermRef> lanes;
    lanes.reserve(static_cast<std::size_t>(width));
    for (int l = 0; l < width; ++l) {
        lanes.push_back(fresh_atom(counter));
    }
    return t_vec(std::move(lanes));
}

/** Builds the term a pattern denotes under a variable binding. */
TermRef
pattern_term(const PatternRef& node,
             const std::map<Symbol, TermRef>& binding)
{
    if (node->kind() == PatternNode::Kind::kVar) {
        return binding.at(node->var_name());
    }
    const ENode& proto = node->prototype();
    std::vector<TermRef> kids;
    kids.reserve(node->children().size());
    for (const PatternRef& c : node->children()) {
        kids.push_back(pattern_term(c, binding));
    }
    switch (proto.op) {
      case Op::kConst:
        return Term::constant(proto.value);
      case Op::kSymbol:
        return Term::variable(proto.symbol);
      case Op::kGet:
        return Term::get(proto.symbol, proto.index);
      case Op::kCall:
        return Term::call(proto.symbol, std::move(kids));
      default:
        return Term::make(proto.op, std::move(kids));
    }
}

/**
 * Equivalence of two instantiated terms: exact first, randomized
 * fallback on overflow. Shape errors count as not equivalent.
 */
Verdict
compare_terms(const TermRef& lhs, const TermRef& rhs, bool* random_used)
{
    Verdict v = Verdict::kNotEquivalent;
    try {
        v = lhs->is_scalar() && rhs->is_scalar()
                ? scalar_equivalent(lhs, rhs)
                : validate_translation(lhs, rhs);
    } catch (const std::exception&) {
        return Verdict::kNotEquivalent;
    }
    if (v != Verdict::kUnknown) {
        return v;
    }
    *random_used = true;
    bool ok = false;
    try {
        ok = random_equivalent(lhs, rhs, /*trials=*/32);
    } catch (const std::exception&) {
        ok = false;
    }
    return ok ? Verdict::kUnknown : Verdict::kNotEquivalent;
}

// ---------------------------------------------------------------------------
// Pattern-based rules: instantiate LHS/RHS with shared fresh atoms.
// ---------------------------------------------------------------------------

RuleLintResult
lint_pattern_rule(const Rewrite& rule, const Pattern& lhs,
                  const Pattern& rhs, int width)
{
    RuleLintResult res;
    res.rule = rule.name();

    std::map<Symbol, Sort> sorts;
    if (!infer_sorts(lhs.root(), Sort::kUnknown, sorts) ||
        !infer_sorts(rhs.root(), Sort::kUnknown, sorts)) {
        res.verdict = Verdict::kNotEquivalent;
        res.exercised = true;
        res.detail = "ill-sorted pattern: a variable is used as both "
                     "scalar and vector";
        return res;
    }
    for (const Symbol var : rhs.variables()) {
        if (std::find(lhs.variables().begin(), lhs.variables().end(),
                      var) == lhs.variables().end()) {
            res.verdict = Verdict::kNotEquivalent;
            res.exercised = true;
            res.detail = "rhs variable ?" + var.str() +
                         " is not bound by the lhs";
            return res;
        }
    }

    int counter = 0;
    std::map<Symbol, TermRef> binding;
    for (const auto& [var, sort] : sorts) {
        binding.emplace(var, instantiate_var(sort, width, counter));
    }
    const TermRef lhs_term = pattern_term(lhs.root(), binding);
    const TermRef rhs_term = pattern_term(rhs.root(), binding);

    res.exercised = true;
    res.verdict = compare_terms(lhs_term, rhs_term, &res.random_checked);
    if (res.verdict == Verdict::kNotEquivalent) {
        res.detail = "lhs " + Term::to_string(lhs_term) + " != rhs " +
                     Term::to_string(rhs_term);
    }
    return res;
}

// ---------------------------------------------------------------------------
// Custom searcher/applier rules: exercise on a synthetic witness in a
// scratch e-graph and validate every alternative the rule introduces.
// ---------------------------------------------------------------------------

TermRef
zero()
{
    return Term::constant(Rational(0));
}

/** Witness Vec whose lanes exercise a binary lift's cases. */
TermRef
binary_lift_witness(Op op, int width, int& counter)
{
    const bool bare_ok = op == Op::kAdd || op == Op::kSub;
    std::vector<TermRef> lanes;
    for (int l = 0; l < width; ++l) {
        if (l == 1) {
            lanes.push_back(zero());
        } else if (l == 2 && bare_ok) {
            lanes.push_back(fresh_atom(counter));
        } else {
            lanes.push_back(Term::make(
                op, {fresh_atom(counter), fresh_atom(counter)}));
        }
    }
    return t_vec(std::move(lanes));
}

/** Witness Vec for a unary lift (zero lanes only where allowed). */
TermRef
unary_lift_witness(Op op, int width, bool zero_ok, int& counter)
{
    std::vector<TermRef> lanes;
    for (int l = 0; l < width; ++l) {
        if (l == 1 && zero_ok) {
            lanes.push_back(zero());
        } else {
            lanes.push_back(Term::make(op, {fresh_atom(counter)}));
        }
    }
    return t_vec(std::move(lanes));
}

/** Witness Vec cycling through the four VecMAC lane shapes. */
TermRef
mac_witness(int width, int& counter)
{
    std::vector<TermRef> lanes;
    for (int l = 0; l < width; ++l) {
        const TermRef mul =
            t_mul(fresh_atom(counter), fresh_atom(counter));
        switch (l % 4) {
          case 0:
            lanes.push_back(t_add(fresh_atom(counter), mul));
            break;
          case 1:
            lanes.push_back(t_add(mul, fresh_atom(counter)));
            break;
          case 2:
            lanes.push_back(mul);
            break;
          default:
            lanes.push_back(fresh_atom(counter));
            break;
        }
    }
    return t_vec(std::move(lanes));
}

/** Witness term for a named custom rule, or null if unknown. */
TermRef
custom_witness(const std::string& name, int width, int& counter)
{
    if (name == "list-chunk") {
        // An awkward length (2w+1) exercises the zero-padded tail chunk.
        std::vector<TermRef> elems;
        for (int i = 0; i < 2 * width + 1; ++i) {
            elems.push_back(fresh_atom(counter));
        }
        return t_list(std::move(elems));
    }
    if (name == "vec-add-lift") {
        return binary_lift_witness(Op::kAdd, width, counter);
    }
    if (name == "vec-sub-lift") {
        return binary_lift_witness(Op::kSub, width, counter);
    }
    if (name == "vec-mul-lift") {
        return binary_lift_witness(Op::kMul, width, counter);
    }
    if (name == "vec-div-lift") {
        return binary_lift_witness(Op::kDiv, width, counter);
    }
    if (name == "vec-neg-lift") {
        return unary_lift_witness(Op::kNeg, width, true, counter);
    }
    if (name == "vec-sqrt-lift") {
        return unary_lift_witness(Op::kSqrt, width, true, counter);
    }
    if (name == "vec-sgn-lift") {
        return unary_lift_witness(Op::kSgn, width, true, counter);
    }
    if (name == "vec-recip-lift") {
        return unary_lift_witness(Op::kRecip, width, false, counter);
    }
    if (name == "vec-mac") {
        return mac_witness(width, counter);
    }
    return nullptr;
}

RuleLintResult
lint_custom_rule(const Rewrite& rule, int width)
{
    RuleLintResult res;
    res.rule = rule.name();

    int counter = 0;
    const TermRef witness = custom_witness(rule.name(), width, counter);
    if (!witness) {
        res.detail = "no witness template for custom rule";
        return res;  // unexercised
    }

    EGraph graph;
    ClassId root = graph.add_term(witness);
    graph.rebuild();
    const std::vector<RuleMatch> matches = rule.searcher().search(graph);
    if (matches.empty()) {
        res.detail = "witness " + Term::to_string(witness) +
                     " did not match";
        return res;  // unexercised
    }
    for (const RuleMatch& m : matches) {
        rule.applier().apply(graph, m);
    }
    graph.rebuild();
    res.exercised = true;

    // Every alternative now in the witness's class must be equivalent.
    const TreeSizeCost tree_cost;
    const Extractor extractor(graph, tree_cost);
    root = graph.find(root);
    res.verdict = Verdict::kEquivalent;
    for (const ENodeView node : graph.class_nodes(root)) {
        std::vector<TermRef> kids;
        kids.reserve(node.children.size());
        for (const ClassId child : node.children) {
            kids.push_back(extractor.extract(child).term);
        }
        const TermRef candidate = enode_to_term(node, kids);
        if (Term::equal(candidate, witness)) {
            continue;
        }
        const Verdict v =
            compare_terms(witness, candidate, &res.random_checked);
        if (v == Verdict::kNotEquivalent) {
            res.verdict = Verdict::kNotEquivalent;
            res.detail = "alternative " + Term::to_string(candidate) +
                         " is not equivalent to witness " +
                         Term::to_string(witness);
            return res;
        }
        if (v == Verdict::kUnknown) {
            res.verdict = Verdict::kUnknown;
        }
    }
    return res;
}

}  // namespace

RuleLintResult
lint_rule(const Rewrite& rule, int vector_width)
{
    DIOS_CHECK(vector_width >= 1, "lint_rule: vector width must be >= 1");
    const auto* searcher =
        dynamic_cast<const PatternSearcher*>(&rule.searcher());
    const auto* applier =
        dynamic_cast<const PatternApplier*>(&rule.applier());
    if (searcher != nullptr && applier != nullptr) {
        return lint_pattern_rule(rule, searcher->pattern(),
                                 applier->pattern(), vector_width);
    }
    return lint_custom_rule(rule, vector_width);
}

std::vector<RuleLintResult>
lint_rules(const RuleConfig& config)
{
    std::vector<RuleLintResult> out;
    for (const Rewrite& rule : build_rules(config)) {
        out.push_back(lint_rule(rule, config.vector_width));
    }
    return out;
}

bool
lint_to_diags(const std::vector<RuleLintResult>& results,
              DiagEngine& diags)
{
    bool sound = true;
    for (const RuleLintResult& r : results) {
        if (r.verdict == Verdict::kNotEquivalent) {
            sound = false;
            diags.error(kPass, "R301",
                        "rule '" + r.rule + "' is unsound: " + r.detail);
        } else if (!r.exercised) {
            diags.warning(kPass, "R302",
                          "rule '" + r.rule +
                              "' was not exercised: " + r.detail);
        } else if (r.random_checked) {
            diags.note(kPass, "R303",
                       "rule '" + r.rule +
                           "' verified by randomized evaluation only");
        }
    }
    return sound;
}

}  // namespace diospyros::analysis
