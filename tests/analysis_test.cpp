// Tests for the static-analysis suite: the structured diagnostics
// engine, the VIR verifier (hand-built malformed programs, one per
// diagnostic code), the e-graph auditor on real saturated graphs, and
// the rewrite-rule soundness linter (every registered rule proves sound;
// an intentionally broken rule is caught).

#include <gtest/gtest.h>

#include "analysis/audit_egraph.h"
#include "analysis/lint_rules.h"
#include "analysis/verify_vir.h"
#include "compiler/driver.h"
#include "egraph/runner.h"
#include "rules/rules.h"
#include "vir/lower_term.h"
#include "vir/lvn.h"

namespace diospyros::analysis {
namespace {

using vir::VInstr;
using vir::VOp;
using vir::VProgram;

// ---------------------------------------------------------------------
// Diagnostics engine

TEST(Diagnostics, CountsAndRendersText)
{
    DiagEngine diags;
    EXPECT_FALSE(diags.has_errors());
    diags.error("vir-verify", "V004", "lane 99 out of bounds", 3);
    diags.warning("rule-lint", "R302", "rule not exercised");
    diags.note("egraph-audit", "E000", "context", -1, 17);
    EXPECT_EQ(diags.error_count(), 1u);
    EXPECT_EQ(diags.warning_count(), 1u);
    EXPECT_TRUE(diags.has_errors());
    EXPECT_TRUE(diags.has_code("V004"));
    EXPECT_FALSE(diags.has_code("V005"));

    const std::string text = diags.render_text();
    EXPECT_NE(text.find("error vir-verify [V004] instr 3"),
              std::string::npos);
    EXPECT_NE(text.find("lane 99 out of bounds"), std::string::npos);
    EXPECT_NE(text.find("warning rule-lint [R302]"), std::string::npos);
    EXPECT_NE(text.find("eclass 17"), std::string::npos);
}

// ---------------------------------------------------------------------
// VIR verifier: hand-built malformed programs

VProgram
empty_program(int width = 4)
{
    VProgram p;
    p.vector_width = width;
    return p;
}

VInstr
sconst(int dst, double v)
{
    VInstr i;
    i.op = VOp::kSConst;
    i.dst = dst;
    i.values = {v};
    return i;
}

VInstr
vconst(int dst, int width)
{
    VInstr i;
    i.op = VOp::kVConst;
    i.dst = dst;
    i.values.assign(static_cast<std::size_t>(width), 1.0);
    return i;
}

VInstr
sstore(int src, const char* array, std::int64_t offset)
{
    VInstr i;
    i.op = VOp::kSStore;
    i.a = src;
    i.array = Symbol(array);
    i.offset = offset;
    return i;
}

VInstr
vstore(int src, const char* array, std::int64_t offset)
{
    VInstr i;
    i.op = VOp::kVStore;
    i.a = src;
    i.array = Symbol(array);
    i.offset = offset;
    return i;
}

/** Expects exactly the given code among the verifier's errors. */
void
expect_rejected(const VProgram& p, const char* code,
                const ArrayExtents& extents = {})
{
    DiagEngine diags;
    EXPECT_FALSE(verify_vprogram(p, diags, extents));
    EXPECT_TRUE(diags.has_code(code))
        << "expected " << code << ", got:\n"
        << diags.render_text() << p.to_string();
}

TEST(VerifyVir, UseBeforeDefinition)
{
    VProgram p = empty_program();
    const int s0 = p.fresh_scalar();
    const int s1 = p.fresh_scalar();
    const int s2 = p.fresh_scalar();
    VInstr add;
    add.op = VOp::kSBinary;
    add.alu = Op::kAdd;
    add.dst = s2;
    add.a = s0;
    add.b = s1;  // s0/s1 declared but never defined
    p.instrs.push_back(add);
    expect_rejected(p, "V001");
}

TEST(VerifyVir, OperandIdOutOfRange)
{
    VProgram p = empty_program();
    const int s0 = p.fresh_scalar();
    p.instrs.push_back(sconst(s0, 1.0));
    p.instrs.push_back(sstore(/*src=*/7, "out", 0));  // id 7: no such value
    expect_rejected(p, "V002");
}

TEST(VerifyVir, SsaRedefinition)
{
    VProgram p = empty_program();
    const int s0 = p.fresh_scalar();
    p.instrs.push_back(sconst(s0, 1.0));
    p.instrs.push_back(sconst(s0, 2.0));  // second write to s0
    expect_rejected(p, "V003");
}

TEST(VerifyVir, ShuffleLaneOutOfBounds)
{
    VProgram p = empty_program();
    const int v0 = p.fresh_vector();
    const int v1 = p.fresh_vector();
    p.instrs.push_back(vconst(v0, 4));
    VInstr shuf;
    shuf.op = VOp::kShuffle;
    shuf.dst = v1;
    shuf.a = v0;
    shuf.lanes = {99, 0, 0, 0};  // shuffle indexes [0, width)
    p.instrs.push_back(shuf);
    expect_rejected(p, "V004");
}

TEST(VerifyVir, SelectIndexesTheConcatenation)
{
    // Select lanes address concat(a, b): [0, 2*width) is legal...
    VProgram p = empty_program();
    const int v0 = p.fresh_vector();
    const int v1 = p.fresh_vector();
    const int v2 = p.fresh_vector();
    p.instrs.push_back(vconst(v0, 4));
    p.instrs.push_back(vconst(v1, 4));
    VInstr sel;
    sel.op = VOp::kSelect;
    sel.dst = v2;
    sel.a = v0;
    sel.b = v1;
    sel.lanes = {0, 7, 4, 3};
    p.instrs.push_back(sel);
    DiagEngine diags;
    EXPECT_TRUE(verify_vprogram(p, diags)) << diags.render_text();

    // ...but 8 is out even for select.
    p.instrs.back().lanes = {0, 8, 4, 3};
    expect_rejected(p, "V004");
}

TEST(VerifyVir, ExtractLaneImmediateOutOfRange)
{
    VProgram p = empty_program();
    const int v0 = p.fresh_vector();
    const int s0 = p.fresh_scalar();
    p.instrs.push_back(vconst(v0, 4));
    VInstr ext;
    ext.op = VOp::kSExtract;
    ext.dst = s0;
    ext.a = v0;
    ext.lane = 4;  // width is 4: lanes are [0, 4)
    p.instrs.push_back(ext);
    expect_rejected(p, "V005");
}

TEST(VerifyVir, NegativeMemoryOffset)
{
    VProgram p = empty_program();
    const int s0 = p.fresh_scalar();
    VInstr load;
    load.op = VOp::kSLoad;
    load.dst = s0;
    load.array = Symbol("a");
    load.offset = -1;
    p.instrs.push_back(load);
    expect_rejected(p, "V006");
}

TEST(VerifyVir, StorePastDeclaredExtent)
{
    const ArrayExtents extents{{"out", 4}};
    VProgram p = empty_program();
    const int s0 = p.fresh_scalar();
    p.instrs.push_back(sconst(s0, 1.0));
    p.instrs.push_back(sstore(s0, "out", 7));
    expect_rejected(p, "V007", extents);
}

TEST(VerifyVir, VectorStorePastDeclaredExtent)
{
    // A width-4 store at offset 4 needs extent >= 8.
    const ArrayExtents extents{{"out", 4}};
    VProgram p = empty_program();
    const int v0 = p.fresh_vector();
    p.instrs.push_back(vconst(v0, 4));
    p.instrs.push_back(vstore(v0, "out", 4));
    expect_rejected(p, "V007", extents);
}

TEST(VerifyVir, UndeclaredArray)
{
    const ArrayExtents extents{{"out", 4}};
    VProgram p = empty_program();
    const int s0 = p.fresh_scalar();
    p.instrs.push_back(sconst(s0, 1.0));
    p.instrs.push_back(sstore(s0, "mystery", 0));
    expect_rejected(p, "V007", extents);
}

TEST(VerifyVir, ScalarVectorKindMismatch)
{
    // Scalar id 0 is defined; vector id 0 exists but is not. A vector
    // store of id 0 is a kind confusion, not a plain use-before-def.
    VProgram p = empty_program();
    const int s0 = p.fresh_scalar();
    const int v0 = p.fresh_vector();
    (void)v0;
    p.instrs.push_back(sconst(s0, 1.0));
    p.instrs.push_back(vstore(0, "out", 0));
    expect_rejected(p, "V008");
}

TEST(VerifyVir, LvnMustPreserveStoreOrder)
{
    VProgram p = empty_program();
    const int s0 = p.fresh_scalar();
    const int s1 = p.fresh_scalar();
    p.instrs.push_back(sconst(s0, 1.0));
    p.instrs.push_back(sconst(s1, 2.0));
    p.instrs.push_back(sstore(s0, "out", 0));
    p.instrs.push_back(sstore(s1, "out", 1));
    const std::vector<StoreSig> before = store_signature(p);

    std::swap(p.instrs[2], p.instrs[3]);  // "LVN" reordered the stores
    DiagEngine diags;
    EXPECT_FALSE(check_store_order(before, p, diags));
    EXPECT_TRUE(diags.has_code("V009")) << diags.render_text();

    std::swap(p.instrs[2], p.instrs[3]);
    DiagEngine clean;
    EXPECT_TRUE(check_store_order(before, p, clean));
}

TEST(VerifyVir, MalformedPayloads)
{
    {
        VProgram p = empty_program();
        p.instrs.push_back(sconst(p.fresh_scalar(), 1.0));
        p.instrs.back().values = {1.0, 2.0};  // kSConst carries ONE value
        expect_rejected(p, "V010");
    }
    {
        VProgram p = empty_program();
        p.instrs.push_back(vconst(p.fresh_vector(), 3));  // width is 4
        expect_rejected(p, "V010");
    }
    {
        VProgram p = empty_program();
        const int s0 = p.fresh_scalar();
        p.instrs.push_back(sconst(s0, 1.0));
        VInstr st = sstore(s0, "out", 0);
        st.dst = s0;  // stores must have dst == -1
        p.instrs.push_back(st);
        expect_rejected(p, "V010");
    }
}

TEST(VerifyVir, UnalignedVectorAccess)
{
    VProgram p = empty_program();
    const int v0 = p.fresh_vector();
    VInstr load;
    load.op = VOp::kVLoadA;
    load.dst = v0;
    load.array = Symbol("a");
    load.offset = 2;  // aligned block loads require offset % width == 0
    p.instrs.push_back(load);
    expect_rejected(p, "V011");
}

TEST(VerifyVir, HeaderSanity)
{
    VProgram p = empty_program(/*width=*/0);
    expect_rejected(p, "V010");
}

// ---------------------------------------------------------------------
// VIR verifier: real lowered programs are clean

scalar::Kernel
gather_kernel()
{
    scalar::KernelBuilder kb("analysis-gather");
    kb.input("a", scalar::IntExpr::constant(8));
    kb.output("out", scalar::IntExpr::constant(4));
    kb.append(scalar::st_store("out", scalar::IntExpr::constant(0),
                               scalar::f_const(0)));
    return kb.build();
}

TEST(VerifyVir, LoweredProgramVerifiesBeforeAndAfterLvn)
{
    const scalar::Kernel kernel = gather_kernel();
    std::vector<vir::OutputSlot> slots{{"out", 4, 4}};
    VProgram p = vir::lower_term(
        Term::parse(
            "(List (Vec (Get a 6) (* (Get a 1) (Get a 2)) 3 (Get a 0)))"),
        4, slots);

    const ArrayExtents extents = padded_extents(kernel, 4);
    EXPECT_EQ(extents.at("a"), 8);
    EXPECT_EQ(extents.at("out"), 4);

    DiagEngine before;
    EXPECT_TRUE(verify_vprogram(p, before, extents))
        << before.render_text();

    const std::vector<StoreSig> stores = store_signature(p);
    vir::run_lvn(p);
    DiagEngine after;
    EXPECT_TRUE(verify_vprogram(p, after, extents)) << after.render_text();
    EXPECT_TRUE(check_store_order(stores, p, after))
        << after.render_text();
}

TEST(VerifyVir, CompiledKernelPassesTheGate)
{
    scalar::KernelBuilder kb("vadd8");
    const scalar::IntRef size = kb.param("n", 8);
    kb.input("A", size);
    kb.input("B", size);
    kb.output("C", size);
    const scalar::IntRef i = scalar::KernelBuilder::var("i");
    kb.append(scalar::st_for(
        "i", scalar::IntExpr::constant(0), size,
        {scalar::st_store("C", i,
                          scalar::KernelBuilder::load("A", i) +
                              scalar::KernelBuilder::load("B", i))}));
    const scalar::Kernel kernel = kb.build();

    CompilerOptions options;
    options.limits = RunnerLimits{.node_limit = 200'000,
                                  .iter_limit = 10,
                                  .time_limit_seconds = 20.0};
    options.verify_ir = true;  // exercise the in-pipeline gates too
    const CompiledKernel compiled = compile_kernel(kernel, options);

    const DiagEngine diags =
        verify_compiled_kernel(kernel, compiled.vprogram);
    EXPECT_FALSE(diags.has_errors()) << diags.render_text();

    // Corrupting the program must flip the gate: out-of-bounds shuffle.
    vir::VProgram bad = compiled.vprogram;
    VInstr shuf;
    shuf.op = VOp::kShuffle;
    shuf.dst = bad.fresh_vector();
    shuf.a = 0;
    shuf.lanes = {99, 0, 0, 0};
    bad.instrs.push_back(shuf);
    const DiagEngine rejected = verify_compiled_kernel(kernel, bad);
    EXPECT_TRUE(rejected.has_code("V004")) << rejected.render_text();
}

// ---------------------------------------------------------------------
// E-graph auditor

TEST(AuditEGraph, CleanAfterSaturationAndExtraction)
{
    EGraph graph;
    const ClassId root = graph.add_term(Term::parse(
        "(List (+ (Get a 0) (* (Get a 1) (Get a 2))) (- (Get a 3) 1) 0 "
        "0)"));
    graph.rebuild();

    RuleConfig config(4);
    Runner(RunnerLimits{.node_limit = 50'000,
                        .iter_limit = 6,
                        .time_limit_seconds = 10.0})
        .run(graph, build_rules(config));

    DiagEngine diags;
    EXPECT_TRUE(audit_egraph(graph, diags)) << diags.render_text();

    const TreeSizeCost cost;
    const Extractor extractor(graph, cost);
    EXPECT_TRUE(audit_extraction(graph, cost, diags, &extractor))
        << diags.render_text();
    EXPECT_EQ(diags.error_count(), 0u);
    EXPECT_GT(extractor.class_cost(graph.find(root)), 0.0);
}

TEST(AuditEGraph, FlagsDirtyGraph)
{
    EGraph graph;
    const ClassId a = graph.add_term(Term::parse("(+ (Get a 0) (Get a 1))"));
    const ClassId b = graph.add_term(Term::parse("(* (Get a 0) (Get a 1))"));
    graph.rebuild();
    graph.merge(a, b);  // pending congruence repair: the graph is dirty
    DiagEngine diags;
    EXPECT_FALSE(audit_egraph(graph, diags));
    EXPECT_TRUE(diags.has_code("E106")) << diags.render_text();
}

TEST(AuditEGraph, OpIndexInvariantHoldsAfterMerges)
{
    // The auditor's E107/E108 checks recompute the op-index from the
    // class table; a merged-then-rebuilt graph must pass both directions
    // (no class missing from its op's list, no stale entry surviving).
    EGraph graph;
    const ClassId a = graph.add_term(Term::parse("(+ (Get a 0) (Get a 1))"));
    const ClassId b = graph.add_term(Term::parse("(* (Get a 0) (Get a 1))"));
    graph.merge(a, b);
    graph.rebuild();
    DiagEngine diags;
    EXPECT_TRUE(audit_egraph(graph, diags)) << diags.render_text();
    EXPECT_FALSE(diags.has_code("E107"));
    EXPECT_FALSE(diags.has_code("E108"));
}

TEST(AuditExtraction, FlagsNonMonotonicCostModel)
{
    struct ZeroCost : CostModel {
        double
        node_cost(const EGraph&, const ENodeView&) const override
        {
            return 0.0;
        }
    };
    EGraph graph;
    graph.add_term(Term::parse("(+ (Get a 0) 1)"));
    graph.rebuild();
    const ZeroCost cost;
    DiagEngine diags;
    // No extractor: the Extractor itself refuses non-positive costs; the
    // audit must diagnose the model directly.
    EXPECT_FALSE(audit_extraction(graph, cost, diags));
    EXPECT_TRUE(diags.has_code("E201")) << diags.render_text();
}

// ---------------------------------------------------------------------
// Rule soundness linter

TEST(LintRules, EveryRegisteredRuleIsSound)
{
    RuleConfig config(4);
    config.full_ac = true;
    config.target_has_recip = true;
    const std::vector<RuleLintResult> results = lint_rules(config);
    EXPECT_GE(results.size(), 20u);
    for (const RuleLintResult& r : results) {
        EXPECT_NE(r.verdict, Verdict::kNotEquivalent)
            << r.rule << ": " << r.detail;
        EXPECT_TRUE(r.exercised) << r.rule << " was never exercised";
    }
    DiagEngine diags;
    EXPECT_TRUE(lint_to_diags(results, diags)) << diags.render_text();
    EXPECT_FALSE(diags.has_code("R301"));
}

TEST(LintRules, CatchesAnUnsoundRule)
{
    // Deliberately wrong "distributivity": a*(b+c) != a + b*c.
    const Rewrite bad = Rewrite::make("bad-distrib", "(* ?a (+ ?b ?c))",
                                      "(+ ?a (* ?b ?c))");
    const RuleLintResult r = lint_rule(bad, 4);
    EXPECT_EQ(r.verdict, Verdict::kNotEquivalent) << r.detail;

    DiagEngine diags;
    EXPECT_FALSE(lint_to_diags({r}, diags));
    EXPECT_TRUE(diags.has_code("R301")) << diags.render_text();
}

TEST(LintRules, UnboundRhsVariableIsRejectedAtConstruction)
{
    // The pattern layer refuses such a rule outright; the linter's own
    // binding check is the backstop for custom appliers.
    EXPECT_THROW(Rewrite::make("bad-unbound", "(+ ?a 0)", "?b"),
                 std::exception);
}

}  // namespace
}  // namespace diospyros::analysis
