// Tests for the textual kernel frontend: grammar coverage, equivalence
// with builder-constructed kernels, and error reporting.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "compiler/driver.h"
#include "kernels/kernels.h"
#include "scalar/parse.h"
#include "scalar/symbolic.h"

namespace diospyros::scalar {
namespace {

TEST(ParseKernel, VectorAddRoundTrip)
{
    const Kernel k = parse_kernel(R"(
        (kernel vector-add
          (param n 4)
          (input A n) (input B n) (output C n)
          (for i 0 n
            (store C i (+ (load A i) (load B i))))))");
    EXPECT_EQ(k.name, "vector-add");
    EXPECT_EQ(k.param("n"), 4);
    const BufferMap out = run_reference(
        k, {{"A", {1, 2, 3, 4}}, {"B", {10, 20, 30, 40}}});
    EXPECT_EQ(out.at("C"), (std::vector<float>{11, 22, 33, 44}));
}

TEST(ParseKernel, AccumulateDesugarsToLoadAdd)
{
    const Kernel k = parse_kernel(R"(
        (kernel acc
          (input a 3) (output o 1)
          (for i 0 3 (accumulate o 0 (load a i)))))");
    const BufferMap out = run_reference(k, {{"a", {1, 2, 4}}});
    EXPECT_EQ(out.at("o"), (std::vector<float>{7}));
}

TEST(ParseKernel, VariadicOperatorsFoldLeft)
{
    const Kernel k = parse_kernel(R"(
        (kernel fold
          (input a 4) (output o 1)
          (store o 0 (+ (load a 0) (load a 1) (load a 2) (load a 3)))))");
    const BufferMap out = run_reference(k, {{"a", {1, 2, 3, 4}}});
    EXPECT_EQ(out.at("o"), (std::vector<float>{10}));
}

TEST(ParseKernel, RationalLiteralsAndUnaryOps)
{
    const Kernel k = parse_kernel(R"(
        (kernel mixed
          (input a 2) (output o 3)
          (store o 0 (* (load a 0) 1/2))
          (store o 1 (sqrt (load a 1)))
          (store o 2 (sgn (neg (load a 0))))))");
    const BufferMap out = run_reference(k, {{"a", {3, 16}}});
    EXPECT_FLOAT_EQ(out.at("o")[0], 1.5f);
    EXPECT_FLOAT_EQ(out.at("o")[1], 4.0f);
    EXPECT_FLOAT_EQ(out.at("o")[2], -1.0f);
}

TEST(ParseKernel, IfAndIfElse)
{
    const Kernel k = parse_kernel(R"(
        (kernel guards
          (param n 4)
          (input a n) (output o n)
          (for i 0 n
            (if-else (or (== i 0) (== i (- n 1)))
              (then (store o i 0))
              (else (store o i (load a i)))))))");
    const BufferMap out = run_reference(k, {{"a", {5, 6, 7, 8}}});
    EXPECT_EQ(out.at("o"), (std::vector<float>{0, 6, 7, 0}));
}

TEST(ParseKernel, TextualConvMatchesBuilderConv)
{
    // The shipped conv2d .ksp sources must lift to exactly the same
    // specification as the C++ builder versions.
    for (const auto& [file, rows, cols] :
         {std::tuple{"conv2d_3x5_3x3.ksp", 3, 5},
          std::tuple{"conv2d_8x8_3x3.ksp", 8, 8}}) {
        SCOPED_TRACE(file);
        const Kernel text = parse_kernel_file(
            std::string(DIOS_SOURCE_DIR) + "/tools/kernels/" + file);
        const Kernel built = kernels::make_conv2d(rows, cols, 3, 3);
        const LiftedSpec a = lift(text);
        const LiftedSpec b = lift(built);
        EXPECT_TRUE(Term::equal(a.spec, b.spec));
    }
}

TEST(ParseKernel, ParsedKernelsCompile)
{
    const Kernel k = parse_kernel(R"(
        (kernel scaled-add
          (param n 8)
          (input A n) (input B n) (output C n)
          (for i 0 n
            (store C i (+ (* (load A i) 2) (load B i))))))");
    CompilerOptions options;
    options.validate = true;
    const CompiledKernel compiled = compile_kernel(k, options);
    EXPECT_EQ(compiled.report.validation, Verdict::kEquivalent);
    const auto run = compiled.run(
        {{"A", {1, 2, 3, 4, 5, 6, 7, 8}},
         {"B", {1, 1, 1, 1, 1, 1, 1, 1}}},
        TargetSpec::fusion_g3_like());
    EXPECT_EQ(run.outputs.at("C"),
              (std::vector<float>{3, 5, 7, 9, 11, 13, 15, 17}));
}

TEST(ParseKernel, UserFunctionCalls)
{
    const Kernel k = parse_kernel(R"(
        (kernel with-call
          (input a 2) (output o 1)
          (store o 0 (call square (+ (load a 0) (load a 1))))))");
    FunctionMap fns;
    fns.emplace("square",
                [](std::span<const float> args) {
                    return args[0] * args[0];
                });
    const BufferMap out = run_reference(k, {{"a", {2, 3}}}, fns);
    EXPECT_FLOAT_EQ(out.at("o")[0], 25.0f);
}

TEST(ParseKernel, Comments)
{
    const Kernel k = parse_kernel(R"(
        ; header comment
        (kernel c (input a 1) (output o 1)
          (store o 0 (load a 0)) ; trailing
        ))");
    EXPECT_EQ(k.name, "c");
}

TEST(ParseKernel, ErrorsAreDescriptive)
{
    auto expect_error = [](const char* src, const char* fragment) {
        try {
            parse_kernel(src);
            FAIL() << "expected parse error for: " << src;
        } catch (const UserError& e) {
            EXPECT_NE(std::string(e.what()).find(fragment),
                      std::string::npos)
                << e.what();
        }
    };
    expect_error("(module x)", "kernel");
    expect_error("(kernel k (store o 0 1))", "undeclared");
    expect_error("(kernel k (output o 1) (store o 0 (load)))",
                 "malformed float expression");
    expect_error("(kernel k (output o 1) (store o 0 (% 1 2)))",
                 "unknown float operator");
    expect_error("(kernel k (output o 1) (frob o))", "unknown statement");
    expect_error("(kernel k (output o 1) (if (< 1) (store o 0 1)))",
                 "comparison takes two operands");
    expect_error("(kernel k (output o 1) (store o 0 x))",
                 "bare variables");
}

TEST(ParseKernel, OutOfRangeIntegersAndExtentsAreUserErrors)
{
    auto expect_error = [](const std::string& src, const char* fragment) {
        try {
            parse_kernel(src);
            FAIL() << "expected parse error for: " << src;
        } catch (const UserError& e) {
            EXPECT_NE(std::string(e.what()).find(fragment),
                      std::string::npos)
                << e.what();
        }
    };
    // A literal past int64 is named, not saturated into another value.
    const std::string huge = "1000000000000000000000000000000000000000000000";
    expect_error("(kernel k (param n 4) (input a n) (output o 1)"
                 " (store o 0 (* (load a 0) " + huge + "/1)))",
                 huge.c_str());
    expect_error("(kernel k (input a 4) (output o 1) (store o 0 " + huge +
                     "))",
                 huge.c_str());
    expect_error("(kernel k (param n 99999999999999999999) (input a n)"
                 " (output o 1) (store o 0 (load a 0)))",
                 "99999999999999999999");
    expect_error("(kernel k (input a 4) (output o 1)"
                 " (store o -99999999999999999999 (load a 0)))",
                 "-99999999999999999999");
    // In int64 but past the machine's int word addresses, alone or as
    // the arrays lie one after another.
    expect_error("(kernel k (param n 9223372036854775807) (input a n)"
                 " (output o 1) (store o 0 (load a 0)))",
                 "int word addresses");
    expect_error("(kernel k (input a 2147483647) (output o 1)"
                 " (store o 0 (load a 0)))",
                 "array 'o'");
    // An extent that overflows int64 is refused, not wrapped to 4 words.
    expect_error("(kernel k (param n 4611686018427387905) (input a (* n 4))"
                 " (output o 1) (store o 0 (load a 0)))",
                 "int word addresses");
    expect_error("(kernel k (input a m) (output o 1) (store o 0 1))",
                 "has no parameter m");
    EXPECT_EQ(parse_kernel("(kernel k (input a 2147483646) (output o 1)"
                           " (store o 0 (load a 0)))")
                  .arrays.size(),
              2u);
}

TEST(ParseKernel, MissingFileThrows)
{
    EXPECT_THROW(parse_kernel_file("/nonexistent/path.ksp"), UserError);
}

}  // namespace
}  // namespace diospyros::scalar
