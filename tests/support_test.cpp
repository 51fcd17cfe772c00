// Unit tests for the support layer: s-expressions, rationals, RNG, hashing.

#include <gtest/gtest.h>

#include <unordered_set>

#include "support/error.h"
#include "support/hash.h"
#include "support/lru.h"
#include "support/rational.h"
#include "support/rng.h"
#include "support/sexpr.h"

namespace diospyros {
namespace {

TEST(Sexpr, ParsesAtom)
{
    const Sexpr s = parse_sexpr("hello");
    ASSERT_TRUE(s.is_atom());
    EXPECT_EQ(s.token(), "hello");
}

TEST(Sexpr, ParsesNestedList)
{
    const Sexpr s = parse_sexpr("(+ (Get a 0) (Get b 1))");
    ASSERT_TRUE(s.is_list());
    ASSERT_EQ(s.size(), 3u);
    EXPECT_EQ(s[0].token(), "+");
    EXPECT_TRUE(s[1].is_list());
    EXPECT_EQ(s[1][1].token(), "a");
    EXPECT_EQ(s[2][2].as_integer(), 1);
}

TEST(Sexpr, RoundTripsThroughToString)
{
    const std::string text = "(List (+ a 1) (* b -2) (Vec 0 0 0 0))";
    const Sexpr s = parse_sexpr(text);
    EXPECT_EQ(s.to_string(), text);
    EXPECT_EQ(parse_sexpr(s.to_string()), s);
}

TEST(Sexpr, SkipsCommentsAndWhitespace)
{
    const Sexpr s = parse_sexpr("; header\n ( a ; mid\n b )\n; tail\n");
    ASSERT_TRUE(s.is_list());
    EXPECT_EQ(s.size(), 2u);
}

TEST(Sexpr, ParsesMultipleTopLevelForms)
{
    const auto forms = parse_sexpr_list("(a) (b c) d");
    ASSERT_EQ(forms.size(), 3u);
    EXPECT_TRUE(forms[2].is_atom());
}

TEST(Sexpr, RejectsMalformedInput)
{
    EXPECT_THROW(parse_sexpr("(a b"), UserError);
    EXPECT_THROW(parse_sexpr(")"), UserError);
    EXPECT_THROW(parse_sexpr("a b"), UserError);
    EXPECT_THROW(parse_sexpr(""), UserError);
}

TEST(Sexpr, IntegerClassification)
{
    EXPECT_TRUE(parse_sexpr("-42").is_integer());
    EXPECT_TRUE(parse_sexpr("+7").is_integer());
    EXPECT_FALSE(parse_sexpr("4.5").is_integer());
    EXPECT_TRUE(parse_sexpr("4.5").is_number());
    EXPECT_FALSE(parse_sexpr("x1").is_number());
}

TEST(Sexpr, PrettyPrintWrapsLongForms)
{
    std::vector<Sexpr> kids;
    for (int i = 0; i < 20; ++i) {
        kids.push_back(parse_sexpr("(+ some-long-atom-name " +
                                   std::to_string(i) + ")"));
    }
    const Sexpr s = Sexpr::list(kids);
    const std::string pretty = s.to_pretty_string(40);
    EXPECT_NE(pretty.find('\n'), std::string::npos);
    EXPECT_EQ(parse_sexpr(pretty), s);
}

TEST(Rational, NormalizesOnConstruction)
{
    EXPECT_EQ(Rational(2, 4), Rational(1, 2));
    EXPECT_EQ(Rational(-2, -4), Rational(1, 2));
    EXPECT_EQ(Rational(2, -4), Rational(-1, 2));
    EXPECT_EQ(Rational(0, 7), Rational(0));
    EXPECT_EQ(Rational(0, 7).den(), 1);
}

TEST(Rational, Arithmetic)
{
    const Rational half(1, 2);
    const Rational third(1, 3);
    EXPECT_EQ(half + third, Rational(5, 6));
    EXPECT_EQ(half - third, Rational(1, 6));
    EXPECT_EQ(half * third, Rational(1, 6));
    EXPECT_EQ(half / third, Rational(3, 2));
    EXPECT_EQ(-half, Rational(-1, 2));
}

TEST(Rational, Ordering)
{
    EXPECT_LT(Rational(1, 3), Rational(1, 2));
    EXPECT_GT(Rational(-1, 3), Rational(-1, 2));
    EXPECT_EQ(Rational(3, 6) <=> Rational(1, 2),
              std::strong_ordering::equal);
}

TEST(Rational, DetectsOverflow)
{
    const Rational big(INT64_MAX);
    EXPECT_THROW(big * Rational(2), RationalOverflow);
    EXPECT_THROW(big + big, RationalOverflow);
}

TEST(Rational, DivisionByZeroThrows)
{
    EXPECT_THROW(Rational(1) / Rational(0), std::domain_error);
    EXPECT_THROW(Rational(1, 0), std::domain_error);
}

TEST(Rational, ToStringForms)
{
    EXPECT_EQ(Rational(5).to_string(), "5");
    EXPECT_EQ(Rational(-3, 4).to_string(), "-3/4");
}

TEST(Rng, IsDeterministicPerSeed)
{
    Rng a(42), b(42), c(43);
    EXPECT_EQ(a.next_u64(), b.next_u64());
    EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, UniformIntStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const std::int64_t v = rng.uniform_int(-3, 5);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 5);
    }
}

TEST(Rng, Uniform01StaysInRange)
{
    Rng rng(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.uniform01();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.03);
}

TEST(Hash, CombineSpreadsValues)
{
    std::unordered_set<std::size_t> seen;
    for (int a = 0; a < 30; ++a) {
        for (int b = 0; b < 30; ++b) {
            std::size_t seed = 0;
            hash_combine(seed, a);
            hash_combine(seed, b);
            seen.insert(seed);
        }
    }
    // All 900 (a, b) pairs should hash distinctly.
    EXPECT_EQ(seen.size(), 900u);
}

TEST(Lru, FindTouches)
{
    Lru<int, std::string> lru(2);
    lru.insert_or_assign(1, "one");
    lru.insert_or_assign(2, "two");
    ASSERT_NE(lru.find(1), nullptr);  // 2 is now least recently used
    lru.insert_or_assign(3, "three");
    EXPECT_NE(lru.find(1), nullptr);
    EXPECT_EQ(lru.find(2), nullptr);
    EXPECT_EQ(*lru.find(3), "three");
}

TEST(Lru, EvictsLeastRecentlyUsed)
{
    Lru<int, int> lru(3);
    for (int i = 0; i < 5; ++i) {
        lru.insert_or_assign(i, i * 10);
    }
    EXPECT_EQ(lru.size(), 3u);
    EXPECT_EQ(lru.find(0), nullptr);
    EXPECT_EQ(lru.find(1), nullptr);
    EXPECT_EQ(*lru.find(2), 20);
    EXPECT_EQ(*lru.find(4), 40);
}

TEST(Lru, InsertOverExistingKeyReplacesAndTouches)
{
    Lru<int, std::string> lru(2);
    lru.insert_or_assign(1, "one");
    lru.insert_or_assign(2, "two");
    EXPECT_EQ(*lru.insert_or_assign(1, "uno"), "uno");
    EXPECT_EQ(lru.size(), 2u);
    lru.insert_or_assign(3, "three");  // evicts 2, not the re-set 1
    EXPECT_EQ(*lru.find(1), "uno");
    EXPECT_EQ(lru.find(2), nullptr);
    EXPECT_EQ(lru.evictions(), 1u);
}

TEST(Lru, Erase)
{
    Lru<int, int> lru(2);
    lru.insert_or_assign(1, 1);
    lru.insert_or_assign(2, 2);
    EXPECT_TRUE(lru.erase(1));
    EXPECT_FALSE(lru.erase(1));
    EXPECT_EQ(lru.find(1), nullptr);
    EXPECT_EQ(lru.size(), 1u);
    lru.insert_or_assign(3, 3);  // room freed by erase: no eviction
    EXPECT_EQ(*lru.find(2), 2);
    EXPECT_EQ(lru.evictions(), 0u);
}

TEST(Lru, CountsEvictions)
{
    Lru<int, int> lru(1);
    for (int i = 0; i < 4; ++i) {
        lru.insert_or_assign(i, i);
    }
    lru.insert_or_assign(3, 33);  // replacing is not an eviction
    EXPECT_EQ(lru.evictions(), 3u);
    EXPECT_EQ(lru.size(), 1u);
}

TEST(Lru, CapacityZeroStoresNothing)
{
    Lru<int, int> lru(0);
    EXPECT_EQ(lru.insert_or_assign(1, 1), nullptr);
    EXPECT_EQ(lru.find(1), nullptr);
    EXPECT_EQ(lru.size(), 0u);
    EXPECT_EQ(lru.evictions(), 0u);
}

TEST(Error, CheckMacroThrowsUserError)
{
    EXPECT_THROW(DIOS_CHECK(false, "bad input"), UserError);
    EXPECT_NO_THROW(DIOS_CHECK(true, "ok"));
    EXPECT_THROW(DIOS_ASSERT(false, "bug"), InternalError);
}

}  // namespace
}  // namespace diospyros
