#include "src/util/cpuset.h"

#include <gtest/gtest.h>

namespace arv {
namespace {

TEST(CpuSet, DefaultIsEmpty) {
  CpuSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.span(), 0);
  EXPECT_EQ(s.to_string(), "");
}

TEST(CpuSet, FirstN) {
  const CpuSet s = CpuSet::first_n(4);
  EXPECT_EQ(s.count(), 4);
  EXPECT_TRUE(s.contains(0));
  EXPECT_TRUE(s.contains(3));
  EXPECT_FALSE(s.contains(4));
  EXPECT_EQ(s.span(), 4);
}

TEST(CpuSet, FirstNAcrossWordBoundaries) {
  for (const int n : {0, 1, 63, 64, 65, 127, 128, 200, CpuSet::kMaxCpus}) {
    const CpuSet s = CpuSet::first_n(n);
    EXPECT_EQ(s.count(), n) << n;
    EXPECT_EQ(s.span(), n) << n;
    EXPECT_EQ(s.contains(n - 1), n > 0) << n;
    EXPECT_FALSE(s.contains(n)) << n;
  }
}

TEST(CpuSet, SetAndClear) {
  CpuSet s;
  s.set(5);
  EXPECT_TRUE(s.contains(5));
  EXPECT_EQ(s.count(), 1);
  s.clear(5);
  EXPECT_TRUE(s.empty());
}

TEST(CpuSet, ContainsOutOfRangeIsFalse) {
  const CpuSet s = CpuSet::first_n(8);
  EXPECT_FALSE(s.contains(-1));
  EXPECT_FALSE(s.contains(CpuSet::kMaxCpus));
  EXPECT_FALSE(s.contains(100000));
}

TEST(CpuSet, ParseSingle) {
  const auto s = CpuSet::parse("3");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->count(), 1);
  EXPECT_TRUE(s->contains(3));
}

TEST(CpuSet, ParseRange) {
  const auto s = CpuSet::parse("0-3");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->count(), 4);
}

TEST(CpuSet, ParseMixed) {
  const auto s = CpuSet::parse("0-2,5,8-9");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->count(), 6);
  EXPECT_TRUE(s->contains(5));
  EXPECT_TRUE(s->contains(9));
  EXPECT_FALSE(s->contains(4));
}

TEST(CpuSet, ParseTrailingNewlineTolerated) {
  const auto s = CpuSet::parse("0-19\n");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->count(), 20);
}

TEST(CpuSet, ParseEmptyGivesEmptyMask) {
  const auto s = CpuSet::parse("");
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(s->empty());
}

TEST(CpuSet, ParseRejectsMalformed) {
  EXPECT_FALSE(CpuSet::parse("a").has_value());
  EXPECT_FALSE(CpuSet::parse("1-").has_value());
  EXPECT_FALSE(CpuSet::parse("3-1").has_value());
  EXPECT_FALSE(CpuSet::parse("1,,2").has_value());
  EXPECT_FALSE(CpuSet::parse("-1").has_value());
  EXPECT_FALSE(CpuSet::parse("1;2").has_value());
}

TEST(CpuSet, ParseRejectsOutOfRange) {
  EXPECT_FALSE(CpuSet::parse("256").has_value());
  EXPECT_FALSE(CpuSet::parse("0-999").has_value());
}

TEST(CpuSet, ToStringCollapsesRuns) {
  CpuSet s;
  for (const int cpu : {0, 1, 2, 5, 8, 9}) {
    s.set(cpu);
  }
  EXPECT_EQ(s.to_string(), "0-2,5,8-9");
}

TEST(CpuSet, RoundTrip) {
  const char* cases[] = {"0", "0-7", "1,3,5", "0-3,10-12,255"};
  for (const char* text : cases) {
    const auto parsed = CpuSet::parse(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_EQ(parsed->to_string(), text);
  }
}

TEST(CpuSet, Intersection) {
  const CpuSet a = *CpuSet::parse("0-5");
  const CpuSet b = *CpuSet::parse("4-9");
  EXPECT_EQ((a & b).to_string(), "4-5");
}

TEST(CpuSet, Union) {
  const CpuSet a = *CpuSet::parse("0-1");
  const CpuSet b = *CpuSet::parse("3");
  EXPECT_EQ((a | b).to_string(), "0-1,3");
}

TEST(CpuSet, Equality) {
  EXPECT_EQ(*CpuSet::parse("0-3"), CpuSet::first_n(4));
  EXPECT_NE(*CpuSet::parse("0-2"), CpuSet::first_n(4));
}

TEST(CpuSet, SpanVersusCount) {
  const CpuSet s = *CpuSet::parse("10,20");
  EXPECT_EQ(s.count(), 2);
  EXPECT_EQ(s.span(), 21);
}

}  // namespace
}  // namespace arv
