#include "src/util/str.h"

#include <gtest/gtest.h>

namespace arv {
namespace {

TEST(Strf, FormatsLikePrintf) {
  EXPECT_EQ(strf("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(strf("%.2f", 3.14159), "3.14");
  EXPECT_EQ(strf("%lld", 1234567890123LL), "1234567890123");
}

TEST(Strf, EmptyFormat) { EXPECT_EQ(strf("%s", ""), ""); }

TEST(Strf, LongOutput) {
  const std::string big(5000, 'a');
  EXPECT_EQ(strf("%s", big.c_str()).size(), 5000u);
}

TEST(Trim, StripsWhitespaceBothEnds) {
  EXPECT_EQ(trim("  hello \n"), "hello");
  EXPECT_EQ(trim("\t\r\n x \t"), "x");
}

TEST(Trim, AllWhitespaceBecomesEmpty) { EXPECT_EQ(trim(" \n\t "), ""); }

TEST(Trim, NoWhitespaceUnchanged) { EXPECT_EQ(trim("abc"), "abc"); }

TEST(Trim, InternalWhitespaceKept) { EXPECT_EQ(trim(" a b "), "a b"); }

}  // namespace
}  // namespace arv
