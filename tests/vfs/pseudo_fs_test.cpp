#include "src/vfs/pseudo_fs.h"

#include <gtest/gtest.h>

namespace arv::vfs {
namespace {

TEST(PseudoFs, ReadRegisteredFile) {
  PseudoFs fs;
  fs.register_file("/proc/version", [] { return std::string("arv 1.0\n"); });
  EXPECT_TRUE(fs.exists("/proc/version"));
  EXPECT_EQ(fs.read("/proc/version"), "arv 1.0\n");
}

TEST(PseudoFs, MissingFileIsNullopt) {
  PseudoFs fs;
  EXPECT_FALSE(fs.exists("/nope"));
  EXPECT_EQ(fs.read("/nope"), std::nullopt);
}

TEST(PseudoFs, ProviderEvaluatedAtReadTime) {
  PseudoFs fs;
  int counter = 0;
  fs.register_file("/counter", [&] { return std::to_string(++counter); });
  EXPECT_EQ(fs.read("/counter"), "1");
  EXPECT_EQ(fs.read("/counter"), "2");
}

TEST(PseudoFs, WriteToReadOnlyFails) {
  PseudoFs fs;
  fs.register_file("/ro", [] { return std::string("x"); });
  EXPECT_FALSE(fs.write("/ro", "y"));
}

TEST(PseudoFs, WriteToMissingFails) {
  PseudoFs fs;
  EXPECT_FALSE(fs.write("/nope", "y"));
}

TEST(PseudoFs, WritableRoundTrip) {
  PseudoFs fs;
  std::string value = "1024";
  fs.register_writable(
      "/knob", [&] { return value; },
      [&](std::string_view v) {
        value = std::string(v);
        return true;
      });
  EXPECT_TRUE(fs.write("/knob", "2048"));
  EXPECT_EQ(fs.read("/knob"), "2048");
}

TEST(PseudoFs, WriteHandlerCanReject) {
  PseudoFs fs;
  fs.register_writable(
      "/strict", [] { return std::string("ok"); },
      [](std::string_view v) { return v == "ok"; });
  EXPECT_TRUE(fs.write("/strict", "ok"));
  EXPECT_FALSE(fs.write("/strict", "bad"));
}

TEST(PseudoFs, ReRegisterReplaces) {
  PseudoFs fs;
  fs.register_file("/f", [] { return std::string("old"); });
  fs.register_file("/f", [] { return std::string("new"); });
  EXPECT_EQ(fs.read("/f"), "new");
  EXPECT_EQ(fs.file_count(), 1u);
}

TEST(PseudoFs, RemoveSingle) {
  PseudoFs fs;
  fs.register_file("/a", [] { return std::string(); });
  fs.remove("/a");
  EXPECT_FALSE(fs.exists("/a"));
}

TEST(PseudoFs, RemoveSubtree) {
  PseudoFs fs;
  fs.register_file("/sys/a/x", [] { return std::string(); });
  fs.register_file("/sys/a/y", [] { return std::string(); });
  fs.register_file("/sys/ab", [] { return std::string(); });
  fs.remove_subtree("/sys/a/");
  EXPECT_FALSE(fs.exists("/sys/a/x"));
  EXPECT_FALSE(fs.exists("/sys/a/y"));
  EXPECT_TRUE(fs.exists("/sys/ab"));  // prefix is path-precise
}

TEST(PseudoFs, ListSortedByPath) {
  PseudoFs fs;
  fs.register_file("/d/b", [] { return std::string(); });
  fs.register_file("/d/a", [] { return std::string(); });
  fs.register_file("/e", [] { return std::string(); });
  const auto listed = fs.list("/d/");
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0], "/d/a");
  EXPECT_EQ(listed[1], "/d/b");
}

TEST(PseudoFsDeath, PathsMustBeAbsolute) {
  PseudoFs fs;
  EXPECT_DEATH(fs.register_file("relative", [] { return std::string(); }), "");
}

}  // namespace
}  // namespace arv::vfs
