#include "tests/testing/golden.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "src/util/str.h"

namespace arv::testing {
namespace {

std::vector<std::string> to_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string current;
  for (const char c : text) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) {
    lines.push_back(current);
  }
  return lines;
}

}  // namespace

bool regenerate_requested() {
  const char* value = std::getenv("ARV_REGOLDEN");
  return value != nullptr && value[0] != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

std::string diff_lines(const std::string& expected, const std::string& actual,
                       int max_reported) {
  const auto want = to_lines(expected);
  const auto got = to_lines(actual);
  const std::size_t rows = std::max(want.size(), got.size());
  std::string out;
  int reported = 0;
  int total = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    const std::string* w = i < want.size() ? &want[i] : nullptr;
    const std::string* g = i < got.size() ? &got[i] : nullptr;
    if (w && g && *w == *g) {
      continue;
    }
    ++total;
    if (reported >= max_reported) {
      continue;
    }
    ++reported;
    out += strf("line %zu:\n", i + 1);
    out += strf("  golden: %s\n", w ? w->c_str() : "<missing>");
    out += strf("  actual: %s\n", g ? g->c_str() : "<missing>");
  }
  if (total > reported) {
    out += strf("... and %d more differing lines\n", total - reported);
  }
  if (total > 0) {
    out += strf("(%zu golden lines vs %zu actual lines, %d differ)\n",
                want.size(), got.size(), total);
  }
  // to_lines() collapses "a" and "a\n" to the same line list, so a byte
  // mismatch can otherwise slip through with an empty diff. Report the
  // trailing-newline difference explicitly.
  const bool want_nl = !expected.empty() && expected.back() == '\n';
  const bool got_nl = !actual.empty() && actual.back() == '\n';
  if (want_nl != got_nl) {
    out += strf("trailing newline: golden %s, actual %s\n",
                want_nl ? "present" : "missing", got_nl ? "present" : "missing");
  }
  return out;
}

GoldenResult compare_golden(const std::string& path, const std::string& actual) {
  if (regenerate_requested()) {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    if (!file) {
      return {false, "cannot write golden file " + path};
    }
    file << actual;
    return {true, "regenerated " + path};
  }
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return {false,
            "golden file missing: " + path +
                "\nregenerate with: ARV_REGOLDEN=1 ctest -R GoldenTrace"};
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const std::string expected = buffer.str();
  if (expected == actual) {
    return {true, ""};
  }
  return {false, "trace diverges from golden " + path + ":\n" +
                     diff_lines(expected, actual) +
                     "if the change is intended, regenerate with: "
                     "ARV_REGOLDEN=1 ctest -R GoldenTrace"};
}

}  // namespace arv::testing
