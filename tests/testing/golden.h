// Golden-trace regression support.
//
// A golden test serializes a deterministic trace (TraceRecorder::to_csv) and
// compares it byte-for-byte against a checked-in file. On mismatch the
// failure message carries a line diff, so a perturbed Algorithm 1/2 constant
// shows up as "e_cpu stepped to 7 instead of 6 at t=1.2s" rather than a
// boolean. Regeneration: run the same tests with ARV_REGOLDEN=1 in the
// environment and the goldens are rewritten in place (see
// docs/OBSERVABILITY.md).
#pragma once

#include <string>

namespace arv::testing {

/// True when the ARV_REGOLDEN environment variable is set to anything but
/// "" or "0" — the documented golden-regeneration switch.
bool regenerate_requested();

struct GoldenResult {
  bool ok = false;
  std::string message;  ///< diff / instructions when !ok, note when ok
};

/// Compare `actual` with the file at `path`. Under ARV_REGOLDEN the file is
/// (re)written and the comparison passes. A missing golden fails with
/// regeneration instructions.
GoldenResult compare_golden(const std::string& path, const std::string& actual);

/// Line-oriented diff of two texts: the first `max_reported` differing lines
/// with 1-based line numbers, plus a summary count. Empty when equal.
std::string diff_lines(const std::string& expected, const std::string& actual,
                       int max_reported = 12);

}  // namespace arv::testing
