#include "src/core/policy.h"

namespace arv::core {

const char* decision_name(Decision d) {
  switch (d) {
    case Decision::kHeld:
      return "held";
    case Decision::kGrew:
      return "grew";
    case Decision::kShrank:
      return "shrank";
    case Decision::kClamped:
      return "clamped";
    case Decision::kReset:
      return "reset";
  }
  return "unknown";
}

void DecisionCounters::count(Decision d) {
  switch (d) {
    case Decision::kHeld:
      ++held;
      break;
    case Decision::kGrew:
      ++grew;
      break;
    case Decision::kShrank:
      ++shrank;
      break;
    case Decision::kClamped:
      ++clamped;
      break;
    case Decision::kReset:
      ++reset;
      break;
  }
}

}  // namespace arv::core
