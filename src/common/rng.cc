#include "common/rng.h"

#include <unordered_set>

namespace tgsim {

std::vector<int64_t> Rng::SampleWithoutReplacement(int64_t n, int64_t k) {
  TGSIM_CHECK_GE(n, k);
  TGSIM_CHECK_GE(k, 0);
  std::unordered_set<int64_t> chosen;
  std::vector<int64_t> result;
  result.reserve(static_cast<size_t>(k));
  // Floyd's algorithm: k iterations, each adding exactly one new element.
  for (int64_t j = n - k; j < n; ++j) {
    int64_t t = UniformInt(j + 1);
    if (chosen.count(t)) t = j;
    chosen.insert(t);
    result.push_back(t);
  }
  return result;
}

}  // namespace tgsim
