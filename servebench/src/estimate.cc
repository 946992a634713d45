#include "estimate.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace servebench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Family::PassTotal(int pass) const {
  double total = 0.0;
  for (double seconds : passes_[pass]) total += seconds;
  return total;
}

std::vector<double> Family::FastestReplays(int first_pass, int keep) const {
  std::vector<double> pooled;
  if (first_pass >= passes()) return pooled;
  const std::size_t ops = passes_[first_pass].size();
  std::vector<double> replays;
  for (std::size_t k = 0; k < ops; ++k) {
    replays.clear();
    for (int i = first_pass; i < passes(); ++i) {
      if (k < passes_[i].size()) replays.push_back(passes_[i][k]);
    }
    std::sort(replays.begin(), replays.end());
    const std::size_t take =
        std::min<std::size_t>(replays.size(), static_cast<std::size_t>(keep));
    pooled.insert(pooled.end(), replays.begin(), replays.begin() + take);
  }
  return pooled;
}

}  // namespace servebench
