#include "stats/rank.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

namespace fpsm {

std::vector<double> averageRanks(std::span<const double> values) {
  const std::size_t n = values.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return values[a] < values[b];
  });

  std::vector<double> ranks(n);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && values[order[j + 1]] == values[order[i]]) ++j;
    // positions i..j (0-based) share the average 1-based rank
    const double avg = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = avg;
    i = j + 1;
  }
  return ranks;
}

double nearestRankPercentile(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  // q is rounded to parts per million first so the rank is computed in
  // integers: 0.07 * 100 is 7.000000000000001 in doubles, and its ceil
  // would land one rank too high.
  const auto ppm =
      static_cast<std::uint64_t>(std::llround(std::clamp(q, 0.0, 1.0) * 1e6));
  const std::uint64_t n = sorted.size();
  const std::uint64_t rank = (ppm * n + 999999) / 1000000;
  return sorted[rank == 0 ? 0 : rank - 1];
}

std::vector<std::size_t> descendingOrder(std::span<const double> values) {
  std::vector<std::size_t> order(values.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return values[a] > values[b];
                   });
  return order;
}

}  // namespace fpsm
