// Rank transforms with tie handling.
//
// The paper (Sec. II-C) evaluates meters with non-parametric rank
// correlation; ties receive the average of the positions they occupy
// ("fractional" ranking), matching the classic Spearman treatment.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace fpsm {

/// Average ranks (1-based) of the values, ascending order. Ties get the mean
/// of the positions they span: ranks of {10, 20, 20, 30} are {1, 2.5, 2.5, 4}.
std::vector<double> averageRanks(std::span<const double> values);

/// Nearest-rank percentile of an ascending sample: the value at 1-based
/// rank ceil(q * n), so the p99 of 100 samples is the 99th value, not the
/// maximum. q in [0, 1] (q = 0 gives the minimum); an empty sample
/// yields 0.
double nearestRankPercentile(std::span<const double> sorted, double q);

/// Ordering permutation: indices of `values` sorted descending (stable).
/// Useful for "guess number" orderings where larger probability = guessed
/// earlier = smaller guess number.
std::vector<std::size_t> descendingOrder(std::span<const double> values);

}  // namespace fpsm
