// Count table over terminal strings (segments / base structures), shared by
// the PCFG baseline (src/meters/pcfg) and the fuzzy grammar (src/core).
//
// Supports incremental updates (the meters' adaptive "update phase"),
// maximum-likelihood probabilities, weighted sampling, and a cached
// descending-probability view used by the guess enumerators.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/hash.h"
#include "util/rng.h"

namespace fpsm {

class SegmentTable {
 public:
  struct Item {
    std::string form;
    std::uint64_t count;
  };

  /// Adds n occurrences of form. Throws InvalidArgument, leaving the table
  /// unchanged, when the total would overflow 64 bits.
  void add(std::string_view form, std::uint64_t n = 1);

  std::uint64_t count(std::string_view form) const;
  std::uint64_t total() const { return total_; }
  std::size_t distinct() const { return counts_.size(); }
  bool empty() const { return counts_.empty(); }

  /// Maximum-likelihood probability count/total; 0 for unseen forms or an
  /// empty table.
  double probability(std::string_view form) const;

  /// Items sorted by descending count (ties lexicographic). Cached; the
  /// cache is invalidated by add().
  const std::vector<Item>& sortedDesc() const;

  /// Draws a form with probability proportional to its count. Throws
  /// InvalidArgument if the table is empty.
  std::string_view sample(Rng& rng) const;

  /// Visits every (form, count) pair in unspecified order.
  template <typename Fn>
  void forEach(Fn&& fn) const {
    for (const auto& [form, c] : counts_) fn(std::string_view(form), c);
  }

 private:
  StringMap<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  mutable std::vector<Item> sortedCache_;
  mutable std::vector<std::uint64_t> cumulativeCache_;  // aligned with sorted
  mutable bool dirty_ = true;

  void refreshCache() const;
};

}  // namespace fpsm
