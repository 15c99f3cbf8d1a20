#include "meters/segment_table.h"

#include <algorithm>

#include "util/error.h"

namespace fpsm {

void SegmentTable::add(std::string_view form, std::uint64_t n) {
  if (n == 0) return;
  // Every count is at most total_, so a total that fits means the entry's
  // new count fits too; checking first leaves the table untouched on throw.
  const std::uint64_t total = checkedCountAdd(total_, n, "SegmentTable::add");
  auto it = counts_.find(form);
  if (it == counts_.end()) {
    counts_.emplace(std::string(form), n);
  } else {
    it->second += n;
  }
  total_ = total;
  dirty_ = true;
}

std::uint64_t SegmentTable::count(std::string_view form) const {
  const auto it = counts_.find(form);
  return it == counts_.end() ? 0 : it->second;
}

double SegmentTable::probability(std::string_view form) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(count(form)) / static_cast<double>(total_);
}

void SegmentTable::refreshCache() const {
  sortedCache_.clear();
  sortedCache_.reserve(counts_.size());
  for (const auto& [form, c] : counts_) sortedCache_.push_back({form, c});
  std::sort(sortedCache_.begin(), sortedCache_.end(),
            [](const Item& a, const Item& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.form < b.form;
            });
  cumulativeCache_.resize(sortedCache_.size());
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < sortedCache_.size(); ++i) {
    acc += sortedCache_[i].count;
    cumulativeCache_[i] = acc;
  }
  dirty_ = false;
}

const std::vector<SegmentTable::Item>& SegmentTable::sortedDesc() const {
  if (dirty_) refreshCache();
  return sortedCache_;
}

std::string_view SegmentTable::sample(Rng& rng) const {
  if (total_ == 0) throw InvalidArgument("SegmentTable::sample: empty table");
  if (dirty_) refreshCache();
  const std::uint64_t target = rng.below(total_);
  const auto it = std::upper_bound(cumulativeCache_.begin(),
                                   cumulativeCache_.end(), target);
  const auto idx =
      static_cast<std::size_t>(it - cumulativeCache_.begin());
  return sortedCache_[idx].form;
}

}  // namespace fpsm
