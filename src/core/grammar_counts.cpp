#include "core/grammar_counts.h"

#include <algorithm>

namespace fpsm {

void GrammarCounts::addParse(const FuzzyParse& parse, std::uint64_t n,
                             bool countReverse) {
  if (n == 0) return;
  structures_.add(parse.structure, n);
  for (const auto& seg : parse.segments) {
    segments_[seg.length()].add(seg.base, n);
    capTotal_ += n;
    if (seg.capitalized) capYes_ += n;
    if (countReverse) {
      revTotal_ += n;
      if (seg.reversed) revYes_ += n;
    }
    for (const auto& site : seg.leetSites) {
      leetTotal_[static_cast<std::size_t>(site.rule)] += n;
      if (site.transformed) {
        leetYes_[static_cast<std::size_t>(site.rule)] += n;
      }
    }
  }
  trainedPasswords_ += n;
}

void GrammarCounts::merge(const GrammarCounts& other) {
  other.structures_.forEach([this](std::string_view form, std::uint64_t c) {
    structures_.add(form, c);
  });
  for (const auto& [len, table] : other.segments_) {
    SegmentTable& dst = segments_[len];
    table.forEach([&dst](std::string_view form, std::uint64_t c) {
      dst.add(form, c);
    });
  }
  capYes_ += other.capYes_;
  capTotal_ += other.capTotal_;
  revYes_ += other.revYes_;
  revTotal_ += other.revTotal_;
  for (std::size_t r = 0; r < static_cast<std::size_t>(kNumLeetRules); ++r) {
    leetYes_[r] += other.leetYes_[r];
    leetTotal_[r] += other.leetTotal_[r];
  }
  trainedPasswords_ += other.trainedPasswords_;
}

const SegmentTable* GrammarCounts::segmentTable(std::size_t len) const {
  const auto it = segments_.find(len);
  return it == segments_.end() ? nullptr : &it->second;
}

std::vector<std::size_t> GrammarCounts::segmentLengths() const {
  std::vector<std::size_t> lengths;
  lengths.reserve(segments_.size());
  for (const auto& [len, table] : segments_) {
    (void)table;
    lengths.push_back(len);
  }
  std::sort(lengths.begin(), lengths.end());
  return lengths;
}

}  // namespace fpsm
