#include "core/grammar_counts.h"

#include <algorithm>

#include "util/error.h"

namespace fpsm {

void GrammarCounts::addParse(const FuzzyParse& parse, std::uint64_t n,
                             bool countReverse) {
  if (n == 0) return;
  constexpr const char* kWhere = "GrammarCounts::addParse";
  structures_.add(parse.structure, n);
  for (const auto& seg : parse.segments) {
    segments_[seg.length()].add(seg.base, n);
    capTotal_ = checkedCountAdd(capTotal_, n, kWhere);
    if (seg.capitalized) capYes_ = checkedCountAdd(capYes_, n, kWhere);
    if (countReverse) {
      revTotal_ = checkedCountAdd(revTotal_, n, kWhere);
      if (seg.reversed) revYes_ = checkedCountAdd(revYes_, n, kWhere);
    }
    for (const auto& site : seg.leetSites) {
      const auto r = static_cast<std::size_t>(site.rule);
      leetTotal_[r] = checkedCountAdd(leetTotal_[r], n, kWhere);
      if (site.transformed) {
        leetYes_[r] = checkedCountAdd(leetYes_[r], n, kWhere);
      }
    }
  }
  trainedPasswords_ = checkedCountAdd(trainedPasswords_, n, kWhere);
}

void GrammarCounts::merge(const GrammarCounts& other) {
  constexpr const char* kWhere = "GrammarCounts::merge";
  other.structures_.forEach([this](std::string_view form, std::uint64_t c) {
    structures_.add(form, c);
  });
  for (const auto& [len, table] : other.segments_) {
    SegmentTable& dst = segments_[len];
    table.forEach([&dst](std::string_view form, std::uint64_t c) {
      dst.add(form, c);
    });
  }
  capYes_ = checkedCountAdd(capYes_, other.capYes_, kWhere);
  capTotal_ = checkedCountAdd(capTotal_, other.capTotal_, kWhere);
  revYes_ = checkedCountAdd(revYes_, other.revYes_, kWhere);
  revTotal_ = checkedCountAdd(revTotal_, other.revTotal_, kWhere);
  for (std::size_t r = 0; r < static_cast<std::size_t>(kNumLeetRules); ++r) {
    leetYes_[r] = checkedCountAdd(leetYes_[r], other.leetYes_[r], kWhere);
    leetTotal_[r] =
        checkedCountAdd(leetTotal_[r], other.leetTotal_[r], kWhere);
  }
  trainedPasswords_ =
      checkedCountAdd(trainedPasswords_, other.trainedPasswords_, kWhere);
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
