#include "artifact/flat_grammar.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace fpsm {

std::uint64_t FlatTableView::count(std::string_view form) const {
  // Binary search over the lexicographically sorted entries, comparing
  // directly against the mapped string pool.
  std::uint32_t lo = 0;
  std::uint32_t hi = distinct_;
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    const std::string_view entry(pool_ + strOff_[mid], strLen_[mid]);
    if (entry < form) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < distinct_) {
    const std::string_view entry(pool_ + strOff_[lo], strLen_[lo]);
    if (entry == form) return counts_[lo];
  }
  return 0;
}

const FlatTableView* FlatGrammarView::segmentTable(std::size_t len) const {
  const auto it = std::lower_bound(
      segments_.begin(), segments_.end(), len,
      [](const auto& entry, std::size_t l) { return entry.first < l; });
  if (it != segments_.end() && it->first == len) return &it->second;
  return nullptr;
}

// The grammar's probability arithmetic. Every score, sample, guess and
// explanation goes through these, so the float expressions are pinned by
// the worked examples in tests/core_test.cpp, the golden artifact and the
// claims digest: a change that reorders them moves the last bits of every
// score.

double FlatGrammarView::capProb(bool yes) const {
  const double prior = config_.transformationPrior;
  const double denom = static_cast<double>(capTotal_) + 2.0 * prior;
  if (denom <= 0.0) return 1.0;  // no information: neutral factor
  const double numer =
      (yes ? static_cast<double>(capYes_)
           : static_cast<double>(capTotal_ - capYes_)) +
      prior;
  return numer / denom;
}

double FlatGrammarView::leetProb(int rule, bool yes) const {
  const auto r = static_cast<std::size_t>(rule);
  const double prior = config_.transformationPrior;
  const double denom = static_cast<double>(leetTotal_[r]) + 2.0 * prior;
  if (denom <= 0.0) return 1.0;
  const double numer =
      (yes ? static_cast<double>(leetYes_[r])
           : static_cast<double>(leetTotal_[r] - leetYes_[r])) +
      prior;
  return numer / denom;
}

double FlatGrammarView::revProb(bool yes) const {
  const double prior = config_.transformationPrior;
  const double denom = static_cast<double>(revTotal_) + 2.0 * prior;
  if (denom <= 0.0) return yes ? 0.0 : 1.0;
  const double numer =
      (yes ? static_cast<double>(revYes_)
           : static_cast<double>(revTotal_ - revYes_)) +
      prior;
  return numer / denom;
}

FuzzyParse FlatGrammarView::parse(std::string_view pw) const {
  return BasicFuzzyParser<FlatTrieView>(trie_, config_, &reversedTrie_)
      .parse(pw);
}

double FlatGrammarView::derivationLog2Prob(const FuzzyParse& p) const {
  const double ps = structures_.probability(p.structure);
  if (ps <= 0.0) return -kInfiniteBits;
  double lp = std::log2(ps);
  for (const auto& seg : p.segments) {
    const FlatTableView* table = segmentTable(seg.length());
    const double pseg =
        table == nullptr ? 0.0 : table->probability(seg.base);
    if (pseg <= 0.0) return -kInfiniteBits;
    lp += std::log2(pseg);
    const double pc = capProb(seg.capitalized);
    if (pc <= 0.0) return -kInfiniteBits;
    lp += std::log2(pc);
    if (config_.matchReverse) {
      const double pr = revProb(seg.reversed);
      if (pr <= 0.0) return -kInfiniteBits;
      lp += std::log2(pr);
    }
    for (const auto& site : seg.leetSites) {
      const double pl = leetProb(site.rule, site.transformed);
      if (pl <= 0.0) return -kInfiniteBits;
      lp += std::log2(pl);
    }
  }
  return lp;
}

double FlatGrammarView::log2Prob(std::string_view pw) const {
  if (!trained()) throw NotTrained("FlatGrammarView: not trained");
  if (!isValidPassword(pw)) return -kInfiniteBits;
  return derivationLog2Prob(parse(pw));
}

void FlatGrammarView::log2ProbBatch(const std::string_view* pws,
                                    std::size_t n, double* out) const {
  if (!trained()) throw NotTrained("FlatGrammarView: not trained");
  // One parser and one scratch for the whole batch: construction cost and
  // buffer allocations amortize across the n passwords, and the scratch's
  // kernel-filled byte tables replace the per-character predicate calls of
  // the scalar path. Scores are bit-identical because the parse skeleton
  // is shared (core/fuzzy_parse.cpp) and derivationLog2Prob is the same
  // function either way.
  const BasicFuzzyParser<FlatTrieView> parser(trie_, config_,
                                              &reversedTrie_);
  ParseScratch scratch;
  for (std::size_t i = 0; i < n; ++i) {
    scratch.prepare(pws[i]);
    if (!scratch.valid()) {
      out[i] = -kInfiniteBits;  // same fate isValidPassword hands log2Prob
      continue;
    }
    out[i] = derivationLog2Prob(parser.parse(pws[i], scratch));
  }
}

void FlatGrammarView::strengthBitsBatch(const std::string_view* pws,
                                        std::size_t n, double* out) const {
  log2ProbBatch(pws, n, out);
  for (std::size_t i = 0; i < n; ++i) out[i] = -out[i];
}

}  // namespace fpsm
