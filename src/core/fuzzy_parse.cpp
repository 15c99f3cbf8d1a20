#include "core/fuzzy_parse.h"

#include <algorithm>

#include "trie/flat_trie.h"
#include "util/byte_scan.h"
#include "util/chars.h"
#include "util/check.h"
#include "util/error.h"

namespace fpsm {
namespace {

// The two per-byte predicate providers the parse skeleton is generic over.
// ScalarBytes re-derives each answer from the character tables on every
// query — the reference path. TableBytes reads the kernel-precomputed
// ParseScratch arrays — the batch path. Their answers are identical for
// every byte (the kernel property tests enforce it), so the two parse
// paths differ only in how predicates are evaluated, never in outcome.

struct ScalarBytes {
  std::string_view pw;

  char partnerAt(std::size_t pos) const {
    const char c = pw[pos];
    // Only exact bidirectional pairs: 'A' maps toward '@' via its lower
    // case, but '@' renders back as 'a', not 'A', so the roundtrip check
    // excludes upper-case characters from leet matching.
    if (const auto partner = leetPartner(c);
        partner && leetPartner(*partner) == c) {
      return *partner;
    }
    return '\0';
  }
  bool upperAt(std::size_t pos) const { return isUpper(pw[pos]); }
  SegmentClass classAt(std::size_t pos) const {
    return segmentClassOf(pw[pos]);
  }
};

struct TableBytes {
  const ParseScratch* scratch;

  char partnerAt(std::size_t pos) const { return scratch->partner()[pos]; }
  bool upperAt(std::size_t pos) const { return scratch->upper()[pos] != 0; }
  SegmentClass classAt(std::size_t pos) const {
    return static_cast<SegmentClass>(scratch->cls()[pos]);
  }
};

}  // namespace

void ParseScratch::prepare(std::string_view pw) {
  const std::size_t n = pw.size();
  if (partner_.size() < n) {
    partner_.resize(n);
    upper_.resize(n);
    cls_.resize(n);
  }
  const ByteScanKernels& kernels = byteScanKernels();
  kernels.leetPartnerScan(pw.data(), n, partner_.data());
  kernels.upperScan(pw.data(), n, upper_.data());
  kernels.segmentClassScan(pw.data(), n, cls_.data());
  valid_ = n > 0 && kernels.allPrintableAscii(pw.data(), n);
  prepared_ = pw;
}

template <typename TrieT>
BasicFuzzyParser<TrieT>::BasicFuzzyParser(const TrieT& trie,
                                          FuzzyConfig config,
                                          const TrieT* reversedTrie)
    : trie_(trie), reversedTrie_(reversedTrie), config_(config) {
  if (config_.minBaseWordLen == 0) {
    throw InvalidArgument("FuzzyParser: minBaseWordLen must be >= 1");
  }
  if (!validTransformationPrior(config_.transformationPrior)) {
    throw InvalidArgument("FuzzyParser: transformationPrior outside [0, 1e9]");
  }
  if (config_.matchReverse && reversedTrie_ == nullptr) {
    throw InvalidArgument(
        "FuzzyParser: matchReverse requires a reversed trie");
  }
}

template <typename TrieT>
template <typename Bytes>
typename BasicFuzzyParser<TrieT>::MatchResult
BasicFuzzyParser<TrieT>::longestMatchImpl(std::string_view pw,
                                          std::size_t from,
                                          const Bytes& bytes,
                                          std::string& path) const {
  MatchResult best;
  if (trie_.empty() || from >= pw.size()) return best;

  // DFS over the trie. At each password character we try at most three
  // trie-side characters: the character itself, its leet partner, and (for
  // the segment's first character only) its lower-case form. The trie
  // prunes almost immediately in practice; the node budget below bounds
  // the adversarial case (a trie dense in leet-pair strings could
  // otherwise branch exponentially on input like "a@a@a@...").
  path.clear();
  path.reserve(pw.size() - from);
  constexpr int kNodeBudget = 20000;
  int budget = kNodeBudget;

  auto dfs = [&](auto&& self, typename TrieT::NodeId node, std::size_t depth,
                 int transformations) -> void {
    if (--budget < 0) return;
    if (trie_.isTerminal(node) && depth >= config_.minBaseWordLen) {
      if (depth > best.len ||
          (depth == best.len && transformations < best.transformations)) {
        best.len = depth;
        best.base = path;
        best.transformations = transformations;
      }
    }
    const std::size_t pos = from + depth;
    if (pos >= pw.size()) return;
    const char c = pw[pos];

    struct Cand {
      char ch;
      int delta;
    };
    Cand cands[3];
    int n = 0;
    cands[n++] = {c, 0};
    if (config_.matchLeet) {
      if (const char partner = bytes.partnerAt(pos); partner != '\0') {
        cands[n++] = {partner, 1};
      }
    }
    if (config_.matchCapitalization && depth == 0 && bytes.upperAt(pos)) {
      cands[n++] = {toLower(c), 1};
    }
    for (int k = 0; k < n; ++k) {
      if (const auto child = trie_.child(node, cands[k].ch)) {
        path.push_back(cands[k].ch);
        self(self, *child, depth + 1, transformations + cands[k].delta);
        path.pop_back();
      }
    }
  };
  dfs(dfs, TrieT::kRoot, 0, 0);
  return best;
}

template <typename TrieT>
typename BasicFuzzyParser<TrieT>::MatchResult
BasicFuzzyParser<TrieT>::longestMatch(std::string_view pw,
                                      std::size_t from) const {
  std::string path;
  return longestMatchImpl(pw, from, ScalarBytes{pw}, path);
}

std::vector<LeetSite> leetSitesFor(std::string_view base,
                                   std::string_view rendered) {
  std::vector<LeetSite> sites;
  for (std::size_t p = 0; p < base.size(); ++p) {
    const auto rule = leetRuleOf(base[p]);
    if (!rule) continue;
    const auto partner = leetPartner(base[p]);
    const bool transformed =
        p < rendered.size() && partner && rendered[p] == *partner;
    sites.push_back({*rule, transformed});
  }
  return sites;
}

std::string renderSegment(std::string_view base, bool capitalized,
                          const std::vector<LeetSite>& sites,
                          bool reversed) {
  std::string out(base);
  std::size_t siteIdx = 0;
  for (std::size_t p = 0; p < out.size(); ++p) {
    if (!leetRuleOf(out[p])) continue;
    if (siteIdx < sites.size() && sites[siteIdx].transformed) {
      if (const auto partner = leetPartner(out[p])) out[p] = *partner;
    }
    ++siteIdx;
  }
  if (capitalized && !out.empty() && isLower(out[0])) {
    out[0] = toUpper(out[0]);
  }
  if (reversed) std::reverse(out.begin(), out.end());
  return out;
}

template <typename TrieT>
template <typename Bytes>
FuzzyParse BasicFuzzyParser<TrieT>::parseImpl(std::string_view pw,
                                              const Bytes& bytes,
                                              std::string& path) const {
  FuzzyParse result;
  std::size_t i = 0;
  while (i < pw.size()) {
    const MatchResult m = longestMatchImpl(pw, i, bytes, path);
    // Reverse extension: the longest *exact* backwards match; preferred
    // only when strictly longer than the fuzzy forward match (forward
    // matches carry richer transformation information).
    std::size_t revLen = 0;
    if (config_.matchReverse) {
      revLen = reversedTrie_->longestPrefix(pw, i);
      if (revLen < config_.minBaseWordLen || revLen <= m.len) revLen = 0;
    }
    FuzzySegment seg;
    seg.begin = i;
    if (revLen > 0) {
      std::string base(pw.substr(i, revLen));
      std::reverse(base.begin(), base.end());
      seg.base = std::move(base);
      seg.fromTrie = true;
      seg.reversed = true;
      seg.capitalized = false;
      // Sites are decision points of the (unreversed) base form; a
      // reversed segment uses none of them.
      seg.leetSites = leetSitesFor(seg.base, seg.base);
      i += revLen;
    } else if (m.len >= config_.minBaseWordLen) {
      seg.base = m.base;
      seg.fromTrie = true;
      seg.capitalized = bytes.upperAt(i) && !seg.base.empty() &&
                        seg.base[0] == toLower(pw[i]);
      seg.leetSites = leetSitesFor(seg.base, pw.substr(i, m.len));
      i += m.len;
    } else {
      // Fallback: maximal same-class run (traditional PCFG segmentation).
      const SegmentClass cls = bytes.classAt(i);
      std::size_t j = i + 1;
      while (j < pw.size() && bytes.classAt(j) == cls) {
        if (config_.retryTrieInsideRuns &&
            longestMatchImpl(pw, j, bytes, path).len >=
                config_.minBaseWordLen) {
          break;
        }
        ++j;
      }
      std::string base(pw.substr(i, j - i));
      seg.fromTrie = false;
      seg.capitalized = bytes.upperAt(i);
      if (seg.capitalized) base[0] = toLower(base[0]);
      seg.base = std::move(base);
      // Fallback text *is* the base form: every leet-capable character is
      // an untransformed decision site (cf. the paper's B1 -> 1 example,
      // which still contributes a P(L4 -> No) factor).
      seg.leetSites = leetSitesFor(seg.base, seg.base);
      i = j;
    }
    result.segments.push_back(std::move(seg));
  }
  // Tiling postcondition: the segments must cover pw exactly, gap-free.
  // Every downstream consumer (derivation scoring, explain, suggest)
  // assumes it; a violation means the matcher mis-advanced `i`.
  FPSM_DCHECK([&] {
    std::size_t covered = 0;
    for (const auto& s : result.segments) covered += s.length();
    return covered == pw.size();
  }());
  for (const auto& s : result.segments) {
    result.structure.push_back('B');
    result.structure += std::to_string(s.length());
  }
  return result;
}

template <typename TrieT>
FuzzyParse BasicFuzzyParser<TrieT>::parse(std::string_view pw) const {
  validatePassword(pw);
  std::string path;
  return parseImpl(pw, ScalarBytes{pw}, path);
}

template <typename TrieT>
FuzzyParse BasicFuzzyParser<TrieT>::parse(std::string_view pw,
                                          ParseScratch& scratch) const {
  // The scratch must describe exactly this string (same bytes, same
  // buffer); a stale scratch would silently parse under another password's
  // tables.
  FPSM_DCHECK(scratch.prepared().data() == pw.data() &&
              scratch.prepared().size() == pw.size());
  if (!scratch.valid()) {
    validatePassword(pw);  // throws with the canonical message
    // The kernels and validatePassword implement the same predicate; a
    // disagreement means a broken byte kernel, not a caller error.
    FPSM_CHECK(false);
  }
  return parseImpl(pw, TableBytes{&scratch}, scratch.path_);
}

template class BasicFuzzyParser<Trie>;
template class BasicFuzzyParser<FlatTrieView>;

}  // namespace fpsm
