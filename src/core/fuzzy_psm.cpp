#include "core/fuzzy_psm.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "util/error.h"
#include "util/hash.h"

namespace fpsm {
namespace {

/// Decodes a structure key ("B8B1") into segment lengths.
std::vector<std::size_t> decodeStructure(std::string_view key) {
  std::vector<std::size_t> lengths;
  std::size_t i = 0;
  while (i < key.size()) {
    if (key[i] != 'B') throw Error("bad structure key: " + std::string(key));
    ++i;
    std::size_t len = 0;
    bool any = false;
    while (i < key.size() && isDigit(key[i])) {
      len = len * 10 + static_cast<std::size_t>(key[i] - '0');
      ++i;
      any = true;
    }
    if (!any || len == 0) {
      throw Error("bad structure key: " + std::string(key));
    }
    lengths.push_back(len);
  }
  return lengths;
}

}  // namespace

FuzzyPsm::FuzzyPsm(FuzzyConfig config) : config_(config) {
  // Validate eagerly by constructing a parser once.
  FuzzyParser validator(trie_, config_, &reversedTrie_);
  (void)validator;
}

void FuzzyPsm::addBaseWord(std::string_view word) {
  if (word.size() < config_.minBaseWordLen) return;
  if (!isValidPassword(word)) return;
  const std::string lower = toLowerCopy(word);
  if (trie_.insert(lower)) {
    baseWords_.push_back(lower);
    if (config_.matchReverse) {
      std::string rev(lower.rbegin(), lower.rend());
      reversedTrie_.insert(rev);
    }
  }
}

void FuzzyPsm::loadBaseDictionary(const Dataset& base) {
  base.forEach(
      [this](std::string_view pw, std::uint64_t) { addBaseWord(pw); });
}

FuzzyParse FuzzyPsm::parse(std::string_view pw) const {
  return FuzzyParser(trie_, config_, &reversedTrie_).parse(pw);
}

void FuzzyPsm::update(std::string_view pw, std::uint64_t n) {
  if (n == 0) return;
  counts_.addParse(parse(pw), n, config_.matchReverse);
}

void FuzzyPsm::train(const Dataset& training) {
  training.forEach(
      [this](std::string_view pw, std::uint64_t c) { update(pw, c); });
}

double FuzzyPsm::capProb(bool yes) const {
  const double prior = config_.transformationPrior;
  const std::uint64_t yesCount = counts_.capYes();
  const std::uint64_t total = counts_.capTotal();
  const double denom = static_cast<double>(total) + 2.0 * prior;
  if (denom <= 0.0) return 1.0;  // no information: neutral factor
  const double numer =
      (yes ? static_cast<double>(yesCount)
           : static_cast<double>(total - yesCount)) +
      prior;
  return numer / denom;
}

double FuzzyPsm::leetProb(int rule, bool yes) const {
  const double prior = config_.transformationPrior;
  const std::uint64_t yesCount = counts_.leetYes(rule);
  const std::uint64_t total = counts_.leetTotal(rule);
  const double denom = static_cast<double>(total) + 2.0 * prior;
  if (denom <= 0.0) return 1.0;
  const double numer =
      (yes ? static_cast<double>(yesCount)
           : static_cast<double>(total - yesCount)) +
      prior;
  return numer / denom;
}

double FuzzyPsm::revProb(bool yes) const {
  const double prior = config_.transformationPrior;
  const std::uint64_t yesCount = counts_.revYes();
  const std::uint64_t total = counts_.revTotal();
  const double denom = static_cast<double>(total) + 2.0 * prior;
  if (denom <= 0.0) return yes ? 0.0 : 1.0;
  const double numer =
      (yes ? static_cast<double>(yesCount)
           : static_cast<double>(total - yesCount)) +
      prior;
  return numer / denom;
}

double FuzzyPsm::capitalizeYesProb() const { return capProb(true); }
double FuzzyPsm::leetYesProb(int rule) const { return leetProb(rule, true); }
double FuzzyPsm::reverseYesProb() const {
  return config_.matchReverse ? revProb(true) : 0.0;
}

double FuzzyPsm::derivationLog2Prob(const FuzzyParse& p) const {
  const double ps = counts_.structures().probability(p.structure);
  if (ps <= 0.0) return -kInfiniteBits;
  double lp = std::log2(ps);
  for (const auto& seg : p.segments) {
    const SegmentTable* table = segmentTable(seg.length());
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

double FuzzyPsm::log2Prob(std::string_view pw) const {
  if (!trained()) throw NotTrained("FuzzyPsm: not trained");
  if (!isValidPassword(pw)) return -kInfiniteBits;
  return derivationLog2Prob(parse(pw));
}

std::string FuzzyPsm::sample(Rng& rng) const {
  if (!trained()) throw NotTrained("FuzzyPsm: not trained");
  // Sample a derivation, render it, and accept only when the rendered
  // string's canonical parse has the same probability as the sampled
  // derivation — rejection keeps the sampling distribution proportional
  // to the distribution the meter scores with (see DESIGN.md).
  std::string rendered;
  for (int attempt = 0; attempt < 100; ++attempt) {
    const std::string_view structKey = counts_.structures().sample(rng);
    const auto lengths = decodeStructure(structKey);
    rendered.clear();
    double lp = std::log2(counts_.structures().probability(structKey));
    bool feasible = true;
    for (const std::size_t len : lengths) {
      const SegmentTable* table = segmentTable(len);
      if (table == nullptr || table->empty()) {
        feasible = false;
        break;
      }
      const std::string base(table->sample(rng));
      lp += std::log2(table->probability(base));
      // Reverse decision first (extension): a reversed segment is exact,
      // so its canonical derivation has cap = No and every leet site No.
      bool rev = false;
      if (config_.matchReverse) {
        rev = rng.chance(revProb(true));
        lp += std::log2(revProb(rev));
      }
      const bool cap = !rev && rng.chance(capProb(true));
      lp += std::log2(capProb(cap));
      std::vector<LeetSite> sites = leetSitesFor(base, base);
      for (auto& site : sites) {
        site.transformed = !rev && rng.chance(leetProb(site.rule, true));
        lp += std::log2(leetProb(site.rule, site.transformed));
      }
      rendered += renderSegment(base, cap, sites, rev);
    }
    if (!feasible || rendered.empty()) continue;
    const double canonical = derivationLog2Prob(parse(rendered));
    if (std::abs(canonical - lp) < 1e-9) return rendered;
  }
  // A derivation whose canonical parse differs every time is pathological
  // but possible on tiny grammars; return the last render (the resulting
  // estimator bias is bounded by the rejection probability, documented).
  if (rendered.empty()) throw Error("FuzzyPsm::sample: no feasible render");
  return rendered;
}

void FuzzyPsm::enumerateGuesses(std::uint64_t maxGuesses,
                                const GuessCallback& cb) const {
  if (!trained()) throw NotTrained("FuzzyPsm: not trained");
  if (maxGuesses == 0) return;

  // Expand each B_n table into rendered transformation variants with their
  // derivation probabilities, deduplicated per rendered string (max prob).
  struct Cand {
    std::string text;
    double log2p;
  };
  std::unordered_map<std::size_t, std::vector<Cand>> expanded;
  for (const std::size_t len : counts_.segmentLengths()) {
    const SegmentTable& table = *counts_.segmentTable(len);
    StringMap<double> bestByText;
    for (const auto& item : table.sortedDesc()) {
      const double lpBase = std::log2(table.probability(item.form));
      const std::vector<LeetSite> baseSites = leetSitesFor(item.form, item.form);
      const bool canCap = !item.form.empty() && isLower(item.form[0]);
      const std::size_t nSites = baseSites.size();

      // Full transformation expansion when small; otherwise the no-flip
      // variant plus single flips (multi-flip variants carry tiny mass).
      std::vector<std::uint32_t> masks;
      if (nSites <= 5) {
        for (std::uint32_t m = 0; m < (1u << nSites); ++m) masks.push_back(m);
      } else {
        masks.push_back(0);
        for (std::size_t b = 0; b < nSites; ++b) {
          masks.push_back(1u << b);
        }
      }
      // Reverse-rule factors (extension): every forward variant carries
      // P(Reverse -> No); one extra exact-reversed variant carries Yes.
      const double lpRevNo =
          config_.matchReverse ? std::log2(revProb(false)) : 0.0;
      for (const std::uint32_t mask : masks) {
        std::vector<LeetSite> sites = baseSites;
        double lpLeet = 0.0;
        for (std::size_t b = 0; b < nSites; ++b) {
          sites[b].transformed = (mask >> b) & 1u;
          lpLeet += std::log2(leetProb(sites[b].rule, sites[b].transformed));
        }
        for (const bool cap : {false, true}) {
          if (cap && !canCap) continue;
          const double lp =
              lpBase + lpLeet + std::log2(capProb(cap)) + lpRevNo;
          // MLE grammars assign exact zeros to unobserved transformations;
          // such variants are unreachable and must not be enumerated.
          if (!std::isfinite(lp)) continue;
          std::string text = renderSegment(item.form, cap, sites);
          auto [it, inserted] = bestByText.emplace(std::move(text), lp);
          if (!inserted && lp > it->second) it->second = lp;
        }
      }
      if (config_.matchReverse && revProb(true) > 0.0) {
        double lpLeetNo = 0.0;
        for (const auto& site : baseSites) {
          lpLeetNo += std::log2(leetProb(site.rule, false));
        }
        const double lp = lpBase + lpLeetNo + std::log2(capProb(false)) +
                          std::log2(revProb(true));
        if (std::isfinite(lp)) {
          std::string text =
              renderSegment(item.form, false, baseSites, true);
          auto [it, inserted] = bestByText.emplace(std::move(text), lp);
          if (!inserted && lp > it->second) it->second = lp;
        }
      }
    }
    auto& list = expanded[len];
    list.reserve(bestByText.size());
    for (auto& [text, lp] : bestByText) list.push_back({text, lp});
    std::sort(list.begin(), list.end(), [](const Cand& a, const Cand& b) {
      if (a.log2p != b.log2p) return a.log2p > b.log2p;
      return a.text < b.text;
    });
  }

  struct DecodedStructure {
    double log2StructProb;
    std::vector<const std::vector<Cand>*> slots;
  };
  std::vector<DecodedStructure> decoded;
  for (const auto& item : counts_.structures().sortedDesc()) {
    DecodedStructure d;
    d.log2StructProb =
        std::log2(counts_.structures().probability(item.form));
    bool ok = true;
    for (const std::size_t len : decodeStructure(item.form)) {
      const auto it = expanded.find(len);
      if (it == expanded.end() || it->second.empty()) {
        ok = false;
        break;
      }
      d.slots.push_back(&it->second);
    }
    if (ok) decoded.push_back(std::move(d));
  }

  struct QueueEntry {
    double log2p;
    std::size_t structIdx;
    std::vector<std::uint32_t> ranks;
    std::size_t pivot;
    bool operator<(const QueueEntry& other) const {
      return log2p < other.log2p;
    }
  };
  auto entryLog2p = [&](std::size_t si,
                        const std::vector<std::uint32_t>& ranks) {
    const DecodedStructure& d = decoded[si];
    double lp = d.log2StructProb;
    for (std::size_t s = 0; s < ranks.size(); ++s) {
      lp += (*d.slots[s])[ranks[s]].log2p;
    }
    return lp;
  };

  std::priority_queue<QueueEntry> pq;
  for (std::size_t si = 0; si < decoded.size(); ++si) {
    QueueEntry e;
    e.structIdx = si;
    e.ranks.assign(decoded[si].slots.size(), 0);
    e.pivot = 0;
    e.log2p = entryLog2p(si, e.ranks);
    pq.push(std::move(e));
  }

  std::uint64_t emitted = 0;
  std::string guess;
  while (!pq.empty() && emitted < maxGuesses) {
    QueueEntry top = pq.top();
    pq.pop();
    const DecodedStructure& d = decoded[top.structIdx];
    guess.clear();
    for (std::size_t s = 0; s < top.ranks.size(); ++s) {
      guess += (*d.slots[s])[top.ranks[s]].text;
    }
    ++emitted;
    if (!cb(guess, top.log2p)) return;
    for (std::size_t s = top.pivot; s < top.ranks.size(); ++s) {
      if (top.ranks[s] + 1 < d.slots[s]->size()) {
        QueueEntry next;
        next.structIdx = top.structIdx;
        next.ranks = top.ranks;
        ++next.ranks[s];
        next.pivot = s;
        next.log2p = entryLog2p(next.structIdx, next.ranks);
        pq.push(std::move(next));
      }
    }
  }
}

}  // namespace fpsm
