// FlatGrammarView's generative side: sample() draws passwords from the
// grammar (the Monte Carlo guess numbers of model/montecarlo.h) and
// enumerateGuesses() lists them in decreasing probability order (Table
// III). Both read the mapped FlatTableViews; only the sampler's draw order
// is built, once per view.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>
#include <unordered_map>

#include "artifact/flat_grammar.h"
#include "util/error.h"
#include "util/hash.h"

namespace fpsm {
namespace {

/// Decodes a structure key ("B8B1") into segment lengths. The loader has
/// proven every key well formed (artifact.cpp, isValidStructureKey).
std::vector<std::size_t> decodeStructure(std::string_view key) {
  std::vector<std::size_t> lengths;
  for (std::size_t i = 1; i < key.size(); ++i) {  // key[0] is 'B'
    std::size_t len = 0;
    for (; i < key.size() && key[i] != 'B'; ++i) {
      len = len * 10 + static_cast<std::size_t>(key[i] - '0');
    }
    lengths.push_back(len);
  }
  return lengths;
}

bool byLength(const std::pair<std::uint32_t, FlatTableView>& entry,
              std::size_t len) {
  return entry.first < len;
}

}  // namespace

std::vector<std::uint32_t> FlatTableView::byCountDesc() const {
  std::vector<std::uint32_t> order(distinct_);
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  std::sort(order.begin(), order.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              if (counts_[a] != counts_[b]) return counts_[a] > counts_[b];
              return form(a) < form(b);
            });
  return order;
}

void FlatGrammarView::buildDrawTables() const {
  drawTables_.resize(segments_.size() + 1);
  for (std::size_t t = 0; t < drawTables_.size(); ++t) {
    const FlatTableView& table =
        t == 0 ? structures_ : segments_[t - 1].second;
    DrawTable& draw = drawTables_[t];
    draw.order = table.byCountDesc();
    draw.cumulative.resize(draw.order.size());
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < draw.order.size(); ++i) {
      acc += table.countAt(draw.order[i]);
      draw.cumulative[i] = acc;
    }
  }
}

std::string FlatGrammarView::sample(Rng& rng) const {
  if (!trained()) throw NotTrained("FlatGrammarView: not trained");
  std::call_once(drawOnce_, [this] { buildDrawTables(); });
  // A form with probability proportional to its count.
  const auto draw = [&rng](const FlatTableView& table, const DrawTable& d) {
    const std::uint64_t target = rng.below(table.total());
    const auto it =
        std::upper_bound(d.cumulative.begin(), d.cumulative.end(), target);
    const auto i = static_cast<std::size_t>(it - d.cumulative.begin());
    return table.form(d.order[i]);
  };
  // Sample a derivation, render it, and accept only when the rendered
  // string's canonical parse has the same probability as the sampled
  // derivation — rejection keeps the sampling distribution proportional
  // to the distribution the meter scores with (see DESIGN.md).
  std::string rendered;
  for (int attempt = 0; attempt < 100; ++attempt) {
    const std::string_view structKey = draw(structures_, drawTables_[0]);
    const auto lengths = decodeStructure(structKey);
    rendered.clear();
    double lp = std::log2(structures_.probability(structKey));
    bool feasible = true;
    for (const std::size_t len : lengths) {
      const auto slot = std::lower_bound(segments_.begin(), segments_.end(),
                                         len, byLength);
      if (slot == segments_.end() || slot->first != len ||
          slot->second.empty()) {
        feasible = false;
        break;
      }
      const FlatTableView& table = slot->second;
      const auto t = static_cast<std::size_t>(slot - segments_.begin());
      const std::string base(draw(table, drawTables_[t + 1]));
      lp += std::log2(table.probability(base));
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
  if (rendered.empty()) {
    throw Error("FlatGrammarView::sample: no feasible render");
  }
  return rendered;
}

void FlatGrammarView::enumerateGuesses(std::uint64_t maxGuesses,
                                       const GuessCallback& cb) const {
  if (!trained()) throw NotTrained("FlatGrammarView: not trained");
  if (maxGuesses == 0) return;

  // Expand each B_n table into rendered transformation variants with their
  // derivation probabilities, deduplicated per rendered string (max prob).
  struct Cand {
    std::string text;
    double log2p;
  };
  std::unordered_map<std::size_t, std::vector<Cand>> expanded;
  for (const auto& [len, table] : segments_) {
    StringMap<double> bestByText;
    for (std::uint32_t i = 0; i < table.distinct(); ++i) {
      const std::string_view form = table.form(i);
      const double lpBase = std::log2(table.probability(form));
      const std::vector<LeetSite> baseSites = leetSitesFor(form, form);
      const bool canCap = !form.empty() && isLower(form[0]);
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
          std::string text = renderSegment(form, cap, sites);
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
          std::string text = renderSegment(form, false, baseSites, true);
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
  for (const std::uint32_t i : structures_.byCountDesc()) {
    const std::string_view key = structures_.form(i);
    DecodedStructure d;
    d.log2StructProb = std::log2(structures_.probability(key));
    bool ok = true;
    for (const std::size_t len : decodeStructure(key)) {
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
