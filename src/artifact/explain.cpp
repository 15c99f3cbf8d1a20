#include "artifact/explain.h"

#include <cmath>
#include <cstdio>
#include <limits>

#include "util/chars.h"

namespace fpsm {
namespace {

std::string fmtProb(double p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", p);
  return buf;
}

}  // namespace

std::string DerivationExplanation::render() const {
  std::string out;
  for (const auto& step : steps) {
    out += "  P(" + step.production + ") = " + fmtProb(step.probability) +
           "\n";
  }
  if (std::isfinite(log2Probability)) {
    out += "  => P = 2^" + fmtProb(log2Probability) + " = " +
           fmtProb(std::exp2(log2Probability)) + "\n";
  } else {
    out += "  => P = 0 (some production was never observed)\n";
  }
  return out;
}

DerivationExplanation explainDerivation(const FlatGrammarView& grammar,
                                        std::string_view pw) {
  DerivationExplanation ex;
  ex.parse = grammar.parse(pw);
  double lp = 0.0;
  bool zero = false;
  auto push = [&](std::string production, double p) {
    ex.steps.push_back({std::move(production), p});
    if (p <= 0.0) {
      zero = true;
    } else {
      lp += std::log2(p);
    }
  };

  push("S -> " + ex.parse.structure,
       grammar.structures().probability(ex.parse.structure));
  for (const auto& seg : ex.parse.segments) {
    const FlatTableView* table = grammar.segmentTable(seg.length());
    // `"B" + length`, not `"B" + std::to_string(...)`: gcc 12 at -O3
    // reports a false -Wrestrict when a literal is prepended to a temporary.
    const std::string length = std::to_string(seg.length());
    push("B" + length + " -> " + seg.base +
             (seg.fromTrie ? "" : "  [fallback]"),
         table == nullptr ? 0.0 : table->probability(seg.base));
    const double capYes = grammar.capitalizeYesProb();
    push(std::string("Capitalize -> ") + (seg.capitalized ? "Yes" : "No"),
         seg.capitalized ? capYes : 1.0 - capYes);
    if (grammar.config().matchReverse) {
      const double revYes = grammar.reverseYesProb();
      push(std::string("Reverse -> ") + (seg.reversed ? "Yes" : "No"),
           seg.reversed ? revYes : 1.0 - revYes);
    }
    for (const auto& site : seg.leetSites) {
      const LeetRule& rule = kLeetRules[static_cast<std::size_t>(site.rule)];
      const double yes = grammar.leetYesProb(site.rule);
      const std::string index = std::to_string(site.rule + 1);
      push("L" + index + ": " + rule.letter + "<->" + rule.sub + " -> " +
               (site.transformed ? "Yes" : "No"),
           site.transformed ? yes : 1.0 - yes);
    }
  }
  ex.log2Probability =
      zero ? -std::numeric_limits<double>::infinity() : lp;
  return ex;
}

}  // namespace fpsm
