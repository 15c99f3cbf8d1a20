// Human-readable derivation explanations (the paper's Fig. 11 walkthrough
// as an API): every production of a password's canonical derivation with
// its probability, plus the final product — the "why" behind a score,
// suitable for operator tooling and user-facing feedback. It reads the
// compiled grammar's view, so the factors are the ones it scores with.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "artifact/flat_grammar.h"

namespace fpsm {

struct DerivationStep {
  std::string production;  ///< e.g. "S -> B8B1", "B8 -> p@ssword",
                           ///< "Capitalize -> No", "L3: o<->0 -> Yes"
  double probability;      ///< the factor this step contributes
};

struct DerivationExplanation {
  FuzzyParse parse;
  std::vector<DerivationStep> steps;
  double log2Probability;  ///< sum of log2 of the steps (-inf if any 0)

  /// Multi-line text rendering (one step per line, product last).
  std::string render() const;
};

/// Explains grammar.log2Prob(pw): the steps multiply to that value
/// (checked by tests). Works for untrained grammars too (every step 0).
DerivationExplanation explainDerivation(const FlatGrammarView& grammar,
                                        std::string_view pw);

}  // namespace fpsm
