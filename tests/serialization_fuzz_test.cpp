// Failure-injection tests for the baseline meters' text formats (PCFG,
// Markov): every truncation and every single-line corruption of a valid
// model file must raise IoError (or load an equivalent model) — never
// crash, hang, or silently mis-load. The fuzzy grammar is stored only as an
// .fpsmb artifact, whose corruption battery lives in tests/artifact_test.cpp;
// here it gets the randomized round-trip property sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "artifact/artifact.h"
#include "compiled_grammar.h"
#include "core/fuzzy_psm.h"
#include "corpus/dataset.h"
#include "meters/markov/markov.h"
#include "meters/pcfg/pcfg.h"
#include "util/chars.h"
#include "util/error.h"
#include "util/rng.h"

namespace fpsm {
namespace {

Dataset smallCorpus() {
  Dataset ds;
  ds.add("password1", 5);
  ds.add("Dr@gon99", 2);
  ds.add("abc 123", 1);
  return ds;
}

std::vector<std::string> splitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::stringstream ss(text);
  std::string line;
  while (std::getline(ss, line)) lines.push_back(line);
  return lines;
}

/// Loads with `loader`; success or IoError are both acceptable outcomes,
/// anything else (crash, other exception) fails the test.
template <typename Loader>
void expectGracefulLoad(const std::string& payload, Loader&& loader) {
  std::stringstream in(payload);
  try {
    loader(in);
  } catch (const IoError&) {
    // corrupted input correctly rejected
  } catch (const std::invalid_argument&) {
    // std::stoi family on a mangled numeric field — acceptable rejection
  } catch (const std::out_of_range&) {
    // ditto for overflowing numeric fields
  }
}

// ------------------------------------------------------------------ pcfg

TEST(SerializationFuzz, PcfgTruncations) {
  PcfgModel model;
  model.train(smallCorpus());
  std::stringstream full;
  model.save(full);
  const auto lines = splitLines(full.str());
  for (std::size_t keep = 0; keep < lines.size(); ++keep) {
    std::string payload;
    for (std::size_t i = 0; i < keep; ++i) payload += lines[i] + "\n";
    expectGracefulLoad(payload,
                       [](std::istream& in) { PcfgModel::load(in); });
  }
}

// ---------------------------------------------------------------- markov

TEST(SerializationFuzz, MarkovTruncationsAndCorruption) {
  MarkovConfig cfg;
  cfg.order = 2;
  MarkovModel model(cfg);
  model.train(smallCorpus());
  std::stringstream full;
  model.save(full);
  const auto lines = splitLines(full.str());
  // Truncations (sampled stride keeps the sweep fast on big files).
  for (std::size_t keep = 0; keep < lines.size();
       keep += std::max<std::size_t>(1, lines.size() / 40)) {
    std::string payload;
    for (std::size_t i = 0; i < keep; ++i) payload += lines[i] + "\n";
    expectGracefulLoad(payload,
                       [](std::istream& in) { MarkovModel::load(in); });
  }
  // Corrupt the config line specifically.
  {
    std::string payload = lines[0] + "\nconfig\tbroken\n";
    expectGracefulLoad(payload,
                       [](std::istream& in) { MarkovModel::load(in); });
  }
}

// -------------------------------------------- round-trip property sweep

// Randomized trained grammars for the round-trip property tests: random
// config (reverse rule, prior, run-retry), random base dictionary, and a
// training stream mixing exact base words, capitalized/leet/reversed
// variants, suffixed forms, and pure fallback strings — every production
// type the serializer must carry.
FuzzyPsm randomTrainedGrammar(Rng& rng) {
  FuzzyConfig cfg;
  cfg.matchReverse = rng.chance(0.5);
  cfg.retryTrieInsideRuns = rng.chance(0.3);
  cfg.transformationPrior = rng.chance(0.5) ? 0.5 : 0.0;
  FuzzyPsm psm(cfg);

  const std::string letters = "abcdefgiostz";
  const std::string digits = "0123456789";
  auto randomWord = [&](std::size_t minLen, std::size_t maxLen) {
    std::string w;
    const std::size_t len = minLen + rng.below(maxLen - minLen + 1);
    for (std::size_t i = 0; i < len; ++i) {
      w.push_back(letters[rng.below(letters.size())]);
    }
    return w;
  };

  std::vector<std::string> baseWords;
  const std::size_t nBase = 8 + rng.below(16);
  for (std::size_t i = 0; i < nBase; ++i) {
    baseWords.push_back(randomWord(3, 9));
    psm.addBaseWord(baseWords.back());
  }

  const std::size_t nTraining = 40 + rng.below(60);
  for (std::size_t i = 0; i < nTraining; ++i) {
    std::string pw;
    if (rng.chance(0.7)) {
      pw = baseWords[rng.below(baseWords.size())];
      if (rng.chance(0.3)) pw[0] = toUpper(pw[0]);
      for (char& c : pw) {
        if (rng.chance(0.15)) {
          if (const auto partner = leetPartner(c)) c = *partner;
        }
      }
      if (rng.chance(0.25)) {
        std::reverse(pw.begin(), pw.end());
      }
      if (rng.chance(0.5)) {
        const std::size_t nSuffix = 1 + rng.below(4);
        for (std::size_t d = 0; d < nSuffix; ++d) {
          pw.push_back(digits[rng.below(digits.size())]);
        }
      }
    } else {
      pw = randomWord(3, 8);  // likely a PCFG-fallback span
      if (rng.chance(0.4)) pw += std::to_string(rng.below(10000));
      if (rng.chance(0.2)) pw += "!";
    }
    psm.update(pw, 1 + rng.below(9));
  }
  return psm;
}

FuzzyPsm reloaded(const std::vector<std::byte>& artifact) {
  return FuzzyPsm::fromArtifact(*GrammarArtifact::fromBytes(artifact));
}

TEST(SerializationRoundTrip, SaveLoadSaveIsByteIdentical) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    const FuzzyPsm psm = randomTrainedGrammar(rng);
    const std::vector<std::byte> first = compileArtifact(psm);
    EXPECT_EQ(compileArtifact(reloaded(first)), first) << "seed " << seed;
  }
}

TEST(SerializationRoundTrip, ScoresAgreeOnRandomPasswords) {
  Rng rng(99);
  const FuzzyPsm psm = randomTrainedGrammar(rng);
  const FuzzyPsm back = reloaded(compileArtifact(psm));
  const auto served = test_grammar::compiled(psm);
  const auto reserved = test_grammar::compiled(back);

  // 1k probes drawn from the same generator family as training (plus raw
  // random strings), so both in-grammar and zero-probability paths hit.
  const std::string alphabet =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789@$!#";
  for (int i = 0; i < 1000; ++i) {
    std::string pw;
    const std::size_t len = 1 + rng.below(14);
    for (std::size_t c = 0; c < len; ++c) {
      pw.push_back(alphabet[rng.below(alphabet.size())]);
    }
    // The rebuilt tries parse alike, and the rebuilt grammar scores alike:
    // EXPECT_EQ, not NEAR, since fromArtifact reconstructs the identical
    // integer counts (covers the -infinity case too).
    test_grammar::expectSameParse(back.parse(pw), psm.parse(pw), pw);
    EXPECT_EQ(reserved->grammar().log2Prob(pw), served->grammar().log2Prob(pw))
        << pw;
  }
}

}  // namespace
}  // namespace fpsm
