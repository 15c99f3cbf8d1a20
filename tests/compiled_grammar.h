// Test helpers for the builder / model split: a FuzzyPsm counts, and the
// artifact it compiles to scores, samples, enumerates and explains.
//
//   compiled(psm)        the compiled artifact, as a server would map it;
//                        hold the pointer while using ->grammar();
//   bootstrapped(...)    an OnlineUpdater started from those bytes;
//   expectSameParse(...) the pointer-trie parse (FuzzyPsm::parse, the
//                        oracle) against the flat parse, on every
//                        FuzzyParse field.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "artifact/artifact.h"
#include "core/fuzzy_psm.h"
#include "online/online_updater.h"

namespace fpsm::test_grammar {

inline std::shared_ptr<const GrammarArtifact> compiled(const FuzzyPsm& psm) {
  return GrammarArtifact::fromBytes(compileArtifact(psm));
}

inline std::unique_ptr<OnlineUpdater> bootstrapped(
    const FuzzyPsm& psm, const std::string& dir,
    OnlineUpdaterConfig config = {}) {
  const std::vector<std::byte> bytes = compileArtifact(psm);
  return OnlineUpdater::bootstrap(dir, bytes.data(), bytes.size(),
                                  std::move(config));
}

inline void expectSameParse(const FuzzyParse& flat, const FuzzyParse& pointer,
                            std::string_view pw) {
  EXPECT_EQ(flat.structure, pointer.structure) << pw;
  ASSERT_EQ(flat.segments.size(), pointer.segments.size()) << pw;
  for (std::size_t s = 0; s < flat.segments.size(); ++s) {
    const FuzzySegment& a = flat.segments[s];
    const FuzzySegment& b = pointer.segments[s];
    EXPECT_EQ(a.base, b.base) << pw << " segment " << s;
    EXPECT_EQ(a.begin, b.begin) << pw << " segment " << s;
    EXPECT_EQ(a.fromTrie, b.fromTrie) << pw << " segment " << s;
    EXPECT_EQ(a.capitalized, b.capitalized) << pw << " segment " << s;
    EXPECT_EQ(a.reversed, b.reversed) << pw << " segment " << s;
    ASSERT_EQ(a.leetSites.size(), b.leetSites.size())
        << pw << " segment " << s;
    for (std::size_t i = 0; i < a.leetSites.size(); ++i) {
      EXPECT_EQ(a.leetSites[i].rule, b.leetSites[i].rule) << pw;
      EXPECT_EQ(a.leetSites[i].transformed, b.leetSites[i].transformed) << pw;
    }
  }
}

}  // namespace fpsm::test_grammar
