// Test battery for the .fpsmb flat binary grammar artifact (src/artifact):
//
//   * corruption battery — every bit flip, truncation, and targeted field
//     tamper must surface as a typed ArtifactError, never a crash, hang,
//     or silent mis-load (run under asan/ubsan via the `artifact` label);
//   * differential tests — FlatTrieView agrees with the pointer Trie on
//     every traversal query, and full-meter scores from a compiled
//     artifact are bit-identical to the grammar they were compiled from;
//   * round-trip properties — compile -> read -> compile is byte-identical,
//     so the artifact carries every count and the base-word order;
//   * the base + delta writer — a generation written from the served
//     artifact and a delta equals the five-argument writer's bytes over the
//     merged counts, and every sum it makes is checked;
//   * a golden fixture pinning the on-disk encoding across refactors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "artifact/artifact.h"
#include "artifact/checksum.h"
#include "artifact_tamper.h"
#include "core/fuzzy_psm.h"
#include "serve/tenant_meter.h"
#include "trie/flat_trie.h"
#include "trie/trie.h"
#include "util/chars.h"
#include "util/error.h"
#include "util/rng.h"

namespace fpsm {
namespace {

using Bytes = std::vector<std::byte>;

// ------------------------------------------------------------ grammar fixtures

/// Small deterministic grammar exercising every production type: trie
/// matches, capitalization, leet, the reverse rule, and L/D/S fallback.
FuzzyPsm smallGrammar() {
  FuzzyConfig cfg;
  cfg.matchReverse = true;
  FuzzyPsm psm(cfg);
  for (const char* w :
       {"password", "dragon", "monkey", "shadow", "master", "qwerty"}) {
    psm.addBaseWord(w);
  }
  psm.update("password1", 5);
  psm.update("Dr@gon99", 2);
  psm.update("drowssap", 1);
  psm.update("m0nkey!", 3);
  psm.update("abc123", 4);
  psm.update("Shadow2020", 1);
  return psm;
}

/// Randomized trained grammar (same family as serialization_fuzz_test):
/// random config, random base dictionary, and training passwords mixing
/// exact/capitalized/leet/reversed/suffixed variants with fallback spans.
FuzzyPsm randomGrammar(Rng& rng) {
  FuzzyConfig cfg;
  cfg.matchReverse = rng.chance(0.5);
  cfg.retryTrieInsideRuns = rng.chance(0.3);
  cfg.transformationPrior = rng.chance(0.5) ? 0.5 : 0.0;
  FuzzyPsm psm(cfg);

  const std::string letters = "abcdefgiostz";
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
      if (rng.chance(0.25)) std::reverse(pw.begin(), pw.end());
      if (rng.chance(0.5)) pw += std::to_string(rng.below(1000));
    } else {
      pw = randomWord(3, 8);
      if (rng.chance(0.4)) pw += std::to_string(rng.below(10000));
      if (rng.chance(0.2)) pw += "!";
    }
    psm.update(pw, 1 + rng.below(9));
  }
  return psm;
}

// ----------------------------------------------------------- tamper utilities
// Shared with the generation-log crash-recovery battery; see
// tests/artifact_tamper.h for readU64/writeU32/writeU64/kPrelude/
// repairChecksums/expectRejected/expectRejectedAs.

using test_tamper::expectRejected;
using test_tamper::expectRejectedAs;
using test_tamper::kPrelude;
using test_tamper::readU32;
using test_tamper::readU64;
using test_tamper::repairChecksums;
using test_tamper::writeU32;
using test_tamper::writeU64;

// ----------------------------------------------------------------- happy path

TEST(Artifact, CompilesAndLoadsFromBytes) {
  const FuzzyPsm psm = smallGrammar();
  const auto artifact = GrammarArtifact::fromBytes(compileArtifact(psm));
  EXPECT_EQ(artifact->formatVersion(), kArtifactVersion);
  EXPECT_FALSE(artifact->memoryMapped());
  ASSERT_EQ(artifact->sections().size(), kArtifactSectionCount);
  EXPECT_EQ(artifact->sections()[0].bytes, 152u);  // fixed Config size
  const FlatGrammarView& g = artifact->grammar();
  EXPECT_TRUE(g.trained());
  EXPECT_EQ(g.trainedPasswords(), psm.trainedPasswords());
  EXPECT_EQ(g.baseWordCount(), 6u);
  EXPECT_EQ(g.baseDictionary().size(), psm.baseDictionary().size());
}

TEST(Artifact, OpensFromMmapFile) {
  const FuzzyPsm psm = smallGrammar();
  const std::string path = testing::TempDir() + "artifact_mmap_test.fpsmb";
  {
    const Bytes bytes = compileArtifact(psm);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }
  const auto artifact = GrammarArtifact::open(path);
  EXPECT_TRUE(artifact->memoryMapped());
  EXPECT_EQ(artifact->grammar().log2Prob("password1"),
            psm.log2Prob("password1"));
  std::remove(path.c_str());
}

TEST(Artifact, OpenMissingFileThrowsIoError) {
  try {
    (void)GrammarArtifact::open("/nonexistent/grammar.fpsmb");
    FAIL() << "open() of a missing file succeeded";
  } catch (const ArtifactError& e) {
    EXPECT_EQ(static_cast<int>(e.code()),
              static_cast<int>(ArtifactErrorCode::Io));
  }
}

TEST(Artifact, UntrainedGrammarRoundTrips) {
  FuzzyPsm psm;  // base words but no training
  psm.addBaseWord("password");
  const Bytes bytes = compileArtifact(psm);
  const auto artifact = GrammarArtifact::fromBytes(bytes);
  EXPECT_FALSE(artifact->grammar().trained());
  EXPECT_EQ(compileArtifact(FuzzyPsm::fromArtifact(*artifact)), bytes);
}

// ---------------------------------------------------------- corruption battery

TEST(ArtifactCorruption, TruncationAtEveryLength) {
  const Bytes full = compileArtifact(smallGrammar());
  // Every prefix length through the prelude, then a stride through the
  // payload (a payload truncation always breaks fileBytes first).
  for (std::size_t keep = 0; keep < full.size();
       keep += (keep < kPrelude ? 1 : 97)) {
    expectRejected(Bytes(full.begin(), full.begin() + keep), "truncation");
  }
}

TEST(ArtifactCorruption, BitFlipAtEveryPreludeOffset) {
  const Bytes full = compileArtifact(smallGrammar());
  ASSERT_GE(full.size(), kPrelude);
  for (std::size_t off = 0; off < kPrelude; ++off) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes mutated = full;
      mutated[off] ^= std::byte{static_cast<unsigned char>(1u << bit)};
      expectRejected(std::move(mutated), "prelude bit flip");
    }
  }
}

TEST(ArtifactCorruption, BitFlipsAtSeededRandomPayloadOffsets) {
  const Bytes full = compileArtifact(smallGrammar());
  ASSERT_GT(full.size(), kPrelude);
  Rng rng(20260806);
  for (int i = 0; i < 256; ++i) {
    const std::size_t off =
        kPrelude + rng.below(full.size() - kPrelude);
    Bytes mutated = full;
    mutated[off] ^=
        std::byte{static_cast<unsigned char>(1u << rng.below(8))};
    expectRejected(std::move(mutated), "payload bit flip");
  }
}

TEST(ArtifactCorruption, TrailingGarbageRejected) {
  Bytes full = compileArtifact(smallGrammar());
  full.push_back(std::byte{0x42});
  expectRejected(std::move(full), "trailing byte");  // fileBytes mismatch
}

// Targeted tampering: each mutation repairs the checksums afterwards, so
// the load must be stopped by the *structural* validation layer it aims at.

TEST(ArtifactCorruption, WrongMagic) {
  Bytes b = compileArtifact(smallGrammar());
  writeU32(b, 0, 0x46444550u);
  repairChecksums(b);
  expectRejectedAs(std::move(b), ArtifactErrorCode::BadMagic, "magic");
}

TEST(ArtifactCorruption, UnsupportedVersion) {
  Bytes b = compileArtifact(smallGrammar());
  writeU32(b, 4, kArtifactVersion + 1);
  repairChecksums(b);
  expectRejectedAs(std::move(b), ArtifactErrorCode::BadVersion, "version");
}

TEST(ArtifactCorruption, ByteSwappedEndianTag) {
  Bytes b = compileArtifact(smallGrammar());
  writeU32(b, 8, 0x04030201u);
  repairChecksums(b);
  expectRejectedAs(std::move(b), ArtifactErrorCode::BadEndianness, "endian");
}

TEST(ArtifactCorruption, WrongSectionCount) {
  Bytes b = compileArtifact(smallGrammar());
  writeU32(b, 12, kArtifactSectionCount + 1);
  // No checksum repair: a different sectionCount changes the prelude
  // geometry, and the check must fire before the checksum is consulted.
  expectRejectedAs(std::move(b), ArtifactErrorCode::BadHeader,
                   "section count");
}

TEST(ArtifactCorruption, LyingFileBytes) {
  Bytes b = compileArtifact(smallGrammar());
  writeU64(b, 16, b.size() + 8);
  repairChecksums(b);
  expectRejectedAs(std::move(b), ArtifactErrorCode::Truncated, "fileBytes");
}

TEST(ArtifactCorruption, NonzeroHeaderReserved) {
  Bytes b = compileArtifact(smallGrammar());
  writeU64(b, 24, 1);
  repairChecksums(b);
  expectRejectedAs(std::move(b), ArtifactErrorCode::BadHeader, "reserved");
}

TEST(ArtifactCorruption, SectionIdOutOfOrder) {
  Bytes b = compileArtifact(smallGrammar());
  writeU32(b, kArtifactHeaderBytes, 2);  // first entry claims id 2
  repairChecksums(b);
  expectRejectedAs(std::move(b), ArtifactErrorCode::BadSectionTable,
                   "section id");
}

TEST(ArtifactCorruption, OversizedTrieNodeCount) {
  const FuzzyPsm psm = smallGrammar();
  Bytes b = compileArtifact(psm);
  const auto artifact = GrammarArtifact::fromBytes(b);
  const std::size_t trieOff =
      static_cast<std::size_t>(artifact->sections()[2].offset);
  writeU32(b, trieOff, 0x7fffffffu);  // nodeCount far beyond the payload
  repairChecksums(b);
  expectRejected(std::move(b), "oversized node count");
}

TEST(ArtifactCorruption, EdgeTargetOutOfRange) {
  const FuzzyPsm psm = smallGrammar();
  Bytes b = compileArtifact(psm);
  const auto artifact = GrammarArtifact::fromBytes(b);
  const auto& trieSec = artifact->sections()[2];
  const std::size_t nodeCount = artifact->grammar().baseDictionary().nodeCount();
  // edgeTargets[0] sits after the 16-byte header and two u32[nodeCount].
  const std::size_t targetsOff =
      static_cast<std::size_t>(trieSec.offset) + 16 + 8 * nodeCount;
  writeU32(b, targetsOff, 0xfffffff0u);
  repairChecksums(b);
  expectRejectedAs(std::move(b), ArtifactErrorCode::OutOfRange,
                   "edge target");
}

TEST(ArtifactCorruption, EdgeTargetPointingAtRoot) {
  const FuzzyPsm psm = smallGrammar();
  Bytes b = compileArtifact(psm);
  const auto artifact = GrammarArtifact::fromBytes(b);
  const auto& trieSec = artifact->sections()[2];
  const std::size_t nodeCount = artifact->grammar().baseDictionary().nodeCount();
  const std::size_t targetsOff =
      static_cast<std::size_t>(trieSec.offset) + 16 + 8 * nodeCount;
  writeU32(b, targetsOff, 0);  // a cycle through the root
  repairChecksums(b);
  expectRejectedAs(std::move(b), ArtifactErrorCode::OutOfRange, "root edge");
}

// The loader proves each trie is a tree (FlatTrieView::validate), so a
// trie that is not one fails at load with OutOfRange, checksums repaired.
// Offsets follow the BaseTrie payload: a 16-byte header, then edgeBegin[],
// edgeMeta[] and edgeTargets[] as u32 arrays.
TEST(ArtifactCorruption, EdgeTargetDuplicatingAnother) {
  Bytes b = compileArtifact(smallGrammar());
  const auto artifact = GrammarArtifact::fromBytes(b);
  const std::size_t trieOff =
      static_cast<std::size_t>(artifact->sections()[2].offset);
  const std::size_t nodeCount = artifact->grammar().baseDictionary().nodeCount();
  const std::size_t metaOff = trieOff + 16 + 4 * nodeCount;
  const std::size_t targetsOff = trieOff + 16 + 8 * nodeCount;
  ASSERT_GE(readU32(b, metaOff) & FlatTrieView::kEdgeCountMask, 2u);
  // The root's second edge now leads where its first does: that child has
  // two parents and the second one none. Every target still follows its
  // source and the labels keep their order.
  writeU32(b, targetsOff + 4, readU32(b, targetsOff));
  repairChecksums(b);
  expectRejectedAs(std::move(b), ArtifactErrorCode::OutOfRange,
                   "duplicated edge target");
}

TEST(ArtifactCorruption, EdgeTargetPointingBackward) {
  Bytes b = compileArtifact(smallGrammar());
  const auto artifact = GrammarArtifact::fromBytes(b);
  const std::size_t trieOff =
      static_cast<std::size_t>(artifact->sections()[2].offset);
  const FlatTrieView& trie = artifact->grammar().baseDictionary();
  const std::size_t nodeCount = trie.nodeCount();
  // "p" -> "pa" -> "pas": the edge out of "pa" is rewritten to lead back to
  // "p", an earlier non-root node — a cycle the root walk would enter.
  const auto p = trie.child(FlatTrieView::kRoot, 'p');
  ASSERT_TRUE(p.has_value());
  const auto pa = trie.child(*p, 'a');
  ASSERT_TRUE(pa.has_value());
  const std::uint32_t edge = readU32(b, trieOff + 16 + 4 * *pa);
  writeU32(b, trieOff + 16 + 8 * nodeCount + 4 * edge, *p);
  repairChecksums(b);
  expectRejectedAs(std::move(b), ArtifactErrorCode::OutOfRange,
                   "backward edge target");
}

TEST(ArtifactCorruption, UnknownConfigFlagBits) {
  Bytes b = compileArtifact(smallGrammar());
  const auto artifact = GrammarArtifact::fromBytes(b);
  const std::size_t cfgOff =
      static_cast<std::size_t>(artifact->sections()[0].offset);
  writeU32(b, cfgOff + 4, kArtifactKnownFlags + 1);
  repairChecksums(b);
  expectRejectedAs(std::move(b), ArtifactErrorCode::BadSection,
                   "unknown flags");
}

TEST(ArtifactCorruption, CapYesExceedsTotal) {
  Bytes b = compileArtifact(smallGrammar());
  const auto artifact = GrammarArtifact::fromBytes(b);
  const std::size_t cfgOff =
      static_cast<std::size_t>(artifact->sections()[0].offset);
  writeU64(b, cfgOff + 16, artifact->grammar().capTotal() + 1);  // capYes
  repairChecksums(b);
  expectRejectedAs(std::move(b), ArtifactErrorCode::BadSection,
                   "capYes > capTotal");
}

TEST(ArtifactCorruption, NonPrintableBaseWordByte) {
  Bytes b = compileArtifact(smallGrammar());
  const auto artifact = GrammarArtifact::fromBytes(b);
  const auto& sec = artifact->sections()[1];
  // Last byte of the section is inside the word pool.
  b[static_cast<std::size_t>(sec.offset + sec.bytes) - 1] = std::byte{0x01};
  repairChecksums(b);
  expectRejectedAs(std::move(b), ArtifactErrorCode::BadSection,
                   "non-printable base word");
}

TEST(ArtifactCorruption, StructureCountSumMismatch) {
  Bytes b = compileArtifact(smallGrammar());
  const auto artifact = GrammarArtifact::fromBytes(b);
  const std::size_t secOff =
      static_cast<std::size_t>(artifact->sections()[4].offset);
  // counts[0] lives after distinct/reserved/total/poolBytes (24 bytes).
  const std::uint64_t c0 = readU64(b, secOff + 24);
  writeU64(b, secOff + 24, c0 + 1);
  repairChecksums(b);
  expectRejectedAs(std::move(b), ArtifactErrorCode::BadSection,
                   "count sum");
}

// ------------------------------------------------------- trie differential

TEST(ArtifactDifferential, FlatTrieMatchesPointerTrieOn10kWords) {
  Rng rng(4242);
  const std::string alphabet = "abcdefgh01@$";
  auto randomWord = [&](std::size_t maxLen) {
    std::string w;
    const std::size_t len = 1 + rng.below(maxLen);
    for (std::size_t i = 0; i < len; ++i) {
      w.push_back(alphabet[rng.below(alphabet.size())]);
    }
    return w;
  };

  Trie trie;
  for (int i = 0; i < 2000; ++i) trie.insert(randomWord(10));
  const FlatTrie flat = FlatTrie::fromTrie(trie);
  const FlatTrieView view = flat.view();
  ASSERT_EQ(view.validate(), "");
  ASSERT_EQ(view.size(), trie.size());
  ASSERT_EQ(view.nodeCount(), trie.nodeCount());

  for (int i = 0; i < 10000; ++i) {
    const std::string probe = randomWord(12);
    ASSERT_EQ(view.contains(probe), trie.contains(probe)) << probe;
    const std::size_t from = rng.below(probe.size());
    ASSERT_EQ(view.longestPrefix(probe, from), trie.longestPrefix(probe, from))
        << probe << " from " << from;
  }

  // Node-by-node: same children, same terminal bits (ids are preserved).
  for (Trie::NodeId node = 0; node < trie.nodeCount(); ++node) {
    ASSERT_EQ(view.isTerminal(node), trie.isTerminal(node)) << node;
    for (const char c : alphabet) {
      ASSERT_EQ(view.child(node, c), trie.child(node, c))
          << "node " << node << " char " << c;
    }
  }
}

// ------------------------------------------------------ full-meter differential

TEST(ArtifactDifferential, ScoresBitIdenticalToSourceGrammar) {
  const std::string alphabet =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789@$!#";
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const FuzzyPsm psm = randomGrammar(rng);
    const auto artifact = GrammarArtifact::fromBytes(compileArtifact(psm));
    const FlatGrammarView& flat = artifact->grammar();
    for (int i = 0; i < 1000; ++i) {
      std::string pw;
      const std::size_t len = 1 + rng.below(14);
      for (std::size_t c = 0; c < len; ++c) {
        pw.push_back(alphabet[rng.below(alphabet.size())]);
      }
      // EXPECT_EQ, not NEAR: the artifact carries the identical integer
      // counts and the view replicates the float expressions operation for
      // operation (covers -infinity too).
      ASSERT_EQ(flat.log2Prob(pw), psm.log2Prob(pw))
          << "seed " << seed << " pw " << pw;
    }
  }
}

TEST(ArtifactDifferential, TransformationProbesBitIdentical) {
  const FuzzyPsm psm = smallGrammar();
  const auto artifact = GrammarArtifact::fromBytes(compileArtifact(psm));
  const FlatGrammarView& flat = artifact->grammar();
  // One probe per production type: exact, capitalized, leet, reversed,
  // fallback, and an unseen (−inf) password.
  for (const char* pw :
       {"password1", "Password1", "p@ssword1", "drowssap", "abc123",
        "Dr@gon99", "m0nkey!", "Shadow2020", "zzZZ##99xx"}) {
    EXPECT_EQ(flat.log2Prob(pw), psm.log2Prob(pw)) << pw;
    const FuzzyParse a = flat.parse(pw);
    const FuzzyParse b = psm.parse(pw);
    EXPECT_EQ(a.structure, b.structure) << pw;
    EXPECT_EQ(flat.derivationLog2Prob(a), psm.derivationLog2Prob(b)) << pw;
  }
}

// ------------------------------------------------------- round-trip properties

TEST(ArtifactRoundTrip, BinaryRoundTripIsByteIdentical) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    const FuzzyPsm psm = randomGrammar(rng);
    const Bytes first = compileArtifact(psm);
    const auto artifact = GrammarArtifact::fromBytes(first);
    const FuzzyPsm back = FuzzyPsm::fromArtifact(*artifact);
    EXPECT_EQ(compileArtifact(back), first) << "seed " << seed;
  }
}

// ------------------------------------------------ the base + delta writer

using Batch = std::vector<std::pair<const char*, std::uint64_t>>;

/// The delta of folding each (password, n) into `base`: every password
/// parsed against `base`'s dictionary, as a compaction counts a batch.
GrammarCounts deltaOf(const FuzzyPsm& base, const Batch& batch) {
  GrammarCounts delta;
  for (const auto& [pw, n] : batch) {
    delta.addParse(base.parse(pw), n, base.config().matchReverse);
  }
  return delta;
}

/// The five-argument writer over `base`'s counts merged with `delta`.
Bytes fullWrite(const FuzzyPsm& base, const GrammarCounts& delta) {
  GrammarCounts merged = base.counts();
  merged.merge(delta);
  return writeArtifact(base.config(), base.baseWords(), base.baseDictionary(),
                       base.reversedDictionary(), merged);
}

/// A base whose tables every delta below lands in, in front of, behind,
/// or beside: B6 {dragon, monkey}, B8 {password}, B1 {!, 1}, B2 {99}, and
/// the structures B6B1, B6B2, B8B1.
FuzzyPsm mergeBase(bool reverse) {
  FuzzyConfig cfg;
  cfg.matchReverse = reverse;
  FuzzyPsm psm(cfg);
  for (const char* w : {"password", "dragon", "monkey"}) psm.addBaseWord(w);
  psm.update("password1", 5);
  psm.update("Dr@gon99", 2);
  psm.update("monkey!", 3);
  return psm;
}

TEST(ArtifactWriter, BasePlusDeltaEqualsFullWriteOfMergedCounts) {
  struct Case {
    const char* name;
    Batch batch;
  };
  const Case cases[] = {
      // Forms only in the base beside forms in both: B2, B6, B1 "!" and
      // two structures are untouched; B8 "password", B1 "1" and structure
      // B8B1 gain counts.
      {"base-only and shared forms", {{"password1", 2}}},
      // Forms only in the delta at both ends: in B6, "aaaaaa" sorts before
      // the first base entry and "zzzzzz" after the last. Structure B6
      // sorts before B6B1, so every base structure is left once the
      // delta's one is written.
      {"delta-only forms at both ends", {{"aaaaaa", 1}, {"zzzzzz", 4}}},
      // Lengths the base lacks (B3, B9) beside base lengths the delta
      // lacks (B1, B2, B6, B8); structure B9 sorts after B8B1, the last
      // base structure.
      {"new and untouched lengths", {{"abc", 3}, {"qqqqqqqqq", 1}}},
      // Everything at once, with transformations and a reversed word.
      {"mixed",
       {{"Password1", 1}, {"m0nkey!", 2}, {"nogard", 1}, {"xyz123", 5}}},
  };
  for (const bool reverse : {false, true}) {
    const FuzzyPsm base = mergeBase(reverse);
    const auto served = GrammarArtifact::fromBytes(compileArtifact(base));
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(c.name) + (reverse ? ", reverse" : ""));
      const GrammarCounts delta = deltaOf(base, c.batch);
      EXPECT_EQ(writeArtifact(*served, delta), fullWrite(base, delta));
    }
  }
}

TEST(ArtifactWriter, EmptyDeltaReturnsTheBaseBytes) {
  for (const bool reverse : {false, true}) {
    const Bytes bytes = compileArtifact(mergeBase(reverse));
    EXPECT_EQ(writeArtifact(*GrammarArtifact::fromBytes(bytes), {}), bytes);
  }
  const Bytes small = compileArtifact(smallGrammar());
  EXPECT_EQ(writeArtifact(*GrammarArtifact::fromBytes(small), {}), small);
}

// Every sum is checked. "qwerty" is one B6 segment counted 2^63 times, so
// the base's structure total, its B6 entry and total, and its
// capitalization total each sit at 2^63 and load clean.
TEST(ArtifactWriter, OverflowingDeltaThrows) {
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 63;
  FuzzyPsm base;
  base.update("qwerty", kHalf);
  const auto served = GrammarArtifact::fromBytes(compileArtifact(base));
  // An entry: B6 "qwerty" and structure B6 reach 2^64.
  EXPECT_THROW((void)writeArtifact(*served, deltaOf(base, {{"qwerty", kHalf}})),
               InvalidArgument);
  // A table total: structure B7 is new, but the structure total reaches
  // 2^64.
  EXPECT_THROW(
      (void)writeArtifact(*served, deltaOf(base, {{"abcdefg", kHalf}})),
      InvalidArgument);
  // A Config counter: two new segments (B3, B4) counted 2^62 times leave
  // every table below 2^64 but add 2^63 to the capitalization total.
  EXPECT_THROW((void)writeArtifact(
                   *served, deltaOf(base, {{"abc1234", kHalf / 2}})),
               InvalidArgument);
  // Just below every limit, the merge goes through.
  EXPECT_NO_THROW(
      (void)writeArtifact(*served, deltaOf(base, {{"qwerty", kHalf - 1}})));
}

// ------------------------------------------------------------- golden fixture

#ifdef FPSM_TEST_DATA_DIR
TEST(ArtifactGolden, EncodingMatchesCheckedInFixture) {
  const std::string path =
      std::string(FPSM_TEST_DATA_DIR) + "/golden_small.fpsmb";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden fixture " << path
                  << " — regenerate: write compileArtifact(smallGrammar())";
  const std::string raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  Bytes onDisk(raw.size());
  std::memcpy(onDisk.data(), raw.data(), raw.size());

  // The fixture pins the v1 encoding: if this fails and the change is
  // intentional, bump kArtifactVersion and regenerate the fixture.
  EXPECT_EQ(compileArtifact(smallGrammar()), onDisk);

  const auto artifact = GrammarArtifact::open(path);
  EXPECT_EQ(artifact->grammar().log2Prob("password1"),
            smallGrammar().log2Prob("password1"));
}
#endif

// --------------------------------------------------------- serve integration

TEST(ArtifactServe, SnapshotFromArtifactScoresIdentically) {
  const FuzzyPsm psm = smallGrammar();
  const auto artifact = GrammarArtifact::fromBytes(compileArtifact(psm));
  const auto snap = GrammarSnapshot::fromArtifact(artifact, 7);
  EXPECT_EQ(snap->generation(), 7u);
  EXPECT_EQ(snap->log2Prob("password1"), psm.log2Prob("password1"));
  EXPECT_EQ(snap->residentBytes(), artifact->sizeBytes());
}

TEST(ArtifactServe, MeterServiceColdStartsFromArtifact) {
  const FuzzyPsm psm = smallGrammar();
  MeterService service(GrammarArtifact::fromBytes(compileArtifact(psm)));
  EXPECT_EQ(service.generation(), 0u);
  EXPECT_EQ(service.score("password1").bits, psm.strengthBits("password1"));
  EXPECT_GT(service.residentBytes(), 0u);
}

}  // namespace
}  // namespace fpsm
