// Differential battery for the batched + SIMD scoring path.
//
// The batch pipeline's contract is bit-exactness: scoreBatch()/
// log2ProbBatch() must return the *same double, bit for bit*, as the
// single-password path — not "close", identical. The guarantee rests on
// two pillars, and this suite tests each in isolation and then end to end:
//
//   1. kernel equivalence — every SIMD byte-scan kernel (util/byte_scan.h)
//      produces output identical to the scalar reference on all 256 byte
//      values, including non-ASCII and embedded NULs. Property-tested on
//      random byte strings in exact-sized heap buffers so ASan catches any
//      overread past src + n.
//   2. shared parse skeleton — parse(pw, scratch) walks the same DFS in
//      the same candidate order as parse(pw), reading kernel-filled tables
//      instead of per-byte predicates (ParseScratch tables are checked
//      against the chars.h ground truth directly).
//
// End to end: FlatGrammarView batch scores over a 10k-password
// corpus equal the scalar scores at batch sizes {1, 7, 64, 4096}, and
// MeterService::scoreBatch equals score() through cache hits, cache
// misses, a disabled cache, and concurrent publishFromArtifact rollovers
// (the rollover stress is the `batch` label's TSan target: every batch
// must be scored against exactly one generation).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "artifact/artifact.h"
#include "artifact/flat_grammar.h"
#include "core/fuzzy_parse.h"
#include "core/fuzzy_psm.h"
#include "serve/tenant_meter.h"
#include "util/byte_scan.h"
#include "util/chars.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/wordlists.h"

namespace fpsm {
namespace {

/// Bit-pattern equality is the whole point: EXPECT_EQ on doubles would
/// also pass for distinct NaN payloads and would miss -0.0 vs 0.0.
std::uint64_t bitsOf(double d) { return std::bit_cast<std::uint64_t>(d); }

// ------------------------------------------------------------------ fixtures

/// Trained grammar exercising every production type: trie matches,
/// capitalization, leet, reverse, and L/D/S fallback. Built once.
const FuzzyPsm& trainedGrammar() {
  static const FuzzyPsm psm = [] {
    FuzzyConfig cfg;
    cfg.matchReverse = true;
    FuzzyPsm g(cfg);
    const auto addSome = [&](std::span<const std::string_view> list,
                             std::size_t limit) {
      for (std::size_t i = 0; i < std::min(limit, list.size()); ++i) {
        g.addBaseWord(list[i]);
      }
    };
    addSome(words::commonPasswords(), 400);
    addSome(words::englishWords(), 300);
    addSome(words::englishNames(), 100);
    addSome(words::keyboardWalks(), 50);
    Rng rng(0x7ea1);
    const auto common = words::commonPasswords();
    for (std::size_t i = 0; i < std::min<std::size_t>(300, common.size());
         ++i) {
      std::string pw(common[i]);
      if (rng.chance(0.3)) pw[0] = toUpper(pw[0]);
      for (char& c : pw) {
        if (rng.chance(0.15)) {
          if (const auto partner = leetPartner(c)) c = *partner;
        }
      }
      if (rng.chance(0.2)) std::reverse(pw.begin(), pw.end());
      if (rng.chance(0.5)) pw += std::to_string(rng.below(1000));
      g.update(pw, 1 + rng.below(9));
    }
    g.update("tyxdqd123", 4);  // the paper's PCFG-fallback example
    g.update("zzqqxx!!", 2);
    return g;
  }();
  return psm;
}

std::shared_ptr<const GrammarArtifact> trainedArtifact() {
  static const std::shared_ptr<const GrammarArtifact> art =
      GrammarArtifact::fromBytes(compileArtifact(trainedGrammar()));
  return art;
}

/// Deterministic 10k-password probe corpus: wordlist entries mutated with
/// the transformations the grammar models (capitalize, leet, reverse,
/// digit/symbol suffixes) plus pure-fallback strings, so batches mix trie
/// hits, fuzzy matches, and L/D/S segmentation.
const std::vector<std::string>& corpus10k() {
  static const std::vector<std::string> corpus = [] {
    std::vector<std::string> pool;
    for (const auto s : words::commonPasswords()) pool.emplace_back(s);
    for (const auto s : words::englishWords()) pool.emplace_back(s);
    for (const auto s : words::englishNames()) pool.emplace_back(s);
    for (const auto s : words::keyboardWalks()) pool.emplace_back(s);
    Rng rng(0xba7c4);
    std::vector<std::string> out;
    out.reserve(10000);
    const std::string letters = "abcdefgiostz";
    while (out.size() < 10000) {
      std::string pw;
      if (rng.chance(0.85)) {
        pw = pool[rng.below(pool.size())];
        if (pw.empty()) continue;
        if (rng.chance(0.3)) pw[0] = toUpper(pw[0]);
        for (char& c : pw) {
          if (rng.chance(0.12)) {
            if (const auto partner = leetPartner(c)) c = *partner;
          }
        }
        if (rng.chance(0.2)) std::reverse(pw.begin(), pw.end());
        if (rng.chance(0.4)) pw += std::to_string(rng.below(10000));
        if (rng.chance(0.15)) pw += "!";
      } else {
        const std::size_t len = 4 + rng.below(8);
        for (std::size_t i = 0; i < len; ++i) {
          pw.push_back(letters[rng.below(letters.size())]);
        }
        if (rng.chance(0.5)) pw += std::to_string(rng.below(1000));
      }
      out.push_back(std::move(pw));
    }
    return out;
  }();
  return corpus;
}

/// Scalar-path reference scores for corpus10k() against trainedArtifact(),
/// computed once and shared by every differential test.
const std::vector<double>& scalarReferenceBits() {
  static const std::vector<double> ref = [] {
    const auto& view = trainedArtifact()->grammar();
    std::vector<double> bits;
    bits.reserve(corpus10k().size());
    for (const auto& pw : corpus10k()) bits.push_back(view.strengthBits(pw));
    return bits;
  }();
  return ref;
}

// --------------------------------------------------- byte-kernel properties

/// Ground truth re-derived from chars.h, independent of byte_scan.cpp's
/// own scalar reference: the partner map keeps only exact round-trip pairs
/// ('A' -> '@' renders back as 'a', so 'A' has no partner).
char expectedPartner(char c) {
  const auto partner = leetPartner(c);
  if (!partner) return '\0';
  const auto back = leetPartner(*partner);
  return (back && *back == c) ? *partner : '\0';
}

/// Every byte value once, in order — the exhaustive kernel input.
std::vector<char> allBytes() {
  std::vector<char> bytes(256);
  for (int i = 0; i < 256; ++i) bytes[i] = static_cast<char>(i);
  return bytes;
}

void checkKernelsAgainstGroundTruth(const ByteScanKernels& k,
                                    const char* src, std::size_t n) {
  // Exact-sized heap buffers: a kernel writing (or reading) one byte past
  // n is an ASan failure, not a silently tolerated overrun.
  const std::unique_ptr<char[]> inCopy(new char[n]);
  if (n > 0) std::memcpy(inCopy.get(), src, n);  // src may be null at n == 0
  const std::unique_ptr<char[]> partner(new char[n]);
  const std::unique_ptr<unsigned char[]> upper(new unsigned char[n]);
  const std::unique_ptr<unsigned char[]> cls(new unsigned char[n]);
  k.leetPartnerScan(inCopy.get(), n, partner.get());
  k.upperScan(inCopy.get(), n, upper.get());
  k.segmentClassScan(inCopy.get(), n, cls.get());
  bool expectPrintable = true;
  for (std::size_t i = 0; i < n; ++i) {
    const char c = inCopy.get()[i];
    ASSERT_EQ(partner.get()[i], expectedPartner(c))
        << "byte 0x" << std::hex << (static_cast<unsigned>(c) & 0xff)
        << " at " << std::dec << i;
    ASSERT_EQ(upper.get()[i], isUpper(c) ? 1 : 0);
    ASSERT_EQ(cls.get()[i], static_cast<unsigned char>(segmentClassOf(c)));
    expectPrintable = expectPrintable && isPrintableAscii(c);
  }
  EXPECT_EQ(k.allPrintableAscii(inCopy.get(), n), expectPrintable);
}

TEST(ByteScanTest, ScalarKernelsMatchCharsGroundTruthOnAllBytes) {
  const auto bytes = allBytes();
  checkKernelsAgainstGroundTruth(byteScanKernelsFor(SimdLevel::Scalar),
                                 bytes.data(), bytes.size());
}

TEST(ByteScanTest, ActiveKernelsMatchGroundTruthOnAllBytes) {
  const auto bytes = allBytes();
  checkKernelsAgainstGroundTruth(byteScanKernels(), bytes.data(),
                                 bytes.size());
}

TEST(ByteScanTest, VectorKernelsMatchScalarOnRandomByteStrings) {
  Rng rng(0x51D);
  for (const SimdLevel level : {SimdLevel::Sse2, SimdLevel::Neon}) {
    if (!simdLevelAvailable(level)) continue;
    SCOPED_TRACE(simdLevelName(level));
    const ByteScanKernels& vec = byteScanKernelsFor(level);
    // Boundary lengths straddle the 16-byte block size (tail handling),
    // then random lengths cover the general case.
    std::vector<std::size_t> lengths = {0, 1, 15, 16, 17, 31, 32, 33};
    for (int i = 0; i < 40; ++i) lengths.push_back(rng.below(200));
    for (const std::size_t n : lengths) {
      std::vector<char> s(n);
      // Full byte range on purpose: non-ASCII and embedded NULs included.
      for (auto& c : s) c = static_cast<char>(rng.below(256));
      checkKernelsAgainstGroundTruth(vec, s.data(), n);
    }
  }
}

TEST(ByteScanTest, UnavailableLevelFallsBackToScalarTable) {
  const ByteScanKernels& scalar = byteScanKernelsFor(SimdLevel::Scalar);
  // SSE2 and NEON are mutually exclusive ISAs, so at least one is always
  // unavailable in any given binary — that one must resolve to the scalar
  // table rather than a null or mismatched one.
  bool sawUnavailable = false;
  for (const SimdLevel level : {SimdLevel::Sse2, SimdLevel::Neon}) {
    if (simdLevelAvailable(level)) continue;
    sawUnavailable = true;
    EXPECT_EQ(&byteScanKernelsFor(level), &scalar);
  }
  EXPECT_TRUE(sawUnavailable);
}

// ------------------------------------------------------ ParseScratch tables

TEST(ParseScratchTest, TablesMatchScalarPredicates) {
  ParseScratch scratch;
  for (const std::string_view pw :
       {std::string_view("P@ssw0rd123!"), std::string_view("a"),
        std::string_view("Dr@gon99"), std::string_view("ZZtop$1"),
        std::string_view("tyxdqd123")}) {
    scratch.prepare(pw);
    ASSERT_TRUE(scratch.valid()) << pw;
    ASSERT_EQ(scratch.prepared(), pw);
    for (std::size_t i = 0; i < pw.size(); ++i) {
      EXPECT_EQ(scratch.partner()[i], expectedPartner(pw[i]));
      EXPECT_EQ(scratch.upper()[i], isUpper(pw[i]) ? 1 : 0);
      EXPECT_EQ(scratch.cls()[i],
                static_cast<unsigned char>(segmentClassOf(pw[i])));
    }
  }
}

TEST(ParseScratchTest, ValidityMatchesIsValidPassword) {
  ParseScratch scratch;
  const std::vector<std::string> inputs = {
      "",           "ok",          std::string("\x01") + "abc",
      "caf\xe9",    "password 1",  std::string("ab\0cd", 5),
      "\x7f",       " leading",    "trailing ",
  };
  for (const auto& pw : inputs) {
    scratch.prepare(pw);
    EXPECT_EQ(scratch.valid(), isValidPassword(pw)) << "[" << pw << "]";
  }
}

TEST(ParseScratchTest, ReuseAcrossShrinkingPasswordsStaysExact) {
  // A long password followed by a short one must not leave stale suffix
  // table bytes visible (prepare() owns the length bookkeeping).
  ParseScratch scratch;
  scratch.prepare("aVeryLongP@ssword$Indeed0123456789");
  const std::string_view shortPw = "It$1";
  scratch.prepare(shortPw);
  ASSERT_TRUE(scratch.valid());
  for (std::size_t i = 0; i < shortPw.size(); ++i) {
    EXPECT_EQ(scratch.partner()[i], expectedPartner(shortPw[i]));
    EXPECT_EQ(scratch.upper()[i], isUpper(shortPw[i]) ? 1 : 0);
    EXPECT_EQ(scratch.cls()[i],
              static_cast<unsigned char>(segmentClassOf(shortPw[i])));
  }
}

// ----------------------------------------------- grammar batch differential

/// Runs the view's batch scoring over the corpus at one batch size and
/// asserts bitwise equality with the scalar reference.
void checkBatchAgainstReference(const FlatGrammarView& view,
                                std::size_t batchSize) {
  SCOPED_TRACE("batchSize=" + std::to_string(batchSize));
  const auto& corpus = corpus10k();
  const auto& ref = scalarReferenceBits();
  std::vector<std::string_view> views(corpus.begin(), corpus.end());
  std::vector<double> got(corpus.size());
  for (std::size_t lo = 0; lo < corpus.size(); lo += batchSize) {
    const std::size_t n = std::min(batchSize, corpus.size() - lo);
    view.strengthBitsBatch(views.data() + lo, n, got.data() + lo);
  }
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    ASSERT_EQ(bitsOf(got[i]), bitsOf(ref[i]))
        << "password [" << corpus[i] << "] batch=" << got[i]
        << " scalar=" << ref[i];
  }
}

TEST(BatchDifferentialTest, FlatViewBatchMatchesScalarBitForBit) {
  const auto& view = trainedArtifact()->grammar();
  for (const std::size_t batchSize : {std::size_t{1}, std::size_t{7},
                                      std::size_t{64}, std::size_t{4096}}) {
    checkBatchAgainstReference(view, batchSize);
  }
}

TEST(BatchDifferentialTest, Log2ProbBatchIsExactNegationOfStrengthBits) {
  const auto& view = trainedArtifact()->grammar();
  const auto& corpus = corpus10k();
  std::vector<std::string_view> views(corpus.begin(), corpus.end());
  std::vector<double> lp(corpus.size());
  view.log2ProbBatch(views.data(), views.size(), lp.data());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    ASSERT_EQ(bitsOf(lp[i]), bitsOf(view.log2Prob(corpus[i])));
    ASSERT_EQ(bitsOf(-lp[i]), bitsOf(scalarReferenceBits()[i]));
  }
}

TEST(BatchDifferentialTest, InvalidPasswordsScoreInfiniteLikeScalarPath) {
  const auto& view = trainedArtifact()->grammar();
  const std::vector<std::string> inputs = {
      "",          std::string("\x01") + "abc", "caf\xe9",
      std::string("ab\0cd", 5), "tyxdqd123",    "\x7f",
  };
  std::vector<std::string_view> views(inputs.begin(), inputs.end());
  std::vector<double> got(inputs.size());
  view.strengthBitsBatch(views.data(), views.size(), got.data());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    ASSERT_EQ(bitsOf(got[i]), bitsOf(view.strengthBits(inputs[i])));
  }
  EXPECT_EQ(got[0], std::numeric_limits<double>::infinity());
  // The trained password keeps finite probability mass, proving the batch
  // path distinguishes invalid input from merely unguessable input.
  EXPECT_NE(got[4], std::numeric_limits<double>::infinity());
}

TEST(BatchDifferentialTest, EmptyBatchIsANoOp) {
  const auto& view = trainedArtifact()->grammar();
  view.strengthBitsBatch(nullptr, 0, nullptr);  // must not dereference
}

// --------------------------------------------------- MeterService scoreBatch

TEST(MeterServiceBatchTest, BatchMatchesScoreThroughHitsAndMisses) {
  MeterServiceConfig cfg;
  cfg.cacheCapacity = 1 << 16;  // large enough that warmed entries persist
  MeterService svc(trainedArtifact(), cfg);
  const auto snap = svc.snapshot();

  const auto& corpus = corpus10k();
  std::vector<std::string> batch(corpus.begin(), corpus.begin() + 2000);
  batch.emplace_back("");                  // invalid inputs ride along
  batch.emplace_back("caf\xe9");
  batch.push_back(batch.front());          // duplicate within one batch

  // Warm every other entry through the scalar path so the sweep sees an
  // interleaving of hits and misses.
  for (std::size_t i = 0; i < batch.size(); i += 2) svc.score(batch[i]);

  for (const unsigned threads : {0u, 1u, 3u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto scores = svc.scoreBatch(batch, threads);
    ASSERT_EQ(scores.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(bitsOf(scores[i].bits), bitsOf(snap->strengthBits(batch[i])))
          << "password [" << batch[i] << "]";
      EXPECT_EQ(scores[i].generation, 0u);
    }
  }
  // After a full batch everything is cached: a rescore is all hits.
  const auto again = svc.scoreBatch(batch);
  for (const auto& s : again) EXPECT_TRUE(s.fromCache);
}

TEST(MeterServiceBatchTest, BatchWithCacheDisabledIsStillExact) {
  MeterServiceConfig cfg;
  cfg.cacheCapacity = 0;
  MeterService svc(trainedArtifact(), cfg);
  const auto snap = svc.snapshot();
  const auto& corpus = corpus10k();
  const std::vector<std::string> batch(corpus.begin(), corpus.begin() + 500);
  const auto scores = svc.scoreBatch(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(bitsOf(scores[i].bits), bitsOf(snap->strengthBits(batch[i])));
    EXPECT_FALSE(scores[i].fromCache);
  }
  const auto again = svc.scoreBatch(batch);
  for (const auto& s : again) EXPECT_FALSE(s.fromCache);
}

TEST(MeterServiceBatchTest, EmptyBatchReturnsEmpty) {
  MeterService svc(trainedArtifact());
  EXPECT_TRUE(svc.scoreBatch({}).empty());
}

TEST(MeterServiceBatchTest, ArtifactBackedServiceBatchMatchesScore) {
  MeterService svc(trainedArtifact());
  const auto& corpus = corpus10k();
  const std::vector<std::string> batch(corpus.begin(), corpus.begin() + 500);
  const auto scores = svc.scoreBatch(batch, 2);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(bitsOf(scores[i].bits), bitsOf(scalarReferenceBits()[i]));
  }
}

// The TSan centerpiece: readers batch-score while the main thread flips
// the served grammar between two artifacts. Invariants per batch:
//   * every Score in one batch carries the same generation (one snapshot
//     per batch — a mid-batch publish must not mix grammars), and
//   * every bits value is bit-identical to the named generation's grammar
//     (generation parity maps to the artifact that was published there).
TEST(MeterServiceBatchTest, BatchUnderConcurrentArtifactRollover) {
  const FuzzyPsm& gA = trainedGrammar();
  FuzzyPsm gB = gA;  // same dictionary, shifted counts -> different scores
  gB.update("password1", 50);
  gB.update("Dr@gon99", 25);
  gB.update("zzqqxx!!", 10);
  const auto artA = GrammarArtifact::fromBytes(compileArtifact(gA));
  const auto artB = GrammarArtifact::fromBytes(compileArtifact(gB));

  std::vector<std::string> probes(corpus10k().begin(),
                                  corpus10k().begin() + 64);
  probes.emplace_back("password1");  // guaranteed to differ between A and B
  // expected[gen & 1][i]: generation 0 serves A, each publish alternates
  // B, A, B, ... so odd generations serve B.
  std::vector<std::vector<double>> expected(2);
  for (const auto& pw : probes) {
    expected[0].push_back(artA->grammar().strengthBits(pw));
    expected[1].push_back(artB->grammar().strengthBits(pw));
  }
  ASSERT_NE(bitsOf(expected[0].back()), bitsOf(expected[1].back()));

  MeterServiceConfig cfg;
  cfg.cacheCapacity = 1024;
  MeterService svc(artA, cfg);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> mixedGenerations{0};
  std::atomic<std::uint64_t> wrongBits{0};
  std::atomic<std::uint64_t> batches{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const auto scores = svc.scoreBatch(probes, 2);
        const std::uint64_t gen = scores.front().generation;
        const auto& want = expected[gen & 1];
        for (std::size_t i = 0; i < scores.size(); ++i) {
          if (scores[i].generation != gen) {
            mixedGenerations.fetch_add(1, std::memory_order_relaxed);
          }
          if (bitsOf(scores[i].bits) != bitsOf(want[i])) {
            wrongBits.fetch_add(1, std::memory_order_relaxed);
          }
        }
        batches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int p = 0; p < 40; ++p) {
    svc.publishFromArtifact(p % 2 == 0 ? artB : artA);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(mixedGenerations.load(), 0u);
  EXPECT_EQ(wrongBits.load(), 0u);
  EXPECT_GT(batches.load(), 0u);
  EXPECT_EQ(svc.generation(), 40u);
}

}  // namespace
}  // namespace fpsm
