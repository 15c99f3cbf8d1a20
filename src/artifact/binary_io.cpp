// The .fpsmb writer (writeArtifact, compileArtifact) and
// FuzzyPsm::fromArtifact — a FuzzyPsm member, declared in core/fuzzy_psm.h
// for private access to the grammar counts, but defined here so the core
// library stays free of artifact code: only targets linking fpsm_artifact
// can compile or read grammars.
#include <algorithm>
#include <cstring>

#include "artifact/artifact.h"
#include "artifact/checksum.h"
#include "core/fuzzy_psm.h"
#include "trie/flat_trie.h"
#include "util/check.h"

namespace fpsm {
namespace {

/// Little-endian byte-buffer builder for one section payload.
class Blob {
 public:
  void u32(std::uint32_t v) { raw(&v, 4); }
  void u64(std::uint64_t v) { raw(&v, 8); }
  void f64(double v) { raw(&v, 8); }
  void chars(const char* p, std::size_t n) { raw(p, n); }

  void padTo8() {
    while (bytes_.size() % 8 != 0) bytes_.push_back(std::byte{0});
  }

  const std::vector<std::byte>& bytes() const { return bytes_; }
  std::size_t size() const { return bytes_.size(); }

 private:
  void raw(const void* p, std::size_t n) {
    // p may be null when n == 0 (e.g. the label array of an empty
    // reversed trie); memcpy forbids null even then.
    if (n == 0) return;
    const std::size_t at = bytes_.size();
    bytes_.resize(at + n);
    std::memcpy(bytes_.data() + at, p, n);
  }

  std::vector<std::byte> bytes_;
};

/// (form, count) pairs of a SegmentTable in lexicographic form order — the
/// artifact's canonical entry order, which makes compilation deterministic
/// and lets readers binary-search the mapped pool.
std::vector<std::pair<std::string_view, std::uint64_t>> sortedEntries(
    const SegmentTable& table) {
  std::vector<std::pair<std::string_view, std::uint64_t>> entries;
  entries.reserve(table.distinct());
  table.forEach([&](std::string_view form, std::uint64_t count) {
    entries.emplace_back(form, count);
  });
  std::sort(entries.begin(), entries.end());
  return entries;
}

/// Appends a count table (total, poolBytes, counts[], strOff[], strLen[],
/// pool) to `out`. `out` must be 8-aligned minus 16 at the call site so the
/// u64 counts land 8-aligned in the file; both callers arrange this.
void writeCountTable(
    Blob& out,
    const std::vector<std::pair<std::string_view, std::uint64_t>>& entries,
    std::uint64_t total) {
  std::uint64_t poolBytes = 0;
  for (const auto& [form, count] : entries) poolBytes += form.size();
  if (poolBytes > 0xffffffffull) {
    throw Error("artifact writer: string pool exceeds 4 GiB");
  }
  out.u64(total);
  out.u64(poolBytes);
  for (const auto& [form, count] : entries) out.u64(count);
  std::uint32_t off = 0;
  for (const auto& [form, count] : entries) {
    out.u32(off);
    off += static_cast<std::uint32_t>(form.size());
  }
  for (const auto& [form, count] : entries) {
    out.u32(static_cast<std::uint32_t>(form.size()));
  }
  for (const auto& [form, count] : entries) {
    out.chars(form.data(), form.size());
  }
}

void writeTrie(Blob& out, const Trie& trie) {
  const FlatTrie flat = FlatTrie::fromTrie(trie);
  // FlatTrie happens to index edges with u32 today, but the artifact's
  // width contract belongs to this boundary, not to FlatTrie internals.
  FPSM_CHECK(flat.edgeBegin().size() <= 0xffffffffull);
  FPSM_CHECK(flat.edgeTargets().size() <= 0xffffffffull);
  out.u32(static_cast<std::uint32_t>(flat.edgeBegin().size()));
  out.u32(static_cast<std::uint32_t>(flat.edgeTargets().size()));
  out.u64(flat.wordCount());
  for (const std::uint32_t v : flat.edgeBegin()) out.u32(v);
  for (const std::uint32_t v : flat.edgeMeta()) out.u32(v);
  for (const std::uint32_t v : flat.edgeTargets()) out.u32(v);
  out.chars(flat.edgeLabels().data(), flat.edgeLabels().size());
}

}  // namespace

std::vector<std::byte> writeArtifact(const FuzzyConfig& config,
                                     const std::vector<std::string>& baseWords,
                                     const Trie& trie, const Trie& reversedTrie,
                                     const GrammarCounts& counts) {
  Blob sections[kArtifactSectionCount];

  // Config (fixed 152 bytes).
  {
    Blob& b = sections[0];
    if (config.minBaseWordLen > 0xffffffffull) {
      throw Error("artifact writer: minBaseWordLen exceeds u32");
    }
    b.u32(static_cast<std::uint32_t>(config.minBaseWordLen));
    std::uint32_t flags = 0;
    if (config.matchCapitalization) flags |= kArtifactFlagMatchCapitalization;
    if (config.matchLeet) flags |= kArtifactFlagMatchLeet;
    if (config.retryTrieInsideRuns) flags |= kArtifactFlagRetryTrieInsideRuns;
    if (config.matchReverse) flags |= kArtifactFlagMatchReverse;
    b.u32(flags);
    b.f64(config.transformationPrior);
    b.u64(counts.capYes());
    b.u64(counts.capTotal());
    b.u64(counts.revYes());
    b.u64(counts.revTotal());
    for (int r = 0; r < kNumLeetRules; ++r) {
      b.u64(counts.leetYes(r));
    }
    for (int r = 0; r < kNumLeetRules; ++r) {
      b.u64(counts.leetTotal(r));
    }
    b.u64(counts.trainedPasswords());
  }

  // BaseWords, in insertion order: reloading replays the same addBaseWord
  // sequence, so the rebuilt tries — and a re-compiled artifact — are
  // byte-identical.
  {
    Blob& b = sections[1];
    std::uint64_t poolBytes = 0;
    for (const auto& w : baseWords) poolBytes += w.size();
    if (poolBytes > 0xffffffffull) {
      throw Error("artifact writer: base word pool exceeds 4 GiB");
    }
    b.u64(baseWords.size());
    b.u64(poolBytes);
    std::uint32_t off = 0;
    for (const auto& w : baseWords) {
      b.u32(off);
      off += static_cast<std::uint32_t>(w.size());
    }
    b.u32(off);
    for (const auto& w : baseWords) b.chars(w.data(), w.size());
  }

  writeTrie(sections[2], trie);
  writeTrie(sections[3], reversedTrie);

  // Structures.
  {
    Blob& b = sections[4];
    const auto entries = sortedEntries(counts.structures());
    FPSM_CHECK(entries.size() <= 0xffffffffull);
    b.u32(static_cast<std::uint32_t>(entries.size()));
    b.u32(0);  // reserved
    writeCountTable(b, entries, counts.structures().total());
  }

  // Segment tables in ascending length order.
  {
    Blob& b = sections[5];
    const std::vector<std::size_t> lengths = counts.segmentLengths();
    FPSM_CHECK(lengths.size() <= 0xffffffffull);
    b.u32(static_cast<std::uint32_t>(lengths.size()));
    b.u32(0);  // reserved
    for (const std::size_t len : lengths) {
      const SegmentTable& table = *counts.segmentTable(len);
      const auto entries = sortedEntries(table);
      // Lengths come from parsed passwords (bounded by password length)
      // and entry counts from distinct forms; both must fit the u32 wire
      // fields or the table would round-trip corrupted.
      FPSM_CHECK(len <= 0xffffffffull);
      FPSM_CHECK(entries.size() <= 0xffffffffull);
      b.u32(static_cast<std::uint32_t>(len));
      b.u32(static_cast<std::uint32_t>(entries.size()));
      writeCountTable(b, entries, table.total());
      b.padTo8();
    }
  }

  // Assemble: header + section table + 8-aligned payloads.
  const std::size_t preludeBytes =
      kArtifactHeaderBytes + kArtifactSectionCount * kArtifactSectionEntryBytes;
  std::uint64_t offsets[kArtifactSectionCount];
  std::uint64_t cursor = preludeBytes;
  for (std::size_t i = 0; i < kArtifactSectionCount; ++i) {
    cursor = (cursor + 7) & ~7ull;
    offsets[i] = cursor;
    cursor += sections[i].size();
  }
  std::vector<std::byte> file(cursor, std::byte{0});

  Blob header;
  header.u32(kArtifactMagic);
  header.u32(kArtifactVersion);
  header.u32(kArtifactEndianTag);
  header.u32(kArtifactSectionCount);
  header.u64(cursor);  // fileBytes
  header.u64(0);       // reserved
  header.u64(0);       // headerChecksum, patched below
  static_assert(kArtifactSectionCount < 0xffffffffull,
                "section ids must fit the header's u32 id field");
  for (std::size_t i = 0; i < kArtifactSectionCount; ++i) {
    header.u32(static_cast<std::uint32_t>(i + 1));  // id
    header.u32(0);                                  // reserved
    header.u64(offsets[i]);
    header.u64(sections[i].size());
    header.u64(xxhash64(sections[i].bytes().data(), sections[i].size()));
  }
  std::memcpy(file.data(), header.bytes().data(), preludeBytes);
  const std::uint64_t headerChecksum = xxhash64(file.data(), preludeBytes);
  std::memcpy(file.data() + 32, &headerChecksum, 8);
  for (std::size_t i = 0; i < kArtifactSectionCount; ++i) {
    if (sections[i].size() == 0) continue;  // memcpy forbids null src
    std::memcpy(file.data() + offsets[i], sections[i].bytes().data(),
                sections[i].size());
  }
  return file;
}

std::vector<std::byte> compileArtifact(const FuzzyPsm& psm) {
  return writeArtifact(psm.config(), psm.baseWords(), psm.baseDictionary(),
                       psm.reversedDictionary(), psm.counts());
}

FuzzyPsm FuzzyPsm::fromArtifact(const GrammarArtifact& artifact) {
  const FlatGrammarView& v = artifact.grammar();
  FuzzyPsm psm(v.config());
  // Replaying the stored insertion order rebuilds trie_/reversedTrie_
  // identically to the grammar the artifact was compiled from.
  for (std::uint64_t i = 0; i < v.baseWordCount(); ++i) {
    psm.addBaseWord(v.baseWord(i));
  }
  GrammarCounts& counts = psm.counts_;
  counts.capYes_ = v.capYes();
  counts.capTotal_ = v.capTotal();
  counts.revYes_ = v.revYes();
  counts.revTotal_ = v.revTotal();
  for (int r = 0; r < kNumLeetRules; ++r) {
    const auto i = static_cast<std::size_t>(r);
    counts.leetYes_[i] = v.leetYes(r);
    counts.leetTotal_[i] = v.leetTotal(r);
  }
  const FlatTableView& structures = v.structures();
  for (std::uint32_t i = 0; i < structures.distinct(); ++i) {
    counts.structures_.add(structures.form(i), structures.countAt(i));
  }
  for (const auto& [len, table] : v.segmentTables()) {
    SegmentTable& dst = counts.segments_[len];
    for (std::uint32_t i = 0; i < table.distinct(); ++i) {
      dst.add(table.form(i), table.countAt(i));
    }
  }
  counts.trainedPasswords_ = v.trainedPasswords();
  return psm;
}

}  // namespace fpsm
