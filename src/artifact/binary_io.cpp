// The .fpsmb writer (writeArtifact, compileArtifact) and
// FuzzyPsm::fromArtifact — a FuzzyPsm member, declared in core/fuzzy_psm.h
// for private access to the grammar counts, but defined here so the core
// library stays free of artifact code: only targets linking fpsm_artifact
// can compile or read grammars.
#include <algorithm>
#include <cstring>
#include <span>

#include "artifact/artifact.h"
#include "artifact/checksum.h"
#include "core/fuzzy_psm.h"
#include "trie/flat_trie.h"
#include "util/check.h"
#include "util/error.h"

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

/// (form, count) pairs in lexicographic form order — the artifact's
/// canonical entry order, which makes compilation deterministic and lets
/// readers binary-search the mapped pool.
using Entries = std::vector<std::pair<std::string_view, std::uint64_t>>;

constexpr const char* kMergeWhere = "artifact writer";

/// The sorted merge of `base` (strictly ascending with nonzero counts, as
/// the loader guarantees) with `delta` (may be null): a form in both
/// carries the sum. Only the delta is sorted.
Entries mergeTable(const FlatTableView& base, const SegmentTable* delta) {
  Entries added;
  if (delta != nullptr) {
    added.reserve(delta->distinct());
    delta->forEach([&](std::string_view form, std::uint64_t count) {
      added.emplace_back(form, count);
    });
    std::sort(added.begin(), added.end());
  }
  Entries merged;
  merged.reserve(base.distinct() + added.size());
  std::uint32_t b = 0;
  auto d = added.begin();
  while (b < base.distinct() && d != added.end()) {
    const std::string_view form = base.form(b);
    if (form < d->first) {
      merged.emplace_back(form, base.countAt(b++));
    } else if (d->first < form) {
      merged.push_back(*d++);
    } else {
      merged.emplace_back(
          form, checkedCountAdd(base.countAt(b++), (d++)->second, kMergeWhere));
    }
  }
  for (; b < base.distinct(); ++b) {
    merged.emplace_back(base.form(b), base.countAt(b));
  }
  merged.insert(merged.end(), d, added.end());
  return merged;
}

/// Appends a count table (total, poolBytes, counts[], strOff[], strLen[],
/// pool) to `out`. `out` must be 8-aligned minus 16 at the call site so the
/// u64 counts land 8-aligned in the file; both callers arrange this.
void writeCountTable(Blob& out, const Entries& entries, std::uint64_t total) {
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

/// One section payload of the file being assembled.
using Section = std::span<const std::byte>;

/// The sections that hold counts.
struct CountSections {
  Blob config;
  Blob structures;
  Blob segments;
};

/// The count sections of `base` plus `delta`, with `config` as the Config
/// section's fields. The one count path: the five-argument writer passes
/// an empty base.
CountSections writeCounts(const FuzzyConfig& config,
                          const FlatGrammarView& base,
                          const GrammarCounts& delta) {
  const auto add = [](std::uint64_t a, std::uint64_t b) {
    return checkedCountAdd(a, b, kMergeWhere);
  };
  CountSections out;

  // Structures.
  {
    Blob& b = out.structures;
    const Entries entries = mergeTable(base.structures(), &delta.structures());
    FPSM_CHECK(entries.size() <= 0xffffffffull);
    b.u32(static_cast<std::uint32_t>(entries.size()));
    b.u32(0);  // reserved
    writeCountTable(b, entries,
                    add(base.structures().total(), delta.structures().total()));
  }

  // Segment tables in ascending length order: the union of both sides'.
  {
    Blob& b = out.segments;
    std::vector<std::size_t> lengths = delta.segmentLengths();
    for (const auto& [len, table] : base.segmentTables()) {
      lengths.push_back(len);
    }
    std::sort(lengths.begin(), lengths.end());
    lengths.erase(std::unique(lengths.begin(), lengths.end()), lengths.end());
    FPSM_CHECK(lengths.size() <= 0xffffffffull);
    b.u32(static_cast<std::uint32_t>(lengths.size()));
    b.u32(0);  // reserved
    for (const std::size_t len : lengths) {
      const FlatTableView* baseTable = base.segmentTable(len);
      const FlatTableView from =
          baseTable != nullptr ? *baseTable : FlatTableView();
      const SegmentTable* added = delta.segmentTable(len);
      const Entries entries = mergeTable(from, added);
      // Lengths come from parsed passwords (bounded by password length)
      // and entry counts from distinct forms; both must fit the u32 wire
      // fields or the table would round-trip corrupted.
      FPSM_CHECK(len <= 0xffffffffull);
      FPSM_CHECK(entries.size() <= 0xffffffffull);
      b.u32(static_cast<std::uint32_t>(len));
      b.u32(static_cast<std::uint32_t>(entries.size()));
      writeCountTable(b, entries,
                      add(from.total(), added != nullptr ? added->total() : 0));
      b.padTo8();
    }
  }

  // Config (fixed 152 bytes). Its counters follow the tables, so each
  // overflow check is reached by a delta that trips only it.
  {
    Blob& b = out.config;
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
    b.u64(add(base.capYes(), delta.capYes()));
    b.u64(add(base.capTotal(), delta.capTotal()));
    b.u64(add(base.revYes(), delta.revYes()));
    b.u64(add(base.revTotal(), delta.revTotal()));
    for (int r = 0; r < kNumLeetRules; ++r) {
      b.u64(add(base.leetYes(r), delta.leetYes(r)));
    }
    for (int r = 0; r < kNumLeetRules; ++r) {
      b.u64(add(base.leetTotal(r), delta.leetTotal(r)));
    }
    b.u64(add(base.trainedPasswords(), delta.trainedPasswords()));
  }
  return out;
}

/// Header + section table + 8-aligned payloads, in section id order.
std::vector<std::byte> assemble(
    const Section (&sections)[kArtifactSectionCount]) {
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
    header.u64(xxhash64(sections[i].data(), sections[i].size()));
  }
  std::memcpy(file.data(), header.bytes().data(), preludeBytes);
  const std::uint64_t headerChecksum = xxhash64(file.data(), preludeBytes);
  std::memcpy(file.data() + 32, &headerChecksum, 8);
  for (std::size_t i = 0; i < kArtifactSectionCount; ++i) {
    if (sections[i].empty()) continue;  // memcpy forbids null src
    std::memcpy(file.data() + offsets[i], sections[i].data(),
                sections[i].size());
  }
  return file;
}

}  // namespace

std::vector<std::byte> writeArtifact(const FuzzyConfig& config,
                                     const std::vector<std::string>& baseWords,
                                     const Trie& trie, const Trie& reversedTrie,
                                     const GrammarCounts& counts) {
  // BaseWords, in insertion order: reloading replays the same addBaseWord
  // sequence, so the rebuilt tries — and a re-compiled artifact — are
  // byte-identical.
  Blob words;
  {
    std::uint64_t poolBytes = 0;
    for (const auto& w : baseWords) poolBytes += w.size();
    if (poolBytes > 0xffffffffull) {
      throw Error("artifact writer: base word pool exceeds 4 GiB");
    }
    words.u64(baseWords.size());
    words.u64(poolBytes);
    std::uint32_t off = 0;
    for (const auto& w : baseWords) {
      words.u32(off);
      off += static_cast<std::uint32_t>(w.size());
    }
    words.u32(off);
    for (const auto& w : baseWords) words.chars(w.data(), w.size());
  }
  Blob tries[2];
  writeTrie(tries[0], trie);
  writeTrie(tries[1], reversedTrie);

  const CountSections c = writeCounts(config, FlatGrammarView(), counts);
  return assemble({c.config.bytes(), words.bytes(), tries[0].bytes(),
                   tries[1].bytes(), c.structures.bytes(), c.segments.bytes()});
}

std::vector<std::byte> writeArtifact(const GrammarArtifact& base,
                                     const GrammarCounts& delta) {
  const CountSections c =
      writeCounts(base.grammar().config(), base.grammar(), delta);
  const auto copied = [&](ArtifactSection id) {
    const ArtifactSectionInfo& s =
        base.sections()[static_cast<std::size_t>(id) - 1];
    return Section(base.data() + s.offset, s.bytes);
  };
  return assemble({c.config.bytes(), copied(ArtifactSection::BaseWords),
                   copied(ArtifactSection::BaseTrie),
                   copied(ArtifactSection::ReverseTrie), c.structures.bytes(),
                   c.segments.bytes()});
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
