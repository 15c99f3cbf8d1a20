// Quickstart: build a fuzzyPSM from two small password lists and measure
// a few candidate passwords.
//
//   base dictionary  — passwords leaked from a LESS sensitive service
//                      (weak, popular strings; they index the trie);
//   training set     — passwords leaked from a sensitive service (they
//                      teach the grammar how users reuse and mangle).
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "artifact/artifact.h"
#include "core/fuzzy_psm.h"
#include "corpus/dataset.h"

using namespace fpsm;

namespace {

const char* bucketOf(double bits) {
  if (bits < 15) return "weak";
  if (bits < 25) return "fair";
  if (bits < 35) return "good";
  return "strong";
}

}  // namespace

int main() {
  // 1. Base dictionary: the "less sensitive service" leak.
  Dataset base("toy-forum-leak");
  for (const char* pw : {"password", "123456", "dragon", "iloveyou",
                         "monkey", "sunshine", "p@ssword", "qwerty"}) {
    base.add(pw);
  }

  // 2. Training dictionary: the "sensitive service" leak, with counts.
  Dataset training("toy-shop-leak");
  training.add("password1", 40);
  training.add("password123", 25);
  training.add("Password1", 6);
  training.add("p@ssw0rd", 3);
  training.add("dragon2015", 8);
  training.add("iloveyou!", 10);
  training.add("monkey99", 7);
  training.add("x7#QpL2v", 1);

  // 3. Train the grammar and compile it. The compiled artifact is what a
  //    service stores and serves (an .fpsmb file); its view is the meter.
  FuzzyPsm builder;
  builder.loadBaseDictionary(base);
  builder.train(training);
  const auto artifact = GrammarArtifact::fromBytes(compileArtifact(builder));
  const FlatGrammarView& meter = artifact->grammar();

  // 4. Measure candidates. strengthBits = -log2(probability): higher is
  //    stronger; probability-zero passwords report +inf.
  std::printf("%-16s %10s  %s\n", "password", "bits", "bucket");
  for (const char* pw :
       {"password1", "Password123", "p@ssw0rd1", "dragon2016",
        "Tr0ub4dor&3", "monkey99", "zQ#9vLp2x!"}) {
    const double bits = meter.strengthBits(pw);
    std::printf("%-16s %10.2f  %s\n", pw, bits, bucketOf(bits));
  }

  // 5. The grammar explains its scores.
  const FuzzyParse parse = meter.parse("P@ssw0rd123");
  std::printf("\nparse of \"P@ssw0rd123\": structure %s,",
              parse.structure.c_str());
  for (const auto& seg : parse.segments) {
    std::printf(" [%s%s%s]", seg.base.c_str(),
                seg.capitalized ? " +cap" : "",
                seg.fromTrie ? "" : " (fallback)");
  }
  std::printf("\n");
  return 0;
}
