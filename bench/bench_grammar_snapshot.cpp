// Tables IV-VI and Fig. 11: a snapshot of a learned fuzzy PCFG — top base
// structures with probabilities, the capitalization rule, the six leet
// rules — plus a worked derivation of a concrete password, mirroring the
// paper's P("p@ssw0rd1") walkthrough.
//
// Grammar: base dictionary Tianya, training dictionary Dodonew (the
// paper's "less sensitive base, sensitive training" pairing).
#include <cmath>
#include <cstdio>

#include "artifact/explain.h"
#include "bench_common.h"
#include "util/chars.h"
#include "util/format.h"

using namespace fpsm;

namespace {

void printDerivation(const FlatGrammarView& grammar, const std::string& pw) {
  std::printf("\nDerivation of \"%s\" (cf. paper Fig. 11):\n", pw.c_str());
  const auto ex = explainDerivation(grammar, pw);
  std::printf("%s  (log2Prob check: %.3f)\n", ex.render().c_str(),
              grammar.log2Prob(pw));
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = bench::defaultConfig(argc, argv);
  bench::printHeader(
      "Tables IV-VI: learned fuzzy PCFG (base=Tianya, training=Dodonew)",
      cfg);
  EvalHarness harness(cfg);

  const auto artifact = bench::compiledFuzzyPsm(harness.dataset("Tianya"),
                                                harness.dataset("Dodonew"));
  const FlatGrammarView& grammar = artifact->grammar();

  std::printf("base dictionary: %s distinct words (len >= %zu)\n",
              fmtCount(grammar.baseWordCount()).c_str(),
              grammar.config().minBaseWordLen);
  std::printf("training: %s passwords, %s base structures\n",
              fmtCount(grammar.trainedPasswords()).c_str(),
              fmtCount(grammar.structures().distinct()).c_str());

  // ---- Table IV: base structures and example segments -------------------
  std::printf("%s", banner("Table IV: top base structures").c_str());
  TextTable structures({"LHS", "RHS", "Probability"});
  int shown = 0;
  const FlatTableView& table = grammar.structures();
  for (const std::uint32_t i : table.byCountDesc()) {
    structures.addRow({"S", std::string(table.form(i)),
                       fmtDouble(table.probability(table.form(i)), 5)});
    if (++shown == 12) break;
  }
  std::printf("%s", structures.render().c_str());

  // Fraction of single-segment structures — the paper reports over 80% of
  // items are of the simple form S -> Bm.
  double singleMass = 0.0;
  for (std::uint32_t i = 0; i < table.distinct(); ++i) {
    int segCount = 0;
    for (char ch : table.form(i)) segCount += ch == 'B';
    if (segCount == 1) singleMass += static_cast<double>(table.countAt(i));
  }
  std::printf("single-segment structures (S -> Bm): %s of training mass "
              "(paper: >80%% of items)\n",
              fmtPercent(singleMass / static_cast<double>(table.total()))
                  .c_str());

  std::printf("%s", banner("Table IV (cont.): top segments per length").c_str());
  for (const std::size_t len : {6, 8, 11}) {
    if (const FlatTableView* t = grammar.segmentTable(len)) {
      TextTable seg({"LHS", "RHS", "Probability"});
      // "B" + length, not "B" + std::to_string(len): gcc 12 at -O3 reports
      // a false -Wrestrict when a literal is prepended to a temporary.
      const std::string length = std::to_string(len);
      int n = 0;
      for (const std::uint32_t i : t->byCountDesc()) {
        seg.addRow({"B" + length, std::string(t->form(i)),
                    fmtDouble(t->probability(t->form(i)), 5)});
        if (++n == 5) break;
      }
      std::printf("%s", seg.render().c_str());
    }
  }

  // ---- Table V / VI: transformation rules --------------------------------
  std::printf("%s", banner("Table V: capitalization of first letter").c_str());
  std::printf("P(Yes) = %.4f   P(No) = %.4f   (paper example: 0.03 / 0.97)\n",
              grammar.capitalizeYesProb(), 1.0 - grammar.capitalizeYesProb());

  std::printf("%s", banner("Table VI: leet transformations").c_str());
  TextTable leet({"Rule", "Pair", "P(Yes)", "P(No)"});
  for (int r = 0; r < kNumLeetRules; ++r) {
    const LeetRule& rule = kLeetRules[static_cast<std::size_t>(r)];
    const double py = grammar.leetYesProb(r);
    const std::string index = std::to_string(r + 1);
    leet.addRow({"L" + index,
                 std::string(1, rule.letter) + "<->" + rule.sub,
                 fmtDouble(py, 5), fmtDouble(1.0 - py, 5)});
  }
  std::printf("%s", leet.render().c_str());

  // ---- Fig. 11: worked derivations ---------------------------------------
  printDerivation(grammar, "p@ssw0rd1");
  printDerivation(grammar, "Woaini1314");
  printDerivation(grammar, "123456789a");
  return 0;
}
