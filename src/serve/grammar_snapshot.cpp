#include "serve/grammar_snapshot.h"

#include <utility>

#include "analysis/grammar_lint.h"
#include "util/error.h"

namespace fpsm {

GrammarSnapshot::GrammarSnapshot(
    std::shared_ptr<const GrammarArtifact> artifact, std::uint64_t generation)
    : artifact_(std::move(artifact)), generation_(generation) {}

std::shared_ptr<const GrammarSnapshot> GrammarSnapshot::fromArtifact(
    std::shared_ptr<const GrammarArtifact> artifact,
    std::uint64_t generation, bool lint, const LintOptions& lintOptions) {
  if (!artifact) {
    throw InvalidArgument("GrammarSnapshot::fromArtifact: null artifact");
  }
  if (lint) {
    // Pre-publish gate: the artifact's bytes were already checksum- and
    // bounds-validated, but semantic defects (dangling B_n references,
    // counter drift) pass the loader and would poison every reader of this
    // snapshot. Fail closed before the grammar becomes reachable.
    LintReport report = GrammarValidator(lintOptions).lint(artifact->grammar());
    if (!report.ok()) throw GrammarLintError(std::move(report));
  }
  // Not make_shared: the constructor is private.
  return std::shared_ptr<const GrammarSnapshot>(
      new GrammarSnapshot(std::move(artifact), generation));
}

}  // namespace fpsm
