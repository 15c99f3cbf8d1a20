#include "serve/grammar_snapshot.h"

#include <utility>

#include "util/error.h"

namespace fpsm {

GrammarSnapshot::GrammarSnapshot(
    std::shared_ptr<const GrammarArtifact> artifact, std::uint64_t generation)
    : artifact_(std::move(artifact)), generation_(generation) {}

std::shared_ptr<const GrammarSnapshot> GrammarSnapshot::fromArtifact(
    std::shared_ptr<const GrammarArtifact> artifact,
    std::uint64_t generation) {
  if (!artifact) {
    throw InvalidArgument("GrammarSnapshot::fromArtifact: null artifact");
  }
  // Not make_shared: the constructor is private.
  return std::shared_ptr<const GrammarSnapshot>(
      new GrammarSnapshot(std::move(artifact), generation));
}

}  // namespace fpsm
