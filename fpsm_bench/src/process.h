// Child processes: the suite drives `fuzzypsm train` as a user would.
#pragma once

#include <string>
#include <vector>

namespace fpsm::suite {

/// Runs every command, at most `parallel` at a time, with stdout and
/// stderr discarded, and waits for all of them. Throws when one cannot be
/// started or exits with a non-zero status — after every started child has
/// been waited for.
void runCommands(const std::vector<std::vector<std::string>>& commands,
                 unsigned parallel);

inline void runCommand(const std::vector<std::string>& command) {
  runCommands({command}, 1);
}

}  // namespace fpsm::suite
