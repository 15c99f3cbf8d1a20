#include "process.h"

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>

#include <cerrno>
#include <cstring>
#include <map>
#include <stdexcept>

extern char** environ;

namespace fpsm::suite {

namespace {

pid_t spawn(const std::vector<std::string>& command) {
  std::vector<char*> argv;
  for (const std::string& a : command) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 2, "/dev/null", O_WRONLY, 0);
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    throw std::runtime_error("cannot start " + command[0] + ": " +
                             std::strerror(rc));
  }
  return pid;
}

std::string describe(const std::vector<std::string>& command) {
  std::string s;
  for (const std::string& a : command) s += (s.empty() ? "" : " ") + a;
  return s;
}

}  // namespace

void runCommands(const std::vector<std::vector<std::string>>& commands,
                 unsigned parallel) {
  if (parallel == 0) parallel = 1;
  std::map<pid_t, std::size_t> running;
  std::string failure;
  std::size_t next = 0;
  while (next < commands.size() || !running.empty()) {
    while (failure.empty() && next < commands.size() &&
           running.size() < parallel) {
      try {
        running.emplace(spawn(commands[next]), next);
      } catch (const std::exception& e) {
        failure = e.what();
      }
      ++next;
    }
    if (running.empty()) break;
    int status = 0;
    const pid_t pid = waitpid(-1, &status, 0);
    if (pid < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("waitpid failed");
    }
    const auto it = running.find(pid);
    if (it == running.end()) continue;
    if (failure.empty() && (!WIFEXITED(status) || WEXITSTATUS(status) != 0)) {
      failure = "command failed (status " + std::to_string(status) +
                "): " + describe(commands[it->second]);
    }
    running.erase(it);
  }
  if (!failure.empty()) throw std::runtime_error(failure);
}

}  // namespace fpsm::suite
