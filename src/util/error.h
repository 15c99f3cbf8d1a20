// Error type used across the fuzzyPSM libraries.
//
// Per C++ Core Guidelines E.2/E.14 we signal construction and usage errors
// with exceptions derived from std::runtime_error, carrying a formatted
// message. No error codes are threaded through the APIs.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace fpsm {

/// Base exception for all library errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when an input (password, dataset line, config value) is malformed.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// Thrown when an operation requires a model that has not been trained yet.
class NotTrained : public Error {
 public:
  explicit NotTrained(const std::string& what) : Error(what) {}
};

/// Thrown on I/O failures (dataset files, serialized grammars).
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error(what) {}
};

/// a + b for occurrence counts. Throws InvalidArgument naming `where`
/// when the sum does not fit 64 bits, where a plain += would wrap.
inline std::uint64_t checkedCountAdd(std::uint64_t a, std::uint64_t b,
                                     const char* where) {
  if (b > std::numeric_limits<std::uint64_t>::max() - a) {
    throw InvalidArgument(std::string(where) + ": count overflows 64 bits");
  }
  return a + b;
}

}  // namespace fpsm
