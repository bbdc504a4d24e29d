#pragma once

/// \file error.hpp
/// Error types and checking macros used across ElasticRR.
///
/// Policy (src/core/README.md, "Error policy"): user-facing API misuse and invalid input data
/// throw elrr::Error; internal invariant violations throw
/// elrr::InternalError. Solver outcomes (infeasible, time limit, ...) are
/// reported through status enums, never through exceptions.

#include <sstream>
#include <stdexcept>
#include <string>

namespace elrr {

/// Base class for all errors raised by ElasticRR.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Invalid input data (malformed netlist, dead cycle, bad probability...).
class InvalidInputError : public Error {
 public:
  explicit InvalidInputError(const std::string& what) : Error(what) {}
};

/// A violated internal invariant; indicates a bug in ElasticRR itself.
class InternalError : public Error {
 public:
  explicit InternalError(const std::string& what) : Error(what) {}
};

/// A failure that is expected to go away on retry (injected fault, lost
/// worker, torn IO). The scheduler retries jobs that fail with a
/// TransientError up to its retry budget; every other Error subtype is
/// permanent and fails the job immediately.
class TransientError : public Error {
 public:
  explicit TransientError(const std::string& what) : Error(what) {}
};

namespace detail {

template <typename... Args>
std::string concat(Args&&... args) {
  std::ostringstream os;
  (os << ... << std::forward<Args>(args));
  return os.str();
}

}  // namespace detail

}  // namespace elrr

/// Validates a user-facing precondition; throws elrr::InvalidInputError.
#define ELRR_REQUIRE(cond, ...)                                            \
  do {                                                                     \
    if (!(cond)) {                                                         \
      throw ::elrr::InvalidInputError(                                     \
          ::elrr::detail::concat("requirement failed: ", __VA_ARGS__,      \
                                 " [", #cond, " at ", __FILE__, ":",       \
                                 __LINE__, "]"));                          \
    }                                                                      \
  } while (false)

/// Checks an internal invariant; throws elrr::InternalError.
#define ELRR_ASSERT(cond, ...)                                             \
  do {                                                                     \
    if (!(cond)) {                                                         \
      throw ::elrr::InternalError(                                         \
          ::elrr::detail::concat("internal invariant violated: ",          \
                                 __VA_ARGS__, " [", #cond, " at ",         \
                                 __FILE__, ":", __LINE__, "]"));           \
    }                                                                      \
  } while (false)

/// Invariant check on a simulation hot path: a full ELRR_ASSERT in debug
/// builds, compiled out under NDEBUG. The inlined throw/ostringstream
/// machinery of ELRR_ASSERT measurably slows tight kernels; hot loops use
/// this variant for invariants that the differential tests enforce
/// against the test-only oracle kernel (tests/sim/oracle.hpp), which
/// keeps full checks. Production runs no second kernel: a Release step
/// never throws, and a Debug violation fails the slice's job.
#ifdef NDEBUG
#define ELRR_HOT_ASSERT(cond, ...) \
  do {                             \
  } while (false)
#else
#define ELRR_HOT_ASSERT(cond, ...) ELRR_ASSERT(cond, __VA_ARGS__)
#endif
