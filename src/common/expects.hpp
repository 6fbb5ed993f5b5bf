#ifndef PTC_COMMON_EXPECTS_HPP
#define PTC_COMMON_EXPECTS_HPP

#include <stdexcept>
#include <string>
#include <string_view>

/// Lightweight precondition/postcondition helpers in the spirit of the
/// C++ Core Guidelines Expects()/Ensures().  Violations throw, so callers
/// (and tests) can observe contract failures deterministically.
///
/// A passing check never allocates: the message is a std::string_view and
/// the exception text is built only on the throwing path.  Keep it that way
/// at call sites too — do not build a message string (concatenation,
/// std::to_string, ...) on a hot path, because that cost is paid on every
/// call, not only on a violation.
namespace ptc {

namespace detail {
// Out of line and cold, so each inlined check is one test and branch.
[[noreturn, gnu::cold, gnu::noinline]] inline void throw_precondition(
    std::string_view what) {
  throw std::invalid_argument(
      std::string("precondition violated: ").append(what));
}

[[noreturn, gnu::cold, gnu::noinline]] inline void throw_postcondition(
    std::string_view what) {
  throw std::logic_error(std::string("postcondition violated: ").append(what));
}
}  // namespace detail

/// Throws std::invalid_argument when a precondition does not hold.
inline void expects(bool condition, std::string_view what) {
  if (!condition) [[unlikely]] detail::throw_precondition(what);
}

/// Throws std::logic_error when a postcondition/invariant does not hold.
inline void ensures(bool condition, std::string_view what) {
  if (!condition) [[unlikely]] detail::throw_postcondition(what);
}

}  // namespace ptc

#endif  // PTC_COMMON_EXPECTS_HPP
