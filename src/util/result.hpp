// Result<T> — a minimal expected-style value-or-error type.
//
// C++20 has no std::expected, so the stack carries recoverable failures in
// this small, allocation-free (beyond T/Error themselves) sum type.
//
//   Result<Request> r = decode_request(bytes);
//   if (!r) return r.error();
//   use(r.value());
//
// Dereferencing a Result that holds an error is a programming error and
// terminates (std::get throws std::bad_variant_access).
#pragma once

#include <utility>
#include <variant>

#include "util/error.hpp"

namespace ph {

template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit from a value: `return DeviceInfo{...};`
  Result(T value) : state_(std::in_place_index<0>, std::move(value)) {}
  /// Implicit from an error: `return Error{Errc::timeout};`
  Result(Error error) : state_(std::in_place_index<1>, std::move(error)) {}
  /// Implicit from a bare code: `return Errc::timeout;`
  Result(Errc code) : state_(std::in_place_index<1>, Error{code}) {}

  bool ok() const noexcept { return state_.index() == 0; }
  explicit operator bool() const noexcept { return ok(); }

  T& value() & { return std::get<0>(state_); }
  const T& value() const& { return std::get<0>(state_); }
  T&& value() && { return std::get<0>(std::move(state_)); }

  const Error& error() const& { return std::get<1>(state_); }
  Error&& error() && { return std::get<1>(std::move(state_)); }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  /// Value if present, otherwise `fallback`.
  T value_or(T fallback) const& { return ok() ? value() : std::move(fallback); }

  /// Monadic map: applies `fn` to the value, forwards the error untouched.
  template <typename Fn>
  auto map(Fn&& fn) && -> Result<decltype(fn(std::declval<T&&>()))> {
    if (!ok()) return std::move(*this).error();
    return fn(std::move(*this).value());
  }

 private:
  std::variant<T, Error> state_;
};

/// Result<T&>: a reference to a value owned elsewhere, or an error — for
/// lookups that must not copy what they find. The reference is valid as
/// long as its owner keeps the value.
template <typename T>
class [[nodiscard]] Result<T&> {
 public:
  Result(T& value) : value_(&value) {}
  Result(T&&) = delete;  // would dangle
  Result(Error error) : error_(std::move(error)) {}
  Result(Errc code) : error_(Error{code}) {}

  bool ok() const noexcept { return value_ != nullptr; }
  explicit operator bool() const noexcept { return ok(); }

  T& value() const {
    if (value_ == nullptr) throw std::bad_variant_access();
    return *value_;
  }
  const Error& error() const& { return error_; }
  Error&& error() && { return std::move(error_); }

  T& operator*() const { return value(); }
  T* operator->() const { return &value(); }

 private:
  T* value_ = nullptr;
  Error error_{};
};

/// Result<void>: success carries nothing.
template <>
class [[nodiscard]] Result<void> {
 public:
  Result() = default;
  Result(Error error) : error_(std::move(error)) {}
  Result(Errc code) : error_(Error{code}) {}

  bool ok() const noexcept { return error_.code == Errc::ok; }
  explicit operator bool() const noexcept { return ok(); }

  const Error& error() const& { return error_; }

 private:
  Error error_{};
};

/// Success value for Result<void> returns: `return ph::ok();`
inline Result<void> ok() { return Result<void>{}; }

}  // namespace ph
