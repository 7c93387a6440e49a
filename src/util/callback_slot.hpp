// CallbackSlot — an installed handler that is called in place, not copied.
//
// Protocol handlers routinely replace or clear themselves while they run: a
// session's handshake handler installs the session's data handler on the
// same channel, a handler that closes its session releases the session's
// callbacks. Copying the std::function before each call keeps the running
// closure alive, but every copy of a closure larger than std::function's
// inline buffer is a heap allocation — one per delivered frame.
//
// The slot instead moves the callable onto the caller's stack for the
// duration of the call (a pointer move, never an allocation) and puts it
// back afterwards unless it was replaced or cleared meanwhile. While the
// call runs the slot reads empty, so a nested call of the same slot finds no
// handler (no caller makes one: deliveries are scheduled, not reentrant).
// The slot itself must outlive each call (its owner is held alive by the
// caller, as the link and session delivery paths do).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

namespace ph::util {

template <typename Signature>
class CallbackSlot;

template <typename... Args>
class CallbackSlot<void(Args...)> {
 public:
  using Fn = std::function<void(Args...)>;

  CallbackSlot() = default;
  CallbackSlot(const CallbackSlot&) = delete;
  CallbackSlot& operator=(const CallbackSlot&) = delete;

  CallbackSlot& operator=(Fn fn) noexcept {
    fn_ = std::move(fn);
    ++version_;
    return *this;
  }
  CallbackSlot& operator=(std::nullptr_t) noexcept { return *this = Fn{}; }

  /// True when a call would reach a handler.
  explicit operator bool() const noexcept { return static_cast<bool>(fn_); }

  /// Calls the installed handler; false when there is none.
  template <typename... CallArgs>
  bool operator()(CallArgs&&... args) {
    if (!fn_) return false;
    Fn running = std::move(fn_);
    fn_ = nullptr;
    // Restores the slot on every exit path, exceptions included.
    struct Restore {
      CallbackSlot& slot;
      Fn& running;
      std::uint64_t version;
      ~Restore() {
        if (slot.version_ == version) slot.fn_ = std::move(running);
      }
    } restore{*this, running, version_};
    running(std::forward<CallArgs>(args)...);
    return true;
  }

 private:
  Fn fn_;
  /// Bumped by every assignment; a call restores its handler only if no
  /// assignment (replacement or clear) happened meanwhile.
  std::uint64_t version_ = 0;
};

}  // namespace ph::util
