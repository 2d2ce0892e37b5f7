// Small-buffer callback type for scheduler events.
//
// EventFn replaces std::function<void()> on the DES hot path. The
// callable is stored in a fixed inline buffer whenever it fits, so
// scheduling an event copies a few words instead of touching the heap;
// oversized callables fall back to a heap box (the scheduler counts
// those — see Scheduler::callback_heap_fallback_count — so tests can
// prove the fast path stays allocation-free). Move-only, like the
// event records that own it.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace mvsim::des {

class EventFn {
 public:
  /// Inline capture budget. 64 bytes covers every in-tree callback,
  /// including a gateway delivery capturing an MmsMessage by value.
  static constexpr std::size_t kInlineCapacity = 64;

  /// True when a decayed callable type is stored inline (no heap box).
  template <typename D>
  static constexpr bool fits_inline = sizeof(D) <= kInlineCapacity &&
                                      alignof(D) <= alignof(std::max_align_t) &&
                                      std::is_nothrow_move_constructible_v<D>;

  EventFn() noexcept = default;

  /// Implicit, like std::function. An empty function-like payload (a
  /// default-constructed std::function, a null function pointer)
  /// produces an empty EventFn so the scheduler's empty-callback guard
  /// keeps firing at schedule time rather than at invoke time.
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> && std::is_invocable_v<D&>>>
  // NOLINTNEXTLINE(google-explicit-constructor)
  EventFn(F&& fn) {
    if constexpr (std::is_constructible_v<bool, const D&>) {
      if (!static_cast<bool>(fn)) return;
    }
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      vtable_ = &InlineOps<D>::kVTable;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(fn)));
      vtable_ = &BoxedOps<D>::kVTable;
    }
  }

  EventFn(EventFn&& other) noexcept { move_from(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  /// Replaces the held callable, constructing the new one in place —
  /// the zero-copy path Scheduler::schedule_at uses to build a callback
  /// directly inside a pooled event record. Throws nothing once the
  /// old callable is destroyed only if D's construction is nothrow;
  /// callers pass lambdas, for which construction is a move.
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> && std::is_invocable_v<D&>>>
  void assign(F&& fn) {
    reset();
    if constexpr (std::is_constructible_v<bool, const D&>) {
      if (!static_cast<bool>(fn)) return;
    }
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      vtable_ = &InlineOps<D>::kVTable;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(fn)));
      vtable_ = &BoxedOps<D>::kVTable;
    }
  }

  [[nodiscard]] explicit operator bool() const noexcept { return vtable_ != nullptr; }

  void operator()() { vtable_->invoke(storage_); }

  /// Destroys the held callable (and its heap box, if any).
  void reset() noexcept {
    if (vtable_ != nullptr) {
      if (!vtable_->trivial) vtable_->destroy(storage_);
      vtable_ = nullptr;
    }
  }

  /// True when the callable (if any) lives in the inline buffer.
  [[nodiscard]] bool is_inline() const noexcept {
    return vtable_ == nullptr || vtable_->inline_stored;
  }

 private:
  struct VTable {
    void (*invoke)(void* state);
    void (*relocate)(void* from, void* to) noexcept;  // move-construct into `to`, destroy `from`
    void (*destroy)(void* state) noexcept;
    bool inline_stored;
    /// Inline, trivially copyable, trivially destructible: moves are a
    /// plain memcpy and reset() skips the destroy call. This is the
    /// no-indirect-call path every capture-light in-tree callback takes.
    bool trivial;
  };

  template <typename D>
  struct InlineOps {
    static D* self(void* state) noexcept { return std::launder(reinterpret_cast<D*>(state)); }
    static void invoke(void* state) { (*self(state))(); }
    static void relocate(void* from, void* to) noexcept {
      D* source = self(from);
      ::new (to) D(std::move(*source));
      source->~D();
    }
    static void destroy(void* state) noexcept { self(state)->~D(); }
    static constexpr VTable kVTable{&invoke, &relocate, &destroy, true,
                                    std::is_trivially_copyable_v<D> &&
                                        std::is_trivially_destructible_v<D>};
  };

  template <typename D>
  struct BoxedOps {
    static D*& box(void* state) noexcept { return *std::launder(reinterpret_cast<D**>(state)); }
    static void invoke(void* state) { (*box(state))(); }
    static void relocate(void* from, void* to) noexcept {
      ::new (to) D*(box(from));  // steal the box pointer
    }
    static void destroy(void* state) noexcept { delete box(state); }
    static constexpr VTable kVTable{&invoke, &relocate, &destroy, false, false};
  };

  void move_from(EventFn& other) noexcept {
    vtable_ = other.vtable_;
    if (vtable_ != nullptr) {
      if (vtable_->trivial) {
        // The whole buffer is copied regardless of the callable's real
        // size; the fixed length lets the compiler emit straight-line
        // wide moves instead of an indirect relocate call.
        std::memcpy(storage_, other.storage_, kInlineCapacity);
      } else {
        vtable_->relocate(other.storage_, storage_);
      }
      other.vtable_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineCapacity];
  const VTable* vtable_ = nullptr;
};

}  // namespace mvsim::des
