// Small-buffer-optimised event callable.
//
// The kernel executes millions of tiny closures per simulated run — process
// resumes capturing one pointer, message deliveries capturing a world pointer
// and a slot index.  std::function would heap-allocate some of them and, more
// importantly, its copy requirement forbids move-only captures and forces a
// copy when an event is lifted out of a priority_queue.  EventFn is the
// narrow replacement: move-only, invoked at most once per schedule, with a
// 48-byte inline buffer that fits every closure the runtime creates today.
// Larger or over-aligned callables fall back to a single heap allocation, so
// correctness never depends on the buffer size.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace specomp::des {

class EventFn {
 public:
  /// Inline storage: sized for "pointer + a few words" closures (the resume
  /// and message-delivery events), chosen so sizeof(EventFn) stays at one
  /// cache line together with the vtable-style operation pointers.
  static constexpr std::size_t kInlineSize = 48;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  EventFn() noexcept = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, EventFn> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  EventFn(F&& fn) {  // NOLINT(google-explicit-constructor): callable sink
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize && alignof(Fn) <= kInlineAlign &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buffer_)) Fn(std::forward<F>(fn));
      ops_ = &inline_ops<Fn>;
    } else {
      // specomp: allow(naked-new): type-erased fallback slot; ownership is released by heap_ops::destroy below
      Fn* heap = new Fn(std::forward<F>(fn));
      ::new (static_cast<void*>(buffer_)) Fn*(heap);
      ops_ = &heap_ops<Fn>;
    }
  }

  EventFn(EventFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buffer_, other.buffer_);
      other.ops_ = nullptr;
    }
  }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(buffer_, other.buffer_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buffer_); }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buffer_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*destroy)(void*) noexcept;
    /// Move-construct into dst from src, then destroy src.  Only used while
    /// the arena vector grows or an event is lifted out for execution.
    void (*relocate)(void* dst, void* src) noexcept;
  };

  template <typename Fn>
  static constexpr Ops inline_ops = {
      [](void* p) { (*static_cast<Fn*>(p))(); },
      [](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      }};

  template <typename Fn>
  static constexpr Ops heap_ops = {
      [](void* p) { (**static_cast<Fn**>(p))(); },
      // specomp: allow(naked-new): destroy op of the type-erased heap fallback; pairs the constructor's allocation
      [](void* p) noexcept { delete *static_cast<Fn**>(p); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn*(*static_cast<Fn**>(src));
      }};

  alignas(kInlineAlign) std::byte buffer_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace specomp::des
