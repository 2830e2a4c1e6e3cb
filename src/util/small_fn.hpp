// Move-only callable with inline small-buffer storage.
//
// The simulation kernel schedules tens of millions of events per run;
// with std::function every capture larger than the implementation's tiny
// internal buffer (16 bytes on libstdc++) costs one heap allocation and
// one free per event. SmallFn stores captures up to kInlineBytes inline
// — sized so the common kernel captures (`this` + a couple of ids, a
// small struct, a wrapped callback) never touch the heap — and falls
// back to a heap-owned callable only above that.
//
// SmallFn<R(Args...)> takes a signature like std::function, so one type
// serves events (SmallFn<void()>) and one-shot completion callbacks
// (SmallFn<void(OpResult)>): a completion captured into an event stays
// inline in both. Arguments are forwarded to the callable as declared.
//
// Unlike std::function, SmallFn is move-only, which is what lets it
// accept move-only captures (e.g. a lambda that owns another SmallFn).
// Any callable converts, a std::function included; an empty
// std::function or null function pointer makes an empty SmallFn.
// Trivially copyable captures are flagged at construction and moved with
// a plain memcpy, so moving a callback into its slot (the event queue's
// callback column, the fabric's per-flow column) and back out runs no
// user code.
#pragma once

#include <cstddef>
#include <cstring>
#include <functional>  // std::bad_function_call, std::function
#include <new>
#include <type_traits>
#include <utility>

namespace evolve::util {

template <typename Signature>
class SmallFn;

template <typename R, typename... Args>
class SmallFn<R(Args...)> {
  template <typename D>
  using EnableIfCallable =
      std::enable_if_t<!std::is_same_v<D, SmallFn> &&
                       !std::is_same_v<D, std::nullptr_t> &&
                       std::is_invocable_r_v<R, D&, Args...>>;

 public:
  /// Inline capture budget. 48 bytes holds `this` + five 64-bit ids with
  /// room to spare; measured against the repo's own schedule sites.
  static constexpr std::size_t kInlineBytes = 48;

  SmallFn() = default;
  SmallFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>,
            typename = EnableIfCallable<D>>
  SmallFn(F&& fn) {  // NOLINT(google-explicit-constructor)
    assign<D>(std::forward<F>(fn));
  }

  SmallFn(SmallFn&& other) noexcept { move_from(other); }
  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  SmallFn& operator=(std::nullptr_t) {
    reset();
    return *this;
  }
  template <typename F, typename D = std::decay_t<F>,
            typename = EnableIfCallable<D>>
  SmallFn& operator=(F&& fn) {
    reset();
    assign<D>(std::forward<F>(fn));
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;
  ~SmallFn() { reset(); }

  explicit operator bool() const { return invoke_ != nullptr; }

  R operator()(Args... args) {
    if (!invoke_) throw std::bad_function_call();
    return invoke_(buf_, std::forward<Args>(args)...);
  }

 private:
  enum class Op { kMove, kDestroy };
  using Invoke = R (*)(void*, Args&&...);
  // kMove: relocate from src buffer into dst buffer (dst uninitialized,
  // src left destroyed). kDestroy: destroy the callable in dst.
  using Manage = void (*)(Op, void* dst, void* src);

  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineBytes && alignof(D) <= alignof(void*) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename T>
  struct IsStdFunction : std::false_type {};
  template <typename S>
  struct IsStdFunction<std::function<S>> : std::true_type {};

  /// A null function pointer or an empty std::function: nothing to call.
  template <typename D>
  static bool empty_callable(const D& fn) {
    if constexpr (std::is_pointer_v<D> || std::is_member_pointer_v<D> ||
                  IsStdFunction<D>::value) {
      return !fn;
    } else {
      return false;
    }
  }

  template <typename D, typename F>
  void assign(F&& fn) {
    if (empty_callable<D>(fn)) return;
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      invoke_ = [](void* p, Args&&... args) -> R {
        return std::invoke(*std::launder(reinterpret_cast<D*>(p)),
                           std::forward<Args>(args)...);
      };
      if constexpr (std::is_trivially_copyable_v<D> &&
                    std::is_trivially_destructible_v<D>) {
        manage_ = nullptr;  // memcpy-relocatable, nothing to destroy
      } else {
        manage_ = [](Op op, void* dst, void* src) {
          if (op == Op::kMove) {
            D* from = std::launder(reinterpret_cast<D*>(src));
            ::new (dst) D(std::move(*from));
            from->~D();
          } else {
            std::launder(reinterpret_cast<D*>(dst))->~D();
          }
        };
      }
    } else {
      *reinterpret_cast<D**>(static_cast<void*>(buf_)) =
          new D(std::forward<F>(fn));
      invoke_ = [](void* p, Args&&... args) -> R {
        return std::invoke(**reinterpret_cast<D**>(p),
                           std::forward<Args>(args)...);
      };
      manage_ = [](Op op, void* dst, void* src) {
        if (op == Op::kMove) {
          std::memcpy(dst, src, sizeof(D*));
        } else {
          delete *reinterpret_cast<D**>(dst);
        }
      };
    }
  }

  void move_from(SmallFn& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    if (invoke_) {
      if (manage_) {
        manage_(Op::kMove, buf_, other.buf_);
      } else {
        std::memcpy(buf_, other.buf_, kInlineBytes);
      }
    }
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  void reset() {
    if (manage_) manage_(Op::kDestroy, buf_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  // Pointer-aligned, not max_align_t: keeps sizeof(SmallFn) == 64 with no
  // padding in a callback column. Captures needing stricter alignment
  // (e.g. SIMD members) take the heap path via fits_inline().
  alignas(void*) unsigned char buf_[kInlineBytes];
  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;
};

}  // namespace evolve::util
