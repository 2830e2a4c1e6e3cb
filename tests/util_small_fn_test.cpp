#include "util/small_fn.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

namespace evolve::util {
namespace {

TEST(SmallFn, DefaultAndNullAreEmptyAndThrowOnCall) {
  SmallFn<void()> empty;
  EXPECT_FALSE(empty);
  EXPECT_THROW(empty(), std::bad_function_call);
  SmallFn<void()> null = nullptr;
  EXPECT_FALSE(null);
}

TEST(SmallFn, InvokesInlineCapture) {
  int hits = 0;
  SmallFn<void()> fn = [&hits] { ++hits; };
  ASSERT_TRUE(fn);
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFn, MoveTransfersOwnership) {
  int hits = 0;
  SmallFn<void()> a = [&hits] { ++hits; };
  SmallFn<void()> b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): testing moved state
  ASSERT_TRUE(b);
  b();
  EXPECT_EQ(hits, 1);

  SmallFn<void()> c;
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFn, HoldsMoveOnlyCaptures) {
  // The reason std::function could not be the event callback type: a
  // capture owning another callable (the tracer-wrap pattern in fabric).
  auto owned = std::make_unique<int>(41);
  int seen = 0;
  SmallFn<void()> inner = [&seen] { ++seen; };
  SmallFn<void()> fn = [p = std::move(owned), inner = std::move(inner), &seen]() mutable {
    seen += *p;
    inner();
  };
  fn();
  EXPECT_EQ(seen, 42);
}

TEST(SmallFn, LargeCapturesFallBackToHeapAndStillWork) {
  struct Big {
    std::int64_t data[16];  // 128 bytes, well past the inline budget
  };
  Big big{};
  big.data[0] = 7;
  big.data[15] = 9;
  std::int64_t sum = 0;
  SmallFn<void()> fn = [big, &sum] { sum = big.data[0] + big.data[15]; };
  SmallFn<void()> moved = std::move(fn);
  moved();
  EXPECT_EQ(sum, 16);
}

TEST(SmallFn, NonTrivialCaptureDestructorRunsExactlyOnce) {
  struct Probe {
    int* count;
    explicit Probe(int* c) : count(c) {}
    Probe(const Probe& o) : count(o.count) { ++*count; }
    Probe(Probe&& o) noexcept : count(o.count) { o.count = nullptr; }
    ~Probe() {
      if (count) --*count;
    }
    void operator()() const {}
  };
  int live = 1;
  {
    SmallFn<void()> fn{Probe(&live)};
    SmallFn<void()> other = std::move(fn);  // in-place move relocation
    other();
  }
  EXPECT_EQ(live, 0);  // destroyed exactly once, no double-destroy
}

TEST(SmallFn, AssignReplacesPreviousCallable) {
  int a = 0, b = 0;
  SmallFn<void()> fn = [&a] { ++a; };
  fn();
  fn = [&b] { ++b; };
  fn();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
  fn = nullptr;
  EXPECT_FALSE(fn);
}

// -- Signature form -------------------------------------------------------

TEST(SmallFn, ForwardsArgumentsAndReturnsTheResult) {
  SmallFn<int(int, const std::string&)> fn =
      [](int base, const std::string& s) {
        return base + static_cast<int>(s.size());
      };
  EXPECT_EQ(fn(40, "ab"), 42);

  // An rvalue-reference parameter reaches the callable as one: the
  // argument is moved through, never copied.
  SmallFn<std::size_t(std::unique_ptr<int>&&)> take =
      [](std::unique_ptr<int>&& p) {
        std::unique_ptr<int> owned = std::move(p);
        return static_cast<std::size_t>(*owned);
      };
  auto arg = std::make_unique<int>(7);
  EXPECT_EQ(take(std::move(arg)), 7u);
  EXPECT_EQ(arg, nullptr);

  // A mutable capture keeps its state across calls.
  SmallFn<int()> counter = [n = 0]() mutable { return ++n; };
  counter();
  EXPECT_EQ(counter(), 2);
}

TEST(SmallFn, SignatureFormAcceptsMoveOnlyCaptures) {
  auto owned = std::make_unique<int>(5);
  SmallFn<int(int)> fn = [p = std::move(owned)](int x) { return *p * x; };
  SmallFn<int(int)> moved = std::move(fn);
  EXPECT_FALSE(fn);  // NOLINT(bugprone-use-after-move): testing moved state
  EXPECT_EQ(moved(3), 15);
}

TEST(SmallFn, SignatureFormCaptureAboveInlineBudgetUsesTheHeap) {
  struct Big {
    std::int64_t data[8];  // 64 bytes: past the 48-byte inline buffer
  };
  static_assert(sizeof(Big) > SmallFn<void()>::kInlineBytes);
  Big big{};
  big.data[0] = 10;
  big.data[7] = 20;
  SmallFn<std::int64_t(std::int64_t)> fn = [big](std::int64_t x) {
    return big.data[0] + big.data[7] + x;
  };
  SmallFn<std::int64_t(std::int64_t)> moved = std::move(fn);
  EXPECT_EQ(moved(12), 42);
}

TEST(SmallFn, StdFunctionConverts) {
  bool seen = false;
  const std::function<void(bool)> done = [&seen](bool ok) { seen = ok; };
  SmallFn<void(bool)> fn = done;  // copied in; `done` stays usable
  fn(true);
  EXPECT_TRUE(seen);
  done(false);
  EXPECT_FALSE(seen);

  // An empty std::function converts to an empty SmallFn, as a null
  // function pointer does.
  SmallFn<void(bool)> empty = std::function<void(bool)>();
  EXPECT_FALSE(empty);
  void (*null_fn)(bool) = nullptr;
  SmallFn<void(bool)> from_null = null_fn;
  EXPECT_FALSE(from_null);
}

}  // namespace
}  // namespace evolve::util
