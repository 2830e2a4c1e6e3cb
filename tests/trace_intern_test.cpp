// Hot-path allocation tests. This TU overrides the global new/delete
// with counting forwards to malloc/free, so it lives in its own test
// binary (evolve_alloc_tests) and must stay the only TU there that
// defines these operators.
//
// The claims under test: once the tracer's name set and span chunks are
// warm, recording a span performs zero heap allocations — names are
// interned string_views and spans land in pre-reserved append-only
// chunks. And recording a metric under a name the registry already
// holds allocates nothing, however long the name.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "metrics/registry.hpp"
#include "sim/simulation.hpp"
#include "trace/tracer.hpp"

namespace {
std::atomic<std::size_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
// GCC does not see that operator new above is this TU's own malloc
// forward: once gtest's `new TestClass` inlines into a delete below, it
// flags the matching free() as mismatched (seen in sanitizer builds).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace evolve::trace {
namespace {

TEST(TracerAllocation, WarmSpanRecordingAllocatesNothing) {
  sim::Simulation sim;
  Tracer tracer(sim);

  constexpr int kWarm = 8;
  constexpr int kHot = 20'000;
  const char* names[] = {"serve.request", "serve.queue", "serve.exec",
                         "net.transfer"};

  // Warm-up: intern every name once and pre-reserve the span chunks.
  for (int i = 0; i < kWarm; ++i) {
    const SpanId id = tracer.begin(Layer::kServe, names[i % 4]);
    tracer.end(id);
  }
  tracer.reserve_spans(kWarm + kHot);
  EXPECT_EQ(tracer.interned_names(), 4u);

  const std::size_t before = g_allocs.load();
  for (int i = 0; i < kHot; ++i) {
    const SpanId id = tracer.begin(Layer::kServe, names[i % 4]);
    tracer.end(id);
  }
  const std::size_t after = g_allocs.load();

  EXPECT_EQ(after - before, 0u)
      << "span recording on a warm tracer must not allocate";
  EXPECT_EQ(tracer.spans().size(),
            static_cast<std::size_t>(kWarm + kHot));
  EXPECT_EQ(tracer.interned_names(), 4u);
}

TEST(TracerAllocation, RepeatedNamesShareInternedStorage) {
  sim::Simulation sim;
  Tracer tracer(sim);
  const SpanId a = tracer.begin(Layer::kNetwork, "net.transfer");
  tracer.end(a);
  const SpanId b = tracer.begin(Layer::kNetwork, "net.transfer");
  tracer.end(b);
  // Same interned backing bytes, not just equal content.
  EXPECT_EQ(tracer.span(a).name.data(), tracer.span(b).name.data());
  EXPECT_EQ(tracer.span(a).name, "net.transfer");
  EXPECT_EQ(tracer.interned_names(), 1u);
}

}  // namespace
}  // namespace evolve::trace

namespace evolve::metrics {
namespace {

TEST(RegistryAllocation, RecordingUnderAnExistingLongNameAllocatesNothing) {
  // Both names outgrow libstdc++'s 15-char small-string buffer, so any
  // std::string built from them per call would hit the heap.
  constexpr const char* kCounter = "block_read_requests";
  constexpr const char* kHistogram = "block_read_latency_us";
  Registry reg;
  reg.count(kCounter);
  reg.observe(kHistogram, 999);  // sizes the buckets for every sample below

  const std::size_t before = g_allocs.load();
  for (int i = 0; i < 1000; ++i) {
    reg.count(kCounter);
    reg.observe(kHistogram, i);
  }
  const std::int64_t total = reg.counter(kCounter);
  const std::size_t after = g_allocs.load();

  EXPECT_EQ(after - before, 0u)
      << "counting under an existing name must not allocate";
  EXPECT_EQ(total, 1001);
  EXPECT_EQ(reg.histogram(kHistogram).count(), 1001);
}

}  // namespace
}  // namespace evolve::metrics
