#include "util/arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/interner.hpp"
#include "util/strings.hpp"

namespace evolve::util {
namespace {

TEST(Arena, AllocationsAreAlignedAndDistinct) {
  Arena arena(256);
  void* a = arena.allocate(13, 1);
  void* b = arena.allocate(8, 8);
  void* c = arena.allocate(1, 16);
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % 16, 0u);
  EXPECT_EQ(arena.allocations(), 3u);
}

TEST(Arena, GrowsPastBlockSizeAndOversizedRequests) {
  Arena arena(64);
  // Fill more than one block, plus one request bigger than a whole block.
  for (int i = 0; i < 10; ++i) arena.allocate(32, 8);
  void* big = arena.allocate(1024, 8);
  ASSERT_NE(big, nullptr);
  // Writable end to end.
  std::memset(big, 0xab, 1024);
  EXPECT_GE(arena.blocks(), 2u);
}

TEST(Arena, ResetRecyclesBlocksWithoutFreeingThem) {
  Arena arena(128);
  for (int i = 0; i < 20; ++i) arena.allocate(64, 8);
  const std::size_t blocks = arena.blocks();
  arena.reset();
  EXPECT_EQ(arena.blocks(), blocks);  // memory kept for reuse
  for (int i = 0; i < 20; ++i) arena.allocate(64, 8);
  EXPECT_EQ(arena.blocks(), blocks);  // refilled from the recycled blocks
}

struct Tracked {
  static int live;
  int value = 0;
  explicit Tracked(int v) : value(v) { ++live; }
  ~Tracked() { --live; }
};
int Tracked::live = 0;

TEST(Slab, AcquireReleaseRecyclesCells) {
  Slab<Tracked> slab(4);
  Tracked* a = slab.acquire(1);
  Tracked* b = slab.acquire(2);
  EXPECT_EQ(a->value, 1);
  EXPECT_EQ(b->value, 2);
  EXPECT_EQ(slab.live(), 2u);
  EXPECT_EQ(Tracked::live, 2);

  slab.release(a);
  EXPECT_EQ(slab.live(), 1u);
  EXPECT_EQ(Tracked::live, 1);
  // The freed cell is reused before any new cell is carved out.
  Tracked* c = slab.acquire(3);
  EXPECT_EQ(c, a);
  EXPECT_EQ(slab.capacity(), 2u);

  slab.release(b);
  slab.release(c);
  EXPECT_EQ(Tracked::live, 0);
}

TEST(Slab, PointersStayStableAcrossGrowth) {
  Slab<Tracked> slab(2);
  std::vector<Tracked*> objs;
  for (int i = 0; i < 100; ++i) objs.push_back(slab.acquire(i));
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(objs[static_cast<std::size_t>(i)]->value, i);
  }
  for (Tracked* t : objs) slab.release(t);
  EXPECT_EQ(Tracked::live, 0);
  EXPECT_EQ(slab.capacity(), 100u);
}

TEST(ChunkedVector, AppendIndexIterateAcrossChunks) {
  ChunkedVector<int, 16> v;
  EXPECT_TRUE(v.empty());
  for (int i = 0; i < 100; ++i) v.push_back(i * 3);
  EXPECT_EQ(v.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(v[static_cast<std::size_t>(i)], i * 3);
  }
  int expected = 0;
  for (const int x : v) {
    EXPECT_EQ(x, expected * 3);
    ++expected;
  }
  EXPECT_EQ(expected, 100);
}

TEST(ChunkedVector, AddressesStayStableAcrossGrowth) {
  ChunkedVector<std::string, 8> v;
  v.push_back("first");
  const std::string* p = &v[0];
  for (int i = 0; i < 200; ++i) v.push_back(util::numbered("x", i));
  EXPECT_EQ(p, &v[0]);  // no reallocation moved the element
  EXPECT_EQ(*p, "first");
}

TEST(ChunkedVector, ReservePreallocatesChunks) {
  ChunkedVector<int, 8> v;
  v.reserve(100);
  for (int i = 0; i < 100; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_EQ(v[99], 99);
}

TEST(StringInterner, DeduplicatesAndReturnsStableViews) {
  StringInterner interner;
  const std::string_view a = interner.intern("serve.request");
  // Same content from different storage must return the same view.
  std::string copy = "serve.request";
  const std::string_view b = interner.intern(copy);
  EXPECT_EQ(a.data(), b.data());
  EXPECT_EQ(interner.size(), 1u);

  const std::string_view c = interner.intern("serve.queue");
  EXPECT_NE(a.data(), c.data());
  EXPECT_EQ(interner.size(), 2u);
  EXPECT_EQ(a, "serve.request");
  EXPECT_EQ(c, "serve.queue");
}

TEST(StringInterner, ViewsSurviveManyInsertions) {
  StringInterner interner;
  const std::string_view first = interner.intern("anchor");
  std::vector<std::string_view> views;
  for (int i = 0; i < 5000; ++i) {
    views.push_back(interner.intern("name-" + std::to_string(i)));
  }
  EXPECT_EQ(first, "anchor");  // storage never moved
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(views[static_cast<std::size_t>(i)],
              "name-" + std::to_string(i));
  }
}

}  // namespace
}  // namespace evolve::util
