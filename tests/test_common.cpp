// Unit tests for units, error handling, the RNG wrapper and the bump arena
// allocator.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "common/arena.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace afdx {
namespace {

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(bits_from_bytes(500.0), 4000.0);
  EXPECT_DOUBLE_EQ(microseconds_from_ms(4.0), 4000.0);
  EXPECT_DOUBLE_EQ(rate_from_mbps(100.0), 100.0);
  EXPECT_DOUBLE_EQ(transmission_time(4000.0, 100.0), 40.0);
}

TEST(Units, NearlyEqual) {
  EXPECT_TRUE(nearly_equal(1.0, 1.0 + 1e-9));
  EXPECT_FALSE(nearly_equal(1.0, 1.001));
  EXPECT_TRUE(nearly_equal(1.0, 1.5, 0.6));
}

TEST(Units, Formatting) {
  EXPECT_EQ(format_us(123.456), "123.456 us");
  EXPECT_EQ(format_percent(0.1234), "12.34 %");
}

TEST(ErrorHandling, RequireThrowsAfdxError) {
  EXPECT_THROW(AFDX_REQUIRE(false, "boom"), Error);
  EXPECT_NO_THROW(AFDX_REQUIRE(true, "fine"));
}

TEST(ErrorHandling, AssertThrowsLogicErrorWithLocation) {
  try {
    AFDX_ASSERT(1 == 2, "impossible");
    FAIL() << "expected LogicError";
  } catch (const LogicError& e) {
    EXPECT_NE(std::string(e.what()).find("test_common.cpp"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("impossible"), std::string::npos);
  }
}

TEST(Rng, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng rng(1);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit over 500 draws
}

TEST(Rng, UniformRealRespectsBounds) {
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const double v = rng.uniform_real(1.5, 2.5);
    EXPECT_GE(v, 1.5);
    EXPECT_LT(v, 2.5);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng rng(4);
  int hits0 = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto idx = rng.weighted_index({0.9, 0.1});
    if (idx == 0) ++hits0;
  }
  EXPECT_GT(hits0, 1600);
  EXPECT_LT(hits0, 1999);
}

TEST(Rng, ShuffleKeepsElements) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Arena, AllocateRewindReset) {
  common::BumpArena arena(256);
  EXPECT_EQ(arena.bytes_in_use(), 0u);

  double* a = arena.alloc_array<double>(10);
  for (int i = 0; i < 10; ++i) a[i] = i * 1.5;
  const std::size_t used_after_a = arena.bytes_in_use();
  EXPECT_GE(used_after_a, 10 * sizeof(double));

  const common::BumpArena::Mark m = arena.mark();
  double* b = arena.alloc_array<double>(100);  // forces a second block
  b[99] = 1.0;
  EXPECT_GE(arena.block_count(), 2u);
  EXPECT_GT(arena.bytes_in_use(), used_after_a);
  const std::size_t peak = arena.high_water();
  EXPECT_GE(peak, arena.bytes_in_use());

  arena.rewind(m);
  EXPECT_EQ(arena.bytes_in_use(), used_after_a);
  // The rewound allocation's memory stays mapped and data before the mark
  // is untouched.
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(a[i], i * 1.5);
  EXPECT_EQ(arena.high_water(), peak);

  arena.reset();
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  EXPECT_EQ(arena.high_water(), peak);  // footprint is a high-water mark
}

TEST(Arena, AlignmentRespected) {
  // The arena serves any alignment up to alignof(std::max_align_t) (block
  // payloads carry max alignment; larger requests are clamped).
  common::BumpArena arena(64);
  (void)arena.allocate(1, 1);
  constexpr std::size_t kAlign = alignof(std::max_align_t);
  void* p = arena.allocate(kAlign, kAlign);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kAlign, 0u);
  void* q = arena.allocate(sizeof(double), alignof(double));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(q) % alignof(double), 0u);
}

TEST(Arena, ScopeInstallsAndNests) {
  EXPECT_EQ(common::active_arena(), nullptr);
  common::BumpArena outer_arena;
  common::BumpArena inner_arena;
  {
    common::ArenaScope outer(outer_arena);
    EXPECT_EQ(common::active_arena(), &outer_arena);
    (void)outer_arena.alloc_array<char>(100);
    {
      common::ArenaScope inner(inner_arena);
      EXPECT_EQ(common::active_arena(), &inner_arena);
    }
    EXPECT_EQ(common::active_arena(), &outer_arena);
  }
  EXPECT_EQ(common::active_arena(), nullptr);
  // Scope exit rewinds to the entry mark.
  EXPECT_EQ(outer_arena.bytes_in_use(), 0u);
}

TEST(Arena, AllocatorServesFromActiveArenaWithHeapFallback) {
  using Vec = std::vector<double, common::ArenaAlloc<double>>;

  // No active scope: plain heap behaviour, safe to destroy any time.
  Vec heap_backed{1.0, 2.0, 3.0};
  EXPECT_EQ(heap_backed.size(), 3u);

  common::BumpArena arena;
  std::size_t in_scope_usage = 0;
  {
    common::ArenaScope scope(arena);
    Vec arena_backed;
    for (int i = 0; i < 100; ++i) arena_backed.push_back(i);
    in_scope_usage = arena.bytes_in_use();
    EXPECT_GT(in_scope_usage, 0u);
    // Heap-backed containers deallocate safely inside a scope too.
    heap_backed.clear();
    heap_backed.shrink_to_fit();
  }
  EXPECT_EQ(arena.bytes_in_use(), 0u);
}

}  // namespace
}  // namespace afdx
