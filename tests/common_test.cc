#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/arena.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "common/status.h"

namespace parbox {
namespace {

// ---------- Status / Result ----------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::ParseError("bad byte");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(st.message(), "bad byte");
  EXPECT_EQ(st.ToString(), "parse error: bad byte");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kParseError,
        StatusCode::kNotFound, StatusCode::kFailedPrecondition,
        StatusCode::kUnresolved, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("gone"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  PARBOX_ASSIGN_OR_RETURN(int h, Half(x));
  PARBOX_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());
  EXPECT_FALSE(Quarter(3).ok());
}

// ---------- Rng ----------

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next64(), b.Next64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.Next64() != b.Next64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.UniformInt(3, 6));
  EXPECT_EQ(seen, (std::set<int64_t>{3, 4, 5, 6}));
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, WeightedRespectsZeroWeights) {
  Rng rng(17);
  std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.Weighted(weights), 1u);
  }
}

TEST(RngTest, WordLengthInRange) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    std::string w = rng.Word(3, 6);
    EXPECT_GE(w.size(), 3u);
    EXPECT_LE(w.size(), 6u);
    for (char c : w) {
      EXPECT_GE(c, 'a');
      EXPECT_LE(c, 'z');
    }
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(31);
  Rng fork = a.Fork();
  // The fork should not replay the parent's stream.
  EXPECT_NE(a.Next64(), fork.Next64());
}

// ---------- Arena ----------

TEST(ArenaTest, AllocatesAligned) {
  Arena arena(128);
  void* p1 = arena.Allocate(3, 1);
  void* p2 = arena.Allocate(8, 8);
  EXPECT_NE(p1, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p2) % 8, 0u);
}

TEST(ArenaTest, GrowsBeyondBlockSize) {
  Arena arena(64);
  void* big = arena.Allocate(1000);
  EXPECT_NE(big, nullptr);
  EXPECT_GE(arena.bytes_reserved(), 1000u);
}

TEST(ArenaTest, CopyStringNulTerminates) {
  Arena arena;
  const char* s = arena.CopyString("hello", 5);
  EXPECT_STREQ(s, "hello");
}

TEST(ArenaTest, ManySmallAllocationsDistinct) {
  Arena arena(256);
  std::set<void*> seen;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(seen.insert(arena.Allocate(16)).second);
  }
  EXPECT_EQ(arena.bytes_allocated(), 16000u);
}

TEST(ArenaTest, NewConstructsObject) {
  Arena arena;
  struct Point {
    int x, y;
  };
  Point* p = arena.New<Point>(Point{3, 4});
  EXPECT_EQ(p->x, 3);
  EXPECT_EQ(p->y, 4);
}

// ---------- Formatting ----------

TEST(BytesTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(17), "17 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KB");
  EXPECT_EQ(HumanBytes(25 * 1024 * 1024), "25.0 MB");
}

TEST(BytesTest, HumanSeconds) {
  EXPECT_EQ(HumanSeconds(1.5), "1.500 s");
  EXPECT_EQ(HumanSeconds(0.0123), "12.30 ms");
  EXPECT_EQ(HumanSeconds(0.0000452), "45.2 us");
}

}  // namespace
}  // namespace parbox
