#include "support/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "support/rng.hpp"

namespace specomp::support {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, SingleSample) {
  OnlineStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
}

TEST(OnlineStats, MatchesClosedForm) {
  OnlineStats s;
  for (int i = 1; i <= 10; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.mean(), 5.5);
  // Sample variance of 1..10 = 55/6.
  EXPECT_NEAR(s.variance(), 55.0 / 6.0, 1e-12);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 10.0);
  EXPECT_NEAR(s.sum(), 55.0, 1e-12);
}

TEST(OnlineStats, MergeEqualsCombinedStream) {
  Xoshiro256 rng(3);
  OnlineStats combined;
  OnlineStats a;
  OnlineStats b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(2.0, 3.0);
    combined.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_NEAR(a.mean(), combined.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), combined.variance(), 1e-6);
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a;
  a.add(1.0);
  a.add(2.0);
  OnlineStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_NEAR(empty.mean(), 1.5, 1e-12);
}

}  // namespace
}  // namespace specomp::support
