#include "util/retry_budget.hpp"

#include <gtest/gtest.h>

#include "util/types.hpp"

namespace evolve::util {
namespace {

TEST(RetryBudget, StartsWithInitialTokens) {
  RetryBudget budget;
  EXPECT_DOUBLE_EQ(budget.tokens(), 10.0);
  EXPECT_TRUE(budget.would_allow());
}

TEST(RetryBudget, DrainsAndDenies) {
  RetryBudgetConfig config;
  config.initial = 2.0;
  RetryBudget budget(config);
  EXPECT_TRUE(budget.try_retry());
  EXPECT_TRUE(budget.try_retry());
  EXPECT_FALSE(budget.try_retry());
  EXPECT_EQ(budget.retries_granted(), 2);
  EXPECT_EQ(budget.retries_denied(), 1);
  EXPECT_FALSE(budget.would_allow());
}

TEST(RetryBudget, SuccessesRefillAtDepositRatio) {
  RetryBudgetConfig config;
  config.initial = 0.0;
  RetryBudget budget(config);
  EXPECT_FALSE(budget.try_retry());
  // 10 successes at the default 0.1 ratio bank exactly one retry.
  for (int i = 0; i < 10; ++i) budget.record_success();
  EXPECT_TRUE(budget.try_retry());
  EXPECT_FALSE(budget.try_retry());
  EXPECT_EQ(budget.successes(), 10);
}

TEST(RetryBudget, BurstCapsTheBucket) {
  RetryBudgetConfig config;
  config.initial = 0.0;
  config.burst = 2.0;
  RetryBudget budget(config);
  for (int i = 0; i < 1000; ++i) budget.record_success();
  EXPECT_DOUBLE_EQ(budget.tokens(), 2.0);
  EXPECT_TRUE(budget.try_retry());
  EXPECT_TRUE(budget.try_retry());
  EXPECT_FALSE(budget.try_retry());
}

TEST(RetryBudget, InitialClampedToBurst) {
  RetryBudgetConfig config;
  config.initial = 100.0;
  config.burst = 3.0;
  RetryBudget budget(config);
  EXPECT_DOUBLE_EQ(budget.tokens(), 3.0);
}

}  // namespace
}  // namespace evolve::util
