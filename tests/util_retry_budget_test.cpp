#include "util/retry_budget.hpp"

#include <gtest/gtest.h>

#include "util/types.hpp"

namespace evolve::util {
namespace {

// Withdraws every banked token.
void drain(RetryBudget& budget) {
  while (budget.would_allow()) budget.try_retry();
}

TEST(RetryBudget, StartsWithInitialTokens) {
  RetryBudget budget;
  EXPECT_DOUBLE_EQ(budget.tokens(), 10.0);
  EXPECT_TRUE(budget.would_allow());
}

TEST(RetryBudget, DrainsAndDenies) {
  RetryBudget budget;
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(budget.try_retry());
  EXPECT_FALSE(budget.try_retry());
  EXPECT_EQ(budget.retries_granted(), 10);
  EXPECT_EQ(budget.retries_denied(), 1);
  EXPECT_FALSE(budget.would_allow());
}

TEST(RetryBudget, SuccessesRefillAtDepositRatio) {
  RetryBudget budget;
  drain(budget);
  EXPECT_FALSE(budget.try_retry());
  // 10 successes at the 0.1 ratio bank exactly one retry.
  for (int i = 0; i < 10; ++i) budget.record_success();
  EXPECT_TRUE(budget.try_retry());
  EXPECT_FALSE(budget.try_retry());
  EXPECT_EQ(budget.successes(), 10);
}

TEST(RetryBudget, BurstCapsTheBucket) {
  RetryBudget budget;
  drain(budget);
  for (int i = 0; i < 1000; ++i) budget.record_success();
  EXPECT_DOUBLE_EQ(budget.tokens(), RetryBudget::kBurst);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(budget.try_retry());
  EXPECT_FALSE(budget.try_retry());
}

}  // namespace
}  // namespace evolve::util
