// Copyright (c) SkyBench-NG contributors.
// Unit tests for the cooperative-cancellation primitive
// (common/cancel.h): arm-once latching, first-reason-wins, deadline
// expiry, parent chaining, and the null-tolerant checkpoint helpers.
#include <chrono>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace sky {
namespace {

TEST(CancelTokenTest, DefaultTokenNeverStops) {
  CancelToken token;
  EXPECT_FALSE(token.ShouldStop());
  EXPECT_EQ(token.reason(), Status::kOk);
  EXPECT_NO_THROW(token.CheckIn());
}

TEST(CancelTokenTest, CancelLatchesAndCheckInThrows) {
  CancelToken token;
  token.Cancel();
  EXPECT_TRUE(token.ShouldStop());
  EXPECT_EQ(token.reason(), Status::kCancelled);
  try {
    token.CheckIn();
    FAIL() << "CheckIn() on a cancelled token must throw";
  } catch (const CancelledError& err) {
    EXPECT_EQ(err.reason(), Status::kCancelled);
  }
}

TEST(CancelTokenTest, FirstReasonWins) {
  CancelToken token;
  token.Cancel(Status::kDeadlineExceeded);
  token.Cancel(Status::kCancelled);  // later reason must not overwrite
  EXPECT_EQ(token.reason(), Status::kDeadlineExceeded);
}

TEST(CancelTokenTest, NonPositiveDeadlineArmsNothing) {
  CancelToken zero(0.0);
  CancelToken negative(-5.0);
  EXPECT_FALSE(zero.ShouldStop());
  EXPECT_FALSE(negative.ShouldStop());
}

TEST(CancelTokenTest, DeadlineExpiryLatchesDeadlineExceeded) {
  CancelToken token(1.0);  // 1 ms
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(token.ShouldStop());
  EXPECT_EQ(token.reason(), Status::kDeadlineExceeded);
  // Latched: still stopped on every later poll.
  EXPECT_TRUE(token.ShouldStop());
}

TEST(CancelTokenTest, GenerousDeadlineDoesNotStop) {
  CancelToken token(60'000.0);
  EXPECT_FALSE(token.ShouldStop());
  EXPECT_NO_THROW(token.CheckIn());
}

TEST(CancelTokenTest, ParentStopPropagatesToChild) {
  CancelToken parent;
  CancelToken child;
  child.set_parent(&parent);
  EXPECT_FALSE(child.ShouldStop());
  parent.Cancel(Status::kCancelled);
  EXPECT_TRUE(child.ShouldStop());
  EXPECT_EQ(child.reason(), Status::kCancelled);
}

TEST(CancelTokenTest, ParentDeadlineReasonSurvivesChildChain) {
  CancelToken parent(1.0);
  CancelToken child(60'000.0);
  child.set_parent(&parent);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(child.ShouldStop());
  EXPECT_EQ(child.reason(), Status::kDeadlineExceeded);
}

TEST(CancelTokenTest, ConcurrentCancelsAgreeOnOneReason) {
  // Many threads race Cancel() with distinct reasons; every observer must
  // see a single coherent winner (no torn reason, no kOk after stop).
  for (int round = 0; round < 20; ++round) {
    CancelToken token;
    test::RunConcurrentClients(4, [&](int worker) {
      token.Cancel(worker % 2 == 0 ? Status::kCancelled
                                   : Status::kDeadlineExceeded);
    });
    EXPECT_TRUE(token.ShouldStop());
    const Status r = token.reason();
    EXPECT_TRUE(r == Status::kCancelled || r == Status::kDeadlineExceeded);
  }
}

TEST(CancelTokenTest, NullTolerantHelpers) {
  EXPECT_FALSE(ShouldStop(nullptr));
  EXPECT_NO_THROW(CheckCancel(nullptr));
  CancelToken token;
  EXPECT_FALSE(ShouldStop(&token));
  token.Cancel();
  EXPECT_TRUE(ShouldStop(&token));
  EXPECT_THROW(CheckCancel(&token), CancelledError);
}

TEST(CancelTokenTest, StatusNamesAreStableSpellings) {
  // The CLI prints these and the trace attaches them; spelling is API.
  EXPECT_STREQ(StatusName(Status::kOk), "ok");
  EXPECT_STREQ(StatusName(Status::kDeadlineExceeded), "deadline_exceeded");
  EXPECT_STREQ(StatusName(Status::kCancelled), "cancelled");
  EXPECT_STREQ(StatusName(Status::kOverloaded), "overloaded");
  EXPECT_STREQ(StatusName(Status::kInternalError), "internal_error");
}

}  // namespace
}  // namespace sky
