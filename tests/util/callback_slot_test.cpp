#include "util/callback_slot.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace ph::util {
namespace {

TEST(CallbackSlotTest, EmptySlotReportsNoCall) {
  CallbackSlot<void(int)> slot;
  EXPECT_FALSE(slot);
  EXPECT_FALSE(slot(1));
}

TEST(CallbackSlotTest, CallsInstalledHandlerRepeatedly) {
  CallbackSlot<void(int)> slot;
  int sum = 0;
  slot = [&sum](int v) { sum += v; };
  EXPECT_TRUE(slot);
  EXPECT_TRUE(slot(2));
  EXPECT_TRUE(slot(3));
  EXPECT_EQ(sum, 5);
}

TEST(CallbackSlotTest, HandlerReplacingItselfFinishesItsCall) {
  // The first handler's captures must stay valid after it installs its
  // successor: it reads `tag` after the replacement.
  CallbackSlot<void(int)> slot;
  std::vector<std::string> log;
  auto tag = std::make_shared<std::string>("first");
  slot = [&slot, &log, tag](int v) {
    slot = [&log](int w) { log.push_back("second:" + std::to_string(w)); };
    log.push_back(*tag + ":" + std::to_string(v));
  };
  tag.reset();  // the slot's closure now holds the only reference
  EXPECT_TRUE(slot(1));
  EXPECT_TRUE(slot(2));
  EXPECT_EQ(log, (std::vector<std::string>{"first:1", "second:2"}));
}

TEST(CallbackSlotTest, HandlerClearingItselfStaysCleared) {
  CallbackSlot<void()> slot;
  int calls = 0;
  slot = [&slot, &calls] {
    ++calls;
    slot = nullptr;
  };
  EXPECT_TRUE(slot());
  EXPECT_FALSE(slot);
  EXPECT_FALSE(slot());
  EXPECT_EQ(calls, 1);
}

TEST(CallbackSlotTest, ThrowingHandlerIsRestored) {
  CallbackSlot<void()> slot;
  slot = [] { throw std::runtime_error("boom"); };
  EXPECT_THROW(slot(), std::runtime_error);
  EXPECT_TRUE(slot);
}

}  // namespace
}  // namespace ph::util
