#include "peerhood/plugin.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "net/medium.hpp"

namespace ph::peerhood {
namespace {

class PluginTest : public ::testing::Test {
 protected:
  PluginTest() : medium_(simulator_, sim::Rng(4)) {
    node_ = medium_.add_node(
        "dev", std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}));
  }

  sim::Simulator simulator_;
  net::Medium medium_;
  net::NodeId node_ = 0;
};

TEST_F(PluginTest, BtPluginIdentity) {
  net::Adapter& adapter = medium_.add_adapter(node_, net::bluetooth_2_0());
  auto plugin = make_plugin(adapter);
  EXPECT_EQ(plugin->name(), "BTPlugin");
  EXPECT_EQ(plugin->technology(), net::Technology::bluetooth);
  EXPECT_EQ(plugin->endpoint().device(), adapter.device());
}

TEST_F(PluginTest, WlanPluginIdentity) {
  net::Adapter& adapter = medium_.add_adapter(node_, net::wlan_80211b());
  auto plugin = make_plugin(adapter);
  EXPECT_EQ(plugin->name(), "WLANPlugin");
  EXPECT_EQ(plugin->technology(), net::Technology::wlan);
}

TEST_F(PluginTest, GprsPluginIdentity) {
  net::Adapter& adapter = medium_.add_adapter(node_, net::gprs());
  auto plugin = make_plugin(adapter);
  EXPECT_EQ(plugin->name(), "GPRSPlugin");
  EXPECT_EQ(plugin->technology(), net::Technology::gprs);
}

TEST_F(PluginTest, PreferenceOrdersFreeTechnologiesFirst) {
  net::Adapter& bt = medium_.add_adapter(node_, net::bluetooth_2_0());
  net::Adapter& wlan = medium_.add_adapter(node_, net::wlan_80211b());
  net::Adapter& cell = medium_.add_adapter(node_, net::gprs());
  auto bt_plugin = make_plugin(bt);
  auto wlan_plugin = make_plugin(wlan);
  auto gprs_plugin = make_plugin(cell);
  // The thesis prefers cost-free short-range radios over metered GPRS.
  EXPECT_LT(bt_plugin->preference(), gprs_plugin->preference());
  EXPECT_LT(wlan_plugin->preference(), gprs_plugin->preference());
}

TEST_F(PluginTest, MakePluginDispatchesOnTechnology) {
  net::Adapter& bt = medium_.add_adapter(node_, net::bluetooth_2_0());
  net::Adapter& wlan = medium_.add_adapter(node_, net::wlan_80211g());
  net::Adapter& cell = medium_.add_adapter(node_, net::gprs());
  EXPECT_EQ(make_plugin(bt)->name(), "BTPlugin");
  EXPECT_EQ(make_plugin(wlan)->name(), "WLANPlugin");
  EXPECT_EQ(make_plugin(cell)->name(), "GPRSPlugin");
}

TEST_F(PluginTest, ProfilePassesThrough) {
  net::Adapter& adapter = medium_.add_adapter(node_, net::wlan_80211a());
  auto plugin = make_plugin(adapter);
  EXPECT_EQ(plugin->profile().name, "IEEE 802.11a");
  EXPECT_DOUBLE_EQ(plugin->profile().bandwidth_bps, 54e6);
}

}  // namespace
}  // namespace ph::peerhood
