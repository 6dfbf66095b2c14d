#include "behaviot/testbed/catalog.hpp"

#include <gtest/gtest.h>

#include <set>

namespace behaviot::testbed {
namespace {

const Catalog& catalog() { return Catalog::standard(); }

TEST(Catalog, FortyNineDevices) { EXPECT_EQ(catalog().size(), 49u); }

TEST(Catalog, CategoryCountsMatchTable1) {
  EXPECT_EQ(catalog().in_category(DeviceCategory::kCamera).size(), 11u);
  EXPECT_EQ(catalog().in_category(DeviceCategory::kSmartSpeaker).size(), 11u);
  EXPECT_EQ(catalog().in_category(DeviceCategory::kHomeAutomation).size(),
            16u);
  EXPECT_EQ(catalog().in_category(DeviceCategory::kAppliance).size(), 5u);
  EXPECT_EQ(catalog().in_category(DeviceCategory::kHub).size(), 6u);
}

TEST(Catalog, DatasetMembershipsMatchPaper) {
  EXPECT_EQ(catalog().routine_set().size(), 18u);    // Table 6
  EXPECT_EQ(catalog().uncontrolled_set().size(), 47u);  // §3.3
  EXPECT_NEAR(static_cast<double>(catalog().activity_set().size()), 30.0, 2.0);
}

TEST(Catalog, UniqueNamesIdsAndIps) {
  std::set<std::string> names;
  std::set<DeviceId> ids;
  std::set<std::uint32_t> ips;
  for (const DeviceInfo& d : catalog().devices()) {
    EXPECT_TRUE(names.insert(d.name).second) << d.name;
    EXPECT_TRUE(ids.insert(d.id).second);
    EXPECT_TRUE(ips.insert(d.ip.value()).second);
    EXPECT_TRUE(d.ip.is_private());
  }
}

TEST(Catalog, LookupByNameIdIp) {
  const DeviceInfo* plug = catalog().by_name("tplink_plug");
  ASSERT_NE(plug, nullptr);
  EXPECT_EQ(plug->display, "TPLink Plug");
  EXPECT_EQ(&catalog().by_id(plug->id), plug);
  EXPECT_EQ(catalog().by_ip(plug->ip), plug);
  EXPECT_EQ(catalog().by_name("nonexistent"), nullptr);
  EXPECT_EQ(catalog().by_ip(Ipv4Addr(10, 0, 0, 1)), nullptr);
  EXPECT_THROW((void)catalog().by_id(999), std::out_of_range);
}

TEST(Catalog, ByIpFindsEveryDeviceAndNoNeighbour) {
  for (const DeviceInfo& d : catalog().devices()) {
    EXPECT_EQ(catalog().by_ip(d.ip), &d) << d.name;
    const Ipv4Addr below(d.ip.value() - 1);
    const Ipv4Addr above(d.ip.value() + 1);
    for (const Ipv4Addr ip : {below, above}) {
      const DeviceInfo* found = catalog().by_ip(ip);
      EXPECT_TRUE(found == nullptr || found->ip == ip) << d.name;
    }
  }
  EXPECT_EQ(catalog().by_ip(Ipv4Addr(192, 168, 1, 9)), nullptr);
  EXPECT_EQ(catalog().by_ip(Ipv4Addr(192, 168, 1, 59)), nullptr);
  EXPECT_EQ(catalog().by_ip(Ipv4Addr(255, 255, 255, 255)), nullptr);
}

TEST(Catalog, PeriodicBehaviorCountsMatchTable4Shape) {
  auto avg = [this_catalog = &catalog()](DeviceCategory c) {
    double sum = 0;
    const auto devices = this_catalog->in_category(c);
    for (const DeviceInfo* d : devices) {
      sum += static_cast<double>(d->periodic_behaviors);
    }
    return sum / static_cast<double>(devices.size());
  };
  EXPECT_NEAR(avg(DeviceCategory::kHomeAutomation), 4.06, 0.5);
  EXPECT_NEAR(avg(DeviceCategory::kCamera), 5.82, 0.5);
  EXPECT_NEAR(avg(DeviceCategory::kSmartSpeaker), 23.36, 1.0);
  EXPECT_NEAR(avg(DeviceCategory::kHub), 6.0, 0.5);
  EXPECT_NEAR(avg(DeviceCategory::kAppliance), 6.4, 1.0);

  // Echo Show 5 tops the table with 31 periodic models.
  std::size_t max_behaviors = 0;
  std::string max_name;
  std::size_t total = 0;
  for (const DeviceInfo& d : catalog().devices()) {
    total += d.periodic_behaviors;
    if (d.periodic_behaviors > max_behaviors) {
      max_behaviors = d.periodic_behaviors;
      max_name = d.name;
    }
  }
  EXPECT_EQ(max_name, "echo_show5");
  EXPECT_EQ(max_behaviors, 31u);
  EXPECT_NEAR(static_cast<double>(total), 454.0, 10.0);  // paper: 454 models
}

TEST(Catalog, RoutineDevicesAreInActivitySet) {
  // User-action models must exist for every routine device.
  for (const DeviceInfo* d : catalog().routine_set()) {
    EXPECT_TRUE(d->in_activity_set) << d->name;
  }
}

TEST(DeviceInfo, AggregatedBinaryCommandsShareLabel) {
  const DeviceInfo* plug = catalog().by_name("tplink_plug");
  ASSERT_NE(plug, nullptr);
  ASSERT_TRUE(plug->binary_commands_aggregated);
  EXPECT_EQ(plug->label_for("on"), "on_off");
  EXPECT_EQ(plug->label_for("off"), "on_off");
}

TEST(DeviceInfo, DistinguishableCommandsKeepTheirLabels) {
  const DeviceInfo* bulb = catalog().by_name("tplink_bulb");
  ASSERT_NE(bulb, nullptr);
  EXPECT_FALSE(bulb->binary_commands_aggregated);
  EXPECT_EQ(bulb->label_for("on"), "on");
  EXPECT_EQ(bulb->label_for("color"), "color");
}

TEST(DeviceInfo, MerossOpenCloseAreDistinct) {
  const DeviceInfo* meross = catalog().by_name("meross_dooropener");
  ASSERT_NE(meross, nullptr);
  EXPECT_EQ(meross->label_for("open"), "open");
  EXPECT_EQ(meross->label_for("close"), "close");
}

TEST(Catalog, AggregationCoversThirteenOfEighteenShape) {
  // §6.1: binary on/off states indistinguishable for 13 of 18 routine
  // devices. Our testbed reproduces the shape: most routine devices with
  // binary commands aggregate.
  std::size_t aggregated = 0;
  for (const DeviceInfo* d : catalog().routine_set()) {
    if (d->binary_commands_aggregated) ++aggregated;
  }
  EXPECT_GE(aggregated, 5u);
  EXPECT_LE(aggregated, 14u);
}

TEST(CategoryNames, Spellings) {
  EXPECT_STREQ(to_string(DeviceCategory::kCamera), "Camera");
  EXPECT_STREQ(to_string(DeviceCategory::kSmartSpeaker), "Smart Speaker");
  EXPECT_STREQ(to_string(DeviceCategory::kHomeAutomation), "Home Auto");
  EXPECT_STREQ(to_string(DeviceCategory::kAppliance), "Appliance");
  EXPECT_STREQ(to_string(DeviceCategory::kHub), "Hub");
}

}  // namespace
}  // namespace behaviot::testbed
