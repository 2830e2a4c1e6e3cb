#include "cluster/cluster.hpp"

#include <gtest/gtest.h>

#include "util/types.hpp"

namespace evolve::cluster {
namespace {

TEST(NodeSpec, AllocatableDerivesFromHardware) {
  NodeSpec node = make_compute_node("n0", 0);
  const Resources r = node.allocatable();
  EXPECT_EQ(r.cpu_millicores, 32000);
  EXPECT_EQ(r.memory_bytes, 128 * util::kGiB);
  EXPECT_EQ(r.accel_slots, 0);
}

TEST(NodeSpec, OneAccelSlotPerDevice) {
  NodeSpec node = make_accel_node("a0", 0);
  EXPECT_EQ(node.allocatable().accel_slots, 2);
}

TEST(NodeSpec, DeviceLookup) {
  NodeSpec node = make_storage_node("s0", 0);
  ASSERT_NE(node.device("nvme"), nullptr);
  ASSERT_NE(node.device("hdd"), nullptr);
  EXPECT_EQ(node.device("tape"), nullptr);
  EXPECT_GT(node.device("dram")->read_bw_bytes_per_s,
            node.device("nvme")->read_bw_bytes_per_s);
  EXPECT_GT(node.device("nvme")->read_bw_bytes_per_s,
            node.device("hdd")->read_bw_bytes_per_s);
}

TEST(NodeSpec, LabelCheck) {
  NodeSpec node = make_accel_node("a0", 1);
  EXPECT_TRUE(node.has_label("role=accel"));
  EXPECT_FALSE(node.has_label("role=compute"));
}

TEST(Cluster, AddAndFind) {
  Cluster cluster;
  const NodeId a = cluster.add_node(make_compute_node("alpha", 0));
  const NodeId b = cluster.add_node(make_storage_node("beta", 1));
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(cluster.find("beta"), b);
  EXPECT_EQ(cluster.find("gamma"), kInvalidNode);
  EXPECT_EQ(cluster.node(a).name, "alpha");
  EXPECT_THROW(cluster.node(7), std::out_of_range);
}

TEST(Cluster, RejectsInvalidNodes) {
  Cluster cluster;
  NodeSpec bad;
  bad.name = "bad";
  bad.cores = 0;
  EXPECT_THROW(cluster.add_node(bad), std::invalid_argument);
  NodeSpec neg_rack = make_compute_node("n", 0);
  neg_rack.rack = -1;
  EXPECT_THROW(cluster.add_node(neg_rack), std::invalid_argument);
}

TEST(Cluster, LabelQuery) {
  Cluster cluster = make_testbed(2, 1, 1);
  EXPECT_EQ(cluster.nodes_with_label("role=compute").size(), 2u);
  EXPECT_EQ(cluster.nodes_with_label("role=storage").size(), 1u);
  EXPECT_EQ(cluster.nodes_with_label("role=accel").size(), 1u);
}

TEST(Cluster, RackCount) {
  Cluster cluster = make_testbed(4, 2, 2, 3);
  EXPECT_EQ(cluster.rack_count(), 3);
  EXPECT_EQ(cluster.size(), 8);
}

TEST(Cluster, TestbedSpreadsAcrossRacks) {
  Cluster cluster = make_testbed(4, 0, 0, 2);
  int rack0 = 0, rack1 = 0;
  for (const auto& node : cluster.nodes()) {
    (node.rack == 0 ? rack0 : rack1)++;
  }
  EXPECT_EQ(rack0, 2);
  EXPECT_EQ(rack1, 2);
}

TEST(Cluster, TotalAllocatableSums) {
  Cluster cluster = make_testbed(2, 0, 0);
  const Resources total = cluster.total_allocatable();
  EXPECT_EQ(total.cpu_millicores, 64000);
  EXPECT_EQ(total.memory_bytes, 256 * util::kGiB);
}

TEST(Cluster, TestbedRejectsZeroRacks) {
  EXPECT_THROW(make_testbed(1, 1, 1, 0), std::invalid_argument);
}

}  // namespace
}  // namespace evolve::cluster
