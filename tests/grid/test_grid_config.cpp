#include "gates/grid/grid_config.hpp"

#include <gtest/gtest.h>

namespace gates::grid {
namespace {

const char* kGrid = R"(<?xml version="1.0"?>
<grid name="demo">
  <node id="0" hostname="central" cpu="2.0" memory-mb="8192"/>
  <node id="1" hostname="edge1"/>
  <node id="2" hostname="edge2" available="false"/>
  <default-link bandwidth="1e6" latency="0.002"/>
  <link from="1" to="0" bandwidth="100e3" latency="0.01"/>
  <shared-ingress node="0" bandwidth="50e3"/>
</grid>)";

TEST(GridConfig, ParsesNodesLinksAndIngress) {
  auto config = parse_grid_config(kGrid);
  ASSERT_TRUE(config.ok()) << config.status().to_string();
  EXPECT_EQ(config->name, "demo");
  ASSERT_EQ(config->directory.size(), 3u);
  EXPECT_EQ(config->directory.node(0)->hostname, "central");
  EXPECT_DOUBLE_EQ(config->directory.node(0)->resources.cpu_factor, 2.0);
  EXPECT_DOUBLE_EQ(config->directory.node(1)->resources.cpu_factor, 1.0);
  EXPECT_FALSE(config->directory.node(2)->available);

  EXPECT_DOUBLE_EQ(config->topology.default_link().bandwidth, 1e6);
  EXPECT_DOUBLE_EQ(config->topology.default_link().latency, 0.002);
  EXPECT_DOUBLE_EQ(config->topology.between(1, 0).bandwidth, 100e3);
  EXPECT_DOUBLE_EQ(config->topology.between(0, 1).bandwidth, 1e6);  // default
  ASSERT_TRUE(config->topology.shared_ingress(0).has_value());
  EXPECT_DOUBLE_EQ(config->topology.shared_ingress(0)->bandwidth, 50e3);
}

TEST(GridConfig, ParsesCoresListPerNode) {
  auto config = parse_grid_config(R"(<grid>
    <node id="0" cores="0,2,4-7"/>
    <node id="1"/>
  </grid>)");
  ASSERT_TRUE(config.ok()) << config.status().to_string();
  EXPECT_EQ(config->directory.node(0)->resources.cores,
            (std::vector<int>{0, 2, 4, 5, 6, 7}));
  EXPECT_TRUE(config->directory.node(1)->resources.cores.empty());
}

TEST(GridConfig, HostModelFollowsNodes) {
  auto config = parse_grid_config(kGrid);
  ASSERT_TRUE(config.ok());
  auto hosts = config->directory.host_model();
  EXPECT_DOUBLE_EQ(hosts.at(0), 2.0);
  EXPECT_DOUBLE_EQ(hosts.at(1), 1.0);
}

struct BadGridCase {
  const char* name;
  const char* xml;
};

// Prints the case name, so the test names ctest discovers are the same on
// every build (the default printer dumps the struct's pointer bytes).
void PrintTo(const BadGridCase& c, std::ostream* os) { *os << c.name; }

class GridConfigRejects : public ::testing::TestWithParam<BadGridCase> {};

TEST_P(GridConfigRejects, MalformedConfig) {
  EXPECT_FALSE(parse_grid_config(GetParam().xml).ok()) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, GridConfigRejects,
    ::testing::Values(
        BadGridCase{"not_xml", "nope"},
        BadGridCase{"wrong_root", "<gird/>"},
        BadGridCase{"no_nodes", "<grid/>"},
        BadGridCase{"sparse_ids", "<grid><node id='0'/><node id='2'/></grid>"},
        BadGridCase{"missing_id", "<grid><node/></grid>"},
        BadGridCase{"bad_cpu", "<grid><node id='0' cpu='-1'/></grid>"},
        BadGridCase{"bad_available",
                    "<grid><node id='0' available='perhaps'/></grid>"},
        BadGridCase{"link_unknown_node",
                    "<grid><node id='0'/><link from='0' to='9'/></grid>"},
        BadGridCase{"link_bad_bandwidth",
                    "<grid><node id='0'/><node id='1'/>"
                    "<link from='0' to='1' bandwidth='0'/></grid>"},
        BadGridCase{"ingress_missing_bandwidth",
                    "<grid><node id='0'/><shared-ingress node='0'/></grid>"},
        BadGridCase{"ingress_unknown_node",
                    "<grid><node id='0'/>"
                    "<shared-ingress node='3' bandwidth='1e3'/></grid>"},
        BadGridCase{"default_link_bad_latency",
                    "<grid><node id='0'/>"
                    "<default-link bandwidth='1e3' latency='-1'/></grid>"},
        BadGridCase{"cores_negative", "<grid><node id='0' cores='-1'/></grid>"},
        BadGridCase{"cores_reversed_range",
                    "<grid><node id='0' cores='7-4'/></grid>"},
        BadGridCase{"cores_duplicate",
                    "<grid><node id='0' cores='0,1,1'/></grid>"},
        BadGridCase{"cores_garbage",
                    "<grid><node id='0' cores='0,two'/></grid>"}),
    [](const auto& info) { return info.param.name; });

TEST(GridConfig, LinkInheritsDefaultLatency) {
  auto config = parse_grid_config(R"(
    <grid>
      <node id="0"/><node id="1"/>
      <default-link bandwidth="1e5" latency="0.5"/>
      <link from="0" to="1" bandwidth="7e3"/>
    </grid>)");
  ASSERT_TRUE(config.ok());
  EXPECT_DOUBLE_EQ(config->topology.between(0, 1).bandwidth, 7e3);
  EXPECT_DOUBLE_EQ(config->topology.between(0, 1).latency, 0.5);
}

TEST(GridConfig, ParsesLinkImpairments) {
  auto config = parse_grid_config(R"(
    <grid>
      <node id="0"/><node id="1"/>
      <link from="1" to="0" bandwidth="56e3" latency="0.05"
            loss="0.02" loss-mode="drop" jitter="0.01"
            reorder="0.1" reorder-delay="0.08"/>
      <link from="0" to="1" bandwidth="56e3" latency="0.05"
            burst="true" p-good-bad="0.01" p-bad-good="0.2"
            loss-good="0.001" loss-bad="0.4"
            loss-mode="retransmit" retransmit-delay="0.2"/>
    </grid>)");
  ASSERT_TRUE(config.ok()) << config.status().to_string();

  const net::ImpairmentSpec& iid = config->topology.between(1, 0).impair;
  EXPECT_DOUBLE_EQ(iid.loss, 0.02);
  EXPECT_EQ(iid.loss_mode, net::LossMode::kDrop);
  EXPECT_DOUBLE_EQ(iid.jitter, 0.01);
  EXPECT_DOUBLE_EQ(iid.reorder, 0.1);
  EXPECT_DOUBLE_EQ(iid.reorder_delay, 0.08);
  EXPECT_FALSE(iid.burst);

  const net::ImpairmentSpec& ge = config->topology.between(0, 1).impair;
  EXPECT_TRUE(ge.burst);
  EXPECT_DOUBLE_EQ(ge.p_good_bad, 0.01);
  EXPECT_DOUBLE_EQ(ge.p_bad_good, 0.2);
  EXPECT_DOUBLE_EQ(ge.loss_good, 0.001);
  EXPECT_DOUBLE_EQ(ge.loss_bad, 0.4);
  EXPECT_EQ(ge.loss_mode, net::LossMode::kRetransmit);
  EXPECT_DOUBLE_EQ(ge.retransmit_delay, 0.2);
}

TEST(GridConfig, DefaultLinkImpairmentIsInherited) {
  auto config = parse_grid_config(R"(
    <grid>
      <node id="0"/><node id="1"/>
      <default-link bandwidth="1e5" latency="0.01" loss="0.05"/>
      <link from="0" to="1" bandwidth="7e3" loss="0"/>
    </grid>)");
  ASSERT_TRUE(config.ok()) << config.status().to_string();
  EXPECT_DOUBLE_EQ(config->topology.between(1, 0).impair.loss, 0.05);
  EXPECT_DOUBLE_EQ(config->topology.between(0, 1).impair.loss, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    ImpairmentCases, GridConfigRejects,
    ::testing::Values(
        BadGridCase{"loss_above_one",
                    "<grid><node id='0'/><node id='1'/>"
                    "<link from='0' to='1' loss='1.5'/></grid>"},
        BadGridCase{"loss_negative",
                    "<grid><node id='0'/><node id='1'/>"
                    "<link from='0' to='1' loss='-0.1'/></grid>"},
        BadGridCase{"unknown_loss_mode",
                    "<grid><node id='0'/><node id='1'/>"
                    "<link from='0' to='1' loss-mode='teleport'/></grid>"},
        BadGridCase{"bad_burst_flag",
                    "<grid><node id='0'/><node id='1'/>"
                    "<link from='0' to='1' burst='maybe'/></grid>"},
        BadGridCase{"negative_jitter",
                    "<grid><node id='0'/><node id='1'/>"
                    "<link from='0' to='1' jitter='-0.01'/></grid>"},
        BadGridCase{"ge_probability_out_of_range",
                    "<grid><node id='0'/><node id='1'/>"
                    "<link from='0' to='1' p-good-bad='2'/></grid>"},
        BadGridCase{"negative_retransmit_delay",
                    "<grid><node id='0'/><node id='1'/>"
                    "<link from='0' to='1' retransmit-delay='-1'/></grid>"}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace gates::grid
