#include "gates/grid/app_config.hpp"

#include <gtest/gtest.h>

namespace gates::grid {
namespace {

const char* kFullConfig = R"(<?xml version="1.0"?>
<application name="count-samps">
  <stages>
    <stage name="summary" code="builtin://count-samps-summary" capacity="150">
      <requirement min-cpu="0.5" min-memory-mb="128"/>
      <cost per-packet="1e-5" per-byte="2e-8" per-record="3e-6"/>
      <param name="emit-every" value="2500"/>
      <param name="track-exact" value="true"/>
      <placement node="1"/>
      <parallelism mode="keyed" replicas="2" max-replicas="4" key="stream"/>
      <monitor expected="15" over="30" under="4" window="8" alpha="0.6"
               p1="0.2" p2="0.3" p3="0.5" lt1="-0.15" lt2="0.15"/>
      <controller gain="0.08" variability="1.5" decay="0.6"/>
    </stage>
    <stage name="sink" code="builtin://count-samps-sink"/>
  </stages>
  <edges>
    <edge from="summary" to="sink" port="0"/>
  </edges>
  <sources>
    <source name="s0" stream="0" rate="138" count="25000" target="summary"
            node="1" type="zipf-u64" poisson="true">
      <param name="universe" value="5000"/>
      <param name="theta" value="1.1"/>
    </source>
  </sources>
</application>)";

TEST(AppConfig, ParsesFullDocument) {
  auto config = parse_app_config(kFullConfig, GeneratorRegistry::global());
  ASSERT_TRUE(config.ok()) << config.status().to_string();
  EXPECT_EQ(config->application_name, "count-samps");
  ASSERT_EQ(config->pipeline.stages.size(), 2u);
  ASSERT_EQ(config->pipeline.edges.size(), 1u);
  ASSERT_EQ(config->pipeline.sources.size(), 1u);

  const auto& stage = config->pipeline.stages[0];
  EXPECT_EQ(stage.name, "summary");
  EXPECT_EQ(stage.processor_uri, "builtin://count-samps-summary");
  EXPECT_EQ(stage.input_capacity, 150u);
  EXPECT_DOUBLE_EQ(stage.monitor.capacity, 150);  // follows capacity
  EXPECT_DOUBLE_EQ(stage.requirement.min_cpu_factor, 0.5);
  EXPECT_DOUBLE_EQ(stage.requirement.min_memory_mb, 128);
  EXPECT_DOUBLE_EQ(stage.cost.per_packet_seconds, 1e-5);
  EXPECT_DOUBLE_EQ(stage.cost.per_byte_seconds, 2e-8);
  EXPECT_DOUBLE_EQ(stage.cost.per_record_seconds, 3e-6);
  EXPECT_EQ(stage.properties.get_int("emit-every", 0), 2500);
  EXPECT_TRUE(stage.properties.get_bool("track-exact", false));
  EXPECT_EQ(stage.placement_hint, 1u);
  EXPECT_DOUBLE_EQ(stage.monitor.expected_length, 15);
  EXPECT_DOUBLE_EQ(stage.monitor.over_threshold, 30);
  EXPECT_EQ(stage.monitor.window, 8);
  EXPECT_DOUBLE_EQ(stage.monitor.alpha, 0.6);
  EXPECT_DOUBLE_EQ(stage.monitor.lt2, 0.15);
  EXPECT_DOUBLE_EQ(stage.controller.gain, 0.08);
  EXPECT_DOUBLE_EQ(stage.controller.variability_weight, 1.5);
  EXPECT_DOUBLE_EQ(stage.controller.exception_decay, 0.6);

  EXPECT_EQ(stage.parallelism.mode, core::ParallelismMode::kKeyed);
  EXPECT_EQ(stage.parallelism.replicas, 2u);
  EXPECT_EQ(stage.parallelism.max_replicas, 4u);
  EXPECT_EQ(stage.parallelism_key, "stream");
  ASSERT_TRUE(static_cast<bool>(stage.parallelism.shard_fn));
  core::Packet probe;
  probe.stream = 7;
  probe.sequence = 3;
  EXPECT_EQ(stage.parallelism.shard_fn(probe), 7u);  // shards by stream

  const auto& sink = config->pipeline.stages[1];
  EXPECT_EQ(sink.placement_hint, kInvalidNode);  // deployer chooses
  EXPECT_EQ(sink.parallelism.mode, core::ParallelismMode::kSerial);
  EXPECT_EQ(sink.parallelism.replicas, 1u);

  const auto& edge = config->pipeline.edges[0];
  EXPECT_EQ(edge.from_stage, 0u);
  EXPECT_EQ(edge.to_stage, 1u);

  const auto& src = config->pipeline.sources[0];
  EXPECT_EQ(src.name, "s0");
  EXPECT_DOUBLE_EQ(src.rate_hz, 138);
  EXPECT_EQ(src.total_packets, 25000u);
  EXPECT_EQ(src.location, 1u);
  EXPECT_TRUE(src.poisson);
  ASSERT_TRUE(static_cast<bool>(src.generator));
  Rng rng(1);
  auto packet = src.generator(0, rng);
  EXPECT_EQ(packet.payload_bytes(), 8u);
}

TEST(AppConfig, MinimalConfigUsesDefaults) {
  const char* minimal = R"(
    <application>
      <stages><stage name="s" code="builtin://x"/></stages>
      <sources><source target="s"/></sources>
    </application>)";
  auto config = parse_app_config(minimal, GeneratorRegistry::global());
  ASSERT_TRUE(config.ok()) << config.status().to_string();
  EXPECT_EQ(config->application_name, "unnamed");
  EXPECT_EQ(config->pipeline.stages[0].input_capacity, 200u);
  EXPECT_FALSE(static_cast<bool>(config->pipeline.sources[0].generator));
}

struct BadConfigCase {
  const char* name;
  const char* xml;
};

// Prints the case name, so the test names ctest discovers are the same on
// every build (the default printer dumps the struct's pointer bytes).
void PrintTo(const BadConfigCase& c, std::ostream* os) { *os << c.name; }

class AppConfigRejects : public ::testing::TestWithParam<BadConfigCase> {};

TEST_P(AppConfigRejects, MalformedConfig) {
  auto config =
      parse_app_config(GetParam().xml, GeneratorRegistry::global());
  EXPECT_FALSE(config.ok()) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, AppConfigRejects,
    ::testing::Values(
        BadConfigCase{"not_xml", "garbage"},
        BadConfigCase{"wrong_root", "<app/>"},
        BadConfigCase{"no_stages", "<application><sources><source "
                                   "target='s'/></sources></application>"},
        BadConfigCase{"no_sources",
                      "<application><stages><stage name='s' "
                      "code='builtin://x'/></stages></application>"},
        BadConfigCase{"stage_missing_name",
                      "<application><stages><stage code='builtin://x'/>"
                      "</stages><sources><source target='s'/></sources>"
                      "</application>"},
        BadConfigCase{"stage_missing_code",
                      "<application><stages><stage name='s'/></stages>"
                      "<sources><source target='s'/></sources>"
                      "</application>"},
        BadConfigCase{"duplicate_stage",
                      "<application><stages>"
                      "<stage name='s' code='builtin://x'/>"
                      "<stage name='s' code='builtin://x'/>"
                      "</stages><sources><source target='s'/></sources>"
                      "</application>"},
        BadConfigCase{"zero_capacity",
                      "<application><stages><stage name='s' "
                      "code='builtin://x' capacity='0'/></stages>"
                      "<sources><source target='s'/></sources>"
                      "</application>"},
        BadConfigCase{"bad_capacity",
                      "<application><stages><stage name='s' "
                      "code='builtin://x' capacity='abc'/></stages>"
                      "<sources><source target='s'/></sources>"
                      "</application>"},
        BadConfigCase{"edge_unknown_stage",
                      "<application><stages><stage name='s' "
                      "code='builtin://x'/></stages>"
                      "<edges><edge from='s' to='ghost'/></edges>"
                      "<sources><source target='s'/></sources>"
                      "</application>"},
        BadConfigCase{"source_unknown_target",
                      "<application><stages><stage name='s' "
                      "code='builtin://x'/></stages>"
                      "<sources><source target='ghost'/></sources>"
                      "</application>"},
        BadConfigCase{"source_bad_poisson",
                      "<application><stages><stage name='s' "
                      "code='builtin://x'/></stages>"
                      "<sources><source target='s' poisson='maybe'/>"
                      "</sources></application>"},
        BadConfigCase{"source_unknown_generator",
                      "<application><stages><stage name='s' "
                      "code='builtin://x'/></stages>"
                      "<sources><source target='s' type='ghost-gen'/>"
                      "</sources></application>"},
        BadConfigCase{"param_missing_value",
                      "<application><stages><stage name='s' "
                      "code='builtin://x'><param name='k'/></stage></stages>"
                      "<sources><source target='s'/></sources>"
                      "</application>"},
        BadConfigCase{"parallelism_unknown_mode",
                      "<application><stages><stage name='s' "
                      "code='builtin://x'><parallelism mode='magic'/></stage>"
                      "</stages><sources><source target='s'/></sources>"
                      "</application>"},
        BadConfigCase{"parallelism_zero_replicas",
                      "<application><stages><stage name='s' "
                      "code='builtin://x'><parallelism mode='stateless' "
                      "replicas='0'/></stage></stages>"
                      "<sources><source target='s'/></sources>"
                      "</application>"},
        BadConfigCase{"parallelism_ceiling_below_replicas",
                      "<application><stages><stage name='s' "
                      "code='builtin://x'><parallelism mode='stateless' "
                      "replicas='4' max-replicas='2'/></stage></stages>"
                      "<sources><source target='s'/></sources>"
                      "</application>"},
        BadConfigCase{"parallelism_unknown_key",
                      "<application><stages><stage name='s' "
                      "code='builtin://x'><parallelism mode='keyed' "
                      "key='color'/></stage></stages>"
                      "<sources><source target='s'/></sources>"
                      "</application>"},
        BadConfigCase{"cyclic_edges",
                      "<application><stages>"
                      "<stage name='a' code='builtin://x'/>"
                      "<stage name='b' code='builtin://x'/>"
                      "</stages><edges><edge from='a' to='b'/>"
                      "<edge from='b' to='a'/></edges>"
                      "<sources><source target='a'/></sources>"
                      "</application>"}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace gates::grid
