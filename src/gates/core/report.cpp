#include "gates/core/report.hpp"

#include <thread>

#include <unistd.h>

#include "gates/common/json.hpp"

namespace gates::core {

HostInfo HostInfo::detect() {
  HostInfo info;
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  info.cpus = n > 0 ? static_cast<int>(n) : 0;
  info.hardware_concurrency = std::thread::hardware_concurrency();
  return info;
}

namespace {

void write_running_stats(JsonWriter& w, const RunningStats& stats) {
  w.begin_object()
      .kv("count", static_cast<std::uint64_t>(stats.count()))
      .kv("mean", stats.mean())
      .kv("stddev", stats.stddev())
      .kv("min", stats.min())
      .kv("max", stats.max())
      .end_object();
}

}  // namespace

std::string RunReport::to_json() const {
  JsonWriter w;
  w.begin_object()
      .kv("execution_time", execution_time)
      .kv("completed", completed)
      .kv("events_executed", events_executed);

  w.key("stages").begin_array();
  for (const StageReport& s : stages) {
    w.begin_object()
        .kv("name", s.name)
        .kv("node", static_cast<std::uint64_t>(s.node))
        .kv("packets_processed", s.packets_processed)
        .kv("records_processed", s.records_processed)
        .kv("bytes_processed", s.bytes_processed)
        .kv("packets_emitted", s.packets_emitted)
        .kv("packets_dropped", s.packets_dropped)
        .kv("busy_time", s.busy_time)
        .kv("inline_batches", s.inline_batches)
        .kv("overload_exceptions_sent", s.overload_exceptions_sent)
        .kv("underload_exceptions_sent", s.underload_exceptions_sent)
        .kv("exceptions_received", s.exceptions_received)
        .kv("final_normalized_dtilde", s.final_normalized_dtilde)
        .kv("final_replicas", static_cast<std::uint64_t>(s.final_replicas))
        .kv("max_replicas_used",
            static_cast<std::uint64_t>(s.max_replicas_used));
    w.key("queue_length");
    write_running_stats(w, s.queue_length);
    w.key("packet_latency");
    write_running_stats(w, s.packet_latency);
    w.key("parameters").begin_array();
    for (const auto& [name, trajectory] : s.parameter_trajectories) {
      w.begin_object().kv("name", name);
      w.key("trajectory").begin_array();
      for (const auto& [t, v] : trajectory) {
        w.begin_array().value(t).value(v).end_array();
      }
      w.end_array().end_object();
    }
    w.end_array().end_object();
  }
  w.end_array();

  w.key("links").begin_array();
  for (const LinkReport& l : links) {
    w.begin_object()
        .kv("name", l.name)
        .kv("messages_delivered", l.messages_delivered)
        .kv("bytes_delivered", l.bytes_delivered)
        .kv("messages_lost", l.messages_lost)
        .kv("messages_retransmitted", l.messages_retransmitted)
        .kv("utilization", l.utilization)
        .kv("stalled_time", l.stalled_time)
        .kv("overload_exceptions_sent", l.overload_exceptions_sent)
        .kv("underload_exceptions_sent", l.underload_exceptions_sent);
    w.key("queue_length");
    write_running_stats(w, l.queue_length);
    w.end_object();
  }
  w.end_array();

  w.key("failures").begin_array();
  for (const FailureReport& f : failures) {
    w.begin_object()
        .kv("node", static_cast<std::uint64_t>(f.node))
        .kv("stage", f.stage)
        .kv("failed_at", f.failed_at)
        .kv("detected_at", f.detected_at)
        .kv("outcome", FailureReport::outcome_name(f.outcome))
        .kv("recovered_on", static_cast<std::int64_t>(
                                f.recovered_on == kInvalidNode
                                    ? -1
                                    : static_cast<std::int64_t>(f.recovered_on)))
        .kv("recovered_at", f.recovered_at)
        .kv("attempts", static_cast<std::uint64_t>(f.attempts))
        .kv("packets_replayed", f.packets_replayed)
        .kv("packets_lost_retention", f.packets_lost_retention)
        .end_object();
  }
  w.end_array();

  w.key("migrations").begin_array();
  for (const MigrationRecord& m : migrations) {
    w.begin_object()
        .kv("stage", m.stage)
        .kv("from", static_cast<std::uint64_t>(m.from))
        .kv("to", static_cast<std::int64_t>(
                      m.to == kInvalidNode ? -1
                                           : static_cast<std::int64_t>(m.to)))
        .kv("requested_at", m.requested_at)
        .kv("resumed_at", m.resumed_at)
        .kv("downtime", m.downtime)
        .kv("checkpoint_bytes", m.checkpoint_bytes)
        .kv("packets_replayed", m.packets_replayed)
        .kv("checkpointed", m.checkpointed)
        .kv("outcome", MigrationRecord::outcome_name(m.outcome))
        .kv("failed_step",
            m.outcome == MigrationRecord::Outcome::kCompleted
                ? ""
                : migration_step_name(m.failed_step))
        .kv("detail", m.detail)
        .end_object();
  }
  w.end_array();

  w.key("metrics").begin_array();
  for (const obs::MetricSample& m : metrics) {
    const char* kind = "counter";
    if (m.kind == obs::MetricSample::Kind::kGauge) kind = "gauge";
    if (m.kind == obs::MetricSample::Kind::kHistogram) kind = "histogram";
    w.begin_object().kv("key", m.key).kv("kind", kind).kv("value", m.value)
        .end_object();
  }
  w.end_array();

  w.key("trace_summary").begin_object()
      .kv("emitted", trace_summary.emitted)
      .kv("dropped", trace_summary.dropped);
  w.key("by_kind").begin_object();
  for (const auto& [kind, count] : trace_summary.by_kind) w.kv(kind, count);
  w.end_object().end_object();

  w.key("attribution");
  attribution.write_json(w);

  w.key("allocation").begin_object()
      .kv("pool_acquired", allocation.pool_acquired)
      .kv("pool_recycled", allocation.pool_recycled)
      .kv("pool_heap_fallback", allocation.pool_heap_fallback)
      .kv("pool_slab_allocs", allocation.pool_slab_allocs)
      .kv("payload_deep_copies", allocation.payload_deep_copies)
      .kv("packets", allocation.packets)
      .kv("hit_rate", allocation.hit_rate())
      .kv("allocations_per_packet", allocation.allocations_per_packet())
      .end_object();

  w.key("host").begin_object()
      .kv("cpus", static_cast<std::uint64_t>(host.cpus < 0 ? 0 : host.cpus))
      .kv("hardware_concurrency",
          static_cast<std::uint64_t>(host.hardware_concurrency))
      .kv("pinned", host.pinned)
      .kv("idle", host.idle)
      .kv("arena_hugepage_bytes", host.arena_hugepage_bytes)
      .end_object();

  w.end_object();
  return w.str();
}

}  // namespace gates::core
