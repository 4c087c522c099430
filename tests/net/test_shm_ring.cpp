// ShmRing (SPSC byte ring in POSIX shared memory) and ShmRemoteLink: record
// round trips including wraparound, cross-"process" attach semantics (two
// mappings of the same segment in one test process), close propagation, and
// the full RemoteLink frame path over shared memory, and the parks: a blocked
// reader wakes through the process-shared futex and an idle one sleeps.
#include "gates/net/shm_link.hpp"
#include "gates/net/shm_ring.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

namespace gates::net {
namespace {

/// Unique-per-process segment names so parallel ctest runs never collide;
/// POSIX shm names must lead with '/'.
std::string ring_name(const char* tag) {
  return "/gates-test-" + std::to_string(::getpid()) + "-" + tag;
}

IdleConfig test_idle() { return IdleConfig::balanced(); }

TEST(ShmRing, CreateAttachRoundTrip) {
  const std::string name = ring_name("rt");
  auto writer = ShmRing::create(name, 4096);
  ASSERT_TRUE(writer.ok()) << writer.status().to_string();
  auto reader = ShmRing::attach(name, 2.0);
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();

  const std::uint8_t msg[] = "hello over shared memory";
  ASSERT_TRUE((*writer)->write(msg, sizeof(msg), test_idle()).is_ok());

  std::vector<std::uint8_t> out;
  auto got = (*reader)->try_read(&out);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got.value());
  ASSERT_EQ(out.size(), sizeof(msg));
  EXPECT_EQ(std::memcmp(out.data(), msg, sizeof(msg)), 0);

  // Empty ring: false, not an error.
  got = (*reader)->try_read(&out);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got.value());
}

TEST(ShmRing, CreateFailsOnLiveName) {
  const std::string name = ring_name("dup");
  auto first = ShmRing::create(name, 4096);
  ASSERT_TRUE(first.ok());
  auto second = ShmRing::create(name, 4096);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kAlreadyExists);
}

TEST(ShmRing, RejectsOversizeRecord) {
  const std::string name = ring_name("big");
  auto ring = ShmRing::create(name, 1024);
  ASSERT_TRUE(ring.ok());
  std::vector<std::uint8_t> huge((*ring)->max_record_bytes() + 1, 0xAB);
  EXPECT_FALSE((*ring)->write(huge.data(), huge.size(), test_idle()).is_ok());
}

/// Many variable-size records through a small ring: wraparound markers and
/// the 8-alignment padding must be invisible to the reader.
TEST(ShmRing, WrapAroundPreservesRecordBytes) {
  const std::string name = ring_name("wrap");
  auto writer = ShmRing::create(name, 1024);
  ASSERT_TRUE(writer.ok());
  auto reader = ShmRing::attach(name, 2.0);
  ASSERT_TRUE(reader.ok());

  std::vector<std::uint8_t> out;
  for (int i = 0; i < 500; ++i) {
    std::vector<std::uint8_t> rec(1 + (i * 13) % 200);
    for (std::size_t b = 0; b < rec.size(); ++b) {
      rec[b] = static_cast<std::uint8_t>(i + b);
    }
    ASSERT_TRUE(
        (*writer)->write(rec.data(), rec.size(), test_idle()).is_ok());
    auto got = (*reader)->try_read(&out);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got.value()) << "record " << i;
    ASSERT_EQ(out.size(), rec.size()) << "record " << i;
    EXPECT_EQ(std::memcmp(out.data(), rec.data(), rec.size()), 0)
        << "record " << i;
  }
}

TEST(ShmRing, GatherWriteEqualsContiguousWrite) {
  const std::string name = ring_name("gather");
  auto writer = ShmRing::create(name, 4096);
  ASSERT_TRUE(writer.ok());
  auto reader = ShmRing::attach(name, 2.0);
  ASSERT_TRUE(reader.ok());

  const char* parts[3] = {"header|", "meta-meta-meta|", "payload bytes"};
  iovec iovs[3];
  std::size_t total = 0;
  for (int i = 0; i < 3; ++i) {
    iovs[i].iov_base = const_cast<char*>(parts[i]);
    iovs[i].iov_len = std::strlen(parts[i]);
    total += iovs[i].iov_len;
  }
  ASSERT_TRUE((*writer)->write_gather(iovs, 3, total, test_idle()).is_ok());

  std::vector<std::uint8_t> out;
  auto got = (*reader)->try_read(&out);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got.value());
  const std::string joined = "header|meta-meta-meta|payload bytes";
  ASSERT_EQ(out.size(), joined.size());
  EXPECT_EQ(std::memcmp(out.data(), joined.data(), joined.size()), 0);
}

TEST(ShmRing, BlockedWriterUnblocksWhenReaderDrains) {
  const std::string name = ring_name("bp");
  auto writer = ShmRing::create(name, 1024);
  ASSERT_TRUE(writer.ok());
  auto reader = ShmRing::attach(name, 2.0);
  ASSERT_TRUE(reader.ok());

  // Fill the ring past capacity from another thread; the writer must block
  // (not fail) until the reader catches up.
  std::vector<std::uint8_t> rec(128, 0xCD);
  std::atomic<int> written{0};
  std::thread producer([&] {
    for (int i = 0; i < 64; ++i) {
      if (!(*writer)->write(rec.data(), rec.size(), test_idle()).is_ok()) {
        break;
      }
      written.fetch_add(1);
    }
  });
  std::vector<std::uint8_t> out;
  int read = 0;
  while (read < 64) {
    auto got = (*reader)->try_read(&out);
    ASSERT_TRUE(got.ok());
    if (got.value()) ++read;
  }
  producer.join();
  EXPECT_EQ(written.load(), 64);
}

TEST(ShmRing, CloseUnblocksAndFailsPeerWrites) {
  const std::string name = ring_name("close");
  auto writer = ShmRing::create(name, 1024);
  ASSERT_TRUE(writer.ok());
  auto reader = ShmRing::attach(name, 2.0);
  ASSERT_TRUE(reader.ok());
  (*reader)->close_ring();
  std::vector<std::uint8_t> rec(900, 0);  // larger than free space after fill
  // Writes observe the close (immediately or after the ring fills).
  Status last = Status::ok();
  for (int i = 0; i < 16 && last.is_ok(); ++i) {
    last = (*writer)->write(rec.data(), 128, test_idle());
  }
  EXPECT_FALSE(last.is_ok());
}

// -- ShmRemoteLink ----------------------------------------------------------

TEST(ShmRemoteLink, DataAcksAndEosCrossTheLink) {
  const std::string base = ring_name("link");
  auto server = ShmRemoteLink::serve(base, 5, "srv", 1u << 16, test_idle());
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  auto client = ShmRemoteLink::dial(base, 5, "cli", 2.0, test_idle());
  ASSERT_TRUE(client.ok()) << client.status().to_string();

  std::vector<wire::WirePacket> batch;
  for (std::uint64_t i = 0; i < 8; ++i) {
    wire::WirePacket wp;
    wp.seq = i;
    wp.stream = 1;
    wp.records = 1;
    wp.payload = ByteBuffer::uninitialized(64);
    for (std::size_t b = 0; b < 64; ++b) {
      wp.payload.data()[b] = static_cast<std::uint8_t>(i * 131 + b * 7);
    }
    batch.push_back(std::move(wp));
  }
  std::vector<wire::WirePacket> sent = batch;  // COW aliases for comparison
  ASSERT_TRUE((*client)->send_data(batch).is_ok());
  ASSERT_TRUE((*client)->send_eos(8).is_ok());

  // Server drains data then EOS.
  std::vector<wire::WirePacket> received;
  bool eos = false;
  while (!eos) {
    auto ev = (*server)->recv(1.0);
    ASSERT_TRUE(ev.ok()) << ev.status().to_string();
    if (ev->kind == RecvEvent::Kind::kData) {
      for (auto& wp : ev->packets) received.push_back(std::move(wp));
    } else if (ev->kind == RecvEvent::Kind::kEos) {
      EXPECT_EQ(ev->base_seq, 8u);
      eos = true;
    }
  }
  ASSERT_EQ(received.size(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(received[i].seq, i);
    ASSERT_EQ(received[i].payload.size(), 64u);
    EXPECT_EQ(std::memcmp(received[i].payload.data(), sent[i].payload.data(),
                          64),
              0);
  }

  // Acks flow the other way.
  ASSERT_TRUE((*server)->send_acks({0, 1, 2, 3, 4, 5, 6, 7, 8}).is_ok());
  auto ev = (*client)->recv(1.0);
  ASSERT_TRUE(ev.ok());
  ASSERT_EQ(ev->kind, RecvEvent::Kind::kAcks);
  EXPECT_EQ(ev->acks.size(), 9u);

  const WireStats& cs = (*client)->stats();
  EXPECT_EQ(cs.packets_out.load(), 8u);
  EXPECT_EQ(cs.acks_in.load(), 9u);
}

/// A batch bigger than a ring slot must be split transparently.
TEST(ShmRemoteLink, OversizeBatchSplitsAcrossFrames) {
  const std::string base = ring_name("split");
  // 16 KiB ring: max record 8 KiB, so 8 x 2 KiB payloads cannot ship as one
  // frame.
  auto server = ShmRemoteLink::serve(base, 0, "srv", 1u << 14, test_idle());
  ASSERT_TRUE(server.ok());
  auto client = ShmRemoteLink::dial(base, 0, "cli", 2.0, test_idle());
  ASSERT_TRUE(client.ok());

  std::thread sender([&] {
    std::vector<wire::WirePacket> batch;
    for (std::uint64_t i = 0; i < 8; ++i) {
      wire::WirePacket wp;
      wp.seq = i;
      wp.payload = ByteBuffer::uninitialized(2048);
      std::memset(wp.payload.data(), static_cast<int>(i), 2048);
      batch.push_back(std::move(wp));
    }
    ASSERT_TRUE((*client)->send_data(batch).is_ok());
  });

  std::size_t got = 0;
  while (got < 8) {
    auto ev = (*server)->recv(2.0);
    ASSERT_TRUE(ev.ok()) << ev.status().to_string();
    if (ev->kind != RecvEvent::Kind::kData) continue;
    for (const auto& wp : ev->packets) {
      ASSERT_EQ(wp.payload.size(), 2048u);
      EXPECT_EQ(wp.payload.data()[0], static_cast<std::uint8_t>(wp.seq));
      ++got;
    }
  }
  sender.join();
}

double thread_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// An idle link must sleep, not burn its thread's CPU, while recv() waits
/// on an empty ring with the default idle config.
TEST(ShmRemoteLink, IdleRecvSleepsInsteadOfSpinning) {
  const std::string base = ring_name("idle");
  auto server = ShmRemoteLink::serve(base, 0, "srv", 1u << 14);
  ASSERT_TRUE(server.ok());
  const auto wall_start = std::chrono::steady_clock::now();
  const double cpu_start = thread_cpu_seconds();
  auto ev = (*server)->recv(0.2);
  const double cpu = thread_cpu_seconds() - cpu_start;
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_start)
                          .count();
  ASSERT_TRUE(ev.ok());
  EXPECT_EQ(ev->kind, RecvEvent::Kind::kNone);
  EXPECT_GE(wall, 0.2);
  EXPECT_LT(cpu, 0.5 * wall) << "cpu " << cpu << " s over " << wall << " s";
}

/// The reader parks on the `serve` mapping and the writer notifies through
/// the `dial` mapping of the same segments: one process, two virtual
/// addresses, as a co-located peer would be. A process-private futex is
/// keyed by address and would sleep through the notify to the 5 s timeout.
TEST(ShmRemoteLink, BlockedRecvWakesThroughTheOtherMapping) {
  const std::string base = ring_name("xmap");
  auto server = ShmRemoteLink::serve(base, 0, "srv", 1u << 14,
                                     IdleConfig::park());
  ASSERT_TRUE(server.ok());
  auto client = ShmRemoteLink::dial(base, 0, "cli", 2.0, IdleConfig::park());
  ASSERT_TRUE(client.ok());
  std::atomic<bool> receiving{false};
  std::chrono::steady_clock::time_point sent_at;
  std::thread writer([&] {
    while (!receiving.load()) std::this_thread::yield();
    // Let the reader reach its park.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    sent_at = std::chrono::steady_clock::now();
    ASSERT_TRUE((*client)->send_eos(42).is_ok());
  });
  receiving.store(true);
  auto ev = (*server)->recv(5.0);
  const auto returned_at = std::chrono::steady_clock::now();
  writer.join();
  ASSERT_TRUE(ev.ok()) << ev.status().to_string();
  EXPECT_EQ(ev->kind, RecvEvent::Kind::kEos);
  EXPECT_EQ(ev->base_seq, 42u);
  EXPECT_LT(returned_at - sent_at, std::chrono::milliseconds(50));
}

long voluntary_switches() {
  rusage usage{};
  ::getrusage(RUSAGE_THREAD, &usage);
  return usage.ru_nvcsw;
}

/// An idle recv parks on the futex until its deadline instead of waking to
/// poll: a 0.2 s wait makes a handful of context switches, not thousands.
TEST(ShmRemoteLink, IdleRecvParksUntilAFrameArrives) {
  const std::string base = ring_name("park");
  auto server = ShmRemoteLink::serve(base, 0, "srv", 1u << 14);
  ASSERT_TRUE(server.ok());
  const long before = voluntary_switches();
  auto ev = (*server)->recv(0.2);
  const long switches = voluntary_switches() - before;
  ASSERT_TRUE(ev.ok());
  EXPECT_EQ(ev->kind, RecvEvent::Kind::kNone);
  EXPECT_LE(switches, 10) << "voluntary context switches in one idle recv";
}

/// A checkpoint travels as a control frame: send_control(kCheckpoint)
/// carries the transfer id and the state bytes through the ring.
TEST(ShmRemoteLink, CheckpointControlFrameRoundTrips) {
  const std::string base = ring_name("ckpt");
  auto server = ShmRemoteLink::serve(base, 3, "srv", 1u << 14, test_idle());
  ASSERT_TRUE(server.ok());
  auto client = ShmRemoteLink::dial(base, 3, "cli", 2.0, test_idle());
  ASSERT_TRUE(client.ok());
  std::string state = "stage state";
  state.push_back('\0');
  state.push_back('\xff');
  ASSERT_TRUE((*client)
                  ->send_control(wire::FrameType::kCheckpoint, 77, {}, state)
                  .is_ok());
  auto ev = (*server)->recv(1.0);
  ASSERT_TRUE(ev.ok()) << ev.status().to_string();
  ASSERT_EQ(ev->kind, RecvEvent::Kind::kCheckpoint);
  EXPECT_EQ(ev->base_seq, 77u);
  ASSERT_EQ(ev->body.size(), state.size());
  EXPECT_EQ(std::memcmp(ev->body.data(), state.data(), state.size()), 0);
}

TEST(ShmRemoteLink, ReconnectIsUnsupported) {
  const std::string base = ring_name("noreconn");
  auto server = ShmRemoteLink::serve(base, 0, "srv", 1u << 14, test_idle());
  ASSERT_TRUE(server.ok());
  EXPECT_FALSE((*server)->reconnect().is_ok());
}

}  // namespace
}  // namespace gates::net
