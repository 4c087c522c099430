// Wire framing: encode/decode round trips, byte-level goldens pinning the
// on-wire layout, incremental reassembly at every split offset, and a
// deterministic malformed/truncated-input fuzz (run under ASan/UBSan in CI:
// no decode path may read out of bounds or crash on hostile bytes).
#include "gates/net/wire.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string_view>
#include <vector>

namespace gates::net::wire {
namespace {

ByteBuffer payload_of(const char* text) { return ByteBuffer::from_string(text); }

std::vector<std::uint8_t> gather_to_bytes(const iovec* iovs, int count) {
  std::vector<std::uint8_t> out;
  for (int i = 0; i < count; ++i) {
    const auto* p = static_cast<const std::uint8_t*>(iovs[i].iov_base);
    out.insert(out.end(), p, p + iovs[i].iov_len);
  }
  return out;
}

std::vector<std::uint8_t> encode_batch(std::uint32_t channel,
                                       const std::vector<WirePacket>& batch) {
  DataFrameEncoder enc;
  enc.begin(channel);
  for (const WirePacket& wp : batch) enc.add(wp);
  int n = 0;
  const iovec* iovs = enc.finish(&n);
  std::vector<std::uint8_t> bytes = gather_to_bytes(iovs, n);
  EXPECT_EQ(bytes.size(), enc.total_bytes());
  return bytes;
}

// -- header ------------------------------------------------------------------

TEST(WireHeader, RoundTripsEveryField) {
  FrameHeader h;
  h.type = FrameType::kAck;
  h.flags = 0xBEEF;
  h.channel = 7;
  h.count = 3;
  h.base_seq = 0x1122334455667788ull;
  h.body_bytes = 24;
  std::uint8_t buf[kHeaderBytes];
  encode_header(h, buf);
  FrameHeader d;
  ASSERT_TRUE(decode_header(buf, &d).is_ok());
  EXPECT_EQ(d.version, kVersion);
  EXPECT_EQ(d.type, FrameType::kAck);
  EXPECT_EQ(d.flags, 0xBEEF);
  EXPECT_EQ(d.channel, 7u);
  EXPECT_EQ(d.count, 3u);
  EXPECT_EQ(d.base_seq, 0x1122334455667788ull);
  EXPECT_EQ(d.body_bytes, 24u);
}

/// Byte-level golden: the layout is a cross-process ABI — any change here
/// must bump kVersion, not silently shift fields.
TEST(WireHeader, GoldenBytes) {
  FrameHeader h;
  h.type = FrameType::kEos;
  h.flags = 0x0102;
  h.channel = 0x0A0B0C0D;
  h.count = 0x01020304;
  h.base_seq = 0x1112131415161718ull;
  h.body_bytes = 0x21222324;
  std::uint8_t buf[kHeaderBytes];
  encode_header(h, buf);
  const std::uint8_t golden[kHeaderBytes] = {
      0x47, 0x54, 0x54, 0x53,              // magic "GTTS"
      0x01,                                // version
      0x03,                                // type = kEos
      0x02, 0x01,                          // flags LE
      0x0D, 0x0C, 0x0B, 0x0A,              // channel LE
      0x04, 0x03, 0x02, 0x01,              // count LE
      0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11,  // base_seq LE
      0x24, 0x23, 0x22, 0x21,              // body_bytes LE
      0x00, 0x00, 0x00, 0x00,              // reserved
  };
  EXPECT_EQ(std::memcmp(buf, golden, kHeaderBytes), 0);
}

TEST(WireHeader, RejectsBadMagicVersionTypeAndCaps) {
  FrameHeader h;
  std::uint8_t buf[kHeaderBytes];
  encode_header(h, buf);
  FrameHeader d;

  std::uint8_t bad[kHeaderBytes];
  std::memcpy(bad, buf, kHeaderBytes);
  bad[0] ^= 0xFF;
  EXPECT_FALSE(decode_header(bad, &d).is_ok());  // magic

  std::memcpy(bad, buf, kHeaderBytes);
  bad[4] = 99;
  EXPECT_FALSE(decode_header(bad, &d).is_ok());  // version

  std::memcpy(bad, buf, kHeaderBytes);
  bad[5] = 0;
  EXPECT_FALSE(decode_header(bad, &d).is_ok());  // type low
  bad[5] = 8;
  EXPECT_TRUE(decode_header(bad, &d).is_ok());   // CHECKPOINT: highest valid
  bad[5] = 9;
  EXPECT_FALSE(decode_header(bad, &d).is_ok());  // type high

  h = FrameHeader{};
  h.body_bytes = kMaxFrameBody + 1;
  encode_header(h, bad);
  EXPECT_FALSE(decode_header(bad, &d).is_ok());  // body cap

  h = FrameHeader{};
  h.count = kMaxBatchCount + 1;
  encode_header(h, bad);
  EXPECT_FALSE(decode_header(bad, &d).is_ok());  // count cap
}

// -- data frames -------------------------------------------------------------

TEST(WireData, BatchRoundTripsThroughEncoderAndDecoder) {
  std::vector<WirePacket> batch;
  for (std::uint64_t i = 0; i < 5; ++i) {
    WirePacket wp;
    wp.seq = 100 + i;
    wp.stream = static_cast<std::uint32_t>(i);
    wp.kind = 0;
    wp.records = static_cast<std::uint32_t>(1 + i);
    wp.payload = ByteBuffer::uninitialized(16 * (i + 1));
    for (std::size_t b = 0; b < wp.payload.size(); ++b) {
      wp.payload.data()[b] = static_cast<std::uint8_t>(i * 37 + b);
    }
    batch.push_back(std::move(wp));
  }
  const std::vector<std::uint8_t> bytes = encode_batch(9, batch);

  FrameHeader h;
  ASSERT_TRUE(decode_header(bytes.data(), &h).is_ok());
  EXPECT_EQ(h.type, FrameType::kData);
  EXPECT_EQ(h.channel, 9u);
  EXPECT_EQ(h.count, 5u);
  EXPECT_EQ(h.base_seq, 100u);
  ASSERT_EQ(bytes.size(), kHeaderBytes + h.body_bytes);

  std::vector<WirePacket> decoded;
  ASSERT_TRUE(decode_data_body(bytes.data() + kHeaderBytes, h.body_bytes,
                               h.count, &decoded)
                  .is_ok());
  ASSERT_EQ(decoded.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(decoded[i].seq, 100 + i);
    EXPECT_EQ(decoded[i].stream, i);
    EXPECT_EQ(decoded[i].records, 1 + i);
    ASSERT_EQ(decoded[i].payload.size(), 16 * (i + 1));
    EXPECT_EQ(std::memcmp(decoded[i].payload.data(), batch[i].payload.data(),
                          decoded[i].payload.size()),
              0);
    // The decode landed in a fresh arena block, not an alias of the source.
    EXPECT_FALSE(decoded[i].payload.shares_storage(batch[i].payload));
  }
}

TEST(WireData, EncoderAliasesPayloadsInsteadOfCopying) {
  WirePacket wp;
  wp.seq = 1;
  wp.payload = payload_of("zero-copy payload bytes");
  DataFrameEncoder enc;
  enc.begin(0);
  enc.add(wp);
  int n = 0;
  const iovec* iovs = enc.finish(&n);
  ASSERT_EQ(n, 2);  // staging + one payload span
  EXPECT_EQ(iovs[1].iov_base, static_cast<const void*>(wp.payload.data()));
  EXPECT_EQ(iovs[1].iov_len, wp.payload.size());
}

TEST(WireData, EmptyBatchAndEmptyPayloadsAreValid) {
  const std::vector<std::uint8_t> empty = encode_batch(3, {});
  FrameHeader h;
  ASSERT_TRUE(decode_header(empty.data(), &h).is_ok());
  EXPECT_EQ(h.count, 0u);
  EXPECT_EQ(h.body_bytes, 0u);

  WirePacket no_payload;
  no_payload.seq = 42;
  const std::vector<std::uint8_t> bytes = encode_batch(3, {no_payload});
  ASSERT_TRUE(decode_header(bytes.data(), &h).is_ok());
  std::vector<WirePacket> decoded;
  ASSERT_TRUE(decode_data_body(bytes.data() + kHeaderBytes, h.body_bytes,
                               h.count, &decoded)
                  .is_ok());
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].seq, 42u);
  EXPECT_TRUE(decoded[0].payload.empty());
}

TEST(WireData, RejectsTruncatedAndOversizedBodies) {
  WirePacket wp;
  wp.seq = 7;
  wp.payload = payload_of("0123456789abcdef");
  const std::vector<std::uint8_t> bytes = encode_batch(0, {wp});
  FrameHeader h;
  ASSERT_TRUE(decode_header(bytes.data(), &h).is_ok());
  const std::uint8_t* body = bytes.data() + kHeaderBytes;
  std::vector<WirePacket> out;
  // Truncated before the metadata records.
  EXPECT_FALSE(decode_data_body(body, kMetaBytes - 1, 1, &out).is_ok());
  // Truncated inside the payload.
  EXPECT_FALSE(decode_data_body(body, h.body_bytes - 1, 1, &out).is_ok());
  // Trailing garbage after the payloads.
  std::vector<std::uint8_t> longer(body, body + h.body_bytes);
  longer.push_back(0xAA);
  EXPECT_FALSE(decode_data_body(longer.data(), longer.size(), 1, &out).is_ok());
}

// -- ack / control / rpc frames ----------------------------------------------

TEST(WireAck, RoundTripsAndValidatesSize) {
  const std::vector<std::uint64_t> seqs{1, 5, 0xFFFFFFFFFFFFFFFFull};
  std::vector<std::uint8_t> bytes;
  encode_ack_frame(4, seqs, &bytes);
  FrameHeader h;
  ASSERT_TRUE(decode_header(bytes.data(), &h).is_ok());
  EXPECT_EQ(h.type, FrameType::kAck);
  EXPECT_EQ(h.count, 3u);
  std::vector<std::uint64_t> out;
  ASSERT_TRUE(decode_ack_body(bytes.data() + kHeaderBytes, h.body_bytes,
                              h.count, &out)
                  .is_ok());
  EXPECT_EQ(out, seqs);
  // count/body mismatch is rejected.
  out.clear();
  EXPECT_FALSE(decode_ack_body(bytes.data() + kHeaderBytes, h.body_bytes,
                               h.count + 1, &out)
                   .is_ok());
}

TEST(WireRpc, RoundTripsMethodAndBody) {
  std::vector<std::uint8_t> bytes;
  encode_rpc_frame(FrameType::kRpcRequest, 0, 77, "deploy",
                   "<deploy a=\"1\"/>", &bytes);
  FrameHeader h;
  ASSERT_TRUE(decode_header(bytes.data(), &h).is_ok());
  EXPECT_EQ(h.type, FrameType::kRpcRequest);
  EXPECT_EQ(h.base_seq, 77u);
  std::string_view method, body;
  ASSERT_TRUE(
      decode_rpc_body(bytes.data() + kHeaderBytes, h.body_bytes, &method, &body)
          .is_ok());
  EXPECT_EQ(method, "deploy");
  EXPECT_EQ(body, "<deploy a=\"1\"/>");
}

/// Golden layout of a CHECKPOINT frame: a plain header (type 8, base_seq =
/// transfer id, body_bytes = state size, count 0) followed by the state
/// bytes verbatim; decoding the header gives every field back.
TEST(WireCheckpoint, GoldenLayoutAndRoundTrip) {
  std::vector<std::uint8_t> bytes;
  encode_checkpoint_frame(0x0A0B0C0D, 0x1112131415161718ull,
                          std::string_view("\x01st\x00", 4), &bytes);
  const std::uint8_t golden[kHeaderBytes + 4] = {
      0x47, 0x54, 0x54, 0x53,              // magic "GTTS"
      0x01,                                // version
      0x08,                                // type = kCheckpoint
      0x00, 0x00,                          // flags
      0x0D, 0x0C, 0x0B, 0x0A,              // channel LE
      0x00, 0x00, 0x00, 0x00,              // count
      0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11,  // transfer id LE
      0x04, 0x00, 0x00, 0x00,              // body_bytes LE
      0x00, 0x00, 0x00, 0x00,              // reserved
      0x01, 0x73, 0x74, 0x00,              // the state, verbatim
  };
  ASSERT_EQ(bytes.size(), sizeof(golden));
  EXPECT_EQ(std::memcmp(bytes.data(), golden, sizeof(golden)), 0);

  FrameHeader h;
  ASSERT_TRUE(decode_header(bytes.data(), &h).is_ok());
  EXPECT_EQ(h.type, FrameType::kCheckpoint);
  EXPECT_EQ(h.channel, 0x0A0B0C0Du);
  EXPECT_EQ(h.base_seq, 0x1112131415161718ull);
  ASSERT_EQ(h.body_bytes, 4u);
  EXPECT_EQ(std::string_view(
                reinterpret_cast<const char*>(bytes.data() + kHeaderBytes),
                h.body_bytes),
            std::string_view("\x01st\x00", 4));

  // An empty state is a valid (declined) checkpoint: header only.
  encode_checkpoint_frame(1, 2, {}, &bytes);
  ASSERT_EQ(bytes.size(), kHeaderBytes);
  ASSERT_TRUE(decode_header(bytes.data(), &h).is_ok());
  EXPECT_EQ(h.body_bytes, 0u);
}

TEST(WireRpc, RejectsShortAndLyingBodies) {
  std::string_view method, body;
  const std::uint8_t short_body[3] = {1, 2, 3};
  EXPECT_FALSE(decode_rpc_body(short_body, 3, &method, &body).is_ok());
  // Method length claims more bytes than the body holds.
  std::uint8_t lying[8] = {0xFF, 0xFF, 0xFF, 0x7F, 'a', 'b', 'c', 'd'};
  EXPECT_FALSE(decode_rpc_body(lying, 8, &method, &body).is_ok());
}

// -- incremental reassembly --------------------------------------------------

/// Three frames fed through the assembler split at EVERY byte offset: the
/// reassembled stream must be identical regardless of how the transport
/// fragments it.
TEST(WireAssembler, ReassemblesAcrossEverySplitOffset) {
  std::vector<std::uint8_t> stream;
  {
    WirePacket wp;
    wp.seq = 9;
    wp.payload = payload_of("first frame payload");
    const auto data = encode_batch(2, {wp});
    stream.insert(stream.end(), data.begin(), data.end());
    std::vector<std::uint8_t> ack;
    encode_ack_frame(2, {9}, &ack);
    stream.insert(stream.end(), ack.begin(), ack.end());
    std::vector<std::uint8_t> eos;
    encode_control_frame(FrameType::kEos, 2, 10, &eos);
    stream.insert(stream.end(), eos.begin(), eos.end());
  }
  for (std::size_t split = 0; split <= stream.size(); ++split) {
    FrameAssembler fa;
    ASSERT_TRUE(fa.feed(stream.data(), split).is_ok());
    std::vector<Frame> frames;
    for (;;) {
      auto f = fa.next();
      ASSERT_TRUE(f.ok()) << "split=" << split;
      if (!f.value().has_value()) break;
      frames.push_back(std::move(**f));
    }
    ASSERT_TRUE(fa.feed(stream.data() + split, stream.size() - split).is_ok());
    for (;;) {
      auto f = fa.next();
      ASSERT_TRUE(f.ok()) << "split=" << split;
      if (!f.value().has_value()) break;
      frames.push_back(std::move(**f));
    }
    ASSERT_EQ(frames.size(), 3u) << "split=" << split;
    EXPECT_EQ(frames[0].header.type, FrameType::kData);
    EXPECT_EQ(frames[1].header.type, FrameType::kAck);
    EXPECT_EQ(frames[2].header.type, FrameType::kEos);
    EXPECT_EQ(frames[2].header.base_seq, 10u);
    std::vector<WirePacket> decoded;
    ASSERT_TRUE(decode_data_body(frames[0].body.data(),
                                 frames[0].body.size(), frames[0].header.count,
                                 &decoded)
                    .is_ok());
    ASSERT_EQ(decoded.size(), 1u);
    EXPECT_EQ(decoded[0].seq, 9u);
  }
}

TEST(WireAssembler, PoisonsOnProtocolViolationAndStaysPoisoned) {
  FrameAssembler fa;
  std::vector<std::uint8_t> junk(kHeaderBytes, 0x5A);
  ASSERT_TRUE(fa.feed(junk.data(), junk.size()).is_ok());
  auto f = fa.next();
  EXPECT_FALSE(f.ok());
  // Every later call keeps failing: no resync on an untrusted stream.
  EXPECT_FALSE(fa.next().ok());
  EXPECT_FALSE(fa.feed(junk.data(), 1).is_ok());
}

// -- deterministic fuzz ------------------------------------------------------

/// Splitmix-style LCG: deterministic across platforms, so a CI failure is
/// reproducible from the seed in the assertion message.
struct Lcg {
  std::uint64_t s;
  std::uint64_t next() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s >> 17;
  }
};

/// Decoders must reject or accept — never crash or over-read — arbitrary
/// mutations of valid frames and pure noise (ASan/UBSan jobs make memory
/// violations fail loudly).
TEST(WireFuzz, MutatedFramesNeverCrashDecoders) {
  WirePacket wp;
  wp.seq = 3;
  wp.records = 2;
  wp.payload = payload_of("payload to be mangled by the fuzzer");
  const std::vector<std::uint8_t> valid = encode_batch(1, {wp});

  Lcg rng{0x9E3779B97F4A7C15ull};
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> bytes = valid;
    // 1-4 random byte mutations.
    const int mutations = 1 + static_cast<int>(rng.next() % 4);
    for (int m = 0; m < mutations; ++m) {
      bytes[rng.next() % bytes.size()] =
          static_cast<std::uint8_t>(rng.next() & 0xFF);
    }
    // Random truncation half the time.
    if ((rng.next() & 1) != 0) bytes.resize(rng.next() % (bytes.size() + 1));

    FrameAssembler fa;
    if (!fa.feed(bytes.data(), bytes.size()).is_ok()) continue;
    for (;;) {
      auto f = fa.next();
      if (!f.ok() || !f.value().has_value()) break;
      const Frame& frame = **f;
      // Whatever frame the header claims, run the matching body decoder.
      std::vector<WirePacket> packets;
      std::vector<std::uint64_t> acks;
      std::string_view method, body;
      switch (frame.header.type) {
        case FrameType::kData:
          (void)decode_data_body(frame.body.data(), frame.body.size(),
                                 frame.header.count, &packets);
          break;
        case FrameType::kAck:
          (void)decode_ack_body(frame.body.data(), frame.body.size(),
                                frame.header.count, &acks);
          break;
        case FrameType::kRpcRequest:
        case FrameType::kRpcResponse:
          (void)decode_rpc_body(frame.body.data(), frame.body.size(), &method,
                                &body);
          break;
        default:
          break;
      }
    }
  }
}

TEST(WireFuzz, PureNoiseStreamsNeverCrashAssembler) {
  Lcg rng{0xD1B54A32D192ED03ull};
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<std::uint8_t> noise(rng.next() % 512);
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng.next() & 0xFF);
    // Occasionally lead with valid magic so the fuzz reaches deeper fields.
    if (noise.size() >= 4 && (rng.next() & 1) != 0) {
      noise[0] = 0x47;
      noise[1] = 0x54;
      noise[2] = 0x54;
      noise[3] = 0x53;
    }
    FrameAssembler fa;
    std::size_t fed = 0;
    while (fed < noise.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(1 + rng.next() % 64, noise.size() - fed);
      if (!fa.feed(noise.data() + fed, chunk).is_ok()) break;
      fed += chunk;
      auto f = fa.next();
      if (!f.ok()) break;
    }
  }
}

}  // namespace
}  // namespace gates::net::wire
