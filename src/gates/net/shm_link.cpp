#include "gates/net/shm_link.hpp"

#include <algorithm>
#include <cstring>

namespace gates::net {

StatusOr<std::shared_ptr<ShmRemoteLink>> ShmRemoteLink::serve(
    const std::string& base, std::uint32_t channel, std::string name,
    std::size_t ring_bytes, IdleConfig idle) {
  auto data = ShmRing::create(base + ".d", ring_bytes);
  if (!data.ok()) return data.status();
  auto ack = ShmRing::create(base + ".a", ring_bytes);
  if (!ack.ok()) return ack.status();
  auto link = std::shared_ptr<ShmRemoteLink>(new ShmRemoteLink());
  link->name_ = std::move(name);
  link->channel_id_ = channel;
  link->server_ = true;
  link->data_ring_ = std::move(data.value());
  link->ack_ring_ = std::move(ack.value());
  link->idle_ = idle;
  return link;
}

StatusOr<std::shared_ptr<ShmRemoteLink>> ShmRemoteLink::dial(
    const std::string& base, std::uint32_t channel, std::string name,
    double attach_timeout_seconds, IdleConfig idle) {
  auto data = ShmRing::attach(base + ".d", attach_timeout_seconds);
  if (!data.ok()) return data.status();
  auto ack = ShmRing::attach(base + ".a", attach_timeout_seconds);
  if (!ack.ok()) return ack.status();
  auto link = std::shared_ptr<ShmRemoteLink>(new ShmRemoteLink());
  link->name_ = std::move(name);
  link->channel_id_ = channel;
  link->server_ = false;
  link->data_ring_ = std::move(data.value());
  link->ack_ring_ = std::move(ack.value());
  link->idle_ = idle;
  return link;
}

ShmRemoteLink::~ShmRemoteLink() { close(); }

void ShmRemoteLink::close() {
  if (data_ring_) data_ring_->close_ring();
  if (ack_ring_) ack_ring_->close_ring();
}

Status ShmRemoteLink::send_data_range(std::vector<wire::WirePacket>& batch,
                                      std::size_t first, std::size_t last) {
  encoder_.begin(channel_id_);
  for (std::size_t i = first; i < last; ++i) encoder_.add(batch[i]);
  int iov_count = 0;
  const iovec* iovs = encoder_.finish(&iov_count);
  Status s = data_ring_->write_gather(iovs, iov_count, encoder_.total_bytes(),
                                      idle_);
  if (!s.is_ok()) return s;
  stats_.frames_out.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_out.fetch_add(encoder_.total_bytes(),
                             std::memory_order_relaxed);
  stats_.packets_out.fetch_add(last - first, std::memory_order_relaxed);
  return Status::ok();
}

Status ShmRemoteLink::send_data(std::vector<wire::WirePacket>& batch) {
  // Split so every frame fits a ring slot with headroom: a quarter of the
  // ring keeps the writer from serializing against the reader on every
  // frame when payloads are large.
  const std::size_t frame_cap =
      std::max<std::size_t>(data_ring_->capacity() / 4,
                            wire::kHeaderBytes + wire::kMetaBytes + 4096);
  std::size_t first = 0;
  std::size_t bytes = wire::kHeaderBytes;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::size_t packet_bytes =
        wire::kMetaBytes + batch[i].payload.size();
    if (wire::kHeaderBytes + wire::kMetaBytes + batch[i].payload.size() >
        data_ring_->max_record_bytes()) {
      return invalid_argument("shm link: packet larger than ring (" +
                              std::to_string(batch[i].payload.size()) +
                              " payload bytes)");
    }
    if (i > first && bytes + packet_bytes > frame_cap) {
      if (auto s = send_data_range(batch, first, i); !s.is_ok()) return s;
      first = i;
      bytes = wire::kHeaderBytes;
    }
    bytes += packet_bytes;
  }
  if (auto s = send_data_range(batch, first, batch.size()); !s.is_ok()) {
    return s;
  }
  // Same contract as the TCP link: payloads are released on success.
  for (auto& wp : batch) wp.payload = ByteBuffer();
  return Status::ok();
}

Status ShmRemoteLink::send_acks(const std::vector<std::uint64_t>& seqs) {
  wire::encode_ack_frame(channel_id_, seqs, &frame_scratch_);
  ShmRing& ring = server_ ? *ack_ring_ : *data_ring_;
  Status s = ring.write(frame_scratch_.data(), frame_scratch_.size(), idle_);
  if (!s.is_ok()) return s;
  stats_.frames_out.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_out.fetch_add(frame_scratch_.size(),
                             std::memory_order_relaxed);
  stats_.acks_out.fetch_add(seqs.size(), std::memory_order_relaxed);
  return Status::ok();
}

Status ShmRemoteLink::send_eos(std::uint64_t seq) {
  return send_control(wire::FrameType::kEos, seq, {}, {});
}

Status ShmRemoteLink::send_control(wire::FrameType type,
                                   std::uint64_t base_seq,
                                   std::string_view method,
                                   std::string_view body) {
  if (type == wire::FrameType::kCheckpoint) {
    wire::encode_checkpoint_frame(channel_id_, base_seq, body,
                                  &frame_scratch_);
  } else if (method.empty() && body.empty()) {
    wire::encode_control_frame(type, channel_id_, base_seq, &frame_scratch_);
  } else {
    wire::encode_rpc_frame(type, channel_id_, base_seq, method, body,
                           &frame_scratch_);
  }
  // Whichever ring this side writes carries its control frames too (EOS
  // travels with data, reverse control with acks).
  ShmRing& ring = server_ ? *ack_ring_ : *data_ring_;
  Status s = ring.write(frame_scratch_.data(), frame_scratch_.size(), idle_);
  if (!s.is_ok()) return s;
  stats_.frames_out.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_out.fetch_add(frame_scratch_.size(),
                             std::memory_order_relaxed);
  return Status::ok();
}

StatusOr<RecvEvent> ShmRemoteLink::decode_record(
    const std::vector<std::uint8_t>& rec) {
  if (rec.size() < wire::kHeaderBytes) {
    return invalid_argument("shm link: runt frame record");
  }
  wire::FrameHeader h;
  if (auto s = wire::decode_header(rec.data(), &h); !s.is_ok()) return s;
  if (rec.size() != wire::kHeaderBytes + h.body_bytes) {
    return invalid_argument("shm link: frame body size mismatch");
  }
  const std::uint8_t* body = rec.data() + wire::kHeaderBytes;
  RecvEvent event;
  stats_.frames_in.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_in.fetch_add(rec.size(), std::memory_order_relaxed);
  switch (h.type) {
    case wire::FrameType::kData: {
      event.kind = RecvEvent::Kind::kData;
      if (auto s = wire::decode_data_body(body, h.body_bytes, h.count,
                                          &event.packets);
          !s.is_ok()) {
        return s;
      }
      stats_.packets_in.fetch_add(event.packets.size(),
                                  std::memory_order_relaxed);
      return event;
    }
    case wire::FrameType::kAck: {
      event.kind = RecvEvent::Kind::kAcks;
      if (auto s = wire::decode_ack_body(body, h.body_bytes, h.count,
                                         &event.acks);
          !s.is_ok()) {
        return s;
      }
      stats_.acks_in.fetch_add(event.acks.size(), std::memory_order_relaxed);
      return event;
    }
    case wire::FrameType::kEos:
      event.kind = RecvEvent::Kind::kEos;
      event.base_seq = h.base_seq;
      return event;
    case wire::FrameType::kHello:
      event.kind = RecvEvent::Kind::kHello;
      event.base_seq = h.base_seq;
      return event;
    case wire::FrameType::kShutdown:
      event.kind = RecvEvent::Kind::kShutdown;
      event.base_seq = h.base_seq;
      return event;
    case wire::FrameType::kCheckpoint:
      event.kind = RecvEvent::Kind::kCheckpoint;
      event.base_seq = h.base_seq;
      event.body = ByteBuffer::from_string(std::string_view(
          reinterpret_cast<const char*>(body), h.body_bytes));
      return event;
    case wire::FrameType::kRpcRequest:
    case wire::FrameType::kRpcResponse: {
      event.kind = h.type == wire::FrameType::kRpcRequest
                       ? RecvEvent::Kind::kRpcRequest
                       : RecvEvent::Kind::kRpcResponse;
      event.base_seq = h.base_seq;
      std::string_view method, payload;
      if (auto s = wire::decode_rpc_body(body, h.body_bytes, &method,
                                         &payload);
          !s.is_ok()) {
        return s;
      }
      event.method.assign(method);
      event.body = ByteBuffer::from_string(payload);
      return event;
    }
  }
  return invalid_argument("shm link: unhandled frame type");
}

StatusOr<RecvEvent> ShmRemoteLink::recv(double timeout_seconds) {
  ShmRing& ring = server_ ? *data_ring_ : *ack_ring_;
  auto got = ring.read(&record_, deadline_after(timeout_seconds), idle_);
  if (!got.ok()) return got.status();
  if (!got.value()) return RecvEvent{};  // Kind::kNone
  return decode_record(record_);
}

}  // namespace gates::net
