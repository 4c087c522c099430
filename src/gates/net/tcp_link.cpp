#include "gates/net/tcp_link.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "gates/common/clock.hpp"

namespace gates::net {
namespace {

Status errno_status(const char* what) {
  return unavailable(std::string(what) + ": " + std::strerror(errno));
}

Status set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return errno_status("fcntl(O_NONBLOCK)");
  }
  return Status::ok();
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Waits for `events` on fd; unavailable on timeout/hangup.
Status poll_fd(int fd, short events, double timeout_seconds) {
  pollfd p{fd, events, 0};
  const int ms = timeout_seconds < 0
                     ? -1
                     : static_cast<int>(timeout_seconds * 1000.0 + 0.5);
  const int r = ::poll(&p, 1, ms);
  if (r < 0) return errno_status("poll");
  if (r == 0) return unavailable("poll timeout");
  if (p.revents & (POLLERR | POLLNVAL)) return unavailable("socket error");
  return Status::ok();
}

}  // namespace

// ---------------------------------------------------------------------------
// TcpListener
// ---------------------------------------------------------------------------

StatusOr<std::shared_ptr<TcpListener>> TcpListener::listen(
    std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return errno_status("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return errno_status("bind");
  }
  if (::listen(fd, 16) < 0) {
    ::close(fd);
    return errno_status("listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    ::close(fd);
    return errno_status("getsockname");
  }
  auto listener = std::shared_ptr<TcpListener>(new TcpListener());
  listener->fd_ = fd;
  listener->port_ = ntohs(addr.sin_port);
  return listener;
}

TcpListener::~TcpListener() { close(); }

StatusOr<int> TcpListener::accept_fd(double timeout_seconds) {
  if (fd_ < 0) return failed_precondition("listener closed");
  if (auto s = poll_fd(fd_, POLLIN, timeout_seconds); !s.is_ok()) return s;
  const int conn = ::accept(fd_, nullptr, nullptr);
  if (conn < 0) return errno_status("accept");
  set_nodelay(conn);
  if (auto s = set_nonblocking(conn); !s.is_ok()) {
    ::close(conn);
    return s;
  }
  return conn;
}

void TcpListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// ---------------------------------------------------------------------------
// TcpRemoteLink
// ---------------------------------------------------------------------------

std::shared_ptr<TcpRemoteLink> TcpRemoteLink::serve(
    std::shared_ptr<TcpListener> listener, std::uint32_t channel,
    std::string name, double accept_timeout_seconds) {
  auto link = std::shared_ptr<TcpRemoteLink>(new TcpRemoteLink());
  link->listener_ = std::move(listener);
  link->channel_id_ = channel;
  link->name_ = std::move(name);
  link->connect_timeout_ = accept_timeout_seconds;
  return link;
}

std::shared_ptr<TcpRemoteLink> TcpRemoteLink::dial(
    std::string host, std::uint16_t port, std::uint32_t channel,
    std::string name, double connect_timeout_seconds) {
  auto link = std::shared_ptr<TcpRemoteLink>(new TcpRemoteLink());
  link->client_ = true;
  link->host_ = std::move(host);
  link->port_ = port;
  link->channel_id_ = channel;
  link->name_ = std::move(name);
  link->connect_timeout_ = connect_timeout_seconds;
  return link;
}

TcpRemoteLink::~TcpRemoteLink() { close(); }

Status TcpRemoteLink::ensure_connected(double timeout_seconds) {
  if (fd_ >= 0) return Status::ok();
  if (client_) {
    // Retry until the peer's listener exists: deployment starts receivers
    // first, but a respawned daemon may still be binding.
    // One clock for the whole retry loop: a WallClock's epoch is its
    // construction time, so a fresh instance per poll would never advance.
    const WallClock clock;
    const TimePoint deadline = clock.now() + timeout_seconds;
    while (true) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) return errno_status("socket");
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port_);
      if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        return invalid_argument("bad peer address: " + host_);
      }
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
          0) {
        set_nodelay(fd);
        if (auto s = set_nonblocking(fd); !s.is_ok()) {
          ::close(fd);
          return s;
        }
        fd_ = fd;
        return Status::ok();
      }
      ::close(fd);
      if (clock.now() >= deadline) {
        return unavailable("connect to " + host_ + ":" +
                           std::to_string(port_) + " timed out");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  if (!listener_) return failed_precondition("server link has no listener");
  auto fd = listener_->accept_fd(timeout_seconds);
  if (!fd.ok()) return fd.status();
  fd_ = fd.value();
  return Status::ok();
}

void TcpRemoteLink::drop_connection() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status TcpRemoteLink::reconnect() {
  drop_connection();
  stats_.reconnects.fetch_add(1, std::memory_order_relaxed);
  // One bounded attempt; the engine's recovery loop owns the backoff.
  return ensure_connected(client_ ? 0.25 : 1.0);
}

void TcpRemoteLink::close() { drop_connection(); }

Status TcpRemoteLink::send_iovs(const iovec* iovs, int count,
                                std::size_t total_bytes) {
  if (auto s = ensure_connected(connect_timeout_); !s.is_ok()) return s;
  // Local mutable copy: partial sends advance through the gather list.
  send_scratch_.assign(iovs, iovs + count);
  std::size_t sent = 0;
  std::size_t head = 0;
  while (sent < total_bytes) {
    msghdr msg{};
    msg.msg_iov = send_scratch_.data() + head;
    msg.msg_iovlen = send_scratch_.size() - head;
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Socket-buffer backpressure: the remote rendering of a blocking
        // push. Bounded so a dead peer surfaces as an error, not a hang.
        if (auto s = poll_fd(fd_, POLLOUT, 5.0); !s.is_ok()) return s;
        continue;
      }
      return errno_status("sendmsg");
    }
    sent += static_cast<std::size_t>(n);
    std::size_t advanced = static_cast<std::size_t>(n);
    while (head < send_scratch_.size() &&
           advanced >= send_scratch_[head].iov_len) {
      advanced -= send_scratch_[head].iov_len;
      ++head;
    }
    if (head < send_scratch_.size() && advanced > 0) {
      send_scratch_[head].iov_base =
          static_cast<std::uint8_t*>(send_scratch_[head].iov_base) + advanced;
      send_scratch_[head].iov_len -= advanced;
    }
  }
  stats_.frames_out.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_out.fetch_add(total_bytes, std::memory_order_relaxed);
  return Status::ok();
}

Status TcpRemoteLink::send_buffer(const std::vector<std::uint8_t>& bytes) {
  iovec iov;
  iov.iov_base = const_cast<std::uint8_t*>(bytes.data());
  iov.iov_len = bytes.size();
  return send_iovs(&iov, 1, bytes.size());
}

Status TcpRemoteLink::send_data(std::vector<wire::WirePacket>& batch) {
  encoder_.begin(channel_id_);
  for (const wire::WirePacket& wp : batch) encoder_.add(wp);
  int iov_count = 0;
  const iovec* iovs = encoder_.finish(&iov_count);
  if (auto s = send_iovs(iovs, iov_count, encoder_.total_bytes());
      !s.is_ok()) {
    return s;
  }
  stats_.packets_out.fetch_add(batch.size(), std::memory_order_relaxed);
  for (wire::WirePacket& wp : batch) wp.payload = ByteBuffer();
  return Status::ok();
}

Status TcpRemoteLink::send_acks(const std::vector<std::uint64_t>& seqs) {
  wire::encode_ack_frame(channel_id_, seqs, &scratch_);
  if (auto s = send_buffer(scratch_); !s.is_ok()) return s;
  stats_.acks_out.fetch_add(seqs.size(), std::memory_order_relaxed);
  return Status::ok();
}

Status TcpRemoteLink::send_eos(std::uint64_t seq) {
  wire::encode_control_frame(wire::FrameType::kEos, channel_id_, seq,
                             &scratch_);
  return send_buffer(scratch_);
}

Status TcpRemoteLink::send_control(wire::FrameType type,
                                   std::uint64_t base_seq,
                                   std::string_view method,
                                   std::string_view body) {
  if (type == wire::FrameType::kRpcRequest ||
      type == wire::FrameType::kRpcResponse) {
    wire::encode_rpc_frame(type, channel_id_, base_seq, method, body,
                           &scratch_);
  } else if (type == wire::FrameType::kCheckpoint) {
    wire::encode_checkpoint_frame(channel_id_, base_seq, body, &scratch_);
  } else {
    wire::encode_control_frame(type, channel_id_, base_seq, &scratch_);
  }
  return send_buffer(scratch_);
}

Status TcpRemoteLink::recv_exact(std::uint8_t* buf, std::size_t n,
                                 double stall) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd_, buf + got, n - got, 0);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) return unavailable("peer closed connection");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (auto s = poll_fd(fd_, POLLIN, stall); !s.is_ok()) return s;
      continue;
    }
    return errno_status("recv");
  }
  return Status::ok();
}

Status TcpRemoteLink::recv_into(std::vector<iovec>& iovs, std::size_t total,
                                double stall) {
  std::size_t got = 0;
  std::size_t head = 0;
  while (got < total) {
    const ssize_t r = ::readv(fd_, iovs.data() + head,
                              static_cast<int>(iovs.size() - head));
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      std::size_t advanced = static_cast<std::size_t>(r);
      while (head < iovs.size() && advanced >= iovs[head].iov_len) {
        advanced -= iovs[head].iov_len;
        ++head;
      }
      if (head < iovs.size() && advanced > 0) {
        iovs[head].iov_base =
            static_cast<std::uint8_t*>(iovs[head].iov_base) + advanced;
        iovs[head].iov_len -= advanced;
      }
      continue;
    }
    if (r == 0) return unavailable("peer closed connection");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (auto s = poll_fd(fd_, POLLIN, stall); !s.is_ok()) return s;
      continue;
    }
    return errno_status("readv");
  }
  return Status::ok();
}

StatusOr<RecvEvent> TcpRemoteLink::recv(double timeout_seconds) {
  RecvEvent event;
  if (fd_ < 0) {
    // Server side: the first recv() performs the accept; a poll with no
    // pending connection is a normal timeout, not an error.
    if (auto s = ensure_connected(timeout_seconds); !s.is_ok()) {
      if (timeout_seconds >= 0 && s.code() == StatusCode::kUnavailable &&
          !client_) {
        return event;  // kNone
      }
      return s;
    }
  }
  {
    pollfd p{fd_, POLLIN, 0};
    const int ms = static_cast<int>(timeout_seconds * 1000.0 + 0.5);
    const int r = ::poll(&p, 1, ms);
    if (r < 0) return errno_status("poll");
    if (r == 0) return event;  // kNone
    if ((p.revents & (POLLERR | POLLNVAL)) != 0) {
      return unavailable("socket error");
    }
  }
  // A frame has begun arriving; the peer writes frames whole, so the
  // remainder is due promptly — a mid-frame stall means the peer died.
  constexpr double kStall = 5.0;
  std::uint8_t header_buf[wire::kHeaderBytes];
  if (auto s = recv_exact(header_buf, wire::kHeaderBytes, kStall);
      !s.is_ok()) {
    return s;
  }
  wire::FrameHeader h;
  if (auto s = wire::decode_header(header_buf, &h); !s.is_ok()) return s;
  stats_.frames_in.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_in.fetch_add(wire::kHeaderBytes + h.body_bytes,
                            std::memory_order_relaxed);
  event.base_seq = h.base_seq;
  switch (h.type) {
    case wire::FrameType::kData: {
      const std::size_t meta_bytes =
          static_cast<std::size_t>(h.count) * wire::kMetaBytes;
      if (h.body_bytes < meta_bytes) {
        return invalid_argument("wire: data body smaller than metadata");
      }
      meta_scratch_.resize(meta_bytes);
      if (auto s = recv_exact(meta_scratch_.data(), meta_bytes, kStall);
          !s.is_ok()) {
        return s;
      }
      std::size_t payload_total = 0;
      event.packets.resize(h.count);
      recv_scratch_.clear();
      for (std::uint32_t i = 0; i < h.count; ++i) {
        wire::PacketMeta m;
        if (auto s = wire::decode_meta(
                meta_scratch_.data() + i * wire::kMetaBytes, &m);
            !s.is_ok()) {
          return s;
        }
        wire::WirePacket& wp = event.packets[i];
        wp.seq = m.seq;
        wp.stream = m.stream;
        wp.kind = m.kind;
        wp.records = m.records;
        if (m.payload_bytes != 0) {
          // The one inbound copy: kernel buffer -> arena block via readv.
          wp.payload = ByteBuffer::uninitialized(m.payload_bytes);
          iovec iov;
          iov.iov_base = wp.payload.data();
          iov.iov_len = m.payload_bytes;
          recv_scratch_.push_back(iov);
          payload_total += m.payload_bytes;
        }
      }
      if (h.body_bytes != meta_bytes + payload_total) {
        return invalid_argument("wire: data body size mismatch");
      }
      if (payload_total != 0) {
        if (auto s = recv_into(recv_scratch_, payload_total, kStall);
            !s.is_ok()) {
          return s;
        }
      }
      stats_.packets_in.fetch_add(h.count, std::memory_order_relaxed);
      event.kind = RecvEvent::Kind::kData;
      return event;
    }
    case wire::FrameType::kAck: {
      meta_scratch_.resize(h.body_bytes);
      if (auto s = recv_exact(meta_scratch_.data(), h.body_bytes, kStall);
          !s.is_ok()) {
        return s;
      }
      if (auto s = wire::decode_ack_body(meta_scratch_.data(), h.body_bytes,
                                         h.count, &event.acks);
          !s.is_ok()) {
        return s;
      }
      stats_.acks_in.fetch_add(event.acks.size(), std::memory_order_relaxed);
      event.kind = RecvEvent::Kind::kAcks;
      return event;
    }
    default: {
      if (h.body_bytes != 0) {
        meta_scratch_.resize(h.body_bytes);
        if (auto s = recv_exact(meta_scratch_.data(), h.body_bytes, kStall);
            !s.is_ok()) {
          return s;
        }
      }
      switch (h.type) {
        case wire::FrameType::kEos:
          event.kind = RecvEvent::Kind::kEos;
          break;
        case wire::FrameType::kHello:
          event.kind = RecvEvent::Kind::kHello;
          break;
        case wire::FrameType::kShutdown:
          event.kind = RecvEvent::Kind::kShutdown;
          break;
        case wire::FrameType::kCheckpoint:
          event.body = ByteBuffer::from_string(std::string_view(
              reinterpret_cast<const char*>(meta_scratch_.data()),
              h.body_bytes));
          event.kind = RecvEvent::Kind::kCheckpoint;
          break;
        case wire::FrameType::kRpcRequest:
        case wire::FrameType::kRpcResponse: {
          std::string_view method, payload;
          if (auto s = wire::decode_rpc_body(meta_scratch_.data(),
                                             h.body_bytes, &method, &payload);
              !s.is_ok()) {
            return s;
          }
          event.method.assign(method);
          event.body = ByteBuffer::from_string(payload);
          event.kind = h.type == wire::FrameType::kRpcRequest
                           ? RecvEvent::Kind::kRpcRequest
                           : RecvEvent::Kind::kRpcResponse;
          break;
        }
        default:
          return invalid_argument("wire: unexpected frame type");
      }
      return event;
    }
  }
}

}  // namespace gates::net
