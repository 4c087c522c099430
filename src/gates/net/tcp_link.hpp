// Nonblocking TCP transport behind RemoteLink.
//
// One connection per channel. Sends gather a whole DATA frame (header +
// metadata staging + one iovec per COW payload block) into a single
// sendmsg() with MSG_NOSIGNAL and TCP_NODELAY — batching comes from the
// engine's flush cadence, not from Nagle. Receives read the header and
// metadata first, then readv() the payload bytes straight into freshly
// acquired arena blocks: one kernel-to-user copy per direction and no
// intermediate buffers.
//
// A link is owned by exactly one thread (the engine's egress or ingress
// worker, or a control loop); neither direction is internally locked.
// reconnect() re-dials (client) or re-accepts (server), which is how
// RetentionRing replay resumes across a peer restart.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gates/common/status.hpp"
#include "gates/net/remote_link.hpp"

namespace gates::net {

/// Listening socket (SO_REUSEADDR; port 0 = ephemeral). Shared by every
/// server-side link on the same port, accepted in arrival order.
class TcpListener {
 public:
  static StatusOr<std::shared_ptr<TcpListener>> listen(std::uint16_t port);
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  std::uint16_t port() const { return port_; }
  /// Accepts one connection; the returned fd is nonblocking with
  /// TCP_NODELAY set. unavailable on timeout.
  StatusOr<int> accept_fd(double timeout_seconds);
  void close();

 private:
  TcpListener() = default;
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

class TcpRemoteLink final : public RemoteLink {
 public:
  /// Server end: accepts lazily from `listener` on first use; reconnect()
  /// drops the connection and re-accepts.
  static std::shared_ptr<TcpRemoteLink> serve(
      std::shared_ptr<TcpListener> listener, std::uint32_t channel,
      std::string name, double accept_timeout_seconds = 30.0);

  /// Client end: dials host:port lazily on first use with bounded retry;
  /// reconnect() re-dials once (callers loop with their own backoff).
  static std::shared_ptr<TcpRemoteLink> dial(std::string host,
                                             std::uint16_t port,
                                             std::uint32_t channel,
                                             std::string name,
                                             double connect_timeout_seconds =
                                                 30.0);

  ~TcpRemoteLink() override;

  Status send_data(std::vector<wire::WirePacket>& batch) override;
  Status send_acks(const std::vector<std::uint64_t>& seqs) override;
  Status send_eos(std::uint64_t seq) override;
  Status send_control(wire::FrameType type, std::uint64_t base_seq,
                      std::string_view method, std::string_view body) override;
  StatusOr<RecvEvent> recv(double timeout_seconds) override;
  Status reconnect() override;
  void close() override;

 private:
  TcpRemoteLink() = default;

  Status ensure_connected(double timeout_seconds);
  /// Writes the gather list fully, handling partial sendmsg() returns and
  /// socket-buffer backpressure (poll for writability).
  Status send_iovs(const iovec* iovs, int count, std::size_t total_bytes);
  Status send_buffer(const std::vector<std::uint8_t>& bytes);
  /// Reads exactly n bytes; blocks at most `stall` seconds between
  /// progress (a peer never stalls mid-frame, so a stall means it died).
  Status recv_exact(std::uint8_t* buf, std::size_t n, double stall);
  /// readv() variant of recv_exact over multiple destination spans.
  Status recv_into(std::vector<iovec>& iovs, std::size_t total, double stall);
  void drop_connection();

  int fd_ = -1;
  bool client_ = false;
  std::string host_;
  std::uint16_t port_ = 0;
  double connect_timeout_ = 30.0;
  std::shared_ptr<TcpListener> listener_;
  wire::DataFrameEncoder encoder_;
  std::vector<std::uint8_t> scratch_;       // ack/control staging
  std::vector<std::uint8_t> meta_scratch_;  // inbound metadata
  std::vector<iovec> send_scratch_;
  std::vector<iovec> recv_scratch_;
};

}  // namespace gates::net
