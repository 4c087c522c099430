// SPSC byte ring in a POSIX shared-memory segment.
//
// The co-located transport (shm_link.hpp) moves whole wire frames through
// two of these — one per direction. Layout: a cache-line padded header
// (atomic head/tail byte cursors, monotonically increasing) followed by a
// power-of-two data region. Records are 8-aligned [u32 len][bytes]; a len
// of kWrapMarker means "skip to the start of the ring". Exactly one writer
// and one reader; release/acquire on tail/head is the only synchronization.
// A side that must wait parks on a process-shared EventCount in the header:
// the reader on `readable` (notified after each tail publish), the writer on
// `writable` (notified after each head advance); close_ring() notifies both.
//
// Creation handshake: the creator shm_open(O_CREAT|O_EXCL)s, sizes and maps
// the segment, then publishes `magic` with release semantics as the very
// last store — an attacher maps and spins until magic reads valid, so it
// never observes a half-initialized header. The creator unlinks the name
// in its destructor; the mapping itself lives until both sides unmap.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <sys/uio.h>

#include "gates/common/event_count.hpp"
#include "gates/common/idle_strategy.hpp"
#include "gates/common/status.hpp"

namespace gates::net {

class ShmRing {
 public:
  static constexpr std::uint64_t kShmMagic = 0x5347544153454752ull;
  static constexpr std::uint32_t kWrapMarker = 0xFFFFFFFFu;

  /// Lives at offset 0 of the mapping; the data region starts at
  /// sizeof(Header) (a 64-byte multiple — tail's alignas pads the tail).
  /// Each eventcount shares a line with the cursor its notifier writes.
  struct Header {
    std::atomic<std::uint64_t> magic;
    std::uint64_t capacity;  // data region bytes (power of two)
    std::atomic<std::uint32_t> closed;
    std::uint32_t reserved;
    alignas(64) std::atomic<std::uint64_t> head;  // reader cursor
    SharedEventCount writable;  // the writer waits here for head to move
    alignas(64) std::atomic<std::uint64_t> tail;  // writer cursor
    SharedEventCount readable;  // the reader waits here for tail to move
  };

  /// Creates a fresh segment `/name` of at least `capacity_bytes` data
  /// (rounded up to a power of two). Fails already_exists if the name is
  /// live — stale segments from a crashed run must be unlinked first.
  static StatusOr<std::shared_ptr<ShmRing>> create(const std::string& name,
                                                   std::size_t capacity_bytes);
  /// Attaches to a segment the peer created, retrying until the magic is
  /// published or `timeout_seconds` expires.
  static StatusOr<std::shared_ptr<ShmRing>> attach(const std::string& name,
                                                   double timeout_seconds);

  ~ShmRing();
  ShmRing(const ShmRing&) = delete;
  ShmRing& operator=(const ShmRing&) = delete;

  /// Copies one record into the ring, blocking while full (IdleStrategy
  /// steps, then a park on `writable`). Fails invalid_argument if the
  /// record can never fit (n > max_record_bytes()), unavailable if the
  /// ring is closed — a writer parked on a full ring wakes to the close.
  Status write(const std::uint8_t* data, std::size_t n,
               const IdleConfig& idle);
  /// Gather variant: writes the iovec spans as one record, copying each
  /// span straight into the ring slot (no staging buffer). This is how a
  /// whole DATA frame — header, metas, payload blocks — lands in shared
  /// memory with a single copy.
  Status write_gather(const iovec* iovs, int iov_count, std::size_t total,
                      const IdleConfig& idle);

  /// Nonblocking: copies the next record into `out` (resized to fit).
  /// Returns true if one was read; false if the ring is currently empty.
  StatusOr<bool> try_read(std::vector<std::uint8_t>* out);
  /// try_read() that waits for a record until `deadline` (IdleStrategy
  /// steps, then a park on `readable`); false on timeout.
  StatusOr<bool> read(std::vector<std::uint8_t>* out, Deadline deadline,
                      const IdleConfig& idle);

  /// Marks the ring closed and wakes both sides; the peer's next
  /// write/read observes it.
  void close_ring();
  bool closed() const;

  std::size_t capacity() const { return capacity_; }
  /// Largest single record the ring accepts (leaves room for the length
  /// prefix and a wrap marker).
  std::size_t max_record_bytes() const { return capacity_ / 2; }
  const std::string& name() const { return name_; }

 private:
  ShmRing() = default;

  std::string name_;
  bool owner_ = false;     // created (vs attached): unlinks on destruction
  int fd_ = -1;
  Header* hdr_ = nullptr;
  std::uint8_t* data_ = nullptr;  // ring bytes, right after the header
  std::size_t map_bytes_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace gates::net
