#include "gates/net/shm_ring.hpp"

#include <cstddef>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "gates/common/clock.hpp"

namespace gates::net {
namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 4096;
  while (p < n) p <<= 1;
  return p;
}

constexpr std::size_t align8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

Status errno_status(const std::string& what) {
  return internal_error(what + ": " + std::strerror(errno));
}

}  // namespace

StatusOr<std::shared_ptr<ShmRing>> ShmRing::create(const std::string& name,
                                                   std::size_t capacity_bytes) {
  const std::size_t capacity = round_up_pow2(capacity_bytes);
  const std::size_t map_bytes = sizeof(Header) + capacity;
  int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0) {
    if (errno == EEXIST) {
      return already_exists("shm ring '" + name + "' already exists");
    }
    return errno_status("shm_open(" + name + ")");
  }
  if (::ftruncate(fd, static_cast<off_t>(map_bytes)) != 0) {
    Status s = errno_status("ftruncate(" + name + ")");
    ::close(fd);
    ::shm_unlink(name.c_str());
    return s;
  }
  void* map = ::mmap(nullptr, map_bytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                     fd, 0);
  if (map == MAP_FAILED) {
    Status s = errno_status("mmap(" + name + ")");
    ::close(fd);
    ::shm_unlink(name.c_str());
    return s;
  }
  auto ring = std::shared_ptr<ShmRing>(new ShmRing());
  ring->name_ = name;
  ring->owner_ = true;
  ring->fd_ = fd;
  ring->hdr_ = static_cast<Header*>(map);
  ring->data_ = static_cast<std::uint8_t*>(map) + sizeof(Header);
  ring->map_bytes_ = map_bytes;
  ring->capacity_ = capacity;
  ring->hdr_->capacity = capacity;
  ring->hdr_->closed.store(0, std::memory_order_relaxed);
  ring->hdr_->head.store(0, std::memory_order_relaxed);
  ring->hdr_->tail.store(0, std::memory_order_relaxed);
  // Publish last: an attacher spins on magic, so every earlier field is
  // visible once this store lands.
  ring->hdr_->magic.store(kShmMagic, std::memory_order_release);
  return ring;
}

StatusOr<std::shared_ptr<ShmRing>> ShmRing::attach(const std::string& name,
                                                   double timeout_seconds) {
  WallClock clock;
  const TimePoint deadline = clock.now() + timeout_seconds;
  int fd = -1;
  for (;;) {
    fd = ::shm_open(name.c_str(), O_RDWR, 0600);
    if (fd >= 0) break;
    if (errno != ENOENT) return errno_status("shm_open(" + name + ")");
    if (clock.now() >= deadline) {
      return unavailable("shm ring '" + name + "' never appeared");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The creator may not have ftruncated yet; wait for a plausible size.
  struct stat st {};
  for (;;) {
    if (::fstat(fd, &st) != 0) {
      Status s = errno_status("fstat(" + name + ")");
      ::close(fd);
      return s;
    }
    if (static_cast<std::size_t>(st.st_size) > sizeof(Header)) break;
    if (clock.now() >= deadline) {
      ::close(fd);
      return unavailable("shm ring '" + name + "' never sized");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::size_t map_bytes = static_cast<std::size_t>(st.st_size);
  void* map = ::mmap(nullptr, map_bytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                     fd, 0);
  if (map == MAP_FAILED) {
    Status s = errno_status("mmap(" + name + ")");
    ::close(fd);
    return s;
  }
  auto* hdr = static_cast<Header*>(map);
  while (hdr->magic.load(std::memory_order_acquire) != kShmMagic) {
    if (clock.now() >= deadline) {
      ::munmap(map, map_bytes);
      ::close(fd);
      return unavailable("shm ring '" + name + "' never initialized");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto ring = std::shared_ptr<ShmRing>(new ShmRing());
  ring->name_ = name;
  ring->owner_ = false;
  ring->fd_ = fd;
  ring->hdr_ = hdr;
  ring->data_ = static_cast<std::uint8_t*>(map) + sizeof(Header);
  ring->map_bytes_ = map_bytes;
  ring->capacity_ = static_cast<std::size_t>(hdr->capacity);
  return ring;
}

ShmRing::~ShmRing() {
  if (hdr_ != nullptr) ::munmap(hdr_, map_bytes_);
  if (fd_ >= 0) ::close(fd_);
  if (owner_) ::shm_unlink(name_.c_str());
}

Status ShmRing::write(const std::uint8_t* data, std::size_t n,
                      const IdleConfig& idle) {
  iovec iov;
  iov.iov_base = const_cast<std::uint8_t*>(data);
  iov.iov_len = n;
  return write_gather(&iov, 1, n, idle);
}

Status ShmRing::write_gather(const iovec* iovs, int iov_count,
                             std::size_t total, const IdleConfig& idle) {
  const std::size_t need = align8(4 + total);
  if (need > max_record_bytes()) {
    return invalid_argument("shm ring record too large (" +
                            std::to_string(total) + " bytes)");
  }
  IdleStrategy idler(idle);
  std::uint64_t tail = hdr_->tail.load(std::memory_order_relaxed);
  for (;;) {
    if (hdr_->closed.load(std::memory_order_acquire) != 0) {
      return unavailable("shm ring closed by peer");
    }
    const std::uint64_t head = hdr_->head.load(std::memory_order_acquire);
    const std::size_t used = static_cast<std::size_t>(tail - head);
    std::size_t offset = static_cast<std::size_t>(tail) & (capacity_ - 1);
    // A record never straddles the end: if the contiguous run is too
    // short, emit a wrap marker and restart at offset 0. Cursors advance
    // in 8-byte steps, so a nonzero run always fits the 4-byte marker.
    std::size_t wrap_waste = 0;
    if (capacity_ - offset < need) wrap_waste = capacity_ - offset;
    if (used + wrap_waste + need > capacity_) {
      // Full: park until the reader frees enough or the ring closes.
      if (idler.should_park()) {
        hdr_->writable.await([&] {
          return tail - hdr_->head.load(std::memory_order_acquire) +
                         wrap_waste + need <=
                     capacity_ ||
                 closed();
        });
        idler.reset();
      }
      continue;
    }
    if (wrap_waste != 0) {
      std::uint32_t marker = kWrapMarker;
      std::memcpy(data_ + offset, &marker, 4);
      tail += wrap_waste;
      offset = 0;
    }
    std::uint32_t len = static_cast<std::uint32_t>(total);
    std::memcpy(data_ + offset, &len, 4);
    std::uint8_t* at = data_ + offset + 4;
    for (int i = 0; i < iov_count; ++i) {
      std::memcpy(at, iovs[i].iov_base, iovs[i].iov_len);
      at += iovs[i].iov_len;
    }
    hdr_->tail.store(tail + need, std::memory_order_release);
    hdr_->readable.notify_all();
    return Status::ok();
  }
}

StatusOr<bool> ShmRing::try_read(std::vector<std::uint8_t>* out) {
  std::uint64_t head = hdr_->head.load(std::memory_order_relaxed);
  for (;;) {
    const std::uint64_t tail = hdr_->tail.load(std::memory_order_acquire);
    if (head == tail) {
      if (hdr_->closed.load(std::memory_order_acquire) != 0) {
        return unavailable("shm ring closed by peer");
      }
      return false;
    }
    std::size_t offset = static_cast<std::size_t>(head) & (capacity_ - 1);
    const std::size_t run = capacity_ - offset;
    if (run < 4) {
      head += run;  // implicit wrap: run too short even for a marker
      continue;
    }
    std::uint32_t len;
    std::memcpy(&len, data_ + offset, 4);
    if (len == kWrapMarker) {
      head += run;
      continue;
    }
    if (len > max_record_bytes() || align8(4 + len) > run) {
      return internal_error("shm ring corrupt record length " +
                            std::to_string(len));
    }
    if (static_cast<std::uint64_t>(align8(4 + len)) > tail - head) {
      return internal_error("shm ring record extends past tail");
    }
    out->resize(len);
    std::memcpy(out->data(), data_ + offset + 4, len);
    hdr_->head.store(head + align8(4 + len), std::memory_order_release);
    hdr_->writable.notify_all();
    return true;
  }
}

StatusOr<bool> ShmRing::read(std::vector<std::uint8_t>* out,
                             Deadline deadline, const IdleConfig& idle) {
  IdleStrategy idler(idle);
  for (;;) {
    auto got = try_read(out);
    if (!got.ok() || got.value()) return got;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    if (idler.should_park()) {
      hdr_->readable.await(
          [&] {
            return hdr_->tail.load(std::memory_order_acquire) !=
                       hdr_->head.load(std::memory_order_relaxed) ||
                   closed();
          },
          deadline);
      idler.reset();
    }
  }
}

void ShmRing::close_ring() {
  if (hdr_ == nullptr) return;
  hdr_->closed.store(1, std::memory_order_release);
  hdr_->readable.notify_all();
  hdr_->writable.notify_all();
}

bool ShmRing::closed() const {
  return hdr_ != nullptr &&
         hdr_->closed.load(std::memory_order_acquire) != 0;
}

}  // namespace gates::net
