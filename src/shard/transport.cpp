#include "shard/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace hipa::shard {

namespace {

// Fixed-width frame header, serialized little-endian field by field
// (no struct punning — layout is the wire spec, not the ABI).
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8;

void put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
void put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}
std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

void encode_header(std::uint8_t* p, const Frame& f) {
  put_u32(p, kFrameMagic);
  put_u32(p + 4, static_cast<std::uint32_t>(f.type));
  put_u64(p + 8, f.payload.size());
  put_u64(p + 16, fnv1a(f.payload.data(), f.payload.size()));
}

/// Validate a received header. False = poisoned stream.
bool decode_header(const std::uint8_t* p, MsgType* type,
                   std::uint64_t* payload_len, std::uint64_t* checksum) {
  if (get_u32(p) != kFrameMagic) return false;
  const auto t = static_cast<MsgType>(get_u32(p + 4));
  switch (t) {
    case MsgType::kHello:
    case MsgType::kHelloAck:
    case MsgType::kQueryBatch:
    case MsgType::kAnswerBatch:
    case MsgType::kRepublishNotice:
    case MsgType::kError:
    case MsgType::kShutdown:
      break;
    default:
      return false;  // unknown or retired (5, 6) type
  }
  *type = t;
  *payload_len = get_u64(p + 8);
  *checksum = get_u64(p + 16);
  return *payload_len <= kMaxFramePayload;
}

// ---------------------------------------------------------------------------
// TCP connection
// ---------------------------------------------------------------------------

class TcpConn final : public Conn {
 public:
  explicit TcpConn(int fd) : fd_(fd) {
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~TcpConn() override { close(); }

  bool send(const Frame& frame) override {
    std::lock_guard<std::mutex> lock(send_mutex_);
    const int fd = fd_.load(std::memory_order_acquire);
    if (fd < 0) return false;
    std::uint8_t header[kHeaderBytes];
    encode_header(header, frame);
    return send_all(fd, header, sizeof header) &&
           send_all(fd, frame.payload.data(), frame.payload.size());
  }

  bool recv(Frame* out) override {
    const int fd = fd_.load(std::memory_order_acquire);
    if (fd < 0) return false;
    std::uint8_t header[kHeaderBytes];
    if (!recv_all(fd, header, sizeof header)) return false;
    std::uint64_t payload_len = 0;
    std::uint64_t checksum = 0;
    if (!decode_header(header, &out->type, &payload_len, &checksum)) {
      return false;
    }
    out->payload.resize(payload_len);
    if (!recv_all(fd, out->payload.data(), payload_len)) return false;
    return fnv1a(out->payload.data(), out->payload.size()) == checksum;
  }

  void close() override {
    const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
    if (fd >= 0) {
      ::shutdown(fd, SHUT_RDWR);  // unblocks a pending recv
      ::close(fd);
    }
  }

 private:
  static bool send_all(int fd, const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    std::size_t off = 0;
    while (off < n) {
      const ssize_t w = ::send(fd, p + off, n - off, MSG_NOSIGNAL);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) return false;
      off += static_cast<std::size_t>(w);
    }
    return true;
  }
  static bool recv_all(int fd, void* data, std::size_t n) {
    auto* p = static_cast<std::uint8_t*>(data);
    std::size_t off = 0;
    while (off < n) {
      const ssize_t r = ::recv(fd, p + off, n - off, 0);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) return false;
      off += static_cast<std::size_t>(r);
    }
    return true;
  }

  std::atomic<int> fd_;
  std::mutex send_mutex_;
};

class TcpListener final : public Listener {
 public:
  TcpListener(const std::string& bind_addr, int port) {
    HIPA_CHECK(port >= 0 && port <= 65535,
               "shard listener port " << port << " out of range");
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    HIPA_CHECK(fd_ >= 0, "shard listener: socket() failed, errno " << errno);
    const int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    HIPA_CHECK(::inet_pton(AF_INET, bind_addr.c_str(), &addr.sin_addr) == 1,
               "shard listener: bad bind address '" << bind_addr << "'");
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
            0 ||
        ::listen(fd_, 64) != 0) {
      const int err = errno;
      ::close(fd_);
      fd_ = -1;
      HIPA_CHECK(false, "shard listener: cannot bind " << bind_addr << ':'
                                                       << port << ", errno "
                                                       << err);
    }
    socklen_t len = sizeof addr;
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = static_cast<int>(ntohs(addr.sin_port));
  }
  ~TcpListener() override { close(); }

  std::unique_ptr<Conn> accept() override {
    while (!closed_.load(std::memory_order_acquire)) {
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
      if (ready <= 0) continue;  // timeout / EINTR: re-check closed
      const int client = ::accept(fd_, nullptr, nullptr);
      if (client < 0) continue;
      return std::make_unique<TcpConn>(client);
    }
    return nullptr;
  }

  void close() override {
    if (closed_.exchange(true, std::memory_order_acq_rel)) return;
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  [[nodiscard]] int port() const override { return port_; }

 private:
  int fd_ = -1;
  int port_ = -1;
  std::atomic<bool> closed_{false};
};

// ---------------------------------------------------------------------------
// In-process loopback
// ---------------------------------------------------------------------------

/// Shared state of one loopback connection: two one-way frame queues.
/// Each endpoint sends into its own queue and receives from the
/// peer's.
struct LoopbackPipe {
  struct Dir {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Frame> frames;
    bool closed = false;
  };
  Dir dir[2];  // [0] = a->b, [1] = b->a
};

class LoopbackConn final : public Conn {
 public:
  LoopbackConn(std::shared_ptr<LoopbackPipe> pipe, int side)
      : pipe_(std::move(pipe)), side_(side) {}
  ~LoopbackConn() override { close(); }

  bool send(const Frame& frame) override {
    auto& d = pipe_->dir[side_];
    {
      std::lock_guard<std::mutex> lock(d.mutex);
      if (d.closed) return false;
      d.frames.push_back(frame);
    }
    d.cv.notify_one();
    return true;
  }

  bool recv(Frame* out) override {
    auto& d = pipe_->dir[1 - side_];
    std::unique_lock<std::mutex> lock(d.mutex);
    d.cv.wait(lock, [&] { return d.closed || !d.frames.empty(); });
    if (d.frames.empty()) return false;  // closed and drained
    *out = std::move(d.frames.front());
    d.frames.pop_front();
    return true;
  }

  void close() override {
    // Close both directions: the peer's recv unblocks and our own
    // pending recv (waiting on the peer's queue) does too.
    for (auto& d : pipe_->dir) {
      {
        std::lock_guard<std::mutex> lock(d.mutex);
        d.closed = true;
      }
      d.cv.notify_all();
    }
  }

 private:
  std::shared_ptr<LoopbackPipe> pipe_;
  int side_;
};

}  // namespace

std::unique_ptr<Listener> listen_tcp(const std::string& bind_addr,
                                     int port) {
  return std::make_unique<TcpListener>(bind_addr, port);
}

std::unique_ptr<Conn> connect_tcp(const std::string& host, int port,
                                  double timeout_seconds) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return nullptr;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;

  // Non-blocking connect bounded by poll so a dead host costs
  // timeout_seconds, not the kernel's SYN-retry minutes.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int rc =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    return nullptr;
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    const int timeout_ms = static_cast<int>(timeout_seconds * 1000.0);
    if (::poll(&pfd, 1, timeout_ms) <= 0) {
      ::close(fd);
      return nullptr;
    }
    int err = 0;
    socklen_t len = sizeof err;
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      ::close(fd);
      return nullptr;
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  return std::make_unique<TcpConn>(fd);
}

std::unique_ptr<Conn> LoopbackListener::accept() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return closed_ || !pending_.empty(); });
  if (pending_.empty()) return nullptr;
  std::unique_ptr<Conn> conn = std::move(pending_.front());
  pending_.pop_front();
  return conn;
}

void LoopbackListener::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::unique_ptr<Conn> LoopbackListener::connect() {
  auto pipe = std::make_shared<LoopbackPipe>();
  auto server_end = std::make_unique<LoopbackConn>(pipe, 1);
  auto client_end = std::make_unique<LoopbackConn>(pipe, 0);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return nullptr;
    pending_.push_back(std::move(server_end));
  }
  cv_.notify_one();
  return client_end;
}

}  // namespace hipa::shard
