#include "service/chaos.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <stdexcept>

#include "service/framing.h"
#include "util/rng.h"

namespace sm {

namespace {

// Raw byte write — NOT WriteFrame: the whole point is to put damaged bytes
// on the wire (truncated prefixes, flipped bits) that the framing layer
// would refuse to produce. Returns false when the peer is gone.
bool WriteAll(int fd, const char* data, std::size_t len) {
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == ENOTSOCK) {
        const ssize_t w = ::write(fd, data + sent, len - sent);
        if (w < 0) return false;
        sent += static_cast<std::size_t>(w);
        continue;
      }
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

// One bridged connection: the accepted client fd plus its dedicated backend
// connection. Both pump threads share it; severing shuts both sockets so
// each pump's blocking read returns.
struct ChaosProxy::Connection {
  Connection(int client_fd_in, int backend_fd_in, std::uint64_t id_in)
      : client_fd(client_fd_in), backend_fd(backend_fd_in), id(id_in) {}
  ~Connection() {
    if (client_fd >= 0) ::close(client_fd);
    if (backend_fd >= 0) ::close(backend_fd);
  }

  // Idempotent, thread-safe: either pump (or Shutdown) kills the bridge.
  void Sever() {
    bool expected = false;
    if (!severed.compare_exchange_strong(expected, true)) return;
    ::shutdown(client_fd, SHUT_RDWR);
    ::shutdown(backend_fd, SHUT_RDWR);
  }

  const int client_fd;
  const int backend_fd;
  const std::uint64_t id;
  std::atomic<bool> severed{false};
};

ChaosProxy::ChaosProxy(ChaosOptions options)
    : options_(std::move(options)),
      listen_parsed_(ParseServiceAddress(options_.listen_address)) {
  ParseServiceAddress(options_.backend_address);  // validate eagerly
  const double total = options_.drop_probability + options_.delay_probability +
                       options_.truncate_probability +
                       options_.corrupt_probability +
                       options_.disconnect_probability;
  if (options_.drop_probability < 0 || options_.delay_probability < 0 ||
      options_.truncate_probability < 0 || options_.corrupt_probability < 0 ||
      options_.disconnect_probability < 0 || total > 1.0) {
    throw std::invalid_argument(
        "chaos fault probabilities must be non-negative and sum to <= 1");
  }
}

ChaosProxy::~ChaosProxy() {
  Shutdown();
  Wait();
}

void ChaosProxy::Start() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (started_) return;
    started_ = true;
  }
  listen_fd_ =
      BindAndListen(listen_parsed_, /*backlog=*/64, &effective_address_);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

void ChaosProxy::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down
    }
    if (draining_.load()) {
      ::close(fd);
      continue;
    }
    TuneAcceptedSocket(fd, listen_parsed_.kind, /*write_timeout_ms=*/10'000);
    const int backend_fd =
        ConnectToAddress(ParseServiceAddress(options_.backend_address));
    if (backend_fd < 0) {
      // Backend down (e.g. the soak harness killed the daemon): refuse the
      // bridge; the client sees its connection close, same as a dead daemon.
      ::close(fd);
      continue;
    }
    std::uint64_t id;
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      id = next_conn_id_++;
    }
    connections_total_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_shared<Connection>(fd, backend_fd, id);
    std::lock_guard<std::mutex> lock(conn_mutex_);
    connections_.push_back(conn);
    conn_threads_.emplace_back(
        [this, conn = std::move(conn)]() mutable { HandleConnection(conn); });
  }
}

void ChaosProxy::HandleConnection(std::shared_ptr<Connection> conn) {
  // The handler thread pumps client→backend itself and spawns a sibling for
  // the reverse direction; both exit when either side dies or a fault
  // severs the bridge.
  std::thread reverse([this, conn] {
    Pump(conn, conn->backend_fd, conn->client_fd, /*direction=*/1);
  });
  Pump(conn, conn->client_fd, conn->backend_fd, /*direction=*/0);
  reverse.join();
}

ChaosProxy::Fault ChaosProxy::DrawFault(std::uint64_t conn_id, int direction,
                                        std::uint64_t frame_idx,
                                        std::uint64_t* corrupt_pos) const {
  // Frame coordinates -> dedicated stream: connection id in the high bits,
  // frame index shifted past the direction bit. Every frame draws from its
  // own stream, so the schedule does not depend on the interleaving of
  // connections or directions.
  const std::uint64_t stream =
      (conn_id << 40) ^ (frame_idx << 1) ^ static_cast<std::uint64_t>(direction);
  Rng rng = Rng::ForStream(options_.seed, stream);
  const double u = rng.Uniform();
  *corrupt_pos = rng.Next();  // position source for kCorrupt, always drawn
  double edge = options_.drop_probability;
  if (u < edge) return Fault::kDrop;
  edge += options_.delay_probability;
  if (u < edge) return Fault::kDelay;
  edge += options_.truncate_probability;
  if (u < edge) return Fault::kTruncate;
  edge += options_.corrupt_probability;
  if (u < edge) return Fault::kCorrupt;
  edge += options_.disconnect_probability;
  if (u < edge) return Fault::kDisconnect;
  return Fault::kNone;
}

void ChaosProxy::Pump(const std::shared_ptr<Connection>& conn, int src,
                      int dst, int direction) {
  std::uint64_t frame_idx = 0;
  for (;;) {
    std::optional<std::string> payload;
    try {
      payload = ReadFrame(src, options_.max_frame_bytes);
    } catch (const FrameError&) {
      break;  // source died mid-frame or sent garbage: sever below
    }
    if (!payload.has_value()) break;  // clean EOF

    std::uint64_t corrupt_pos = 0;
    const Fault fault =
        DrawFault(conn->id, direction, frame_idx++, &corrupt_pos);
    std::string frame = EncodeFrame(*payload);

    switch (fault) {
      case Fault::kDrop:
        drops_.fetch_add(1, std::memory_order_relaxed);
        continue;  // the frame never happened
      case Fault::kDelay:
        delays_.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(options_.delay_ms));
        break;
      case Fault::kTruncate: {
        truncations_.fetch_add(1, std::memory_order_relaxed);
        // Half the frame (header included), then a hard close: the receiver
        // observes "connection closed mid-frame".
        WriteAll(dst, frame.data(), frame.size() / 2);
        conn->Sever();
        return;
      }
      case Fault::kCorrupt: {
        corruptions_.fetch_add(1, std::memory_order_relaxed);
        // Requests (direction 0) flip anywhere — the daemon must survive
        // arbitrary garbage. Responses flip a *header* byte only: SM1F has
        // no payload checksum, so a flipped result-JSON byte could parse as
        // a plausible-but-wrong result and silently break the soak's
        // byte-identity gate; a header flip is always detectable (bad magic
        // or bogus length) and exercises the same recovery path.
        const std::size_t span =
            direction == 0 ? frame.size() : kFrameHeaderBytes;
        frame[corrupt_pos % span] ^= static_cast<char>(1u << (corrupt_pos % 8));
        break;
      }
      case Fault::kDisconnect:
        disconnects_.fetch_add(1, std::memory_order_relaxed);
        conn->Sever();
        return;
      case Fault::kNone:
        break;
    }

    if (!WriteAll(dst, frame.data(), frame.size())) break;
    frames_forwarded_.fetch_add(1, std::memory_order_relaxed);
  }
  conn->Sever();
}

ChaosCounters ChaosProxy::SnapshotCounters() const {
  ChaosCounters c;
  c.connections = connections_total_.load(std::memory_order_relaxed);
  c.frames_forwarded = frames_forwarded_.load(std::memory_order_relaxed);
  c.drops = drops_.load(std::memory_order_relaxed);
  c.delays = delays_.load(std::memory_order_relaxed);
  c.truncations = truncations_.load(std::memory_order_relaxed);
  c.corruptions = corruptions_.load(std::memory_order_relaxed);
  c.disconnects = disconnects_.load(std::memory_order_relaxed);
  return c;
}

void ChaosProxy::Shutdown() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) return;
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);  // wakes the accept loop
  }
  std::lock_guard<std::mutex> lock(conn_mutex_);
  for (const auto& weak : connections_) {
    if (auto conn = weak.lock()) conn->Sever();
  }
}

void ChaosProxy::Wait() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (!started_ || joined_) return;
    joined_ = true;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // Connections registered while the accept loop was exiting are visible
  // now; sever again so no pump stays blocked.
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (const auto& weak : connections_) {
      if (auto conn = weak.lock()) conn->Sever();
    }
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (listen_parsed_.kind == AddressKind::kUnixSocket) {
    ::unlink(listen_parsed_.path.c_str());
  }
}

}  // namespace sm
