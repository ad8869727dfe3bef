#include "net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "common/bytes.hpp"
#include "common/logging.hpp"

namespace stab {

namespace {

constexpr uint32_t kKindHello = 1;
constexpr uint32_t kKindData = 2;
constexpr size_t kHeaderBytes = 12;  // u32 body_len | u32 kind | u32 src
constexpr size_t kRecvBuffer = 128 * 1024;  // per connection, grown for big frames
constexpr int kReadsPerEvent = 4;
constexpr int kMaxIov = 64;
const Duration kHelloTimeout = seconds(5);

void set_nodelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

sockaddr_in make_addr(const TcpPeerAddr& addr) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(addr.port);
  std::string host = addr.host == "localhost" ? "127.0.0.1" : addr.host;
  inet_pton(AF_INET, host.c_str(), &sa.sin_addr);
  return sa;
}

uint32_t load_u32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// True when nothing holds `port` on any local address. Binds the way the
// listener does (INADDR_ANY), minus SO_REUSEADDR, so a port still in
// TIME_WAIT counts as taken.
bool port_free(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  sa.sin_addr.s_addr = htonl(INADDR_ANY);
  bool ok = bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) == 0;
  close(fd);
  return ok;
}

}  // namespace

std::vector<TcpPeerAddr> loopback_addrs(size_t n, uint16_t base_port) {
  std::vector<TcpPeerAddr> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i)
    out.push_back(TcpPeerAddr{"127.0.0.1",
                              static_cast<uint16_t>(base_port + i)});
  return out;
}

std::vector<TcpPeerAddr> free_loopback_addrs(size_t n) {
  constexpr uint64_t kLow = 20000, kEphemeral = 32768;
  Rng rng(static_cast<uint64_t>(getpid()) << 32 ^
          static_cast<uint64_t>(
              std::chrono::steady_clock::now().time_since_epoch().count()));
  for (int attempt = 0; attempt < 1000; ++attempt) {
    auto base = static_cast<uint16_t>(kLow + rng.next_below(kEphemeral - kLow - n));
    bool ok = true;
    for (size_t i = 0; i < n && ok; ++i)
      ok = port_free(static_cast<uint16_t>(base + i));
    if (ok) return loopback_addrs(n, base);
  }
  throw std::runtime_error("no free loopback port range found");
}

// Frame layout on the wire: u32 body_len | u32 kind | u32 src | body.
Bytes TcpTransport::encode_frame(uint32_t kind, NodeId src, BytesView payload) {
  Writer w(payload.size() + kHeaderBytes);
  w.u32(static_cast<uint32_t>(payload.size()) + 8);
  w.u32(kind);
  w.u32(src);
  w.raw(payload.data(), payload.size());
  return std::move(w).take();
}

// Just the 12-byte prefix; the payload rides separately as OutFrame::body.
Bytes TcpTransport::encode_header(uint32_t kind, NodeId src,
                                  size_t payload_size) {
  Writer w(kHeaderBytes);
  w.u32(static_cast<uint32_t>(payload_size) + 8);
  w.u32(kind);
  w.u32(src);
  return std::move(w).take();
}

TcpTransport::TcpTransport(NodeId self, std::vector<TcpPeerAddr> peers,
                           TcpTransportOptions options)
    : self_(self),
      peers_(std::move(peers)),
      opts_(options),
      conns_(peers_.size()),
      pending_(peers_.size()),
      pending_bytes_(peers_.size(), 0),
      backoff_(peers_.size(), Duration::zero()),
      jitter_rng_(options.jitter_seed ^
                  (0x9e3779b97f4a7c15ULL * (self + 1))) {
  STAB_OBS({
    obs::MetricsRegistry& reg = obs::global();
    obs_dial_attempts_ = &reg.counter("net.tcp.dial_attempts");
    obs_connects_ = &reg.counter("net.tcp.connects");
    obs_reconnects_ = &reg.counter("net.tcp.reconnects");
    obs_disconnects_ = &reg.counter("net.tcp.disconnects");
    obs_pending_dropped_ = &reg.counter("net.tcp.pending_dropped_frames");
    obs_pending_bytes_ = &reg.gauge("net.tcp.pending_bytes");
    obs_was_connected_.assign(peers_.size(), false);
  });
  env_.run_sync([this] {
    start_listen();
    // Dial the peers we are responsible for (smaller id dials larger).
    for (NodeId p = self_ + 1; p < peers_.size(); ++p) dial(p);
  });
}

TcpTransport::~TcpTransport() { shutdown(); }

void TcpTransport::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return;
    stop_ = true;
  }
  env_.shutdown();  // joins the loop: no socket callback runs after this
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& c : conns_)
    if (c.fd >= 0) {
      close(c.fd);
      c.fd = -1;
      c.connecting = false;
    }
  for (auto& [serial, h] : hellos_) close(h.fd);
  hellos_.clear();
  if (listen_fd_ >= 0) close(listen_fd_);
  listen_fd_ = -1;
  // Return this transport's buffered bytes to the process-wide gauge so
  // it reads 0 once every transport is down.
  STAB_OBS({
    for (size_t b : pending_bytes_)
      if (b > 0) obs_pending_bytes_->add(-static_cast<int64_t>(b));
  });
}

void TcpTransport::set_receive_handler(ReceiveHandler handler) {
  // Disarm, then wait for a dispatch in progress on the loop to finish
  // before touching the function object: ~Stabilizer unhooks while peers
  // keep sending, and an invocation racing the swap would call into freed
  // state. seq_cst pairs with the count-then-check in deliver_frames().
  handler_armed_.store(false, std::memory_order_seq_cst);
  while (dispatches_in_flight_.load(std::memory_order_acquire) != 0)
    std::this_thread::yield();
  handler_ = std::move(handler);
  if (handler_) handler_armed_.store(true, std::memory_order_seq_cst);
}

void TcpTransport::send(NodeId dst, Bytes frame, uint64_t /*wire_size*/) {
  if (dst == self_ || dst >= peers_.size()) return;
  enqueue(dst, OutFrame{encode_frame(kKindData, self_, frame), {}});
}

void TcpTransport::send_shared(NodeId dst, std::shared_ptr<const Bytes> frame,
                               uint64_t /*wire_size*/) {
  if (dst == self_ || dst >= peers_.size()) return;
  // Queue a 12-byte header plus a reference on the caller's buffer; the
  // socket write scatter-gathers both. A broadcast's N sends share one body
  // allocation.
  OutFrame out{encode_header(kKindData, self_, frame->size()),
               std::move(frame)};
  enqueue(dst, std::move(out));
}

void TcpTransport::enqueue(NodeId dst, OutFrame frame) {
  bool post = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Conn& c = conns_[dst];
    if (c.fd >= 0 && !c.connecting) {
      c.outq.push_back(std::move(frame));
      // One flush task per connection drains everything queued until it
      // runs; a blocked socket is drained by its EPOLLOUT callback instead.
      post = !c.flush_posted && !c.blocked;
      c.flush_posted = c.flush_posted || post;
    } else {
      pending_bytes_[dst] += frame.size();
      STAB_OBS(obs_pending_bytes_->add(static_cast<int64_t>(frame.size())));
      pending_[dst].push_back(std::move(frame));  // flushed on reconnect
      enforce_pending_bound_locked(dst);
    }
  }
  if (post) env_.post([this, dst] { flush(dst); });
}

size_t TcpTransport::connected_peers_locked() const {
  size_t n = 0;
  for (NodeId p = 0; p < conns_.size(); ++p)
    if (p != self_ && conns_[p].fd >= 0 && !conns_[p].connecting) ++n;
  return n;
}

size_t TcpTransport::connected_peers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return connected_peers_locked();
}

uint64_t TcpTransport::pending_dropped_frames() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_dropped_;
}

size_t TcpTransport::pending_bytes(NodeId peer) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return peer < pending_bytes_.size() ? pending_bytes_[peer] : 0;
}

Duration TcpTransport::current_backoff(NodeId peer) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return peer < backoff_.size() ? backoff_[peer] : Duration::zero();
}

bool TcpTransport::wait_connected(Duration timeout) {
  std::unique_lock<std::mutex> lock(mutex_);
  return connected_cv_.wait_for(lock, timeout, [this] {
    return connected_peers_locked() + 1 == peers_.size();
  });
}

void TcpTransport::start_listen() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in sa = make_addr(peers_[self_]);
  sa.sin_addr.s_addr = htonl(INADDR_ANY);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
    STAB_ERROR("tcp: bind failed on port " << peers_[self_].port << ": "
                                           << std::strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return;
  }
  listen(listen_fd_, 64);
  env_.add_fd(listen_fd_, EPOLLIN, [this](uint32_t) { on_accept(); });
}

void TcpTransport::dial(NodeId peer) {
  std::lock_guard<std::mutex> lock(mutex_);
  Conn& c = conns_[peer];
  if (stop_ || c.fd >= 0) return;
  STAB_OBS(obs_dial_attempts_->inc());
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  set_nodelay(fd);
  sockaddr_in sa = make_addr(peers_[peer]);
  if (connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0 &&
      errno != EINPROGRESS) {
    close(fd);
    schedule_redial_locked(peer);
    return;
  }
  // Even an immediate connect completes through the writable callback.
  c.fd = fd;
  c.connecting = true;
  env_.add_fd(fd, EPOLLIN | EPOLLOUT,
              [this, peer](uint32_t events) { on_conn_event(peer, events); });
}

void TcpTransport::finish_connect(NodeId peer) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Conn& c = conns_[peer];
    int err = 0;
    socklen_t len = sizeof err;
    getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      close_conn_locked(peer, "connect failed");
      return;
    }
    c.connecting = false;
    env_.modify_fd(c.fd, EPOLLIN);
    c.outq.push_back(OutFrame{encode_frame(kKindHello, self_, {}), {}});
    mark_up_locked(peer);
  }
  connected_cv_.notify_all();
  flush(peer);
}

void TcpTransport::on_accept() {
  for (;;) {
    int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;
    set_nodelay(fd);
    // The peer is unknown until its HELLO arrives; read it as it comes.
    const uint64_t serial = next_hello_++;
    hellos_.emplace(serial, Hello{fd, {}, 0});
    env_.add_fd(fd, EPOLLIN, [this, serial](uint32_t) { read_hello(serial); });
    env_.schedule_after(kHelloTimeout, [this, serial] { drop_hello(serial); });
  }
}

void TcpTransport::read_hello(uint64_t serial) {
  auto it = hellos_.find(serial);
  if (it == hellos_.end()) return;
  Hello& h = it->second;
  // Read only the HELLO; whatever follows stays queued in the socket.
  ssize_t n = recv(h.fd, h.buf + h.got, sizeof h.buf - h.got, 0);
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR))
    return;
  if (n > 0) h.got += static_cast<size_t>(n);
  if (n > 0 && h.got < sizeof h.buf) return;
  const int fd = h.fd;
  const uint32_t body_len = load_u32(h.buf);
  const uint32_t kind = load_u32(h.buf + 4);
  const NodeId src = load_u32(h.buf + 8);
  const bool ok = n > 0 && body_len == 8 && kind == kKindHello &&
                  src < peers_.size() && src != self_;
  hellos_.erase(it);
  env_.remove_fd(fd);
  if (ok) {
    adopt(src, fd);
  } else {
    close(fd);
  }
}

void TcpTransport::drop_hello(uint64_t serial) {
  auto it = hellos_.find(serial);
  if (it == hellos_.end()) return;
  env_.remove_fd(it->second.fd);
  close(it->second.fd);
  hellos_.erase(it);
}

void TcpTransport::adopt(NodeId peer, int fd) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Conn& c = conns_[peer];
    if (c.fd >= 0) {
      // A dialer that restarted reconnects before we notice its old
      // connection died: keep the connection dialed by the smaller id.
      // We are the acceptor, so the dialer is `peer`; keep this one iff
      // peer < self_.
      if (peer < self_) {
        close_conn_locked(peer, "replaced by accepted conn");
      } else {
        close(fd);
        return;
      }
    }
    c.fd = fd;
    c.connecting = false;
    env_.add_fd(fd, EPOLLIN,
                [this, peer](uint32_t events) { on_conn_event(peer, events); });
    mark_up_locked(peer);
  }
  connected_cv_.notify_all();
  flush(peer);
}

void TcpTransport::mark_up_locked(NodeId peer) {
  Conn& c = conns_[peer];
  backoff_[peer] = Duration::zero();  // live connection resets the backoff
  STAB_OBS(obs_on_connected_locked(peer));
  while (!pending_[peer].empty()) {
    pending_bytes_[peer] -= pending_[peer].front().size();
    STAB_OBS(obs_pending_bytes_->add(
        -static_cast<int64_t>(pending_[peer].front().size())));
    c.outq.push_back(std::move(pending_[peer].front()));
    pending_[peer].pop_front();
  }
}

#if STAB_OBS_ENABLED
void TcpTransport::obs_on_connected_locked(NodeId peer) {
  obs_connects_->inc();
  if (obs_was_connected_[peer]) obs_reconnects_->inc();
  obs_was_connected_[peer] = true;
}
#endif

void TcpTransport::close_conn_locked(NodeId peer, const char* why) {
  Conn& c = conns_[peer];
  if (c.fd < 0) return;
  STAB_DEBUG("tcp node " << self_ << ": closing conn to " << peer << " ("
                         << why << ")");
  env_.remove_fd(c.fd);
  close(c.fd);
  STAB_OBS(obs_disconnects_->inc());
  // Unsent frames go back to pending so they survive the reconnect.
  if (!c.outq.empty()) {
    // Drop the partially written frame: the peer would see a torn frame
    // anyway; it is re-sent by the data plane's retransmission layer.
    if (c.out_offset > 0) c.outq.pop_front();
    while (!c.outq.empty()) {
      pending_bytes_[peer] += c.outq.back().size();
      STAB_OBS(obs_pending_bytes_->add(
          static_cast<int64_t>(c.outq.back().size())));
      pending_[peer].push_front(std::move(c.outq.back()));
      c.outq.pop_back();
    }
    enforce_pending_bound_locked(peer);
  }
  c = Conn{};
  if (self_ < peer) schedule_redial_locked(peer);
}

void TcpTransport::schedule_redial_locked(NodeId peer) {
  Duration& b = backoff_[peer];
  b = b == Duration::zero() ? opts_.reconnect_initial
                            : std::min(opts_.reconnect_max, b * 2);
  double jitter =
      1.0 + opts_.reconnect_jitter * (jitter_rng_.next_double() * 2.0 - 1.0);
  env_.schedule_after(std::chrono::duration_cast<Duration>(b * jitter),
                      [this, peer] { dial(peer); });
}

void TcpTransport::enforce_pending_bound_locked(NodeId peer) {
  if (opts_.max_pending_bytes == 0) return;
  auto& q = pending_[peer];
  // Keep at least the newest frame so a single frame larger than the bound
  // still goes out eventually.
  while (pending_bytes_[peer] > opts_.max_pending_bytes && q.size() > 1) {
    pending_bytes_[peer] -= q.front().size();
    STAB_OBS({
      obs_pending_bytes_->add(-static_cast<int64_t>(q.front().size()));
      obs_pending_dropped_->inc();
    });
    q.pop_front();
    ++pending_dropped_;
  }
}

void TcpTransport::on_conn_event(NodeId peer, uint32_t events) {
  if (conns_[peer].connecting) {
    finish_connect(peer);  // writable, or the connect failed
    return;
  }
  if (events & EPOLLOUT) flush(peer);
  // recv() also reports a hang-up or socket error.
  if (events & (EPOLLIN | EPOLLHUP | EPOLLERR)) on_readable(peer);
}

void TcpTransport::on_readable(NodeId peer) {
  Conn& c = conns_[peer];
  if (c.fd < 0) return;
  if (c.inbuf.empty()) c.inbuf.resize(kRecvBuffer);
  for (int i = 0; i < kReadsPerEvent; ++i) {
    const size_t space = c.inbuf.size() - c.in_len;
    ssize_t n = recv(c.fd, c.inbuf.data() + c.in_len, space, 0);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR))
      return;
    if (n <= 0) {
      std::lock_guard<std::mutex> lock(mutex_);
      close_conn_locked(peer, n == 0 ? "peer closed" : "recv error");
      return;
    }
    c.in_len += static_cast<size_t>(n);
    if (!deliver_frames(peer)) return;
    if (static_cast<size_t>(n) < space) return;  // the socket is drained
  }
}

// Dispatches every complete frame where it lies in the receive buffer, then
// moves only the partial tail to the front. Returns false if a hostile
// frame closed the connection.
bool TcpTransport::deliver_frames(NodeId peer) {
  Conn& c = conns_[peer];
  const uint8_t* buf = c.inbuf.data();
  size_t pos = 0;
  const char* bad = nullptr;
  dispatches_in_flight_.fetch_add(1, std::memory_order_seq_cst);
  while (c.in_len - pos >= 4) {
    const uint32_t body_len = load_u32(buf + pos);
    if (body_len < 8 || body_len > kMaxFrameBody) {
      bad = "bad frame length";
      break;
    }
    const size_t frame_len = 4 + size_t{body_len};
    if (c.in_len - pos < frame_len) break;
    const uint32_t kind = load_u32(buf + pos + 4);
    if (load_u32(buf + pos + 8) != peer) {
      bad = "frame src differs from HELLO";
      break;
    }
    if (kind == kKindData && handler_armed_.load(std::memory_order_seq_cst))
      handler_(peer, BytesView(buf + pos + kHeaderBytes, body_len - 8),
               body_len - 8);
    pos += frame_len;
  }
  dispatches_in_flight_.fetch_sub(1, std::memory_order_release);
  if (bad) {
    std::lock_guard<std::mutex> lock(mutex_);
    close_conn_locked(peer, bad);
    return false;
  }
  c.in_len -= pos;
  if (pos > 0 && c.in_len > 0)
    std::memmove(c.inbuf.data(), buf + pos, c.in_len);
  // Make room for the whole frame the tail starts.
  if (c.in_len >= 4) {
    const size_t need = 4 + size_t{load_u32(c.inbuf.data())};
    if (need > c.inbuf.size()) c.inbuf.resize(need);
  }
  return true;
}

// Writes everything queued, up to kMaxIov/2 frames per sendmsg, without
// holding mutex_ during the syscall: senders only append to outq, and only
// this thread removes from it, so the frames the iovecs point at stay put.
void TcpTransport::flush(NodeId peer) {
  std::unique_lock<std::mutex> lock(mutex_);
  Conn& c = conns_[peer];
  c.flush_posted = false;
  if (c.fd < 0 || c.connecting) return;
  while (!c.outq.empty()) {
    iovec iov[kMaxIov];
    int iovcnt = 0;
    size_t want = 0;
    size_t skip = c.out_offset;
    for (const OutFrame& f : c.outq) {
      if (iovcnt + 2 > kMaxIov) break;
      if (skip < f.head.size()) {
        iov[iovcnt++] = {const_cast<uint8_t*>(f.head.data() + skip),
                         f.head.size() - skip};
        skip = 0;
      } else {
        skip -= f.head.size();
      }
      if (f.body && skip < f.body->size())
        iov[iovcnt++] = {const_cast<uint8_t*>(f.body->data() + skip),
                         f.body->size() - skip};
      skip = 0;
    }
    for (int i = 0; i < iovcnt; ++i) want += iov[i].iov_len;
    lock.unlock();
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(iovcnt);
    ssize_t n = ::sendmsg(c.fd, &msg, MSG_NOSIGNAL);
    const int err = errno;
    lock.lock();
    if (n < 0 && err == EINTR) continue;
    if (n < 0 && err != EAGAIN && err != EWOULDBLOCK) {
      close_conn_locked(peer, "send error");
      return;
    }
    size_t written = n > 0 ? static_cast<size_t>(n) : 0;
    while (!c.outq.empty()) {
      const size_t left = c.outq.front().size() - c.out_offset;
      if (written < left) {
        c.out_offset += written;
        break;
      }
      written -= left;
      c.outq.pop_front();
      c.out_offset = 0;
    }
    if (n < 0 || static_cast<size_t>(n) < want) {
      // The socket is full: let EPOLLOUT resume the flush.
      if (!c.blocked) {
        c.blocked = true;
        env_.modify_fd(c.fd, EPOLLIN | EPOLLOUT);
      }
      return;
    }
  }
  if (c.blocked) {
    c.blocked = false;
    env_.modify_fd(c.fd, EPOLLIN);
  }
}

}  // namespace stab
