// Real-socket transport: length-prefixed frames over TCP with automatic
// connect/reconnect. A node is one thread: its sockets are registered on the
// node's RealtimeEnv, the epoll loop that also runs its timers and all of
// its Stabilizer work. Received frames are dispatched inline on that loop as
// views into the connection's receive buffer. send() from any thread queues
// the frame and posts at most one flush task per connection; once the
// sending task has returned, the flush writes everything queued, up to 32
// frames per sendmsg.
//
// Connection policy: the node with the smaller id dials; the larger id
// accepts. Every connection starts with a HELLO frame carrying the dialer's
// node id, read without blocking the loop. Frames queued while a peer is
// down are buffered (up to a configurable byte bound, oldest dropped first)
// and flushed on reconnect. Redials are Env timers that back off
// exponentially with jitter up to a cap, so a long partition costs neither
// unbounded memory nor a SYN storm; anything dropped is recovered by the
// data plane's retransmission (NACKs and the retransmit probe). A frame
// whose length is outside [8, kMaxFrameBody] or whose src is not the id its
// connection's HELLO announced closes that connection.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/realtime_env.hpp"
#include "common/rng.hpp"
#include "net/transport.hpp"
#include "obs/obs.hpp"

namespace stab {

struct TcpPeerAddr {
  std::string host;  // numeric IP or "localhost"
  uint16_t port = 0;
};

struct TcpTransportOptions {
  /// Reconnect backoff: the retry delay starts at `reconnect_initial`,
  /// doubles per consecutive failure up to `reconnect_max`, and resets on a
  /// completed connection. Each delay gets +/- `reconnect_jitter` (as a
  /// fraction) of deterministic jitter so a cluster-wide heal doesn't
  /// produce synchronized dial storms.
  Duration reconnect_initial = millis(50);
  Duration reconnect_max = seconds(2);
  double reconnect_jitter = 0.2;
  uint64_t jitter_seed = 0x7c0ffeeULL;  // mixed with self id per transport

  /// Byte bound on each peer's pending (disconnected) frame buffer; 0 =
  /// unbounded (pre-bound behaviour). When exceeded the oldest frames are
  /// dropped first — cumulative ACK batches are superseded by newer ones
  /// anyway, and dropped DATA frames are re-sent by the retransmit probe —
  /// so a long partition cannot OOM the process.
  size_t max_pending_bytes = 0;
};

class TcpTransport final : public Transport {
 public:
  /// Largest frame body a connection accepts: far above anything the
  /// library sends, small enough that a lying length cannot make the
  /// receive buffer balloon.
  static constexpr uint32_t kMaxFrameBody = 64u << 20;

  /// `peers[i]` is node i's listen address; `peers[self]` is where this
  /// transport listens. Starts the node's loop thread, listens and dials
  /// before returning.
  TcpTransport(NodeId self, std::vector<TcpPeerAddr> peers,
               TcpTransportOptions options = {});
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  NodeId self() const override { return self_; }
  size_t cluster_size() const override { return peers_.size(); }
  void set_receive_handler(ReceiveHandler handler) override;
  void send(NodeId dst, Bytes frame, uint64_t wire_size = 0) override;
  void send_shared(NodeId dst, std::shared_ptr<const Bytes> frame,
                   uint64_t wire_size = 0) override;
  Env& env() override { return env_; }

  /// Blocks until a live connection exists to every other node, or the
  /// timeout expires. Returns true when fully connected.
  bool wait_connected(Duration timeout);

  /// Stops the loop thread and closes every socket. Idempotent.
  void shutdown();

  /// Test hook: number of currently connected peers.
  size_t connected_peers() const;
  /// Test hooks: pending-buffer accounting and reconnect backoff state.
  uint64_t pending_dropped_frames() const;
  size_t pending_bytes(NodeId peer) const;
  Duration current_backoff(NodeId peer) const;

 private:
  /// One queued wire frame. Fully-materialized frames (HELLO, plain send)
  /// carry everything in `head`; shared sends carry only the 12-byte length
  /// prefix in `head` and reference the caller's encoded frame as `body`, so
  /// an N-peer broadcast queues N tiny headers plus one shared buffer. The
  /// two parts are written with one sendmsg (scatter-gather).
  struct OutFrame {
    Bytes head;
    std::shared_ptr<const Bytes> body;  // may be null
    size_t size() const { return head.size() + (body ? body->size() : 0); }
  };

  struct Conn {
    // Guarded by mutex_; written only on the loop thread, so the loop may
    // read fd and connecting without it.
    int fd = -1;
    bool connecting = false;    // non-blocking connect in progress
    bool flush_posted = false;  // a flush task is queued on the loop
    bool blocked = false;       // socket full: EPOLLOUT armed until drained
    std::deque<OutFrame> outq;
    size_t out_offset = 0;      // bytes of outq.front() already written
    // Loop thread only: received bytes [0, in_len) of inbuf.
    Bytes inbuf;
    size_t in_len = 0;
  };

  /// An accepted socket whose 12-byte HELLO has not fully arrived yet.
  struct Hello {
    int fd = -1;
    uint8_t buf[12] = {};
    size_t got = 0;
  };

  void start_listen();
  void dial(NodeId peer);
  void finish_connect(NodeId peer);
  void on_accept();
  void read_hello(uint64_t serial);
  void drop_hello(uint64_t serial);
  void adopt(NodeId peer, int fd);
  void on_conn_event(NodeId peer, uint32_t events);
  void on_readable(NodeId peer);
  bool deliver_frames(NodeId peer);
  void flush(NodeId peer);
  void enqueue(NodeId dst, OutFrame frame);
  void mark_up_locked(NodeId peer);
  void close_conn_locked(NodeId peer, const char* why);
  void enforce_pending_bound_locked(NodeId peer);
  void schedule_redial_locked(NodeId peer);
  size_t connected_peers_locked() const;
  static Bytes encode_frame(uint32_t kind, NodeId src, BytesView payload);
  static Bytes encode_header(uint32_t kind, NodeId src, size_t payload_size);

  const NodeId self_;
  const std::vector<TcpPeerAddr> peers_;
  const TcpTransportOptions opts_;
  RealtimeEnv env_;

  mutable std::mutex mutex_;
  std::condition_variable connected_cv_;  // a connection came up
  std::vector<Conn> conns_;          // indexed by peer id
  std::vector<std::deque<OutFrame>> pending_;  // queued while disconnected
  std::vector<size_t> pending_bytes_;       // bytes in pending_[peer]
  std::vector<Duration> backoff_;           // current reconnect delay per peer
  Rng jitter_rng_;                          // guarded by mutex_
  uint64_t pending_dropped_ = 0;
  bool stop_ = false;                       // guarded by mutex_

  // Receive handler gate, as in InProcTransport: dispatch bumps the
  // in-flight count, then checks the armed flag; set_receive_handler
  // disarms and waits for the count to drain before replacing handler_.
  ReceiveHandler handler_;  // written only while disarmed and drained
  std::atomic<bool> handler_armed_{false};
  std::atomic<uint32_t> dispatches_in_flight_{0};

  // Loop thread only.
  int listen_fd_ = -1;
  std::map<uint64_t, Hello> hellos_;  // by accept serial
  uint64_t next_hello_ = 0;

#if STAB_OBS_ENABLED
  // Process-wide transport metrics (obs::global(); see
  // docs/OBSERVABILITY.md), resolved once at construction. The counters are
  // bumped from the loop thread and from senders' threads — relaxed
  // atomics, no extra locking. obs_was_connected_ (guarded by mutex_)
  // distinguishes a peer's first connect from a reconnect episode.
  obs::Counter* obs_dial_attempts_ = nullptr;
  obs::Counter* obs_connects_ = nullptr;
  obs::Counter* obs_reconnects_ = nullptr;
  obs::Counter* obs_disconnects_ = nullptr;
  obs::Counter* obs_pending_dropped_ = nullptr;
  obs::Gauge* obs_pending_bytes_ = nullptr;  // summed over peers (delta-kept)
  std::vector<bool> obs_was_connected_;
  void obs_on_connected_locked(NodeId peer);
#endif
};

/// Convenience: build an n-node loopback cluster on consecutive ports
/// starting at `base_port`. Used by tests and the TCP example.
std::vector<TcpPeerAddr> loopback_addrs(size_t n, uint16_t base_port);

/// An n-node loopback cluster on consecutive ports that a bind probe finds
/// free, from a random base below Linux's default ephemeral range
/// (32768-60999), so no node's outgoing connection can hold a port another
/// node still has to listen on. Throws std::runtime_error if none is found.
std::vector<TcpPeerAddr> free_loopback_addrs(size_t n);

}  // namespace stab
