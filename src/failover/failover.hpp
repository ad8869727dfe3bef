// Primary failover: leased failure detection, Paxos-coordinated mirror
// promotion, and epoch fencing (DESIGN.md §6).
//
// One FailoverManager per node guards ONE origin stream (the one named in
// FailoverOptions::stream). The protocol has four phases:
//
//   1. Detection. The stream's sequencing authority broadcasts small LEASE
//      frames every lease_interval. Mirrors additionally treat ordinary
//      traffic as lease renewal — data-plane delivery progress on the
//      guarded stream, and the authority's acks about the mirror's own
//      stream — so a loaded primary never pays an extra heartbeat and an
//      idle one costs one tiny frame per interval. A mirror that sees no
//      signal for lease_timeout suspects the primary.
//
//   2. Election. Suspecting mirrors broadcast SUSPECT frames carrying their
//      delivered prefix, gather peers' cursors for suspect_gather, and the
//      mirror with the longest prefix (ties: lowest id) proposes
//      PROMOTE{stream, epoch+1, self} through the embedded Multi-Paxos
//      group. Competing proposers from overlapping suspicion windows are
//      resolved by ballot order; the first PROMOTE committed for an epoch
//      wins and later ones are ignored as stale.
//
//   3. Promotion. Every node applies the committed PROMOTE via
//      Stabilizer::observe_takeover — fencing the deposed primary
//      immediately. The winner then runs a reconciliation round (REC_REQ /
//      REC_REPLY) collecting every live peer's delivered prefix, resumes
//      sequencing from max+1 via Stabilizer::adopt_stream, and broadcasts
//      TAKEOVER (re-broadcast each tick) so laggards, partitioned nodes,
//      and the zombie ex-primary itself all learn the new authority.
//
//   4. Fencing. PrimaryEpoch stamps on every data/ack/RESUME frame let
//      peers reject the zombie's stale output (counted, never delivered);
//      the deposed node self-fences on hearing TAKEOVER: its send() returns
//      kFencedSeq and parked own-stream waitfor callers fail with
//      WaitStatus::kFenced instead of hanging.
//
// Threading: the manager is Env-thread confined. Construct and start() it
// from the node's Env thread (or before traffic starts); every callback and
// timer runs there.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "core/stabilizer.hpp"
#include "failover/raw_transport.hpp"
#include "paxos/paxos.hpp"

namespace stab::failover {

// Raw frame kinds (>= 0x40 per the Stabilizer raw channel contract; the
// 0x60-0x67 block is routed to the embedded PaxosNode).
inline constexpr uint8_t kLeaseKind = 0x70;
inline constexpr uint8_t kSuspectKind = 0x71;
inline constexpr uint8_t kTakeoverKind = 0x72;
inline constexpr uint8_t kRecReqKind = 0x73;
inline constexpr uint8_t kRecReplyKind = 0x74;

struct FailoverOptions {
  /// The origin stream to guard (initially primary-owned by the node with
  /// this id).
  NodeId stream = 0;
  /// Lease broadcast / detection poll cadence.
  Duration lease_interval = millis(100);
  /// Silence window after which a mirror suspects the primary. Must cover
  /// several lease intervals plus worst-case one-way delay, or healthy
  /// primaries get deposed under jitter.
  Duration lease_timeout = millis(500);
  /// How long a suspecting mirror collects peers' SUSPECT cursors before
  /// deciding the candidate.
  Duration suspect_gather = millis(50);
  /// Reconciliation round deadline: peers that fail to reply within it are
  /// treated as dead and their prefixes ignored (safe: their unseen suffix
  /// was never everywhere-stable).
  Duration reconcile_timeout = millis(200);
  /// Retry cadence for the embedded Paxos group (lossy links).
  Duration paxos_retry = millis(100);
  /// Exclude the deposed primary from data/ack/window paths on takeover
  /// (Stabilizer::set_peer_excluded), unpinning its send-buffer floor.
  bool auto_exclude = true;
};

/// Plain counters of this manager's own protocol steps. The node's
/// registry-backed failover.* metrics count what the core saw.
struct FailoverStats {
  uint64_t leases_sent = 0;
  uint64_t leases_received = 0;
  uint64_t suspicions = 0;          // local lease-loss windows expired
  uint64_t elections_proposed = 0;  // PROMOTE proposals submitted to Paxos
  uint64_t promotions_won = 0;      // adopt_stream completed locally
  uint64_t takeovers_applied = 0;   // PROMOTE/TAKEOVER epoch bumps applied
  uint64_t rec_requests_sent = 0;
  uint64_t rec_replies_received = 0;
  /// First suspicion / local adoption instants (Env clock; unset = zero).
  /// bench_failover reads these to split detection from promotion latency.
  TimePoint suspected_at{};
  TimePoint promoted_at{};
};

class FailoverManager {
 public:
  /// Takes over the Stabilizer's raw-frame handler for its lifetime (one
  /// manager per node). The embedded PaxosNode spans every cluster member,
  /// so a majority of ALL nodes — not just suspecting mirrors — must be
  /// reachable for a promotion to commit.
  FailoverManager(FailoverOptions options, Stabilizer& stab);
  ~FailoverManager();

  /// Arm timers (lease issue / detection poll). Idempotent.
  void start();
  /// Cancel timers and detach from the Stabilizer. Idempotent; called by
  /// the destructor.
  void stop();

  const FailoverStats& stats() const { return stats_; }
  /// True once this node adopted the guarded stream.
  bool promoted() const { return promoted_; }
  paxos::PaxosNode& paxos_node() { return *paxos_; }

 private:
  void tick();
  void on_raw(NodeId src, BytesView frame, uint64_t wire_size);
  void issue_leases();
  void on_lease(NodeId src, BytesView frame);
  void start_suspicion();
  void on_suspect(NodeId src, BytesView frame);
  void conclude_election();
  void on_promote_commit(BytesView value);
  void apply_takeover(NodeId winner, PrimaryEpoch epoch, SeqNum start_seq);
  void begin_reconciliation(PrimaryEpoch epoch);
  void reconcile_tick();
  void finish_reconciliation();
  void on_rec_req(NodeId src, BytesView frame);
  void on_rec_reply(NodeId src, BytesView frame);
  void broadcast_takeover();
  void clear_suspicion();

  FailoverOptions options_;
  Stabilizer& stab_;
  RawLinkTransport link_;
  std::unique_ptr<paxos::PaxosNode> paxos_;
  FailoverStats stats_;

  bool started_ = false;
  bool stopped_ = false;
  TimerId tick_timer_ = kInvalidTimer;
  TimerId gather_timer_ = kInvalidTimer;
  TimerId rec_timer_ = kInvalidTimer;

  // Detection state (mirror role).
  TimePoint last_alive_{};
  SeqNum last_delivered_ = kNoSeq;    // guarded-stream delivery watermark
  SeqNum last_ack_seen_ = kNoSeq;     // authority's ack about our own stream
  bool suspecting_ = false;
  std::map<NodeId, SeqNum> suspect_cursors_;

  // Reconciliation state (winner role).
  bool reconciling_ = false;
  PrimaryEpoch rec_epoch_ = 0;
  std::map<NodeId, SeqNum> rec_replies_;
  TimePoint rec_deadline_{};

  // Post-promotion state.
  bool promoted_ = false;
  SeqNum takeover_start_ = kNoSeq;
};

}  // namespace stab::failover
