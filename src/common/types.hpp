// Core identifier and time types shared by every Stabilizer module.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>

namespace stab {

/// Index of a WAN node (a data center). Nodes are numbered densely from 0
/// in the order they appear in the cluster configuration. The paper's DSL
/// operand `$1` refers to the node whose configured name is "1" (names and
/// indices coincide in the paper's examples); resolution happens in the DSL
/// analyzer against the Topology.
using NodeId = uint32_t;
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/// Sequence number of a message within one origin's stream. Stabilizer is
/// primary-site: each data item has one owner, and only the owner assigns
/// sequence numbers, so a single monotone counter per origin suffices
/// (paper §III-A). Frontier values use int64_t with -1 meaning "nothing
/// stable yet".
using SeqNum = int64_t;
inline constexpr SeqNum kNoSeq = -1;
/// Sentinel delivered to waitfor callbacks whose stream authority was fenced
/// (the waiting node was deposed as primary of the stream, so its pending
/// waiters can never be satisfied by the old sequence space). Distinct from
/// kNoSeq — "predicate removed/unsatisfiable" — so callers can tell the two
/// §III-E outcomes apart. See Stabilizer::WaitStatus.
inline constexpr SeqNum kFencedSeq = -2;

/// Epoch of a stream's sequencing authority. Epoch 0 is the stream's
/// configured origin node; each Paxos-committed failover promotion bumps it
/// by one. Stamped into DATA/DATABATCH/ACKBATCH/RESUME wire frames so
/// receivers can fence frames from a deposed (zombie) ex-primary.
using PrimaryEpoch = uint32_t;

/// Identifier of a stability type ("received", "persisted", or an
/// application-defined level such as "verified"). See control/stability_types.
using StabilityTypeId = uint32_t;
/// Exclusive upper bound on stability type ids. Ack tables keep one row per
/// type id, so an id read off the wire must never size them: decoders refuse
/// frames naming a type at or above this cap, and AckTable ignores such
/// reports. The cap is fixed rather than the local registry's size because a
/// peer may legitimately report a type this node has not registered yet.
inline constexpr StabilityTypeId kMaxStabilityTypes = 256;

/// Virtual or real time. All modules treat time as a nanosecond count since
/// an arbitrary epoch so that the deterministic simulator and the real-time
/// environments expose the same arithmetic.
using Duration = std::chrono::nanoseconds;
using TimePoint = Duration;  // nanoseconds since epoch

inline constexpr TimePoint kTimeZero{0};

inline constexpr Duration micros(int64_t v) { return std::chrono::microseconds(v); }
inline constexpr Duration millis(int64_t v) { return std::chrono::milliseconds(v); }
inline constexpr Duration seconds(int64_t v) { return std::chrono::seconds(v); }

inline double to_ms(Duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
inline double to_sec(Duration d) {
  return std::chrono::duration<double>(d).count();
}
inline Duration from_ms(double ms) {
  return std::chrono::duration_cast<Duration>(
      std::chrono::duration<double, std::milli>(ms));
}
inline Duration from_sec(double s) {
  return std::chrono::duration_cast<Duration>(std::chrono::duration<double>(s));
}

/// Duration of transmitting `bytes` over a `bits_per_sec` link.
inline Duration transmit_time(uint64_t bytes, double bits_per_sec) {
  if (bits_per_sec <= 0) return Duration::zero();
  return from_sec(static_cast<double>(bytes) * 8.0 / bits_per_sec);
}

inline double mbps(double v) { return v * 1e6; }  // Mbit/s -> bit/s

}  // namespace stab
