// Reclamation safety, judged from outside the nodes (DESIGN.md §6.5): no
// stream has reclaimed a seq that a live destination has not delivered. The
// judge is each destination's delivered_through, not the ack table the
// sequencer reclaimed by, so a receiver that acknowledges more than it
// delivered (a held out-of-order frame, say) fails it. The chaos and
// failover harnesses run it periodically during a campaign and at its end.
#pragma once

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/stabilizer.hpp"
#include "sim/simulator.hpp"

namespace stab {

/// The first violation among `nodes` (null = down), or "" when none. For
/// every stream a live node sequences and has reclaimed from, every live
/// destination it serves — not excluded, and on the same epoch of the
/// stream — must have delivered through the reclaimed seq. A destination on
/// another epoch is skipped: its cursor counts another authority's sequence
/// space.
inline std::string reclamation_violation(
    const std::vector<std::unique_ptr<Stabilizer>>& nodes) {
  const NodeId n = static_cast<NodeId>(nodes.size());
  for (NodeId p = 0; p < n; ++p) {
    if (!nodes[p]) continue;
    for (NodeId origin = 0; origin < n; ++origin) {
      const SeqNum reclaimed = nodes[p]->reclaimed_through(origin);
      if (reclaimed == kNoSeq) continue;
      const PrimaryEpoch epoch = nodes[p]->stream_epoch(origin);
      for (NodeId d = 0; d < n; ++d) {
        if (d == p || d == origin || !nodes[d] ||
            nodes[p]->peer_excluded(d) ||
            nodes[d]->stream_epoch(origin) != epoch)
          continue;
        const SeqNum delivered = nodes[d]->delivered_through(origin);
        if (delivered < reclaimed) {
          std::ostringstream os;
          os << "node " << p << " reclaimed stream " << origin << " through "
             << reclaimed << " but node " << d << " delivered it through "
             << delivered;
          return os.str();
        }
      }
    }
  }
  return "";
}

/// Checks `nodes` every 50 ms of virtual time from now on and keeps the
/// first violation in `first` ("" while none). `nodes` and `first` must
/// live as long as `sim`.
inline void watch_reclamation(
    sim::Simulator& sim, const std::vector<std::unique_ptr<Stabilizer>>& nodes,
    std::string& first) {
  sim.schedule_after(millis(50), [&sim, &nodes, &first] {
    if (first.empty()) first = reclamation_violation(nodes);
    watch_reclamation(sim, nodes, first);
  });
}

}  // namespace stab
