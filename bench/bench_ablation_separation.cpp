// E-AB1: ablation — control-plane / data-plane separation.
//
// The paper's §III-B claim: Stabilizer "maximizes utilization of WAN
// bandwidth by sending data aggressively as soon as it has been assigned a
// sequence number ... in contrast with classic WAN consistency mechanisms,
// such as protocols based on Paxos, that block message sending when all
// leaders are busy exchanging control information."
//
// This ablation runs the same workload (2,000 x 8 KB messages, EC2
// topology, MajorityWNodes stability for every message) in two modes:
//   * separated — the data plane streams at full speed; the control plane
//     confirms asynchronously (Stabilizer's design);
//   * lockstep  — message i+1 is sent only after message i reached
//     majority stability (control information on the critical path).
#include "backup/backup_service.hpp"
#include "bench_common.hpp"

using namespace stab;
using namespace stab::bench;

namespace {

constexpr int kMessages = 2'000;
constexpr uint64_t kMsgSize = 8 * 1024;

struct RunResult {
  double total_s = 0;
  double goodput_mbps = 0;
  double mean_stability_ms = 0;
};

RunResult run(bool lockstep) {
  Topology topo = ec2_topology();
  StabilizerOptions base;
  base.broadcast_acks = false;
  base.ack_interval = millis(2);
  StabCluster cluster(topo, base);
  Stabilizer& sender = cluster.node(0);
  auto preds = backup::BackupService::standard_predicates(topo, 0);
  sender.register_predicate("majority", preds["MajorityWNodes"]);

  Series stability_ms;
  int completed = 0;
  TimePoint done = kTimeZero;

  std::function<void()> send_next = [&] {
    TimePoint start = cluster.sim.now();
    SeqNum seq = sender.send({}, kMsgSize);
    sender.waitfor(seq, "majority", [&, start](SeqNum) {
      stability_ms.add(to_ms(cluster.sim.now() - start));
      if (++completed == kMessages) done = cluster.sim.now();
      if (lockstep && completed < kMessages) send_next();
    });
  };

  if (lockstep) {
    send_next();  // chain: control round-trip gates each next send
  } else {
    for (int m = 0; m < kMessages; ++m) send_next();  // stream everything
  }
  cluster.sim.run();

  RunResult out;
  out.total_s = to_sec(done);
  out.goodput_mbps = kMessages * kMsgSize * 8.0 / 1e6 / out.total_s;
  out.mean_stability_ms = stability_ms.mean();
  return out;
}

/// E-AB3: control-plane batching ablation. Monotonic counters make ACK
/// coalescing lossless (§III-A); this quantifies the latency/traffic
/// trade-off of the batching interval.
void ack_interval_sweep() {
  std::printf("\n--- E-AB3: ack batching interval (monotonic coalescing) "
              "---\n\n");
  std::printf("%14s %22s %18s\n", "interval", "mean stability (ms)",
              "report frames sent");
  for (int64_t us : {0LL, 100LL, 1000LL, 2000LL, 10000LL, 50000LL}) {
    Topology topo = ec2_topology();
    StabilizerOptions base;
    base.broadcast_acks = false;
    base.ack_interval = micros(us);
    StabCluster cluster(topo, base);
    Stabilizer& sender = cluster.node(0);
    auto preds = backup::BackupService::standard_predicates(topo, 0);
    sender.register_predicate("majority", preds["MajorityWNodes"]);

    Series stability_ms;
    const int kCount = 500;
    for (int m = 0; m < kCount; ++m) {
      cluster.sim.schedule_at(millis(m * 5), [&] {
        TimePoint start = cluster.sim.now();
        SeqNum seq = sender.send({}, kMsgSize);
        sender.waitfor(seq, "majority", [&, start](SeqNum) {
          stability_ms.add(to_ms(cluster.sim.now() - start));
        });
      });
    }
    cluster.sim.run();
    uint64_t batches = 0;
    for (auto& node : cluster.nodes)
      batches += counter(*node, "control.ack_batches_sent") +
                 counter(*node, "control.report_batches_sent");
    std::printf("%11lld us %22.2f %18llu\n", static_cast<long long>(us),
                stability_ms.mean(), static_cast<unsigned long long>(batches));
  }
  std::printf("\nLarger intervals coalesce more reports into fewer control\n"
              "frames at a bounded latency cost — the reason overwriting\n"
              "monotonic reports is safe and cheap.\n");
}

}  // namespace

int main() {
  print_header("bench_ablation_separation — control/data plane separation",
               "the §III-B design claim (ablation, not a paper figure)");

  std::printf("\nworkload: %d x 8 KB messages to 7 mirrors, majority "
              "stability each\n\n",
              kMessages);
  RunResult sep = run(false);
  RunResult lock = run(true);

  std::printf("%-12s %14s %16s %20s\n", "mode", "total (s)",
              "goodput (Mb/s)", "mean stability (ms)");
  std::printf("%-12s %14.2f %16.1f %20.1f\n", "separated", sep.total_s,
              sep.goodput_mbps, sep.mean_stability_ms);
  std::printf("%-12s %14.2f %16.1f %20.1f\n", "lockstep", lock.total_s,
              lock.goodput_mbps, lock.mean_stability_ms);
  std::printf("\nseparation speedup: %.1fx\n", lock.total_s / sep.total_s);

  bool pass = sep.total_s < lock.total_s / 4;
  std::printf("\nshape check: asynchronous control plane >= 4x faster under "
              "sustained load: %s\n",
              pass ? "PASS" : "FAIL");

  ack_interval_sweep();
  return pass ? 0 : 1;
}
