// Real-socket deployment: a three-node Stabilizer cluster over TCP on
// loopback (one process, three transports — the same code works across
// machines by changing the address list), using the blocking waitfor API.
//
// Build & run:  ./build/examples/tcp_cluster [base_port]
#include <cstdio>
#include <cstdlib>

#include "core/stabilizer.hpp"
#include "net/tcp_transport.hpp"

using namespace stab;

int main(int argc, char** argv) {
  uint16_t base_port =
      argc > 1 ? static_cast<uint16_t>(std::atoi(argv[1])) : 39310;

  Topology topo;
  topo.add_node("alpha", "east");
  topo.add_node("beta", "east");
  topo.add_node("gamma", "west");
  LinkSpec l;  // latency comes from the real network (loopback here)
  for (NodeId a = 0; a < 3; ++a)
    for (NodeId b = 0; b < 3; ++b)
      if (a != b) topo.set_link(a, b, l);

  auto addrs = loopback_addrs(3, base_port);
  std::printf("tcp_cluster: three nodes on 127.0.0.1:%u..%u\n\n", base_port,
              base_port + 2);

  std::vector<std::unique_ptr<TcpTransport>> transports;
  std::vector<std::unique_ptr<Stabilizer>> nodes;
  for (NodeId n = 0; n < 3; ++n)
    transports.push_back(std::make_unique<TcpTransport>(n, addrs));
  for (NodeId n = 0; n < 3; ++n) {
    if (!transports[n]->wait_connected(seconds(10))) {
      std::printf("node %u failed to connect\n", n);
      return 1;
    }
    StabilizerOptions opts;
    opts.topology = topo;
    opts.self = n;
    opts.ack_interval = millis(1);
    nodes.push_back(std::make_unique<Stabilizer>(opts, *transports[n]));
  }
  std::printf("all nodes connected over TCP\n");

  nodes[1]->set_delivery_handler(
      [](NodeId origin, SeqNum seq, BytesView payload, uint64_t) {
        std::printf("  beta received seq %lld from node %u: %s\n",
                    static_cast<long long>(seq), origin,
                    to_string(payload).c_str());
      });
  nodes[2]->set_delivery_handler(
      [](NodeId origin, SeqNum seq, BytesView payload, uint64_t) {
        std::printf("  gamma received seq %lld from node %u: %s\n",
                    static_cast<long long>(seq), origin,
                    to_string(payload).c_str());
      });

  nodes[0]->register_predicate("everywhere", "MIN($ALLWNODES-$MYWNODE)");

  for (int i = 0; i < 3; ++i) {
    SeqNum seq =
        nodes[0]->send(to_bytes("tcp message #" + std::to_string(i)));
    bool ok = nodes[0]->waitfor_blocking(seq, "everywhere", seconds(10));
    std::printf("alpha: seq %lld %s\n", static_cast<long long>(seq),
                ok ? "stable on every node" : "TIMED OUT");
    if (!ok) return 1;
  }

  const StabilizerStats stats = nodes[0]->stats();
  std::printf("\nmessages sent: %llu, report frames: %llu\n",
              static_cast<unsigned long long>(stats.messages_sent),
              static_cast<unsigned long long>(stats.ack_batches_sent +
                                              stats.report_batches_sent));
  nodes.clear();
  for (auto& t : transports) t->shutdown();
  return 0;
}
