// Fabric: the deployment-facing surface shared by the real (inter-process
// capable) messaging layers — the TCP socket fabric and the UDP datagram
// fabric. A fabric owns the OS sockets for one process, hosts one or more
// local Transport endpoints, keeps a host -> (ip, port) PeerAddressMap, and
// mirrors the FaultInjector rule set so fault schedules apply to real
// traffic.
//
// Real sockets are the process backend's messaging layer: ProcessCluster
// selects a fabric per run (ProcessClusterConfig::transport) and every worker
// process builds one. The sim backends use SimFabric/ShardedFabric and
// LiveCluster uses LiveRuntime's in-process delivery; neither is a Fabric.
//   * kTcp — SocketFabric: length-prefixed frames over nonblocking loopback
//     TCP, per-message receiver acks, broken-connection errors;
//   * kUdp — DatagramFabric: coalesced datagrams over nonblocking UDP,
//     app-level ack/retransmit with congestion restraint, loss is silence.
// The enum values are wire bytes (the control protocol's Hello and Addrs
// frames carry them), so they stay fixed.
#ifndef FUSE_TRANSPORT_FABRIC_H_
#define FUSE_TRANSPORT_FABRIC_H_

#include <cstdint>

#include "net/fault_injector.h"
#include "transport/peer_address_map.h"
#include "transport/transport.h"

namespace fuse {

enum class TransportKind : uint8_t {
  kTcp = 1,
  kUdp = 2,
};

inline const char* TransportKindName(TransportKind k) {
  switch (k) {
    case TransportKind::kTcp:
      return "tcp";
    case TransportKind::kUdp:
      return "udp";
  }
  return "unknown";
}

class Fabric {
 public:
  virtual ~Fabric() = default;

  // Binds the fabric's socket(s) on loopback and starts receiving. Returns
  // the port peers should be told about (advertised out of band by the
  // deployment's address map).
  virtual uint16_t Listen() = 0;

  // Address map maintenance: host -> (ip, port). Send paths resolve the
  // destination endpoint from the map at transmit time, so re-advertising a
  // host (a restarted incarnation on a fresh port, or a node on another
  // machine) retargets future traffic — including pending retransmits on the
  // datagram fabric. The port-only overload is the loopback shorthand for
  // same-machine peers.
  void SetPeerAddr(HostId h, const PeerEndpoint& ep) { addrs_.Set(h, ep); }
  void SetPeerAddr(HostId h, uint16_t port) { addrs_.Set(h, PeerEndpoint::Loopback(port)); }
  // Overlays a whole map (e.g. a controller's addr-map broadcast, or a
  // multi-host deployment file loaded via PeerAddressMap::LoadFile).
  void ApplyAddressMap(const PeerAddressMap& m) { addrs_.Merge(m); }
  const PeerAddressMap& peer_addrs() const { return addrs_; }

  // Creates (or returns) the transport endpoint for a host local to this
  // process.
  virtual Transport* TransportFor(HostId local) = 0;

  // Drops every handler registered for a local host (a crash empties the
  // dispatch table like a process that vanished).
  virtual void UnregisterAllHandlers(HostId h) = 0;

  // The fabric's fault-rule mirror, evaluated on every send and delivery.
  virtual FaultInjector& faults() = 0;

 protected:
  // The resolution surface shared by every fabric; concrete fabrics read it
  // at transmit/dial time and never cache resolved endpoints across sends.
  PeerAddressMap addrs_;
};

}  // namespace fuse

#endif  // FUSE_TRANSPORT_FABRIC_H_
