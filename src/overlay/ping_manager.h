// Liveness checking of routing-table neighbors.
//
// Every distinct routing-table neighbor is pinged once per period (60 s in
// the paper, with a 20 s timeout — section 7.4). Each ping request and reply
// carries an opaque client payload: this is the hook FUSE uses to piggyback
// its 20-byte SHA-1 hash of the jointly monitored group list (section 6.1),
// so FUSE adds no messages of its own in the failure-free steady state.
// Links are monitored from both sides: each endpoint pings independently.
//
// Timers are coalesced per node: ONE phase-jittered periodic timer pings
// every peer in a batch round (the jitter spreads the cluster's rounds over
// the period), plus ONE timeout timer tracking the earliest outstanding
// per-peer deadline — 2 armed timers per node instead of 2 per (node,
// neighbor), which is what keeps the timer wheels breathing at 100k nodes.
// Each peer's failure verdict still lands `timeout` after its own unanswered
// ping, and any reply disarms that peer. A peer added mid-period waits for
// the next round.
//
// The warm request->reply cycle is allocation-free end to end: peers live in
// an open-addressed table (common/flat_map.h) reconciled against the wanted
// set by epoch stamping instead of a scratch hash map, messages are encoded
// into a reused Writer whose bytes become an inline PayloadBuf, the client
// payload is appended directly to that Writer by the provider, and the
// observer sees the remote payload as a view into the received message.
//
// Wire format (request and reply): u64 sequence number, then the client
// payload running to the end of the message.
#ifndef FUSE_OVERLAY_PING_MANAGER_H_
#define FUSE_OVERLAY_PING_MANAGER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/flat_map.h"
#include "common/ids.h"
#include "common/serialize.h"
#include "common/time.h"
#include "sim/timer.h"
#include "transport/transport.h"

namespace fuse {

class PingManager {
 public:
  // Appends the payload for a ping (request or reply) on the link to
  // `neighbor` directly to the message under construction.
  using PayloadProvider = std::function<void(HostId neighbor, Writer& w)>;
  // Observes the payload the remote side attached (fires for both requests
  // and replies received). The bytes are only valid during the call.
  using PayloadObserver = std::function<void(HostId neighbor, const uint8_t* data, size_t len)>;
  // A neighbor failed to acknowledge a ping within the timeout (or the
  // connection broke).
  using FailureHandler = std::function<void(HostId neighbor)>;

  PingManager(Transport* transport, Duration period, Duration timeout);
  ~PingManager();

  PingManager(const PingManager&) = delete;
  PingManager& operator=(const PingManager&) = delete;

  void SetPayloadProvider(PayloadProvider p) { provider_ = std::move(p); }
  void SetPayloadObserver(PayloadObserver o) { observer_ = std::move(o); }
  void SetFailureHandler(FailureHandler h) { on_failure_ = std::move(h); }

  // Reconciles the pinged set with the current neighbor list: new neighbors
  // are pinged from the next round on; removed neighbors stop being pinged.
  void UpdateNeighbors(const std::vector<HostId>& neighbors);

  void Start();
  void Stop();
  bool running() const { return running_; }

  size_t NumPeers() const { return peers_.size(); }

 private:
  struct Peer {
    bool failed = false; // failure already reported; awaiting removal
    uint64_t wanted_epoch = 0;  // last UpdateNeighbors round that listed us
    // An unanswered ping is outstanding since round `round`; its failure
    // verdict is due `timeout` after that round (tracked by the shared
    // round_timeout_).
    bool awaiting = false;
    uint64_t round = 0;
  };

  // Encodes and transmits one ping.
  void SendPingTo(HostId peer);
  // One batch of pings to every live peer.
  void SendRound();
  // Fails every peer awaiting since the round the fire is the verdict for
  // (or earlier), then re-arms for the earliest remaining round.
  void OnRoundTimeout();
  void OnPing(const WireMessage& msg);
  void OnPingReply(const WireMessage& msg);
  void HandleFailure(HostId peer);

  Transport* transport_;
  Duration period_;
  Duration timeout_;
  PayloadProvider provider_;
  PayloadObserver observer_;
  FailureHandler on_failure_;
  FlatMap<Peer> peers_;  // keyed by HostId::value
  uint64_t next_seq_ = 1;
  uint64_t wanted_epoch_ = 0;
  bool running_ = false;
  PeriodicTimer round_timer_;  // one ping batch per period
  Timer round_timeout_;        // earliest outstanding deadline
  uint64_t round_ = 0;         // rounds sent so far
  // The round whose deadline round_timeout_ is armed for: a fire is the
  // verdict for exactly that round.
  uint64_t verdict_round_ = 0;
  Writer scratch_;                // reused encode buffer (capacity stays warm)
  std::vector<uint64_t> doomed_;  // reused reconciliation scratch
  std::vector<uint64_t> round_scratch_;  // reused batch scratch
};

}  // namespace fuse

#endif  // FUSE_OVERLAY_PING_MANAGER_H_
