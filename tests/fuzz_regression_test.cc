// Minimized fault schedules from fuzzer-found failures, replayed as
// deterministic regression tests. Each schedule here once produced an
// invariant-oracle violation; the fix is described next to it and the replay
// must stay green.
#include <gtest/gtest.h>

#include "fuzz/fault_schedule.h"
#include "fuzz/fuzz_runner.h"

namespace fuse {
namespace {

FuzzRunResult Replay(const std::string& text, int num_shards = 0) {
  FaultSchedule s;
  EXPECT_TRUE(FaultSchedule::FromText(text, &s));
  FuzzRunOptions options;
  options.num_shards = num_shards;
  return RunSchedule(s, options);
}

// Crash with an instant restart: the fresh incarnation's join search used to
// be routed straight back to the joiner through the stale dead-incarnation
// routing entry on the search path, and the joiner's self-host guard dropped
// the delivered search — the rejoin stalled until the failure detector
// evicted the stale entry. Fixed by making the join path incarnation-aware:
// a routing hop that would resolve a join search to the searcher's own host
// evicts the stale entry and re-routes (see skipnet_node.cc).
TEST(FuzzRegressionTest, InstantRestartRejoin) {
  const FuzzRunResult r = Replay(
      "fuse-fuzz-schedule v1\n"
      "seed 11\n"
      "nodes 6\n"
      "groups 1\n"
      "crash at_us=0 a=1 b=0 dur_us=0 param=0 group=-\n"
      "restart at_us=0 a=1 b=0 dur_us=0 param=0 group=-\n");
  EXPECT_TRUE(r.ok()) << r.log_line << (r.violations.empty() ? "" : "\n  " + r.violations[0]);
}

// Shrunk from fuzzer seed 6086 (originally 2 groups, 4 clauses): three
// layered partitions around a group whose root is node 2. The first isolates
// the root; the second briefly reunites root and member 7, triggering a
// repair; the third strands 7 with bystander node 1 before 7's re-sent
// InstallChecking can reach the root. The install route dead-ended at node 1,
// which half-installed a delegate link back to 7 — and the two then refreshed
// each other's link hashes forever, so member 7 never heard the group fail
// (the rest of the group did). Fixed in FuseNode::OnInstallUpcall: an install
// that stalls mid-route, or is delivered at a node that is not the group's
// root, now fails the path loudly with a Hard notification to the member
// instead of leaving a checking chain anchored at nothing.
TEST(FuzzRegressionTest, OrphanedMemberBehindDeadEndInstall) {
  const FuzzRunResult r = Replay(
      "fuse-fuzz-schedule v1\n"
      "seed 6086\n"
      "nodes 10\n"
      "groups 1\n"
      "partition at_us=124991436 a=0 b=0 dur_us=0 param=0 group=2\n"
      "partition at_us=167594593 a=0 b=0 dur_us=0 param=0 group=2,7\n"
      "partition at_us=191454310 a=0 b=0 dur_us=0 param=0 group=1,7\n");
  EXPECT_TRUE(r.ok()) << r.log_line << (r.violations.empty() ? "" : "\n  " + r.violations[0]);
}

// Fuzzer seed 4874 used to crash outright (heap-use-after-free): the crash of
// node 2 broke connections whose pending-send callbacks ran synchronously;
// one was MemberInitiateRepair's NeedRepair error callback, which failed the
// group and freed the GroupState while MemberInitiateRepair was still about
// to arm the repair timer on it. Fixed by arming the timer before issuing the
// send (group destruction disarms it), plus the same hazard in
// RootStartRepair's member fan-out (the loop now iterates a snapshot and
// stops once the group is gone).
TEST(FuzzRegressionTest, SynchronousSendFailureDuringRepair) {
  const FuzzRunResult r = Replay(
      "fuse-fuzz-schedule v1\n"
      "seed 4874\n"
      "nodes 8\n"
      "groups 3\n"
      "crash at_us=47739786 a=6 b=0 dur_us=0 param=0 group=-\n"
      "block_oneway at_us=68397209 a=7 b=4 dur_us=0 param=0 group=-\n"
      "loss_burst at_us=127682903 a=4294967295 b=0 dur_us=67311485 "
      "param=0.63662771963433473 group=-\n"
      "crash at_us=146462357 a=2 b=0 dur_us=0 param=0 group=-\n"
      "restart at_us=146462357 a=2 b=0 dur_us=0 param=0 group=-\n"
      "clock_skew at_us=223627629 a=5 b=0 dur_us=0 param=0.85862943182599416 group=-\n"
      "unblock_oneway at_us=293798185 a=7 b=4 dur_us=0 param=0 group=-\n");
  EXPECT_TRUE(r.ok()) << r.log_line << (r.violations.empty() ? "" : "\n  " + r.violations[0]);
}

// Shrunk from fuzzer seed 102478 (originally 7 clauses): node 1 is slow but
// alive, then a 39-second 87% loss burst hits every link, then group 1's
// member 3 crashes. During the burst the root started a repair round; member
// 3's NeedRepair arrived while that round was in flight and was silently
// swallowed by RootScheduleRepair. The round then completed "successfully" —
// member 3's InstallChecking reached the root, clearing install_pending — but
// 3's own origin link had already been torn down by the link failure it was
// complaining about, leaving 3 with zero liveness links and nobody monitoring
// it. Its crash was therefore invisible: the rest of the tree stayed healthy
// and members 0/1/4 never heard the required notification. Fixed by recording
// a mid-round NeedRepair (GroupState::rerepair_requested) and running a
// follow-up repair round once the in-flight round and its installs complete.
TEST(FuzzRegressionTest, NeedRepairSwallowedByInFlightRound) {
  const FuzzRunResult r = Replay(
      "fuse-fuzz-schedule v1\n"
      "seed 102478\n"
      "nodes 7\n"
      "groups 2\n"
      "slow_host at_us=0 a=1 b=0 dur_us=0 param=853.51381030025425 group=-\n"
      "loss_burst at_us=103161255 a=4294967295 b=0 dur_us=39501569 "
      "param=0.87521573991814261 group=-\n"
      "crash at_us=184212150 a=3 b=0 dur_us=0 param=0 group=-\n");
  EXPECT_TRUE(r.ok()) << r.log_line << (r.violations.empty() ? "" : "\n  " + r.violations[0]);
}

// Fuzzer seed 69 never finished on either engine once pings were coalesced:
// node 1 runs its timers at 1.46x, so the shared ping-timeout timer fired
// before the deadline it was armed for, found the peer not yet due, and
// re-armed for the remaining `deadline - now`, scaled again by 1/1.46. The
// remainder shrank to 1 us, which scales to 0 us, and the timer re-fired at
// one instant forever. Fixed in PingManager::OnRoundTimeout (and the same
// re-arm in FuseNode's peer sweep): a fire is the verdict for the deadline it
// was armed for. The oracle now also reports such a hang as a `livelock`
// violation instead of hanging.
constexpr char kSeed69[] =
    "fuse-fuzz-schedule v1\n"
    "seed 69\n"
    "nodes 6\n"
    "groups 2\n"
    "clock_skew at_us=4240295 a=1 b=0 dur_us=0 param=1.4616020063517645 group=-\n"
    "reorder_jitter at_us=19652534 a=4294967295 b=0 dur_us=0 param=237.66824469056618 "
    "group=-\n"
    "signal at_us=73794780 a=0 b=0 dur_us=0 param=0 group=-\n"
    "partition at_us=121429540 a=0 b=0 dur_us=0 param=0 group=0,2,3,4,5\n"
    "heal_partitions at_us=239567266 a=0 b=0 dur_us=0 param=0 group=-\n";

TEST(FuzzRegressionTest, SkewedPingTimeoutLivelock) {
  for (const int shards : {0, 4}) {
    const FuzzRunResult r = Replay(kSeed69, shards);
    EXPECT_TRUE(r.ok()) << "shards " << shards << ": " << r.log_line
                        << (r.violations.empty() ? "" : "\n  " + r.violations[0]);
  }
}

}  // namespace
}  // namespace fuse
