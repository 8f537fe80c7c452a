// Placement: the nodes -> machines assignment, made first-class.
//
// FUSE's failure model is about *machines*: co-located nodes fail together
// (one SIGKILL on the process backend, one router on the sim's topology), so
// the harness needs to know which nodes share a failure domain. Placement is
// the one vocabulary all three backends speak:
//   * sim      — hosts_per_machine groups consecutive nodes under one access
//                router (SimDeployment::CreateHost starts a new machine at
//                every placement boundary);
//   * live     — nodes_per_machine groups nodes for CrashMachine scheduling
//                (every node shares LiveRuntime's one in-process messaging
//                layer; the machine is a fault domain, not a process);
//   * process  — num_workers multi-tenant worker processes, each hosting
//                nodes_per_machine FuseNodes behind one epoll loop + fabric;
//                CrashMachine is one genuine SIGKILL.
//
// The layout is blocked: machine m hosts nodes [m*npm, (m+1)*npm), with the
// last machine possibly short. This matches the sim's long-standing
// `index % hosts_per_machine == 0` boundary, so placement-aware scenarios
// replay against existing machine-grouped schedules unchanged.
#ifndef FUSE_RUNTIME_PLACEMENT_H_
#define FUSE_RUNTIME_PLACEMENT_H_

#include <cstddef>
#include <vector>

#include "common/logging.h"

namespace fuse {

struct Placement {
  int num_nodes = 0;
  int nodes_per_machine = 1;

  // `num_nodes` nodes in blocks of `per_machine`.
  static Placement Pack(int num_nodes, int per_machine) {
    FUSE_CHECK(per_machine >= 1);
    return Placement{num_nodes, per_machine};
  }

  // `num_nodes` nodes spread over exactly `num_machines` machines (the last
  // machine runs short when the division is uneven).
  static Placement Machines(int num_nodes, int num_machines) {
    FUSE_CHECK(num_machines >= 1);
    const int per = (num_nodes + num_machines - 1) / num_machines;
    return Placement{num_nodes, per < 1 ? 1 : per};
  }

  int NumMachines() const {
    return nodes_per_machine < 1
               ? num_nodes
               : (num_nodes + nodes_per_machine - 1) / nodes_per_machine;
  }

  int MachineOf(size_t node) const {
    return static_cast<int>(node) / (nodes_per_machine < 1 ? 1 : nodes_per_machine);
  }

  std::vector<size_t> NodesOn(int machine) const {
    std::vector<size_t> nodes;
    const size_t begin = static_cast<size_t>(machine) * static_cast<size_t>(nodes_per_machine);
    const size_t end = begin + static_cast<size_t>(nodes_per_machine);
    for (size_t i = begin; i < end && i < static_cast<size_t>(num_nodes); ++i) {
      nodes.push_back(i);
    }
    return nodes;
  }

  bool MultiTenant() const { return nodes_per_machine > 1; }
};

}  // namespace fuse

#endif  // FUSE_RUNTIME_PLACEMENT_H_
