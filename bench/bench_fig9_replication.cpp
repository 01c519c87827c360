// Figure 9: the overlapping (ring) and disjoint replication strategies for
// m = 6, k = 3, shown as the replica set I_k(u) of every owner machine.
#include <cstdio>
#include <string>

#include "util/table.hpp"
#include "workload/replication.hpp"

using namespace flowsched;

int main() {
  const int m = 6;
  const int k = 3;
  std::printf("== Figure 9: replication strategies, m=%d, k=%d ==\n\n", m, k);

  TextTable table({"owner", "no replication", "overlapping I_k(u)",
                   "disjoint I_k(u)"});
  for (int u = 0; u < m; ++u) {
    // Appended rather than "M" + to_string(): GCC 12 raises a spurious
    // -Wrestrict on the inlined operator+(const char*, string&&).
    std::string owner = "M";
    owner += std::to_string(u + 1);
    table.add_row({owner,
                   replica_set(ReplicationStrategy::kNone, u, 1, m).str(),
                   replica_set(ReplicationStrategy::kOverlapping, u, k, m).str(),
                   replica_set(ReplicationStrategy::kDisjoint, u, k, m).str()});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Expectation (paper's example): a task feasible on M3 only gets\n"
      "{M3,M4,M5} under overlapping replication and {M1,M2,M3} under the\n"
      "disjoint strategy.\n");
  return 0;
}
