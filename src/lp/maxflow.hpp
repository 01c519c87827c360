// Dinic max-flow on small dense-ish graphs (double capacities).
//
// The engine of the max-load LP (15) (lp/maxload.hpp): for a fixed cluster
// load lambda, feasibility of the work-transfer constraints is a bipartite
// transportation problem, i.e. a max-flow instance, and the source side of
// a minimum cut names the owner set that caps lambda.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace flowsched {

class MaxFlow {
 public:
  explicit MaxFlow(int num_nodes);

  /// Adds a directed edge with the given capacity (>= 0); returns an edge id
  /// usable with `flow_on` / `set_capacity`.
  int add_edge(int from, int to, double capacity);

  /// Resets edge `id` to an un-flowed state with the given capacity. After
  /// resetting every edge the instance is solvable again — max_load_lp
  /// rescales its source edges per lambda instead of rebuilding the graph.
  void set_capacity(int id, double capacity);

  /// Computes the max flow from s to t. Consumes the capacities: call again
  /// only after set_capacity() has reset every edge.
  double solve(int s, int t);

  /// Flow routed on edge `id` after solve().
  double flow_on(int id) const;

  /// Nodes reachable from `s` over residual capacity (1) or not (0). After
  /// solve(s, t) this is the source side of a minimum s-t cut.
  std::vector<std::uint8_t> source_side(int s) const;

  int num_nodes() const { return static_cast<int>(adj_.size()); }

 private:
  struct Edge {
    int to;
    double cap;  ///< Residual capacity.
    int rev;     ///< Index of the reverse edge in adj_[to].
  };

  bool bfs(int s, int t);
  double dfs(int v, int t, double pushed);

  std::vector<std::vector<Edge>> adj_;
  std::vector<std::pair<int, int>> edge_ref_;  ///< id -> (node, slot).
  std::vector<int> level_;
  std::vector<std::size_t> iter_;
};

}  // namespace flowsched
