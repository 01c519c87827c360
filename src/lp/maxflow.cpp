#include "lp/maxflow.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

namespace flowsched {
namespace {
constexpr double kFlowEps = 1e-12;
}

MaxFlow::MaxFlow(int num_nodes) : adj_(static_cast<std::size_t>(num_nodes)) {
  if (num_nodes <= 0) throw std::invalid_argument("MaxFlow: no nodes");
}

int MaxFlow::add_edge(int from, int to, double capacity) {
  if (capacity < 0) throw std::invalid_argument("MaxFlow: negative capacity");
  auto& fwd_list = adj_.at(static_cast<std::size_t>(from));
  auto& rev_list = adj_.at(static_cast<std::size_t>(to));
  fwd_list.push_back(Edge{to, capacity, static_cast<int>(rev_list.size())});
  rev_list.push_back(Edge{from, 0.0, static_cast<int>(fwd_list.size()) - 1});
  edge_ref_.emplace_back(from, static_cast<int>(fwd_list.size()) - 1);
  return static_cast<int>(edge_ref_.size()) - 1;
}

void MaxFlow::set_capacity(int id, double capacity) {
  if (capacity < 0) throw std::invalid_argument("MaxFlow: negative capacity");
  const auto& [node, slot] = edge_ref_.at(static_cast<std::size_t>(id));
  Edge& fwd = adj_[static_cast<std::size_t>(node)][static_cast<std::size_t>(slot)];
  fwd.cap = capacity;
  adj_[static_cast<std::size_t>(fwd.to)][static_cast<std::size_t>(fwd.rev)].cap = 0.0;
}

bool MaxFlow::bfs(int s, int t) {
  level_.assign(adj_.size(), -1);
  std::queue<int> q;
  level_[static_cast<std::size_t>(s)] = 0;
  q.push(s);
  while (!q.empty()) {
    const int v = q.front();
    q.pop();
    for (const Edge& e : adj_[static_cast<std::size_t>(v)]) {
      if (e.cap > kFlowEps && level_[static_cast<std::size_t>(e.to)] < 0) {
        level_[static_cast<std::size_t>(e.to)] =
            level_[static_cast<std::size_t>(v)] + 1;
        q.push(e.to);
      }
    }
  }
  return level_[static_cast<std::size_t>(t)] >= 0;
}

double MaxFlow::dfs(int v, int t, double pushed) {
  if (v == t) return pushed;
  auto& it = iter_[static_cast<std::size_t>(v)];
  for (; it < adj_[static_cast<std::size_t>(v)].size(); ++it) {
    Edge& e = adj_[static_cast<std::size_t>(v)][it];
    if (e.cap <= kFlowEps ||
        level_[static_cast<std::size_t>(e.to)] !=
            level_[static_cast<std::size_t>(v)] + 1) {
      continue;
    }
    const double got = dfs(e.to, t, std::min(pushed, e.cap));
    if (got > kFlowEps) {
      e.cap -= got;
      adj_[static_cast<std::size_t>(e.to)][static_cast<std::size_t>(e.rev)].cap += got;
      return got;
    }
  }
  return 0.0;
}

double MaxFlow::solve(int s, int t) {
  double total = 0.0;
  while (bfs(s, t)) {
    iter_.assign(adj_.size(), 0);
    while (true) {
      const double got = dfs(s, t, std::numeric_limits<double>::infinity());
      if (got <= kFlowEps) break;
      total += got;
    }
  }
  return total;
}

double MaxFlow::flow_on(int id) const {
  const auto& [node, slot] = edge_ref_.at(static_cast<std::size_t>(id));
  // The reverse edge's residual starts at 0 and moves by exactly the flow
  // pushed or cancelled, so it is the flow without the rounding of
  // capacity - residual on a wide edge.
  const Edge& e = adj_[static_cast<std::size_t>(node)][static_cast<std::size_t>(slot)];
  const auto& back = adj_[static_cast<std::size_t>(e.to)];
  return back[static_cast<std::size_t>(e.rev)].cap;
}

std::vector<std::uint8_t> MaxFlow::source_side(int s) const {
  std::vector<std::uint8_t> reached(adj_.size(), 0);
  std::vector<int> stack{s};
  reached.at(static_cast<std::size_t>(s)) = 1;
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    for (const Edge& e : adj_[static_cast<std::size_t>(v)]) {
      if (e.cap > kFlowEps && !reached[static_cast<std::size_t>(e.to)]) {
        reached[static_cast<std::size_t>(e.to)] = 1;
        stack.push_back(e.to);
      }
    }
  }
  return reached;
}

}  // namespace flowsched
