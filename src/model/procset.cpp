#include "model/procset.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace flowsched {

const std::vector<int> ProcSet::kNoMachines;

// splitmix64-style mixing over the sorted, deduplicated member list. The
// members fully determine the hash, so equal sets always hash equally.
std::uint64_t ProcSet::hash_of(const std::vector<int>& machines) {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL + machines.size();
  for (int j : machines) {
    std::uint64_t z = h ^ static_cast<std::uint64_t>(j);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    h = z ^ (z >> 31);
  }
  return h;
}

ProcSet::ProcSet(std::vector<int> machines) {
  for (int j : machines) {
    if (j < 0) throw std::invalid_argument("ProcSet: negative machine index");
  }
  if (machines.empty()) return;
  std::sort(machines.begin(), machines.end());
  machines.erase(std::unique(machines.begin(), machines.end()), machines.end());
  const std::uint64_t hash = hash_of(machines);
  rep_ = new Rep{{1}, hash, std::move(machines)};
}

ProcSet ProcSet::all(int m) {
  if (m <= 0) throw std::invalid_argument("ProcSet::all: m <= 0");
  std::vector<int> v(static_cast<std::size_t>(m));
  for (int j = 0; j < m; ++j) v[static_cast<std::size_t>(j)] = j;
  return ProcSet(std::move(v));
}

ProcSet ProcSet::single(int j) { return ProcSet({j}); }

ProcSet ProcSet::interval(int lo, int hi) {
  if (lo > hi) throw std::invalid_argument("ProcSet::interval: lo > hi");
  std::vector<int> v;
  v.reserve(static_cast<std::size_t>(hi - lo + 1));
  for (int j = lo; j <= hi; ++j) v.push_back(j);
  return ProcSet(std::move(v));
}

ProcSet ProcSet::ring_interval(int start, int k, int m) {
  if (m <= 0 || k <= 0 || k > m) {
    throw std::invalid_argument("ProcSet::ring_interval: need 1 <= k <= m");
  }
  if (start < 0 || start >= m) {
    throw std::invalid_argument("ProcSet::ring_interval: start outside [0,m)");
  }
  std::vector<int> v;
  v.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) v.push_back((start + i) % m);
  return ProcSet(std::move(v));
}

bool ProcSet::contains(int j) const {
  const std::vector<int>& ms = machines();
  return std::binary_search(ms.begin(), ms.end(), j);
}

bool ProcSet::is_subset_of(const ProcSet& other) const {
  const std::vector<int>& ms = machines();
  const std::vector<int>& os = other.machines();
  return std::includes(os.begin(), os.end(), ms.begin(), ms.end());
}

bool ProcSet::intersects(const ProcSet& other) const {
  const std::vector<int>& ms = machines();
  const std::vector<int>& os = other.machines();
  auto a = ms.begin();
  auto b = os.begin();
  while (a != ms.end() && b != os.end()) {
    if (*a == *b) return true;
    if (*a < *b) {
      ++a;
    } else {
      ++b;
    }
  }
  return false;
}

bool ProcSet::within(int m) const {
  return empty() || (machines().front() >= 0 && machines().back() < m);
}

bool ProcSet::is_contiguous() const {
  if (empty()) return true;
  return machines().back() - machines().front() + 1 == size();
}

bool ProcSet::is_interval(int m) const {
  if (!within(m)) throw std::invalid_argument("ProcSet::is_interval: set exceeds m");
  if (is_contiguous()) return true;
  // Wrapped form: the complement within {0..m-1} must be contiguous.
  const std::vector<int>& ms = machines();
  std::vector<int> complement;
  complement.reserve(static_cast<std::size_t>(m) - ms.size());
  std::size_t pos = 0;
  for (int j = 0; j < m; ++j) {
    if (pos < ms.size() && ms[pos] == j) {
      ++pos;
    } else {
      complement.push_back(j);
    }
  }
  if (complement.empty()) return true;
  return complement.back() - complement.front() + 1 ==
         static_cast<int>(complement.size());
}

int ProcSet::min() const {
  if (empty()) throw std::logic_error("ProcSet::min: empty set");
  return machines().front();
}

int ProcSet::max() const {
  if (empty()) throw std::logic_error("ProcSet::max: empty set");
  return machines().back();
}

std::string ProcSet::str() const {
  std::ostringstream out;
  out << '{';
  const std::vector<int>& ms = machines();
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out << ',';
    out << 'M' << ms[i] + 1;
  }
  out << '}';
  return out.str();
}

}  // namespace flowsched
