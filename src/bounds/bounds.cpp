#include "bounds/bounds.hpp"

#include <stdexcept>

#include "util/table.hpp"

namespace flowsched::bounds {
namespace {

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

// floor(log2 m) by bit shifts; exact for every m >= 1.
int floor_log2(int m) {
  int levels = 0;
  while ((2 << levels) <= m) ++levels;
  return levels;
}

RatioBound open_bound(const char* label) {
  return RatioBound{false, Rational(1), label};
}

// Keeps the larger ratio; on ties the earlier theorem (first argument) wins,
// so cell provenance is stable across refactors.
void keep_max(RatioBound& best, RatioBound candidate) {
  if (!best.known || candidate.ratio > best.ratio) best = std::move(candidate);
}

}  // namespace

std::string to_string(StructureClass s) {
  switch (s) {
    case StructureClass::kUnrestricted: return "unrestricted";
    case StructureClass::kInclusive: return "inclusive";
    case StructureClass::kNested: return "nested";
    case StructureClass::kKSize: return "ksize";
    case StructureClass::kInterval: return "interval";
    case StructureClass::kDisjoint: return "disjoint";
  }
  return "?";
}

std::string to_string(AlgoClass a) {
  switch (a) {
    case AlgoClass::kEftMin: return "eft-min";
    case AlgoClass::kEftAnyTie: return "eft";
    case AlgoClass::kImmediateDispatch: return "immediate";
    case AlgoClass::kAnyOnline: return "online";
  }
  return "?";
}

std::optional<StructureClass> parse_structure_class(const std::string& name) {
  for (StructureClass s :
       {StructureClass::kUnrestricted, StructureClass::kInclusive,
        StructureClass::kNested, StructureClass::kKSize,
        StructureClass::kInterval, StructureClass::kDisjoint}) {
    if (name == to_string(s)) return s;
  }
  return std::nullopt;
}

std::optional<AlgoClass> parse_algo_class(const std::string& name) {
  for (AlgoClass a : {AlgoClass::kEftMin, AlgoClass::kEftAnyTie,
                      AlgoClass::kImmediateDispatch, AlgoClass::kAnyOnline}) {
    if (name == to_string(a)) return a;
  }
  return std::nullopt;
}

bool algo_within(AlgoClass query, AlgoClass bound_class) {
  return static_cast<int>(query) <= static_cast<int>(bound_class);
}

Rational theorem1_ratio(int m) {
  require(m >= 1, "theorem1_ratio: m >= 1");
  return Rational(3) - Rational(2, m);
}

Rational corollary1_ratio(int k) {
  require(k >= 1, "corollary1_ratio: k >= 1");
  return Rational(3) - Rational(2, k);
}

Rational theorem6_disjoint_upper(int k, const Rational& opt_fmax) {
  return corollary1_ratio(k) * opt_fmax;
}

int theorem3_levels(int m) {
  require(m >= 2, "theorem3_levels: m >= 2");
  return floor_log2(m);
}

Rational theorem3_predicted_fmax(int m, const Rational& p) {
  const int levels = theorem3_levels(m);
  require(p > Rational(levels), "theorem3: need p > log2(m)");
  return Rational(levels + 1) * p - Rational(levels);
}

Rational theorem3_ratio(int m, const Rational& p) {
  return theorem3_predicted_fmax(m, p) / p;
}

int theorem4_levels(int m, int k) {
  require(k >= 2, "theorem4_levels: k >= 2");
  require(m >= k, "theorem4_levels: m >= k");
  // Exact integer floor(log_k m): the largest L with k^L <= m.
  int levels = 0;
  long long power = 1;
  while (power * k <= m) {
    power *= k;
    ++levels;
  }
  return levels;
}

Rational theorem4_predicted_fmax(int m, int k, const Rational& p) {
  const int levels = theorem4_levels(m, k);
  require(p > Rational(levels), "theorem4: need p > log_k(m)");
  return Rational(levels) * p - Rational(levels - 1);
}

Rational theorem4_ratio(int m, int k, const Rational& p) {
  return theorem4_predicted_fmax(m, k, p) / p;
}

Rational theorem5_predicted_fmax(int m) {
  require(m >= 4, "theorem5: m >= 4");
  return Rational(floor_log2(m) + 2);
}

Rational theorem5_ratio(int m) {
  return theorem5_predicted_fmax(m) / Rational(3);
}

Rational theorem7_predicted_fmax(const Rational& p) {
  require(p >= Rational(1), "theorem7: p >= 1");
  return Rational(2) * p - Rational(1);
}

Rational theorem7_ratio(const Rational& p) {
  return theorem7_predicted_fmax(p) / p;
}

Rational theorem8_predicted_fmax(int m, int k) {
  require(1 < k && k < m, "theorem8: requires 1 < k < m");
  return Rational(m - k + 1);
}

Rational theorem8_ratio(int m, int k) { return theorem8_predicted_fmax(m, k); }

BoundCell evaluate_cell(const BoundQuery& q) {
  require(q.m >= 2, "evaluate_cell: m >= 2");
  const bool uses_k = q.structure == StructureClass::kKSize ||
                      q.structure == StructureClass::kInterval ||
                      q.structure == StructureClass::kDisjoint;
  if (uses_k) require(2 <= q.k && q.k <= q.m, "evaluate_cell: need 2 <= k <= m");

  BoundCell cell{open_bound("trivial"), open_bound("open")};

  // Lower bounds: max over the constructions realizable inside the queried
  // structure class and binding for the queried algorithm class. Structure
  // inclusions used: inclusive sets are nested; size-k intervals are size-k
  // sets (Figure 1).
  const bool imm = algo_within(q.alg, AlgoClass::kImmediateDispatch);
  const bool eft = algo_within(q.alg, AlgoClass::kEftAnyTie);

  const auto add_inclusive = [&] {
    if (imm) keep_max(cell.lower, {true, theorem3_ratio(q.m, q.p), "Th. 3"});
  };
  const auto add_interval = [&] {
    // Th. 7 needs room for two disjoint follow-up intervals beside the
    // probe; Th. 8/10 need 1 < k < m.
    if (q.m >= 2 * q.k) keep_max(cell.lower, {true, theorem7_ratio(q.p), "Th. 7"});
    if (eft && q.k > 1 && q.k < q.m) {
      keep_max(cell.lower, {true, theorem8_ratio(q.m, q.k),
                            q.alg == AlgoClass::kEftMin ? "Th. 8" : "Th. 10"});
    }
  };

  switch (q.structure) {
    case StructureClass::kUnrestricted:
    case StructureClass::kDisjoint:
      break;  // no non-trivial lower bound in the paper
    case StructureClass::kInclusive:
      add_inclusive();
      break;
    case StructureClass::kNested:
      if (q.m >= 4) keep_max(cell.lower, {true, theorem5_ratio(q.m), "Th. 5"});
      add_inclusive();
      break;
    case StructureClass::kKSize:
      if (imm) keep_max(cell.lower, {true, theorem4_ratio(q.m, q.k, q.p), "Th. 4"});
      add_interval();
      break;
    case StructureClass::kInterval:
      add_interval();
      break;
  }

  // Upper bounds: the paper's only worst-case guarantees cover the EFT
  // family (FIFO included via Prop. 1) on unrestricted and disjoint sets.
  if (eft) {
    if (q.structure == StructureClass::kUnrestricted) {
      cell.upper = {true, theorem1_ratio(q.m), "Th. 1"};
    } else if (q.structure == StructureClass::kDisjoint) {
      cell.upper = {true, corollary1_ratio(q.k), "Cor. 1"};
    }
  }
  return cell;
}

std::string BoundReport::render() const {
  TextTable table({"m", "k", "structure", "alg", "lower", "by", "upper", "by"});
  for (const Row& row : rows) {
    const bool uses_k = row.query.structure == StructureClass::kKSize ||
                        row.query.structure == StructureClass::kInterval ||
                        row.query.structure == StructureClass::kDisjoint;
    table.add_row({std::to_string(row.query.m),
                   uses_k ? std::to_string(row.query.k) : "-",
                   to_string(row.query.structure), to_string(row.query.alg),
                   row.cell.lower.known
                       ? TextTable::num(row.cell.lower.ratio.to_double())
                       : "1.000",
                   row.cell.lower.theorem,
                   row.cell.upper.known
                       ? TextTable::num(row.cell.upper.ratio.to_double())
                       : "-",
                   row.cell.upper.theorem});
  }
  return table.render();
}

BoundReport evaluate_grid(const std::vector<int>& ms, const std::vector<int>& ks,
                          const std::vector<StructureClass>& structures,
                          AlgoClass alg, const Rational& p) {
  BoundReport report;
  for (const StructureClass structure : structures) {
    const bool uses_k = structure == StructureClass::kKSize ||
                        structure == StructureClass::kInterval ||
                        structure == StructureClass::kDisjoint;
    for (const int m : ms) {
      if (!uses_k) {
        const BoundQuery q{m, 2, structure, alg, p};
        report.rows.push_back({q, evaluate_cell(q)});
        continue;
      }
      for (const int k : ks) {
        if (k > m) continue;
        const BoundQuery q{m, k, structure, alg, p};
        report.rows.push_back({q, evaluate_cell(q)});
      }
    }
  }
  return report;
}

}  // namespace flowsched::bounds
