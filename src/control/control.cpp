#include "control/control.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "lp/maxload.hpp"

namespace flowsched {
namespace {

// 17 significant digits round-trips every double, so two logs render
// byte-identically iff the underlying values are bit-identical — the
// representation the [control-determinism] replay compares.
std::string fmt(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

ReplicationStrategy flipped(ReplicationStrategy s) {
  return s == ReplicationStrategy::kOverlapping
             ? ReplicationStrategy::kDisjoint
             : ReplicationStrategy::kOverlapping;
}

}  // namespace

std::string LayoutSpec::str() const {
  return to_string(strategy) + "/k=" + std::to_string(k);
}

std::string ControlConfig::str() const {
  std::ostringstream out;
  out << "period=" << fmt(period) << " hysteresis=" << fmt(hysteresis)
      << " cooldown=" << cooldown << " k=[" << k_min << ","
      << (k_max == 0 ? std::string("m") : std::to_string(k_max))
      << "] max-move=" << max_move << " setup=" << fmt(setup_cost);
  return out.str();
}

std::string ControlObservation::str() const {
  std::ostringstream out;
  out << "t=" << fmt(time) << " lambda=" << fmt(arrival_rate) << " up=";
  for (std::uint8_t u : up) out << (u ? '1' : '0');
  out << " backlog=[";
  for (std::size_t j = 0; j < backlog.size(); ++j) {
    if (j > 0) out << ",";
    out << fmt(backlog[j]);
  }
  out << "]";
  return out.str();
}

std::string ControlDecision::str() const {
  std::ostringstream out;
  out << "epoch=" << epoch << " t=" << fmt(time) << " from=" << from.str()
      << " target=" << target.str() << " moved=[" << moved_lo << ","
      << moved_hi << ") score=" << fmt(current_score) << " best="
      << fmt(best_score) << " bottleneck=[" << bottleneck_lo << ","
      << bottleneck_lo + bottleneck_len << ") reason=" << reason
      << (switched ? " switched" : "");
  return out.str();
}

void ControlLog::record(const ControlObservation& obs,
                        const ControlDecision& d) {
  observations_.push_back(obs);
  decisions_.push_back(d);
}

void ControlLog::record_charge(int owner, int epoch, double amount) {
  charges_.push_back(SetupCharge{owner, epoch, amount});
}

int ControlLog::switches() const {
  int n = 0;
  for (const ControlDecision& d : decisions_) n += d.switched ? 1 : 0;
  return n;
}

int ControlLog::fallbacks() const {
  int n = 0;
  for (const ControlDecision& d : decisions_) n += d.fallback ? 1 : 0;
  return n;
}

long long ControlLog::moved_total() const {
  long long n = 0;
  for (const ControlDecision& d : decisions_) n += d.moved_owners();
  return n;
}

double ControlLog::setup_total() const {
  double s = 0;
  for (const SetupCharge& c : charges_) s += c.amount;
  return s;
}

std::string ControlLog::str() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < decisions_.size(); ++i) {
    out << "decision " << decisions_[i].str() << " | obs "
        << observations_[i].str() << "\n";
  }
  for (const SetupCharge& c : charges_) {
    out << "charge owner=" << c.owner << " epoch=" << c.epoch
        << " amount=" << fmt(c.amount) << "\n";
  }
  out << "control: decisions=" << decisions_.size()
      << " switches=" << switches() << " fallbacks=" << fallbacks()
      << " moved=" << moved_total() << " setup-total=" << fmt(setup_total())
      << "\n";
  return out.str();
}

ReplicationController::ReplicationController(int m, LayoutSpec initial,
                                             ControlConfig config,
                                             std::uint64_t seed)
    : m_(m),
      config_(config),
      seed_(seed),
      active_(initial),
      target_(initial),
      frontier_(m) {
  if (m < 1) throw std::invalid_argument("ReplicationController: m < 1");
  if (initial.k < 1 || initial.k > m) {
    throw std::invalid_argument("ReplicationController: initial k out of [1, m]");
  }
  if (initial.strategy != ReplicationStrategy::kOverlapping &&
      initial.strategy != ReplicationStrategy::kDisjoint) {
    throw std::invalid_argument(
        "ReplicationController: layout must be overlapping or disjoint");
  }
  if (!(config.period > 0)) {
    throw std::invalid_argument("ReplicationController: period <= 0");
  }
  if (!(config.hysteresis >= 1.0)) {
    throw std::invalid_argument("ReplicationController: hysteresis < 1");
  }
  if (config.cooldown < 0 || config.max_move < 0 ||
      !(config.setup_cost >= 0)) {
    throw std::invalid_argument("ReplicationController: bad config");
  }
  if (config.k_min < 1) {
    throw std::invalid_argument("ReplicationController: k_min < 1");
  }
  popularity_.assign(static_cast<std::size_t>(m), 1.0 / static_cast<double>(m));
  active_sets_ = replica_sets(active_.strategy, active_.k, m_);
  target_sets_ = active_sets_;
}

int ReplicationController::effective_k_max() const {
  const int cap = config_.k_max == 0 ? m_ : config_.k_max;
  return cap < m_ ? cap : m_;
}

int ReplicationController::effective_max_move() const {
  if (config_.max_move > 0) return config_.max_move;
  const int quarter = m_ / 4;
  return quarter > 1 ? quarter : 1;
}

ProcSet ReplicationController::eligible_for_owner(int owner) const {
  if (owner < 0 || owner >= m_) {
    throw std::invalid_argument("eligible_for_owner: owner out of range");
  }
  const std::vector<ProcSet>& sets = owner < frontier_ ? target_sets_ : active_sets_;
  return sets[static_cast<std::size_t>(owner)];
}

void ReplicationController::advance_frontier(ControlDecision* d) {
  d->moved_lo = frontier_;
  frontier_ += effective_max_move();
  if (frontier_ > m_) frontier_ = m_;
  d->moved_hi = frontier_;
  if (frontier_ == m_) {
    active_ = target_;
    active_sets_ = target_sets_;
    cooldown_left_ = config_.cooldown;
  }
}

void ReplicationController::begin_migration(const LayoutSpec& to,
                                            ControlDecision* d) {
  target_ = to;
  target_sets_ = replica_sets(to.strategy, to.k, m_);
  frontier_ = 0;
  d->switched = true;
  advance_frontier(d);
}

ControlDecision ReplicationController::decide(const ControlObservation& obs) {
  if (static_cast<int>(obs.backlog.size()) != m_ ||
      static_cast<int>(obs.up.size()) != m_) {
    throw std::invalid_argument("decide: observation size mismatch");
  }
  ControlDecision d;
  d.epoch = epoch_++;
  d.time = obs.time;
  d.from = active_;
  d.target = target_;

  if (unsafe_flap_) {
    // Planted bug: flip the layout every epoch and migrate everything at
    // once — no hysteresis, no cooldown, no movement bound. The audit's
    // clean replay diverges ([control-determinism]) and the per-epoch move
    // exceeds max_move ([control-movement-bound]).
    LayoutSpec flip = active_;
    flip.strategy = flipped(active_.strategy);
    target_ = flip;
    active_ = flip;
    active_sets_ = replica_sets(flip.strategy, flip.k, m_);
    target_sets_ = active_sets_;
    frontier_ = m_;
    d.target = flip;
    d.switched = true;
    d.moved_lo = 0;
    d.moved_hi = m_;
    d.reason = "switch";
    return d;
  }

  if (frontier_ < m_) {
    // One migration in flight: keep moving it, nothing else happens.
    advance_frontier(&d);
    d.reason = "migrate";
    d.target = target_;
    return d;
  }

  // Headroom: LP (15) of the layout degraded to the up machines; 0 when a
  // crash leaves some owner with no up replica.
  const WindowLoadResult current =
      max_load_windows(popularity_, active_.strategy, active_.k, obs.up);
  const bool cur_ok = current.lambda > 0;
  d.current_score = current.lambda;
  d.best_score = current.lambda;
  d.bottleneck_lo = current.first;
  d.bottleneck_len = current.count;

  if (cooldown_left_ > 0) {
    --cooldown_left_;
    d.reason = "cooldown";
    return d;
  }

  // Candidate scan in a fixed order (lower k, raise k, flip layout) so the
  // argmax — ties kept by the earlier candidate — is deterministic.
  std::vector<LayoutSpec> candidates;
  if (active_.k - 1 >= config_.k_min) {
    candidates.push_back(LayoutSpec{active_.strategy, active_.k - 1});
  }
  if (active_.k + 1 <= effective_k_max()) {
    candidates.push_back(LayoutSpec{active_.strategy, active_.k + 1});
  }
  candidates.push_back(LayoutSpec{flipped(active_.strategy), active_.k});

  bool have_best = false;
  LayoutSpec best_cand;
  double best = 0.0;
  for (const LayoutSpec& cand : candidates) {
    const double score =
        max_load_windows(popularity_, cand.strategy, cand.k, obs.up).lambda;
    if (score > 0 && (!have_best || score > best)) {
      have_best = true;
      best = score;
      best_cand = cand;
    }
  }
  if (have_best && best > d.best_score) d.best_score = best;

  double backlog_sum = 0;
  for (double b : obs.backlog) backlog_sum += b;
  const double mean_backlog = backlog_sum / static_cast<double>(m_);
  const bool overloaded =
      !cur_ok || d.current_score < obs.arrival_rate ||
      (config_.overload_backlog > 0 && mean_backlog > config_.overload_backlog);

  const bool switch_now =
      have_best &&
      ((!cur_ok && best > 0) || (overloaded && best > d.current_score) ||
       (best > d.current_score && best >= config_.hysteresis * d.current_score));
  if (switch_now) {
    begin_migration(best_cand, &d);
    d.reason = "switch";
  } else {
    d.reason = "hold";
  }
  d.target = target_;
  return d;
}

}  // namespace flowsched
