#include <algorithm>
#include <cmath>

#include "baselines/baselines.h"

namespace checkmate::baselines {

namespace {

std::vector<uint8_t> keep_flags(const RematProblem& p,
                                const std::vector<NodeId>& checkpoints) {
  std::vector<uint8_t> keep(p.size(), 0);
  for (NodeId v : checkpoints) keep[v] = 1;
  // Inputs stay resident under every baseline policy (the paper's
  // heuristics never consider spilling the input batch).
  for (NodeId v = 0; v < p.size(); ++v)
    if (!p.is_backward[v] && p.graph.deps(v).empty()) keep[v] = 1;
  return keep;
}

std::string format_bytes(double bytes) {
  char buf[32];
  if (bytes >= 1e9)
    std::snprintf(buf, sizeof buf, "%.2fGB", bytes / 1e9);
  else if (bytes >= 1e6)
    std::snprintf(buf, sizeof buf, "%.1fMB", bytes / 1e6);
  else
    std::snprintf(buf, sizeof buf, "%.0fB", bytes);
  return buf;
}

std::vector<BaselineSchedule> sqrt_n_family(
    const RematProblem& p, const std::vector<NodeId>& candidates,
    const char* tag) {
  const std::vector<NodeId> cp = chen_sqrt_n_select(candidates);
  BaselineSchedule s;
  s.solution =
      simulate_checkpoint_policy(p, keep_flags(p, cp), EvictionMode::kChenStyle);
  s.label = std::string(tag) + " (" + std::to_string(cp.size()) + " ckpts)";
  return {std::move(s)};
}

std::vector<BaselineSchedule> greedy_family(
    const RematProblem& p, const std::vector<NodeId>& candidates,
    const char* tag, const BaselineSweepOptions& options) {
  // Sweep the segment-size knob b geometrically from the largest single
  // activation to the total forward footprint (Section 6.1: "we search
  // over the segment size hyperparameter b").
  double total = 0.0, largest = 0.0;
  for (NodeId v = 0; v < p.size(); ++v) {
    if (p.is_backward[v]) continue;
    total += p.memory[v];
    largest = std::max(largest, p.memory[v]);
  }
  largest = std::max(largest, 1.0);
  total = std::max(total, largest * 2);

  std::vector<BaselineSchedule> out;
  const int grid = std::max(2, options.greedy_grid_points);
  for (int g = 0; g < grid; ++g) {
    const double frac = static_cast<double>(g) / (grid - 1);
    const double b = largest * std::pow(total / largest, frac);
    const std::vector<NodeId> cp = chen_greedy_select(p, candidates, b);
    BaselineSchedule s;
    s.solution = simulate_checkpoint_policy(p, keep_flags(p, cp),
                                            EvictionMode::kChenStyle);
    s.label = std::string(tag) + " b=" + format_bytes(b) + " (" +
              std::to_string(cp.size()) + " ckpts)";
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace

bool baseline_applicable(const RematProblem& p, BaselineKind kind) {
  switch (kind) {
    case BaselineKind::kCheckpointAll:
    case BaselineKind::kApSqrtN:
    case BaselineKind::kApGreedy:
    case BaselineKind::kLinearizedSqrtN:
    case BaselineKind::kLinearizedGreedy:
      return true;
    case BaselineKind::kChenSqrtN:
    case BaselineKind::kChenGreedy:
      return is_linear_forward(p);
    case BaselineKind::kGriewankLogN:
      return is_linear_forward(p) && p.first_backward_stage() < p.size();
  }
  return false;
}

void for_each_candidate_schedule(
    const RematProblem& p, double budget_bytes,
    const std::function<void(const RematSolution&)>& f) {
  for (auto kind :
       {BaselineKind::kCheckpointAll, BaselineKind::kChenSqrtN,
        BaselineKind::kLinearizedSqrtN, BaselineKind::kLinearizedGreedy,
        BaselineKind::kApGreedy}) {
    for (const auto& bs : baseline_schedules(p, kind)) f(bs.solution);
  }
  const double headroom = budget_bytes - p.fixed_overhead;
  for (double frac : {0.95, 0.85, 0.75, 0.6, 0.45, 0.3, 0.2, 0.12, 0.06, 0.03})
    f(budget_aware_schedule(p, frac * headroom));
}

std::vector<BaselineSchedule> baseline_schedules(
    const RematProblem& p, BaselineKind kind,
    const BaselineSweepOptions& options) {
  if (!baseline_applicable(p, kind)) return {};
  switch (kind) {
    case BaselineKind::kCheckpointAll: {
      BaselineSchedule s;
      s.solution = checkpoint_all_schedule(p);
      s.label = "checkpoint_all";
      return {std::move(s)};
    }
    case BaselineKind::kChenSqrtN:
      return sqrt_n_family(p, forward_chain_candidates(p), "chen_sqrt_n");
    case BaselineKind::kLinearizedSqrtN:
      return sqrt_n_family(p, forward_chain_candidates(p), "lin_sqrt_n");
    case BaselineKind::kApSqrtN:
      return sqrt_n_family(p, articulation_candidates(p), "ap_sqrt_n");
    case BaselineKind::kChenGreedy:
      return greedy_family(p, forward_chain_candidates(p), "chen_greedy",
                           options);
    case BaselineKind::kLinearizedGreedy:
      return greedy_family(p, forward_chain_candidates(p), "lin_greedy",
                           options);
    case BaselineKind::kApGreedy:
      return greedy_family(p, articulation_candidates(p), "ap_greedy",
                           options);
    case BaselineKind::kGriewankLogN: {
      std::vector<BaselineSchedule> out;
      const int f = p.first_backward_stage();
      const int max_s = std::min(options.max_revolve_snapshots,
                                 std::max(1, f - 2));
      for (int s = 1; s <= max_s; ++s) {
        BaselineSchedule b;
        b.solution = revolve_schedule(p, s);
        b.label = "griewank_logn s=" + std::to_string(s);
        out.push_back(std::move(b));
      }
      return out;
    }
  }
  return {};
}

}  // namespace checkmate::baselines
