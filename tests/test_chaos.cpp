// Chaos tier: zoo sweeps under seeded fault schedules, tight deadlines,
// and the never-fail contract of the plan service's fallback ladder.
//
// The fault-schedule cases need -DCHECKMATE_FAULT_INJECTION=ON (the
// CHECK_TIER=full CI stage builds them under ASan+UBSan); in a plain build
// they GTEST_SKIP and only the deadline/ladder cases run. Single-threaded
// runs under an armed schedule are exactly reproducible (the hit sequence
// is deterministic), so those assert bit-identical outcomes run to run;
// multi-threaded runs assert recovery and feasibility only.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "core/remat_problem.h"
#include "core/scheduler.h"
#include "model/graph_builder.h"
#include "model/zoo.h"
#include "robust/deadline.h"
#include "robust/fault_injection.h"
#include "service/plan_service.h"
#include "store/plan_store.h"
#include "temp_dir.h"

namespace checkmate {
namespace {

using service::PlanOutcome;
using service::PlanProvenance;

// Small zoo instances: big enough to exercise cuts, snapshots and the
// recovery ladder, small enough to sweep under every fault schedule.
std::vector<RematProblem> chaos_instances() {
  std::vector<RematProblem> out;
  out.push_back(RematProblem::unit_training_chain(6));
  out.push_back(RematProblem::unit_training_chain(8));
  out.push_back(RematProblem::from_dnn(
      model::make_training_graph(model::zoo::linear_net(6, 4, 8, 8)),
      model::CostMetric::kProfiledTimeUs));
  return out;
}

std::vector<double> chaos_budgets(const RematProblem& p) {
  const double floor = p.memory_floor();
  const double top = p.total_memory();
  return {top, floor + 0.65 * (top - floor), floor + 0.25 * (top - floor),
          0.5 * floor};
}

// The never-fail contract: every outcome is either a simulator-validated
// feasible plan with a coherent provenance, or a *typed* infeasibility.
void assert_outcome_contract(const RematProblem& p, double budget,
                             const PlanOutcome& out, const std::string& ctx) {
  SCOPED_TRACE(ctx);
  if (out.provenance == PlanProvenance::kInfeasible) {
    EXPECT_FALSE(out.result.feasible);
    // Only ever claimed with a proof; the floor cases carry the
    // certificate.
    if (out.result.proven_infeasible) {
      EXPECT_GT(out.result.memory_floor_bytes, 0.0);
    }
    return;
  }
  ASSERT_TRUE(out.result.feasible);
  EXPECT_TRUE(out.result.sim.valid);
  EXPECT_LE(out.result.peak_memory, budget + 1e-6);
  EXPECT_GE(out.result.cost, p.total_cost_all_nodes() - 1e-9);
  EXPECT_GE(out.gap, 0.0);
  if (out.provenance != PlanProvenance::kProvenOptimal) {
    EXPECT_FALSE(out.why_degraded.empty());
  }
}

// Only the fault-injection build's schedule sweeps call this; the plain
// build compiles it anyway so the chaos suite stays one translation unit.
[[maybe_unused]] void run_sweep_and_assert(const std::string& ctx,
                                           int num_threads) {
  for (const RematProblem& p : chaos_instances()) {
    service::PlanService svc;
    IlpSolveOptions opts;
    opts.time_limit_sec = 20.0;
    opts.num_threads = num_threads;
    const auto budgets = chaos_budgets(p);
    const auto outcomes = svc.sweep_robust(p, budgets, opts);
    ASSERT_EQ(outcomes.size(), budgets.size());
    for (size_t i = 0; i < outcomes.size(); ++i) {
      assert_outcome_contract(p, budgets[i], outcomes[i],
                              ctx + " n=" + std::to_string(p.size()) +
                                  " budget#" + std::to_string(i));
      // Budgets above the floor must never be reported infeasible: the
      // ladder's heuristic rung always has checkpoint-all available.
      if (budgets[i] >= p.memory_floor())
        EXPECT_NE(outcomes[i].provenance, PlanProvenance::kInfeasible);
      else
        EXPECT_EQ(outcomes[i].provenance, PlanProvenance::kInfeasible);
    }
  }
}

// Deadlines from 10 ms to 10 s: every query must come back with a
// validated plan (or typed infeasibility below the floor), whatever rung
// the deadline forces it onto.
TEST(ChaosDeadlines, LadderHoldsAcrossDeadlineScales) {
  auto p = RematProblem::unit_training_chain(8);
  service::PlanService svc;
  for (double deadline_sec : {0.01, 0.1, 1.0, 10.0}) {
    IlpSolveOptions opts;
    opts.deadline = robust::Deadline::after(deadline_sec);
    const auto budgets = chaos_budgets(p);
    const auto outcomes = svc.sweep_robust(p, budgets, opts);
    for (size_t i = 0; i < outcomes.size(); ++i)
      assert_outcome_contract(
          p, budgets[i], outcomes[i],
          "deadline=" + std::to_string(deadline_sec) + "s budget#" +
              std::to_string(i));
  }
}

#ifdef CHECKMATE_FAULT_INJECTION

class ChaosFaults : public ::testing::Test {
 protected:
  void TearDown() override {
    robust::FaultInjector::instance().disarm_all();
  }
};

struct FaultSchedule {
  robust::FaultPoint point;
  uint64_t seed;
  uint64_t period;
  uint64_t limit;  // 0 = unlimited
};

std::vector<FaultSchedule> fault_schedules() {
  using robust::FaultPoint;
  return {
      // Periodic LU breakdowns: exercises refactorize -> slack-basis reset
      // -> per-node abandon, at two densities.
      {FaultPoint::kLuFactorize, 11, 7, 0},
      {FaultPoint::kLuFactorize, 12, 2, 0},
      // Snapshot-restore mismatches force warm starts through the
      // slack-basis reset path.
      {FaultPoint::kSnapshotRestore, 21, 3, 0},
      // Cut-row append failures abandon the cut round / node, never the
      // solve.
      {FaultPoint::kCutRowAppend, 31, 2, 0},
      // Allocation failures during engine construction: guarded_slot turns
      // them into dropped-with-parent-bound nodes; a bounded burst also
      // checks recovery after the storm passes.
      {FaultPoint::kSparseAlloc, 41, 5, 0},
      {FaultPoint::kSparseAlloc, 42, 1, 8},
      // Worker stalls: pure latency, must not change any answer.
      {FaultPoint::kWorkerStall, 51, 3, 0},
  };
}

std::string schedule_name(const FaultSchedule& s) {
  return std::string(robust::to_string(s.point)) + "/seed" +
         std::to_string(s.seed) + "/period" + std::to_string(s.period) +
         (s.limit ? "/limit" + std::to_string(s.limit) : "");
}

TEST_F(ChaosFaults, EveryScheduleRecoversSingleThreaded) {
  auto& inj = robust::FaultInjector::instance();
  for (const FaultSchedule& s : fault_schedules()) {
    inj.arm(s.point, s.seed, s.period, s.limit);
    run_sweep_and_assert(schedule_name(s) + " threads=1", 1);
    inj.disarm_all();
  }
}

TEST_F(ChaosFaults, EveryScheduleRecoversMultiThreaded) {
  auto& inj = robust::FaultInjector::instance();
  for (const FaultSchedule& s : fault_schedules()) {
    inj.arm(s.point, s.seed, s.period, s.limit);
    run_sweep_and_assert(schedule_name(s) + " threads=4", 4);
    inj.disarm_all();
  }
}

// Single-threaded chaos is exactly reproducible: re-arming the identical
// schedule (which resets the hit counters) must reproduce the identical
// outcome, bit for bit, because the hit sequence -- and therefore every
// injected failure and every recovery decision -- replays.
TEST_F(ChaosFaults, SingleThreadedChaosIsDeterministic) {
  auto& inj = robust::FaultInjector::instance();
  auto p = RematProblem::unit_training_chain(8);
  const double budget = 7.0;
  auto run_once = [&]() {
    inj.arm(robust::FaultPoint::kLuFactorize, 99, 5, 0);
    service::PlanService svc;
    IlpSolveOptions opts;
    opts.num_threads = 1;
    PlanOutcome out = svc.plan_robust(p, budget, opts);
    inj.disarm_all();
    return out;
  };
  const PlanOutcome a = run_once();
  const PlanOutcome b = run_once();
  EXPECT_EQ(a.provenance, b.provenance);
  EXPECT_EQ(a.result.feasible, b.result.feasible);
  EXPECT_DOUBLE_EQ(a.result.cost, b.result.cost);
  EXPECT_EQ(a.result.nodes, b.result.nodes);
  EXPECT_EQ(a.result.lp_iterations, b.result.lp_iterations);
  EXPECT_EQ(a.why_degraded, b.why_degraded);
}

// Disk-fault schedules over the plan store's I/O paths: torn writes,
// read corruption, rename and fsync failures, at partial and total
// densities. Two boots per schedule -- populate under faults, then
// restart on whatever the faults left on disk -- and EVERY query in both
// boots must end in a served outcome (the contract above): a failed
// write degrades to a skipped persist, a damaged record to a quarantine
// plus re-solve, never to a crash or a wrong plan.
TEST_F(ChaosFaults, DiskFaultSchedulesEndInServedOutcomes) {
  using robust::FaultPoint;
  const std::vector<FaultSchedule> schedules = {
      {FaultPoint::kStoreWriteTorn, 61, 2, 0},
      {FaultPoint::kStoreWriteTorn, 62, 1, 0},    // every write torn
      {FaultPoint::kStoreReadCorrupt, 63, 2, 0},
      {FaultPoint::kStoreReadCorrupt, 64, 1, 0},  // every read corrupt
      {FaultPoint::kStoreRenameFail, 65, 2, 0},
      {FaultPoint::kFsyncFail, 66, 1, 0},         // dying device
  };
  auto& inj = robust::FaultInjector::instance();
  auto p = RematProblem::unit_training_chain(8);
  const auto budgets = chaos_budgets(p);
  for (const FaultSchedule& s : schedules) {
    checkmate::testing::TempDir dir("checkmate_chaos_store");
    for (int boot = 0; boot < 2; ++boot) {
      inj.arm(s.point, s.seed + static_cast<uint64_t>(boot), s.period,
              s.limit);
      service::PlanServiceOptions sopts;
      sopts.store_dir = dir.path();
      service::PlanService svc(sopts);
      const auto outcomes = svc.sweep_robust(p, budgets);
      inj.disarm_all();
      ASSERT_EQ(outcomes.size(), budgets.size());
      for (size_t i = 0; i < outcomes.size(); ++i) {
        assert_outcome_contract(p, budgets[i], outcomes[i],
                                schedule_name(s) + " boot" +
                                    std::to_string(boot) + " budget#" +
                                    std::to_string(i));
        if (budgets[i] >= p.memory_floor()) {
          EXPECT_NE(outcomes[i].provenance, PlanProvenance::kInfeasible);
        }
      }
    }
  }
}

// The full composition: disk faults AND solver faults AND a deadline, on
// a store that is corrupted between boots. The never-fail contract must
// hold through all three layers at once.
TEST_F(ChaosFaults, DiskAndSolverFaultsComposeUnderDeadline) {
  using robust::FaultPoint;
  auto& inj = robust::FaultInjector::instance();
  auto p = RematProblem::unit_training_chain(8);
  const auto budgets = chaos_budgets(p);
  checkmate::testing::TempDir dir("checkmate_chaos_store");
  for (int boot = 0; boot < 2; ++boot) {
    inj.arm(FaultPoint::kLuFactorize, 71, 5, 0);
    inj.arm(FaultPoint::kStoreWriteTorn, 72, 2, 0);
    inj.arm(FaultPoint::kStoreReadCorrupt, 73, 2, 0);
    service::PlanServiceOptions sopts;
    sopts.store_dir = dir.path();
    service::PlanService svc(sopts);
    IlpSolveOptions opts;
    opts.deadline = robust::Deadline::after(10.0);
    const auto outcomes = svc.sweep_robust(p, budgets, opts);
    inj.disarm_all();
    for (size_t i = 0; i < outcomes.size(); ++i) {
      assert_outcome_contract(p, budgets[i], outcomes[i],
                              "compose boot" + std::to_string(boot) +
                                  " budget#" + std::to_string(i));
      if (budgets[i] >= p.memory_floor()) {
        EXPECT_NE(outcomes[i].provenance, PlanProvenance::kInfeasible);
      }
    }
  }
}

// A 100%-allocation-failure storm kills every LP the solver tries to
// build; the ladder must still produce a validated plan. Two rungs can
// legitimately catch it: the baseline-seeded incumbent survives inside
// branch & bound even with every LP dead (kIncumbent), and if even that
// fails the LP-free heuristic rung does.
TEST_F(ChaosFaults, TotalAllocationStormStillYieldsValidatedPlan) {
  auto& inj = robust::FaultInjector::instance();
  inj.arm(robust::FaultPoint::kSparseAlloc, 7, 1, 0);
  auto p = RematProblem::unit_training_chain(8);
  service::PlanService svc;
  const double budget = p.total_memory();
  const PlanOutcome out = svc.plan_robust(p, budget);
  inj.disarm_all();
  assert_outcome_contract(p, budget, out, "alloc storm");
  ASSERT_TRUE(out.result.feasible);
  EXPECT_TRUE(out.provenance == PlanProvenance::kIncumbent ||
              out.provenance == PlanProvenance::kHeuristicFallback)
      << "storm must degrade, not claim proven optimality";
  EXPECT_FALSE(out.why_degraded.empty());
  EXPECT_GT(inj.hits(robust::FaultPoint::kSparseAlloc), 0u);
}

// Faults plus a deadline: the two robustness layers compose.
TEST_F(ChaosFaults, FaultsUnderDeadlineStillHonorLadder) {
  auto& inj = robust::FaultInjector::instance();
  auto p = RematProblem::unit_training_chain(6);
  for (double deadline_sec : {0.01, 0.5}) {
    inj.arm(robust::FaultPoint::kLuFactorize, 3, 4, 0);
    service::PlanService svc;
    IlpSolveOptions opts;
    opts.deadline = robust::Deadline::after(deadline_sec);
    const double budget = p.total_memory();
    const PlanOutcome out = svc.plan_robust(p, budget, opts);
    inj.disarm_all();
    assert_outcome_contract(
        p, budget, out, "faults+deadline=" + std::to_string(deadline_sec));
    ASSERT_TRUE(out.result.feasible);
  }
}

#else  // !CHECKMATE_FAULT_INJECTION

TEST(ChaosFaults, RequiresFaultInjectionBuild) {
  GTEST_SKIP() << "fault-injection cases need -DCHECKMATE_FAULT_INJECTION=ON "
                  "(the CHECK_TIER=full chaos stage builds them; see "
                  "scripts/check.sh)";
}

#endif  // CHECKMATE_FAULT_INJECTION

}  // namespace
}  // namespace checkmate
