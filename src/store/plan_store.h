// Disk-backed plan store: proven optima that outlive the solver process.
//
// Checkmate plans are solved once and reused across many training runs, so
// the expensive artifact -- a proven-optimal schedule plus its dual bound
// -- must survive restarts. The store persists one record per proven
// optimum, keyed by the canonical problem fingerprint plus the formulation
// shape, and serves any later query whose budget lands on that record's
// staircase step: a schedule proven optimal at budget B with simulated
// peak P is provably optimal for every budget in [P, B] (budget
// monotonicity: shrinking the budget can only raise the optimum, and the
// recorded dual bound still certifies the cost), so records double as the
// steps of the overhead-vs-budget staircase and a 10-point sweep typically
// persists only the 3-4 distinct optima it actually contains.
//
// Crash-safety contract (TCPSPSuite's results-database shape, hardened):
//   - writes are atomic: serialize to a temp file in the store directory,
//     fsync, rename into place, fsync the directory. A crash at any point
//     leaves either the old state or the new record, never a half-visible
//     one; a torn write that does survive (e.g. power loss after rename of
//     a short file) is caught by the next bullet;
//   - every record carries a version header, its payload length and a
//     64-bit checksum. load() verifies all three and *quarantines* any
//     corrupt, truncated or version-skewed file (renamed to
//     *.quarantined, dropped from the index) instead of failing open --
//     recovery is a cache miss, never a crash and never a wrong plan;
//   - validation-before-serve: a record is only served after (a) its
//     stored canonical problem blob compares byte-equal to the query's
//     (the 64-bit fingerprint in formulation_cache.h only routes lookups;
//     here at the disk boundary full content equality is a hard
//     guarantee), and (b) the simulator re-validates the schedule against
//     the query budget and reproduces the recorded cost. A bit-flipped
//     record that slips past the checksum still degrades to a miss.
//
// Failed writes (fsync/rename errors, injected or real) are absorbed: put()
// reports false, the caller keeps its in-memory answer, and the query is
// unaffected. The chaos tier (tests/test_chaos.cpp) sweeps the injected
// disk faults in robust/fault_injection.h over this file's I/O paths.
//
// Any change to RematProblem::fingerprint()/serialize_canonical() or to
// the record layout must bump kPlanStoreFormatVersion: old records are
// then quarantined wholesale on load instead of being misparsed (the
// golden-fingerprint test pins the hash so the bump is a conscious act).
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/ilp_builder.h"
#include "core/remat_problem.h"
#include "core/scheduler.h"
#include "core/solution.h"

namespace checkmate::store {

inline constexpr uint32_t kPlanStoreFormatVersion = 1;

// The formulation-shape half of a record key (the problem half is the
// canonical blob): the IlpBuildOptions a formulation is built from, its
// budget aside. service::FormulationKey pairs it with the fingerprint.
struct StoreShape {
  bool partitioned = true;
  bool eliminate_diag_free = true;
  IlpFormulationKind formulation = IlpFormulationKind::kDense;
  bool has_cost_cap = false;
  double cost_cap = 0.0;

  static StoreShape of(const IlpBuildOptions& build) {
    return {.partitioned = build.partitioned,
            .eliminate_diag_free = build.eliminate_diag_free,
            .formulation = build.formulation,
            .has_cost_cap = build.cost_cap.has_value(),
            .cost_cap = build.cost_cap.value_or(0.0)};
  }

  // 64-bit routing hash of (problem fingerprint, this shape) for the
  // store index, the formulation cache and single-flight. Collisions are
  // harmless: every user re-checks full content on a hit.
  uint64_t routing_key(uint64_t fingerprint) const;

  friend bool operator==(const StoreShape&, const StoreShape&) = default;
};

struct StoreStats {
  int64_t records_loaded = 0;       // valid records indexed by load()
  int64_t load_quarantines = 0;     // corrupt/truncated/skewed files on load
  int64_t hits = 0;                 // lookups served (validated)
  int64_t misses = 0;               // lookups not served
  int64_t validation_quarantines = 0;  // records that failed content
                                       // equality or simulator validation
  int64_t puts = 0;                 // records durably written
  int64_t put_failures = 0;         // absorbed write failures
};

// Thread-safe. One instance per store directory; concurrent instances on
// the same directory are safe for readers (atomic renames) but make no
// cross-process dedup effort.
class PlanStore {
 public:
  // Creates the directory if needed, loads every *.plan record, and
  // quarantines whatever fails the header/checksum checks.
  explicit PlanStore(std::string directory);

  PlanStore(const PlanStore&) = delete;
  PlanStore& operator=(const PlanStore&) = delete;

  // Serves `budget_bytes` from the staircase if some record covers it:
  // record.peak <= budget <= record.solved_budget (or the record's cost is
  // `problem`'s compute floor, which no budget can beat), with the
  // recorded cost/bound pair meeting `relative_gap`. The returned result
  // is simulator-validated against this budget with milp_status kOptimal,
  // the recorded dual bound, and zero nodes (no solver work). On a miss,
  // `staircase_bound_out` (may be null) still receives the best valid
  // lower bound on the optimum at this budget that the stored dual bounds
  // imply (-inf if none) -- a re-solve can terminate against it.
  std::optional<ScheduleResult> lookup(const RematProblem& problem,
                                       const StoreShape& shape,
                                       double budget_bytes,
                                       double relative_gap,
                                       double* staircase_bound_out = nullptr);

  // Persists a proven optimum crash-safely. Best-effort: any I/O failure
  // (injected or real) returns false and leaves the store directory
  // consistent; the record is still served from memory for the lifetime
  // of this instance. Records whose staircase step is already covered by
  // an equal-or-wider existing record are skipped (returns true).
  bool put(const RematProblem& problem, const StoreShape& shape,
           double solved_budget_bytes, double relative_gap,
           const ScheduleResult& result);

  StoreStats stats() const;
  size_t size() const;  // records currently indexed
  const std::string& directory() const { return dir_; }

 private:
  struct Record {
    std::string problem_blob;  // RematProblem::serialize_canonical
    StoreShape shape;
    double solved_budget = 0.0;
    double relative_gap = 0.0;
    double cost = 0.0;
    double best_bound = 0.0;
    double peak_bytes = 0.0;
    RematSolution solution;
    std::string path;  // on-disk file ("" = memory-only after failed put)
    // Set once the simulator has re-validated this record in this process
    // (records born from a live solve start true; loaded records earn it
    // on first use). Only validated records serve plans or export bounds.
    bool validated = false;
  };

  // The record payload codec (layout in plan_store.cpp). decode() fills
  // the persisted fields of `out` and rejects malformed payloads.
  static std::string encode(uint64_t fingerprint, const Record& rec);
  static bool decode(std::string_view payload, uint64_t* fingerprint,
                     Record* out);
  void quarantine_locked(uint64_t key, size_t idx, const char* why);

  std::string dir_;
  mutable std::mutex mu_;
  // StoreShape::routing_key -> records, newest last. The key only routes;
  // every use re-checks problem_blob and shape.
  std::unordered_map<uint64_t, std::vector<Record>> index_;
  StoreStats stats_;
};

}  // namespace checkmate::store
