// The repository benchmark harness. Drives PlanService::plan_robust end to
// end on one workload, timing every query from outside, re-checking every
// returned plan with the simulator, and (traced mode) recording spans around
// calls into each layer's public functions. It writes the raw measurements;
// perfbench/run.py turns them into the metrics of BENCHMARK.json.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//   perfbench --print-log --workload NAME --seed N   (the query order)
//   perfbench --references PATH                      (regenerate references)
//
// Workloads (see perfbench/README.md for why each was chosen):
//   zoo_sweep      Figure-5 budget grids over zoo CNNs, dense backend;
//   deep_interval  deep training graphs, interval backend, few budgets;
//   serve_replay   a skewed plan_robust log over > max_cache_entries
//                  problems, replayed on an empty store (pass 1) and again
//                  on a fresh service over the filled store (pass 2).
//
// Every query carries deterministic work limits (max_lp_iterations,
// max_nodes) far below what the wall-clock limit would allow, so the
// explored tree, the plan and the proven/incumbent split repeat exactly on
// every run and machine; only time varies.
#include <sys/resource.h>

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "checkmate.h"
#include "store/plan_store.h"

namespace {

using namespace checkmate;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// splitmix64: inputs must be identical run to run and machine to machine.
uint64_t mix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Seeded Fisher-Yates shuffle.
template <typename T>
void shuffle(std::vector<T>& v, uint64_t seed) {
  uint64_t rng = seed;
  for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[mix64(rng) % i]);
}

// ------------------------------------------------------------ workloads

struct ModelSpec {
  std::string id;
  std::function<RematProblem()> build;
  // Budget grid as fractions of [memory floor, checkpoint-all peak].
  std::vector<double> fracs;
};

struct WorkloadSpec {
  std::string name;
  std::vector<ModelSpec> models;
  IlpFormulationKind formulation = IlpFormulationKind::kDense;
  int clients = 1;       // closed-loop client threads
  int tree_threads = 1;  // tree-search threads per solve
  int64_t max_lp_iterations = 0;
  int64_t max_nodes = 0;
  double relative_gap = 1e-3;
  // Rounds every client completes even when --seconds has run out, so the
  // tail percentile always has its samples (run.py relies on it).
  int min_rounds = 1;
  int log_length = 0;  // serve_replay: queries per pass
};

RematProblem zoo_problem(const model::DnnGraph& forward) {
  return RematProblem::from_dnn(model::make_training_graph(forward),
                                model::CostMetric::kProfiledTimeUs);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"zoo_sweep", "deep_interval",
                                                 "serve_replay"};
  return names;
}

WorkloadSpec workload_spec(const std::string& name) {
  namespace zoo = model::zoo;
  WorkloadSpec w;
  w.name = name;
  if (name == "zoo_sweep") {
    // Paper semantics (dense backend), grids issued in descending budget
    // order on one fresh service per model, like sweep_robust.
    //
    // Each core of a shared host is, at any moment, either fast or about
    // 40% slower, independently of the other cores, and a run spends
    // 40-70% of its time slow. So the latency of one query is a coin flip
    // between two modes, and a percentile that falls on the samples of one
    // query (or of a few with about the same latency) jumps between runs.
    // Two things smooth it. Four clients in per-query lockstep, one per
    // core, so every query is sampled on four independent cores and always
    // runs beside three copies of itself (not beside whatever another
    // client happens to run, which swung latencies by 2x). And grids chosen
    // so that the median falls in the middle of nine distinct queries of
    // 110-175 ms, and the p95 tail (the rung 4 clients x 2 minimum rounds x
    // 28 queries allows) among four of 0.65-1.2 s: pooled, their modes
    // overlap into one hump that moves with the slow share as a mean does.
    // With one client and 18 queries the median sat on one query and
    // spread 12-25% between runs. One tree thread: four bought about 10%
    // here and added run-to-run noise.
    w.formulation = IlpFormulationKind::kDense;
    w.clients = 4;
    w.tree_threads = 1;
    // The limits leave room for hundreds of nodes past the root LP; a round
    // takes about 9 s, so the two minimum rounds fit a 30 s run. segnet is
    // left out: its one point took a third of a round.
    w.max_lp_iterations = 8000;
    w.max_nodes = 400;
    w.min_rounds = 2;
    const std::vector<double> five = {0.95, 0.8, 0.65, 0.5, 0.35};
    const std::vector<double> three = {0.9, 0.6, 0.3};
    w.models = {
        {"mobilenet_v1_b1_64", [] { return zoo_problem(zoo::mobilenet_v1(1, 64)); }, five},
        {"mobilenet_v1_b2_64", [] { return zoo_problem(zoo::mobilenet_v1(2, 64)); }, five},
        {"mobilenet_v1_b4_64", [] { return zoo_problem(zoo::mobilenet_v1(4, 64)); }, three},
        {"vgg16_b1_224", [] { return zoo_problem(zoo::vgg16(1)); }, five},
        {"vgg16_b2_224", [] { return zoo_problem(zoo::vgg16(2)); },
         {0.95, 0.8, 0.65, 0.5}},
        {"resnet18_b1_64",
         [] { return zoo_problem(zoo::resnet(1, 64, {2, 2, 2, 2})); }, {0.9, 0.6}},
        {"fcn8_b1_64x96", [] { return zoo_problem(zoo::fcn8(1, 64, 96)); }, three},
        {"unet_b1_64x96", [] { return zoo_problem(zoo::unet(1, 64, 96)); }, {0.95}},
    };
  } else if (name == "deep_interval") {
    // Few, huge LPs: the root LP dominates, so the LP kernel sets the time.
    // Four clients: one runs a round in ~10 s, too few samples for a tail.
    // The chain's four budgets put the median between two queries of about
    // 2 s, whose samples pool (see zoo_sweep); with three, it sat on one.
    w.formulation = IlpFormulationKind::kInterval;
    w.clients = 4;
    w.tree_threads = 1;
    w.max_lp_iterations = 6000;
    w.max_nodes = 20;
    w.min_rounds = 2;
    // A 1e-3 proof is out of reach within the limits on every point.
    w.relative_gap = 1e-2;
    w.models = {
        {"transformer_stack_12",
         [] { return zoo_problem(zoo::transformer_stack(12)); }, {0.95, 0.9}},
        {"unit_training_chain_60",
         [] { return RematProblem::unit_training_chain(60); }, {0.95, 0.9, 0.85, 0.8}},
    };
  } else if (name == "serve_replay") {
    // More distinct problems than PlanServiceOptions::max_cache_entries
    // (16), all cheap and all proven within the limits, so pass 2 is pure
    // store reads. One tree thread: four made the opening solves slower
    // (3.4 s against 2.5 s a round) and noisier.
    w.formulation = IlpFormulationKind::kDense;
    w.clients = 1;
    w.tree_threads = 1;
    w.max_lp_iterations = 4000;
    w.max_nodes = 200;
    w.min_rounds = 2;
    w.log_length = 600;
    // Looser than the sweeps' 1e-3 so some proofs stop at a real, nonzero
    // gap: gap_mean then measures something on this workload too.
    w.relative_gap = 1e-2;
    const std::vector<double> grid = {0.9, 0.6, 0.4};
    // Chains below 0.6 do not prove within the limits, and pass 2 would
    // re-solve what pass 1 could not store.
    const std::vector<double> chain_grid = {0.9, 0.6};
    for (int b : {1, 2, 4})
      w.models.push_back({"vgg16_b" + std::to_string(b) + "_64",
                          [b] { return zoo_problem(zoo::vgg16(b, 64)); }, grid});
    w.models.push_back(
        {"vgg16_b2_224", [] { return zoo_problem(zoo::vgg16(2)); }, {0.75}});
    for (int b : {1, 2, 4})
      w.models.push_back({"mobilenet_v1_b" + std::to_string(b) + "_32",
                          [b] { return zoo_problem(zoo::mobilenet_v1(b, 32)); },
                          grid});
    for (int layers : {6, 7, 8, 9, 10, 11, 12})
      w.models.push_back(
          {"unit_training_chain_" + std::to_string(layers),
           [layers] { return RematProblem::unit_training_chain(layers); },
           chain_grid});
    for (int layers : {4, 5, 6, 7})
      w.models.push_back(
          {"linear_net_" + std::to_string(layers) + "_b4",
           [layers] { return zoo_problem(zoo::linear_net(layers, 4, 8, 8)); },
           grid});
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

// ------------------------------------------------------------ set-up

struct Problem {
  std::string id;
  RematProblem p;
  double floor = 0.0;
  double peak = 0.0;   // checkpoint-all peak
  double ideal = 0.0;  // compute-everything-once cost
  double build_ms = 0.0;
};

struct Query {
  std::string id;  // "<model>@<frac>", the key of references.json
  int problem = 0;
  double frac = 0.0;
  double budget = 0.0;
};

struct Inputs {
  std::vector<Problem> problems;
  std::vector<Query> queries;
  // zoo_sweep / deep_interval: per model, its query indices in descending
  // budget order (one sweep on one fresh service).
  std::vector<std::vector<int>> units;
};

// Problem construction (zoo -> autodiff -> cost model -> RematProblem), the
// part of set-up setup_s times.
std::vector<Problem> build_problems(const WorkloadSpec& w) {
  std::vector<Problem> problems;
  for (const ModelSpec& m : w.models) {
    const auto t0 = Clock::now();
    Problem pr{m.id, m.build()};
    pr.build_ms = ms_between(t0, Clock::now());
    problems.push_back(std::move(pr));
  }
  return problems;
}

// The budget grids: each problem's floor, checkpoint-all peak and ideal
// cost, and its queries.
Inputs make_inputs(const WorkloadSpec& w, std::vector<Problem> problems) {
  Inputs in;
  in.problems = std::move(problems);
  for (size_t pi = 0; pi < in.problems.size(); ++pi) {
    Problem& pr = in.problems[pi];
    pr.floor = pr.p.memory_floor();
    pr.peak = evaluate_schedule_against(
                  pr.p, baselines::checkpoint_all_schedule(pr.p), 0.0)
                  .peak_memory;
    pr.ideal = pr.p.total_cost_all_nodes();
    std::vector<double> fracs = w.models[pi].fracs;
    std::sort(fracs.rbegin(), fracs.rend());
    std::vector<int> unit;
    for (double f : fracs) {
      char id[160];
      std::snprintf(id, sizeof id, "%s@%.2f", pr.id.c_str(), f);
      unit.push_back(static_cast<int>(in.queries.size()));
      in.queries.push_back({id, static_cast<int>(pi), f, pr.floor + f * (pr.peak - pr.floor)});
    }
    in.units.push_back(unit);
  }
  return in;
}

Inputs build_inputs(const WorkloadSpec& w) { return make_inputs(w, build_problems(w)); }

// The serve_replay log. It opens with every distinct query once, in a
// fixed order -- each model's budgets descending, models interleaved so a
// model's next budget arrives after more than max_cache_entries others and
// finds its formulation evicted -- and continues with repeated traffic: a
// fixed Zipf(1.1) multiset over a fixed popularity ranking (stratified, so
// every seed gets exactly the same counts), in a seeded order. Every solve
// happens in the fixed opening, so which plan each distinct query gets does
// not depend on the seed, and the mix of store reads is the same on every
// seed; the seed only orders the repeated traffic.
std::vector<int> make_log(const std::vector<int>& opening, int length,
                          uint64_t seed) {
  const int distinct = static_cast<int>(opening.size());
  std::vector<int> rank(opening);
  shuffle(rank, 0x5eed0001ULL);
  std::vector<double> cdf(distinct);
  double total = 0.0;
  for (int r = 0; r < distinct; ++r) cdf[r] = total += 1.0 / std::pow(r + 1.0, 1.1);
  const int repeats = std::max(0, length - distinct);
  std::vector<int> traffic;
  for (int k = 0; k < repeats; ++k) {
    const double u = (k + 0.5) / repeats * total;
    const int r = static_cast<int>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    traffic.push_back(rank[std::min(r, distinct - 1)]);
  }
  shuffle(traffic, seed ^ 0x5eed0002ULL);
  std::vector<int> log(opening);
  log.insert(log.end(), traffic.begin(), traffic.end());
  return log;
}

// The fixed opening of the serve_replay log (see make_log).
std::vector<int> log_opening(const Inputs& in) {
  std::vector<int> opening;
  for (size_t level = 0; opening.size() < in.queries.size(); ++level)
    for (const auto& unit : in.units)
      if (level < unit.size()) opening.push_back(unit[level]);
  return opening;
}

// The order the clients issue the zoo_sweep / deep_interval units in. All
// clients share it, so each query meets the same concurrent mix on every
// seed and the seeds differ only in the order of the mixes.
std::vector<int> unit_order(size_t units, uint64_t seed) {
  std::vector<int> order(units);
  for (size_t i = 0; i < units; ++i) order[i] = static_cast<int>(i);
  shuffle(order, seed * 0x100000001b3ULL);
  return order;
}

IlpSolveOptions query_options(const WorkloadSpec& w) {
  IlpSolveOptions o;
  o.formulation = w.formulation;
  o.relative_gap = w.relative_gap;
  o.max_lp_iterations = w.max_lp_iterations;
  o.max_nodes = w.max_nodes;
  o.num_threads = w.tree_threads;
  // The work limits bind long before this; it only guards against a hang.
  o.time_limit_sec = 170.0;
  return o;
}

service::PlanServiceOptions service_options(const WorkloadSpec& w,
                                            const std::string& store_dir) {
  service::PlanServiceOptions o;
  o.num_threads = w.tree_threads;
  o.store_dir = store_dir;
  return o;
}

// ------------------------------------------------------------ tracing

struct Span {
  std::string name;
  std::string cat;
  int tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::string args;  // JSON object body, without braces
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}
  void add(std::string name, std::string cat, int tid, Clock::time_point b,
           Clock::time_point e, std::string args) {
    const double ts = std::chrono::duration<double, std::micro>(b - origin_).count();
    const double dur = std::chrono::duration<double, std::micro>(e - b).count();
    std::lock_guard lock(mu_);
    spans_.push_back({std::move(name), std::move(cat), tid, ts, dur, std::move(args)});
  }
  bool write(const std::string& path, const std::string& meta) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": {%s},\n \"traceEvents\": [\n",
                 meta.c_str());
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {%s}}%s\n",
                   s.name.c_str(), s.cat.c_str(), s.tid, s.ts_us, s.dur_us,
                   s.args.c_str(), i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, " ]}\n");
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point origin_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

// ------------------------------------------------------------ checks

uint64_t solution_hash(const RematSolution& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const BoolMatrix* m : {&s.R, &s.S})
    for (const auto& row : *m)
      for (uint8_t v : row) h = (h ^ v) * 0x100000001b3ULL;
  return h;
}

// Re-simulates a returned plan independently of the service: it must be
// valid, fit the budget, and cost what the service reported.
std::string check_plan(const Problem& pr, const Query& q,
                       const service::PlanOutcome& out) {
  if (out.provenance == service::PlanProvenance::kInfeasible)
    return "no plan: " + out.why_degraded;
  const ExecutionPlan plan = generate_execution_plan(pr.p, out.result.solution);
  SimulatorOptions so;
  so.budget_bytes = q.budget;
  const SimulationResult sim = simulate_plan(pr.p, plan, so);
  if (!sim.valid) return "re-simulation rejected the plan: " + sim.error;
  if (sim.peak_memory > q.budget * (1.0 + 1e-9))
    return "re-simulated peak exceeds the budget";
  if (std::abs(sim.total_cost - out.result.cost) >
      1e-9 * std::max(1.0, std::abs(out.result.cost)))
    return "re-simulated cost differs from the reported cost";
  return "";
}

// ------------------------------------------------------------ the run

struct Sample {
  int query = 0;
  int phase = 0;  // 0 untraced, 1 traced
  int pass = 0;   // serve_replay: 1 cold store, 2 filled store
  int round = 0;
  int client = 0;
  int pos = 0;    // position in the client's round
  double ms = 0.0;
  int provenance = 0;
  double cost = 0.0, gap = 0.0, lower_bound = 0.0, root_relaxation = 0.0;
  int64_t nodes = 0, lp_iterations = 0, cuts_added = 0, gomory_cuts = 0,
          cuts_removed = 0, strong_branches = 0, refactorizations = 0,
          ft_updates = 0, pricing_resets = 0;
  bool ok = true;
};

// Service and store counters by name, summed over services.
using Counters = std::map<std::string, int64_t>;

void add_counters(Counters& into, const Counters& from) {
  for (const auto& [name, value] : from) into[name] += value;
}

Counters service_counters(const service::PlanService& svc) {
  const service::ServiceStats s = svc.stats();
  Counters c = {{"solves", s.queries},
                {"formulation_hits", s.formulation_hits},
                {"formulation_misses", s.formulation_misses},
                {"evictions", s.evictions},
                {"budget_rebinds", s.budget_rebinds},
                {"presolve_reuses", s.presolve_reuses},
                {"warm_start_shortcuts", s.warm_start_shortcuts},
                {"single_flight_shared", s.single_flight_shared},
                {"store_hits", s.store_hits},
                {"store_misses", s.store_misses},
                {"store_puts", s.store_puts},
                {"store_put_failures", s.store_put_failures},
                {"store_quarantines", 0},
                {"store_records_loaded", 0}};
  if (const store::PlanStore* st = svc.plan_store()) {
    const store::StoreStats ss = st->stats();
    c["store_quarantines"] = ss.load_quarantines + ss.validation_quarantines;
    c["store_records_loaded"] = ss.records_loaded;
  }
  return c;
}

struct RunContext {
  const WorkloadSpec* spec = nullptr;
  const Inputs* in = nullptr;
  uint64_t seed = 0;
  std::string out_dir;
  Tracer* tracer = nullptr;  // null: untraced
  int phase = 0;
  // Rounds every client completes even past --seconds: the workload's
  // min_rounds in untraced runs (the tail percentile needs the samples),
  // one in traced runs.
  int min_rounds = 1;
};

// Samples go straight to a CSV file per client and phase, so the harness's
// memory stays flat however many queries a run makes (peak_rss_mb measures
// the library, not the sample log).
constexpr const char* kSampleHeader =
    "query,phase,pass,round,client,pos,provenance,ok,nodes,lp_iterations,"
    "cuts_added,gomory_cuts,cuts_removed,strong_branches,refactorizations,"
    "ft_updates,pricing_resets,ms,cost,gap,lower_bound,root_relaxation\n";

void write_sample(FILE* f, const Sample& s) {
  std::fprintf(f,
               "%d,%d,%d,%d,%d,%d,%d,%d,%lld,%lld,%lld,%lld,%lld,%lld,%lld,%lld,%lld,"
               "%.17g,%.17g,%.17g,%.17g,%.17g\n",
               s.query, s.phase, s.pass, s.round, s.client, s.pos, s.provenance,
               s.ok ? 1 : 0, (long long)s.nodes, (long long)s.lp_iterations,
               (long long)s.cuts_added, (long long)s.gomory_cuts,
               (long long)s.cuts_removed, (long long)s.strong_branches,
               (long long)s.refactorizations, (long long)s.ft_updates,
               (long long)s.pricing_resets, s.ms, s.cost, s.gap, s.lower_bound,
               s.root_relaxation);
}

using File = std::unique_ptr<FILE, int (*)(FILE*)>;

struct ClientState {
  File samples{nullptr, &std::fclose};
  std::vector<std::string> failures;
  std::set<std::tuple<int, uint64_t, double>> checked;
  Counters counters[3];  // by pass (0 for the sweep workloads)
  // First outcome per query, kept for the layer probes.
  std::vector<std::optional<ScheduleResult>> first;
};

// One timed plan_robust call plus its (deduplicated, untimed) output check.
void issue(const RunContext& ctx, ClientState& cs, service::PlanService& svc,
           int qi, int client, int pass, int round, int pos,
           const IlpSolveOptions& opts) {
  const Query& q = ctx.in->queries[qi];
  const Problem& pr = ctx.in->problems[q.problem];
  const auto t0 = Clock::now();
  const service::PlanOutcome out = svc.plan_robust(pr.p, q.budget, opts);
  const auto t1 = Clock::now();

  Sample s;
  s.query = qi;
  s.phase = ctx.phase;
  s.pass = pass;
  s.round = round;
  s.client = client;
  s.pos = pos;
  s.ms = ms_between(t0, t1);
  s.provenance = static_cast<int>(out.provenance);
  const ScheduleResult& r = out.result;
  s.cost = r.cost;
  s.gap = out.gap;
  s.lower_bound = out.lower_bound;
  s.root_relaxation = r.root_relaxation;
  s.nodes = r.nodes;
  s.lp_iterations = r.lp_iterations;
  s.cuts_added = r.cuts_added;
  s.gomory_cuts = r.gomory_cuts;
  s.cuts_removed = r.cuts_removed;
  s.strong_branches = r.strong_branches;
  s.refactorizations = r.lp_refactorizations;
  s.ft_updates = r.lp_ft_updates;
  s.pricing_resets = r.lp_pricing_resets;

  const auto key = std::make_tuple(qi, solution_hash(r.solution), r.cost);
  if (out.provenance == service::PlanProvenance::kInfeasible ||
      !cs.checked.count(key)) {
    const std::string why = check_plan(pr, q, out);
    if (why.empty()) {
      cs.checked.insert(key);
    } else {
      s.ok = false;
      if (cs.failures.size() < 20) cs.failures.push_back(q.id + ": " + why);
    }
  }
  const auto t2 = Clock::now();
  if (ctx.tracer) {
    char args[256];
    std::snprintf(args, sizeof args, "\"query\": \"%d.%d.%d.%d\", \"id\": \"%s\"",
                  client, pass, round, pos, q.id.c_str());
    ctx.tracer->add("service.plan_robust", "query", client, t0, t1, args);
    ctx.tracer->add("bench.check", "query", client, t1, t2, args);
  }
  if (!cs.first[qi] && out.provenance != service::PlanProvenance::kInfeasible)
    cs.first[qi] = r;
  write_sample(cs.samples.get(), s);
}

// Starts the clients' rounds in lockstep, so every round meets the same
// concurrent mix and every client runs the same number of rounds. Before
// each round all clients wait here; the last to arrive decides for all:
// always until min_rounds, then only if a round as long as the average so
// far still ends before the deadline (a run overshoots --seconds by
// little). With rounds_goal > 0, exactly that many rounds instead.
class RoundGate {
 public:
  RoundGate(int clients, int min_rounds, double seconds, int rounds_goal)
      : min_rounds_(min_rounds),
        goal_(rounds_goal),
        start_(Clock::now()),
        deadline_(start_ + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds))),
        sync_(clients, Decide{this}) {}

  // True if every client starts another round.
  bool next() {
    sync_.arrive_and_wait();
    return go_;
  }
  int rounds() const { return rounds_; }
  Clock::time_point start() const { return start_; }

 private:
  struct Decide {
    RoundGate* gate;
    void operator()() noexcept { gate->decide(); }
  };
  void decide() noexcept {
    const auto now = Clock::now();
    if (goal_ > 0)
      go_ = rounds_ < goal_;
    else
      go_ = rounds_ < min_rounds_ || now + (now - start_) / rounds_ <= deadline_;
    if (go_) ++rounds_;
  }

  const int min_rounds_, goal_;
  const Clock::time_point start_, deadline_;
  int rounds_ = 0;
  bool go_ = false;
  std::barrier<Decide> sync_;
};

// zoo_sweep / deep_interval client: whole budget sweeps, each on a fresh
// service, in the seeded unit order, for as many rounds as the gate allows.
// All clients issue the same queries, and `step` starts each query on all
// of them at once: a query always runs beside three copies of itself, so
// its latency does not depend on which other query a drifting client
// happens to run (that swung latencies by 2x).
void sweep_client(const RunContext& ctx, ClientState& cs, int client,
                  RoundGate& gate, std::barrier<>& step) {
  const IlpSolveOptions opts = query_options(*ctx.spec);
  const auto order = unit_order(ctx.in->units.size(), ctx.seed);
  for (int round = 0; gate.next(); ++round) {
    int pos = 0;
    for (int u : order) {
      service::PlanService svc(service_options(*ctx.spec, ""));
      for (int qi : ctx.in->units[u]) {
        step.arrive_and_wait();
        issue(ctx, cs, svc, qi, client, 0, round, pos++, opts);
      }
      add_counters(cs.counters[0], service_counters(svc));
    }
  }
}

// serve_replay: pass 1 on an empty store, pass 2 on a fresh service over
// the store pass 1 filled.
void replay_client(const RunContext& ctx, ClientState& cs, RoundGate& gate) {
  const IlpSolveOptions opts = query_options(*ctx.spec);
  const auto log = make_log(log_opening(*ctx.in), ctx.spec->log_length, ctx.seed);
  for (int round = 0; gate.next(); ++round) {
    const std::string dir = ctx.out_dir + "/store_" + std::to_string(ctx.phase) +
                            "_" + std::to_string(round);
    fs::remove_all(dir);
    for (int pass = 1; pass <= 2; ++pass) {
      const auto t0 = Clock::now();
      service::PlanService svc(service_options(*ctx.spec, dir));
      if (ctx.tracer) {
        const std::string args =
            "\"pass\": " + std::to_string(pass) + ", \"records\": " +
            std::to_string(svc.plan_store()->size());
        ctx.tracer->add("store.load", "service", 0, t0, Clock::now(), args);
      }
      for (size_t i = 0; i < log.size(); ++i)
        issue(ctx, cs, svc, log[i], 0, pass, round, static_cast<int>(i), opts);
      const Counters c = service_counters(svc);
      if (pass == 2 && c.at("solves") != 0 && cs.failures.size() < 20)
        cs.failures.push_back("pass 2 ran " + std::to_string(c.at("solves")) +
                              " solves; expected store reads only");
      add_counters(cs.counters[pass], c);
    }
    fs::remove_all(dir);
  }
}

// Runs every client of one phase. Returns the per-client states, the
// number of rounds each client ran and the phase's wall time, from the
// gate's start to the end of the last round; samples land in
// <out>/samples_p<phase>_c<client>.csv.
std::vector<ClientState> run_phase(const RunContext& ctx, double seconds,
                                   int rounds_goal, int* rounds, double* wall_s) {
  const int clients = ctx.spec->clients;
  std::vector<ClientState> states(clients);
  for (int c = 0; c < clients; ++c) {
    const std::string path = ctx.out_dir + "/samples_p" + std::to_string(ctx.phase) +
                             "_c" + std::to_string(c) + ".csv";
    states[c].samples = File(std::fopen(path.c_str(), "w"), &std::fclose);
    if (!states[c].samples) throw std::runtime_error("cannot write " + path);
    std::fputs(kSampleHeader, states[c].samples.get());
    states[c].first.resize(ctx.in->queries.size());
  }
  RoundGate gate(clients, ctx.min_rounds, seconds, rounds_goal);
  std::barrier<> step(clients);
  const bool replay = ctx.spec->log_length > 0;
  auto body = [&](int c) {
    if (replay)
      replay_client(ctx, states[c], gate);
    else
      sweep_client(ctx, states[c], c, gate, step);
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < clients; ++c) threads.emplace_back(body, c);
  body(0);
  for (auto& t : threads) t.join();
  *wall_s = std::chrono::duration<double>(Clock::now() - gate.start()).count();
  for (auto& cs : states)
    if (std::fclose(cs.samples.release()) != 0)
      throw std::runtime_error("cannot write the sample log");
  *rounds = gate.rounds();
  return states;
}

// ------------------------------------------------------------ layer probes

struct ProbeResult {
  std::string problem;
  int rows = 0;
  int64_t nnz = 0;
  int presolve_rows_removed = 0, presolve_vars_fixed = 0;
  int root_iterations = 0;
  double rounded_cost = 0.0, returned_cost = 0.0;
};

// Calls each layer's public entry point once on this workload's own inputs
// (each problem at its middle grid budget), under its own span. The
// `first` outcomes supply the returned plan the rounding and simulator
// probes compare against.
std::vector<ProbeResult> probe_layers(
    const RunContext& ctx, const std::vector<std::optional<ScheduleResult>>& first,
    int tid) {
  const WorkloadSpec& w = *ctx.spec;
  const Inputs& in = *ctx.in;
  Tracer& tr = *ctx.tracer;
  std::vector<ProbeResult> out;
  std::vector<int> probe_query;
  const std::string store_dir = ctx.out_dir + "/probe_store_" + std::to_string(tid);
  fs::remove_all(store_dir);
  store::StoreShape shape;
  shape.formulation = w.formulation;
  {
    store::PlanStore writer(store_dir);
    for (size_t u = 0; u < in.units.size(); ++u) {
      const int qi = in.units[u][in.units[u].size() / 2];
      if (!first[qi]) continue;
      const Query& q = in.queries[qi];
      const Problem& pr = in.problems[q.problem];
      const ScheduleResult& ret = *first[qi];
      ProbeResult res;
      res.problem = pr.id;
      res.returned_cost = ret.cost;
      const std::string pa = "\"problem\": \"" + pr.id + "\"";
      const auto p0 = Clock::now();

      IlpBuildOptions bo;
      bo.budget_bytes = q.budget;
      bo.formulation = w.formulation;
      auto t0 = Clock::now();
      IlpFormulation form(pr.p, bo);
      auto t1 = Clock::now();
      res.rows = form.lp().num_rows();
      res.nnz = static_cast<int64_t>(form.lp().entries.size());
      tr.add("core.ilp_builder.build", "layer", tid, t0, t1,
             pa + ", \"rows\": " + std::to_string(res.rows) + ", \"nnz\": " +
                 std::to_string(res.nnz));

      t0 = Clock::now();
      milp::PresolveResult pre = milp::presolve(form.lp());
      t1 = Clock::now();
      res.presolve_rows_removed = pre.stats.rows_removed;
      res.presolve_vars_fixed = pre.stats.vars_fixed;
      tr.add("milp.presolve", "layer", tid, t0, t1,
             pa + ", \"rows_removed\": " + std::to_string(res.presolve_rows_removed) +
                 ", \"vars_fixed\": " + std::to_string(res.presolve_vars_fixed));

      lp::SimplexOptions so;
      so.max_iterations = static_cast<int>(w.max_lp_iterations);
      so.time_limit_sec = 170.0;
      t0 = Clock::now();
      const lp::LpResult root = lp::solve_lp(pre.lp, so);
      t1 = Clock::now();
      res.root_iterations = root.iterations;
      tr.add("lp.root", "layer", tid, t0, t1,
             pa + ", \"iterations\": " + std::to_string(root.iterations) +
                 ", \"status\": \"" + lp::to_string(root.status) + "\"");

      if (static_cast<int>(root.x.size()) == form.lp().num_vars()) {
        t0 = Clock::now();
        const RematSolution rounded =
            two_phase_round(pr.p.graph, form.extract_fractional_s(root.x));
        t1 = Clock::now();
        res.rounded_cost = rounded.compute_cost(pr.p);
        tr.add("core.rounding", "layer", tid, t0, t1,
               pa + ", \"rounded_cost\": " + std::to_string(res.rounded_cost) +
                   ", \"returned_cost\": " + std::to_string(res.returned_cost));
      }

      t0 = Clock::now();
      const ExecutionPlan plan = generate_execution_plan(pr.p, ret.solution);
      SimulatorOptions sim_opts;
      sim_opts.budget_bytes = q.budget;
      const SimulationResult sim = simulate_plan(pr.p, plan, sim_opts);
      t1 = Clock::now();
      tr.add("core.simulator", "layer", tid, t0, t1,
             pa + ", \"valid\": " + (sim.valid ? "true" : "false"));

      t0 = Clock::now();
      writer.put(pr.p, shape, q.budget, w.relative_gap, ret);
      t1 = Clock::now();
      tr.add("store.put", "layer", tid, t0, t1, pa);
      tr.add("probe", "probe", tid, p0, Clock::now(), pa);
      out.push_back(res);
      probe_query.push_back(qi);
    }
  }
  auto t0 = Clock::now();
  store::PlanStore reader(store_dir);
  auto t1 = Clock::now();
  tr.add("store.load", "layer", tid, t0, t1,
         "\"records\": " + std::to_string(reader.size()));
  for (size_t i = 0; i < out.size(); ++i) {
    const Query& q = in.queries[probe_query[i]];
    const Problem& pr = in.problems[q.problem];
    // The first lookup of a loaded record re-validates it with the
    // simulator; the second is the steady-state read.
    for (int rep = 0; rep < 2; ++rep) {
      t0 = Clock::now();
      const bool hit =
          reader.lookup(pr.p, shape, q.budget, w.relative_gap).has_value();
      t1 = Clock::now();
      tr.add("store.lookup", "layer", tid, t0, t1,
             "\"problem\": \"" + pr.id + "\", \"hit\": " + (hit ? "true" : "false") +
                 ", \"first\": " + (rep == 0 ? "true" : "false"));
    }
  }
  fs::remove_all(store_dir);
  return out;
}

// Runs the layer probes on as many threads as the workload has clients, so
// the layers are timed under the same load as the queries. Spans go to
// lanes of their own; the counts come from the first thread.
std::vector<ProbeResult> run_probes(
    const RunContext& ctx, const std::vector<std::optional<ScheduleResult>>& first) {
  const int clients = ctx.spec->clients;
  std::vector<std::vector<ProbeResult>> results(clients);
  std::vector<std::thread> threads;
  for (int c = 1; c < clients; ++c)
    threads.emplace_back([&, c] { results[c] = probe_layers(ctx, first, clients + c); });
  results[0] = probe_layers(ctx, first, clients);
  for (auto& t : threads) t.join();
  return results[0];
}

// ------------------------------------------------------------ output

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o;
}

void write_counters(FILE* f, const std::string& key, const Counters& c) {
  std::fprintf(f, "  \"%s\": {", key.c_str());
  bool first = true;
  for (const auto& [name, value] : c) {
    std::fprintf(f, "%s\"%s\": %lld", first ? "" : ", ", name.c_str(), (long long)value);
    first = false;
  }
  std::fprintf(f, "},\n");
}

// JSON has no inf/nan literals; Python's json module reads these.
std::string json_real(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "Infinity" : "-Infinity";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct RawOutput {
  std::vector<double> setup_s;
  double model_build_ms = 0.0;
  std::vector<std::string> sample_files;
  std::vector<std::string> failures;
  std::vector<Counters> phase_counters[2];  // [phase][pass]
  int rounds[2] = {0, 0};                   // per client, by phase
  double wall_s[2] = {0.0, 0.0};            // by phase
  std::vector<ProbeResult> probes;
};

bool write_raw(const std::string& path, const WorkloadSpec& w, const Inputs& in,
               uint64_t seed, int trace, const RawOutput& raw) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\n  \"workload\": \"%s\", \"seed\": %llu, \"trace\": %d,\n",
               w.name.c_str(), (unsigned long long)seed, trace);
  std::fprintf(f,
               "  \"clients\": %d, \"tree_threads\": %d, \"max_lp_iterations\": %lld, "
               "\"max_nodes\": %lld, \"relative_gap\": %g, \"min_rounds\": %d,\n",
               w.clients, w.tree_threads, (long long)w.max_lp_iterations,
               (long long)w.max_nodes, w.relative_gap, w.min_rounds);
  std::fprintf(f, "  \"formulation\": \"%s\",\n",
               w.formulation == IlpFormulationKind::kDense ? "dense" : "interval");
  std::fprintf(f, "  \"setup_s\": [");
  for (size_t i = 0; i < raw.setup_s.size(); ++i)
    std::fprintf(f, "%s%.9f", i ? ", " : "", raw.setup_s[i]);
  std::fprintf(f, "],\n  \"model_build_ms\": %.6f,\n", raw.model_build_ms);
  std::fprintf(f, "  \"peak_rss_mb\": %.3f,\n", peak_rss_mb());
  for (int ph = 0; ph < 2; ++ph) {
    std::fprintf(f, "  \"rounds_phase%d\": %d, \"wall_s_phase%d\": %.9f,\n", ph,
                 raw.rounds[ph], ph, raw.wall_s[ph]);
    for (size_t pass = 0; pass < raw.phase_counters[ph].size(); ++pass) {
      const std::string key =
          "counters_phase" + std::to_string(ph) + "_pass" + std::to_string(pass);
      write_counters(f, key, raw.phase_counters[ph][pass]);
    }
  }
  std::fprintf(f, "  \"queries\": [\n");
  for (size_t i = 0; i < in.queries.size(); ++i) {
    const Query& q = in.queries[i];
    const Problem& pr = in.problems[q.problem];
    std::fprintf(f,
                 "    {\"id\": \"%s\", \"problem\": \"%s\", \"frac\": %.4f, "
                 "\"budget\": %.17g, \"ideal\": %.17g}%s\n",
                 q.id.c_str(), pr.id.c_str(), q.frac, q.budget, pr.ideal,
                 i + 1 < in.queries.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"failures\": [");
  for (size_t i = 0; i < raw.failures.size(); ++i)
    std::fprintf(f, "%s\"%s\"", i ? ", " : "", json_escape(raw.failures[i]).c_str());
  std::fprintf(f, "],\n  \"probes\": [\n");
  for (size_t i = 0; i < raw.probes.size(); ++i) {
    const ProbeResult& p = raw.probes[i];
    std::fprintf(f,
                 "    {\"problem\": \"%s\", \"rows\": %d, \"nnz\": %lld, "
                 "\"presolve_rows_removed\": %d, \"presolve_vars_fixed\": %d, "
                 "\"root_iterations\": %d, \"rounded_cost\": %.17g, "
                 "\"returned_cost\": %.17g}%s\n",
                 p.problem.c_str(), p.rows, (long long)p.nnz,
                 p.presolve_rows_removed, p.presolve_vars_fixed, p.root_iterations,
                 p.rounded_cost, p.returned_cost, i + 1 < raw.probes.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"sample_files\": [");
  for (size_t i = 0; i < raw.sample_files.size(); ++i)
    std::fprintf(f, "%s\"%s\"", i ? ", " : "", raw.sample_files[i].c_str());
  std::fprintf(f, "]\n}\n");
  return std::fclose(f) == 0;
}

// ------------------------------------------------------------ modes

int run(const std::string& workload, uint64_t seed, double seconds, int trace,
        const std::string& out_dir) {
  const WorkloadSpec w = workload_spec(workload);
  fs::create_directories(out_dir);
  RawOutput raw;

  // Set-up, repeated; setup_s is the median in run.py. Each repetition
  // builds every problem (zoo -> autodiff -> cost model -> RematProblem)
  // and the services the first round needs, and frees them again before the
  // next, so every repetition starts from the same heap (keeping the last
  // one alive made alternate repetitions differ by 1.5x). The first few
  // are warm-up. A set-up takes well under a millisecond, so repetitions
  // continue for a second: a median over a few milliseconds moved with
  // whatever the host did in that moment. The budget grids are computed
  // once, untimed.
  constexpr int kWarmup = 5, kMinSetupRepeats = 51;
  constexpr std::chrono::seconds kSetupWindow{1};
  std::vector<double> build_ms;
  const std::string setup_dir = out_dir + "/setup_store";
  const auto setup_start = Clock::now();
  for (int rep = 0; rep < kWarmup + kMinSetupRepeats ||
                    Clock::now() - setup_start < kSetupWindow;
       ++rep) {
    fs::remove_all(setup_dir);
    const auto t0 = Clock::now();
    const std::vector<Problem> fresh = build_problems(w);
    {
      std::vector<std::unique_ptr<service::PlanService>> services;
      for (int c = 0; c < w.clients; ++c)
        services.push_back(std::make_unique<service::PlanService>(
            service_options(w, w.log_length > 0 ? setup_dir : "")));
      if (rep >= kWarmup)
        raw.setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    }
    double ms = 0.0;
    for (const Problem& p : fresh) ms += p.build_ms;
    if (rep >= kWarmup) build_ms.push_back(ms);
  }
  fs::remove_all(setup_dir);
  std::sort(build_ms.begin(), build_ms.end());
  raw.model_build_ms = build_ms[build_ms.size() / 2];
  const Inputs in = build_inputs(w);

  const auto origin = Clock::now();
  Tracer tracer(origin);
  RunContext ctx{&w, &in, seed, out_dir, nullptr, 0, trace ? 1 : w.min_rounds};
  const int passes = w.log_length > 0 ? 3 : 1;
  std::vector<std::optional<ScheduleResult>> first(in.queries.size());

  // Phase 0 untraced; with --trace 1 it gets half the time, and phase 1
  // replays exactly the same rounds with spans on.
  const int phases = trace ? 2 : 1;
  for (int ph = 0; ph < phases; ++ph) {
    ctx.phase = ph;
    ctx.tracer = ph == 1 ? &tracer : nullptr;
    auto states = run_phase(ctx, trace ? seconds / 2 : seconds,
                            ph == 1 ? raw.rounds[0] : 0, &raw.rounds[ph], &raw.wall_s[ph]);
    raw.phase_counters[ph].resize(passes);
    for (int c = 0; c < w.clients; ++c)
      raw.sample_files.push_back("samples_p" + std::to_string(ph) + "_c" +
                                 std::to_string(c) + ".csv");
    for (auto& cs : states) {
      raw.failures.insert(raw.failures.end(), cs.failures.begin(), cs.failures.end());
      for (int pass = 0; pass < passes; ++pass)
        add_counters(raw.phase_counters[ph][pass], cs.counters[pass]);
      for (size_t qi = 0; qi < first.size(); ++qi)
        if (!first[qi] && cs.first[qi]) first[qi] = std::move(cs.first[qi]);
    }
  }
  if (trace) raw.probes = run_probes(ctx, first);

  if (!write_raw(out_dir + "/raw.json", w, in, seed, trace, raw)) {
    std::fprintf(stderr, "perfbench: cannot write %s/raw.json\n", out_dir.c_str());
    return 1;
  }
  if (trace) {
    char meta[256];
    std::snprintf(meta, sizeof meta, "\"workload\": \"%s\", \"seed\": %llu",
                  w.name.c_str(), (unsigned long long)seed);
    if (!tracer.write(out_dir + "/trace.json", meta)) {
      std::fprintf(stderr, "perfbench: cannot write %s/trace.json\n", out_dir.c_str());
      return 1;
    }
  }
  return 0;
}

// Prints the query order the workload issues for this seed, one query id
// per line: the replay log for serve_replay, the clients' shared unit order
// for the sweep workloads.
int print_log(const std::string& workload, uint64_t seed) {
  const WorkloadSpec w = workload_spec(workload);
  const Inputs in = build_inputs(w);
  if (w.log_length > 0) {
    for (int qi : make_log(log_opening(in), w.log_length, seed))
      std::printf("%s\n", in.queries[qi].id.c_str());
    return 0;
  }
  for (int u : unit_order(in.units.size(), seed))
    for (int qi : in.units[u]) std::printf("%s\n", in.queries[qi].id.c_str());
  return 0;
}

// Solves every distinct query of every workload with no work limit, on the
// dense backend and (where the formulation is small enough to root-solve)
// the interval backend, and writes the objectives run.py checks against.
int write_references(const std::string& path) {
  constexpr double kReferenceTimeLimit = 30.0;
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return 1;
  std::fprintf(f, "{\n  \"time_limit_sec\": %g,\n  \"queries\": {\n",
               kReferenceTimeLimit);
  bool first_entry = true;
  for (const std::string& name : workload_names()) {
    const WorkloadSpec w = workload_spec(name);
    const Inputs in = build_inputs(w);
    for (const Query& q : in.queries) {
      const Problem& pr = in.problems[q.problem];
      std::string entry;
      for (IlpFormulationKind kind :
           {IlpFormulationKind::kDense, IlpFormulationKind::kInterval}) {
        // The dense encoding of the deep graphs cannot root-solve.
        if (kind == IlpFormulationKind::kDense &&
            w.formulation == IlpFormulationKind::kInterval)
          continue;
        IlpSolveOptions o;
        o.formulation = kind;
        o.relative_gap = w.relative_gap;
        o.time_limit_sec = kReferenceTimeLimit;
        o.num_threads = 4;
        const auto t0 = Clock::now();
        const ScheduleResult r = Scheduler(pr.p).solve_optimal_ilp(q.budget, o);
        const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
        const bool proven = r.feasible && r.milp_status == milp::MilpStatus::kOptimal;
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"feasible\": %s, \"objective\": %s, "
                      "\"best_bound\": %s, \"proven\": %s}",
                      entry.empty() ? "" : ", ",
                      kind == IlpFormulationKind::kDense ? "dense" : "interval",
                      r.feasible ? "true" : "false",
                      json_real(r.feasible ? r.cost : lp::kInf).c_str(),
                      json_real(r.best_bound).c_str(), proven ? "true" : "false");
        entry += buf;
        std::fprintf(stderr, "%-40s %-8s %-9s cost=%.10g %.1fs\n", q.id.c_str(),
                     kind == IlpFormulationKind::kDense ? "dense" : "interval",
                     milp::to_string(r.milp_status), r.cost, secs);
      }
      std::fprintf(f, "%s    \"%s\": {%s}", first_entry ? "" : ",\n", q.id.c_str(),
                   entry.c_str());
      first_entry = false;
      std::fflush(f);
    }
  }
  std::fprintf(f, "\n  }\n}\n");
  return std::fclose(f) == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, out_dir, references;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool want_log = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") workload = value();
    else if (arg == "--seed") seed = std::stoull(value());
    else if (arg == "--seconds") seconds = std::stod(value());
    else if (arg == "--trace") trace = std::stoi(value());
    else if (arg == "--out") out_dir = value();
    else if (arg == "--print-log") want_log = true;
    else if (arg == "--references") references = value();
    else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  try {
    if (!references.empty()) return write_references(references);
    if (want_log) return print_log(workload, seed);
    if (workload.empty() || out_dir.empty()) {
      std::fprintf(stderr,
                   "usage: perfbench --workload NAME --seed N --seconds S "
                   "--trace 0|1 --out DIR\n");
      return 2;
    }
    return run(workload, seed, seconds, trace, out_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
