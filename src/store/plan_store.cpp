#include "store/plan_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string_view>

#include "robust/fault_injection.h"

namespace checkmate::store {

namespace fs = std::filesystem;

namespace {

constexpr uint32_t kMagic = 0x53504b43u;  // "CKPS" little-endian
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 8;  // magic, version, len, checksum
constexpr double kRelTol = 1e-12;
constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// FNV-1a over the payload; the same hash family the fingerprint uses. Any
// single torn tail or bit flip changes it, which is the integrity level the
// store promises (it is not a cryptographic seal).
uint64_t checksum64(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

struct Writer {
  std::string out;
  void u8(uint8_t v) { out.push_back(static_cast<char>(v)); }
  void u32(uint32_t v) {
    for (int b = 0; b < 4; ++b) out.push_back(static_cast<char>((v >> (8 * b)) & 0xff));
  }
  void u64(uint64_t v) {
    for (int b = 0; b < 8; ++b) out.push_back(static_cast<char>((v >> (8 * b)) & 0xff));
  }
  void f64(double v) { u64(std::bit_cast<uint64_t>(v)); }
  void bytes(std::string_view s) { out.append(s.data(), s.size()); }
};

// Bounds-checked little-endian reader; every getter reports success so a
// truncated or garbage payload turns into a clean parse failure.
struct Reader {
  std::string_view in;
  size_t pos = 0;
  bool ok = true;
  uint8_t u8() {
    if (pos + 1 > in.size()) { ok = false; return 0; }
    return static_cast<uint8_t>(in[pos++]);
  }
  uint32_t u32() {
    if (pos + 4 > in.size()) { ok = false; return 0; }
    uint32_t v = 0;
    for (int b = 0; b < 4; ++b) v |= static_cast<uint32_t>(static_cast<uint8_t>(in[pos++])) << (8 * b);
    return v;
  }
  uint64_t u64() {
    if (pos + 8 > in.size()) { ok = false; return 0; }
    uint64_t v = 0;
    for (int b = 0; b < 8; ++b) v |= static_cast<uint64_t>(static_cast<uint8_t>(in[pos++])) << (8 * b);
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string_view bytes(size_t n) {
    if (pos + n > in.size()) { ok = false; return {}; }
    std::string_view v = in.substr(pos, n);
    pos += n;
    return v;
  }
};

std::string hex16(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

// Payload layout (version 1); the header wraps it with magic/version/
// length/checksum. Field order is part of the format: changing it bumps
// kPlanStoreFormatVersion.
std::string PlanStore::encode(uint64_t fingerprint, const Record& rec) {
  const StoreShape& shape = rec.shape;
  const RematSolution& sol = rec.solution;
  Writer w;
  const size_t stages = sol.R.size();
  const size_t nodes = stages == 0 ? 0 : sol.R[0].size();
  w.out.reserve(kHeaderBytes + 64 + rec.problem_blob.size() +
                2 * stages * nodes);
  w.u64(fingerprint);
  w.u8(shape.partitioned ? 1 : 0);
  w.u8(shape.eliminate_diag_free ? 1 : 0);
  w.u8(shape.has_cost_cap ? 1 : 0);
  w.u8(static_cast<uint8_t>(shape.formulation));
  w.f64(shape.cost_cap);
  w.f64(rec.solved_budget);
  w.f64(rec.relative_gap);
  w.f64(rec.cost);
  w.f64(rec.best_bound);
  w.f64(rec.peak_bytes);
  w.u64(rec.problem_blob.size());
  w.bytes(rec.problem_blob);
  w.u32(static_cast<uint32_t>(stages));
  w.u32(static_cast<uint32_t>(nodes));
  for (const auto& row : sol.R)
    for (uint8_t b : row) w.u8(b);
  for (const auto& row : sol.S)
    for (uint8_t b : row) w.u8(b);
  return std::move(w.out);
}

bool PlanStore::decode(std::string_view payload, uint64_t* fingerprint,
                       Record* out) {
  Reader r{payload};
  *fingerprint = r.u64();
  out->shape.partitioned = r.u8() != 0;
  out->shape.eliminate_diag_free = r.u8() != 0;
  out->shape.has_cost_cap = r.u8() != 0;
  const uint8_t kind = r.u8();
  if (kind > static_cast<uint8_t>(IlpFormulationKind::kInterval)) return false;
  out->shape.formulation = static_cast<IlpFormulationKind>(kind);
  out->shape.cost_cap = r.f64();
  out->solved_budget = r.f64();
  out->relative_gap = r.f64();
  out->cost = r.f64();
  out->best_bound = r.f64();
  out->peak_bytes = r.f64();
  const uint64_t blob_size = r.u64();
  if (!r.ok || blob_size > payload.size()) return false;
  out->problem_blob = std::string(r.bytes(blob_size));
  const uint32_t stages = r.u32();
  const uint32_t nodes = r.u32();
  if (!r.ok) return false;
  // Cheap structural sanity before allocating: the matrices must exactly
  // exhaust the remaining payload.
  const uint64_t cells = static_cast<uint64_t>(stages) * nodes;
  if (payload.size() - r.pos != 2 * cells) return false;
  out->solution.R.assign(stages, std::vector<uint8_t>(nodes));
  out->solution.S.assign(stages, std::vector<uint8_t>(nodes));
  for (auto& row : out->solution.R)
    for (auto& b : row) b = r.u8();
  for (auto& row : out->solution.S)
    for (auto& b : row) b = r.u8();
  if (!r.ok || r.pos != payload.size()) return false;
  // Reject non-finite or negative economics outright; they cannot come
  // from a real solve and would poison staircase math.
  for (double v : {out->solved_budget, out->relative_gap, out->cost,
                   out->best_bound, out->peak_bytes})
    if (!std::isfinite(v)) return false;
  if (out->cost < 0.0 || out->peak_bytes < 0.0 || out->solved_budget < 0.0)
    return false;
  return true;
}

namespace {

// Atomic, durable record write: temp file in the same directory -> fsync
// -> rename -> directory fsync. Returns false (leaving no temp debris)
// on any failure, injected or real; a torn-write fault truncates the
// buffer but lets the protocol "succeed", modelling a kill between write
// and fsync that the next load must quarantine.
bool write_record_file(const std::string& dir, const std::string& final_path,
                       std::string_view bytes) {
  const std::string tmp = final_path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return false;
  size_t remaining = bytes.size();
  if (robust::fault(robust::FaultPoint::kStoreWriteTorn))
    remaining = bytes.size() / 2;
  const char* p = bytes.data();
  bool ok = true;
  while (remaining > 0) {
    const ssize_t n = ::write(fd, p, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      ok = false;
      break;
    }
    p += n;
    remaining -= static_cast<size_t>(n);
  }
  if (ok) ok = !robust::fault(robust::FaultPoint::kFsyncFail) && ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) {
    ::unlink(tmp.c_str());
    return false;
  }
  if (robust::fault(robust::FaultPoint::kStoreRenameFail) ||
      std::rename(tmp.c_str(), final_path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  // Make the rename itself durable. If this fsync fails the record is
  // still fully present in this boot; a power loss may roll it back to
  // absent, which the load-time checks already treat as a plain miss.
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return true;
}

void quarantine_file(const std::string& path) {
  if (path.empty()) return;
  std::error_code ec;
  fs::rename(path, path + ".quarantined", ec);
  if (ec) fs::remove(path, ec);  // last resort: never re-load it
}

}  // namespace

uint64_t StoreShape::routing_key(uint64_t fingerprint) const {
  uint64_t h = fingerprint;
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  mix(partitioned ? 1 : 2);
  mix(eliminate_diag_free ? 1 : 2);
  mix(static_cast<uint64_t>(formulation) + 3);
  mix(has_cost_cap ? std::bit_cast<uint64_t>(cost_cap) : 5);
  return h;
}

PlanStore::PlanStore(std::string directory) : dir_(std::move(directory)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  // Recovery-on-load: index every intact record, quarantine everything
  // else, and sweep temp debris a crash may have stranded.
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string path = entry.path().string();
    const std::string ext = entry.path().extension().string();
    if (ext == ".tmp") {
      fs::remove(entry.path(), ec);  // stranded pre-rename temp: never valid
      continue;
    }
    if (ext != ".plan") continue;

    std::string bytes;
    {
      std::ifstream in(path, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
      if (!in.good() && !in.eof()) bytes.clear();
    }
    if (robust::fault(robust::FaultPoint::kStoreReadCorrupt) &&
        !bytes.empty())
      bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);

    bool valid = false;
    uint64_t fingerprint = 0;
    Record rec;
    if (bytes.size() >= kHeaderBytes) {
      Reader r{bytes};
      const uint32_t magic = r.u32();
      const uint32_t version = r.u32();
      const uint64_t payload_size = r.u64();
      const uint64_t sum = r.u64();
      if (magic == kMagic && version == kPlanStoreFormatVersion &&
          bytes.size() - kHeaderBytes == payload_size) {
        const std::string_view payload(bytes.data() + kHeaderBytes,
                                       payload_size);
        if (checksum64(payload) == sum)
          valid = decode(payload, &fingerprint, &rec);
      }
    }
    if (!valid) {
      quarantine_file(path);
      ++stats_.load_quarantines;
      continue;
    }
    rec.path = path;
    rec.validated = false;  // earns simulator validation on first use
    index_[rec.shape.routing_key(fingerprint)].push_back(std::move(rec));
    ++stats_.records_loaded;
  }
}

void PlanStore::quarantine_locked(uint64_t key, size_t idx, const char*) {
  auto it = index_.find(key);
  if (it == index_.end() || idx >= it->second.size()) return;
  quarantine_file(it->second[idx].path);
  it->second.erase(it->second.begin() + static_cast<ptrdiff_t>(idx));
  if (it->second.empty()) index_.erase(it);
  ++stats_.validation_quarantines;
}

std::optional<ScheduleResult> PlanStore::lookup(const RematProblem& problem,
                                                const StoreShape& shape,
                                                double budget_bytes,
                                                double relative_gap,
                                                double* staircase_bound_out) {
  if (staircase_bound_out) *staircase_bound_out = kNegInf;
  const std::string blob = problem.serialize_canonical();
  const uint64_t key = shape.routing_key(problem.fingerprint());
  const double ideal = problem.total_cost_all_nodes();

  std::lock_guard lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  auto& records = it->second;
  ptrdiff_t candidate = -1;
  size_t i = 0;
  while (i < records.size()) {
    Record& rec = records[i];
    // Hard guarantee at the disk boundary: the 64-bit fingerprint only
    // routed us here; nothing is trusted until the full canonical blob
    // matches (a colliding different problem is simply not ours).
    if (rec.shape != shape || rec.problem_blob != blob) {
      ++i;
      continue;
    }
    // Validation-before-serve: the simulator must reproduce the record's
    // economics at the budget it claims before the record may serve plans
    // or export bounds. A record that fails is quarantined -- a corrupt
    // or stale schedule degrades to a cache miss, never a wrong plan.
    if (!rec.validated) {
      const ScheduleResult eval =
          evaluate_schedule_against(problem, rec.solution, rec.solved_budget);
      const bool consistent =
          eval.feasible &&
          std::abs(eval.cost - rec.cost) <=
              1e-6 * std::max(1.0, std::abs(rec.cost)) &&
          eval.peak_memory <= rec.peak_bytes * (1.0 + kRelTol) + 1e-6 &&
          rec.best_bound <= rec.cost * (1.0 + kRelTol) + 1e-6;
      if (!consistent) {
        quarantine_locked(key, i, "simulator validation failed");
        if (index_.find(key) == index_.end()) break;
        continue;  // records shifted; re-examine index i
      }
      rec.validated = true;
    }
    // Dual bounds transfer down the staircase: a bound proven at budget B
    // is valid for any budget <= B (shrinking the budget only raises the
    // optimum).
    if (staircase_bound_out &&
        budget_bytes <= rec.solved_budget * (1.0 + kRelTol))
      *staircase_bound_out = std::max(*staircase_bound_out, rec.best_bound);
    // Staircase serve test, mirroring the in-memory warm-start chain: the
    // schedule must fit, and either the proof carries down (budget within
    // [peak, solved] and the recorded cost/bound pair meets this query's
    // gap) or the cost already sits at the compute floor, which no budget
    // can beat.
    const bool fits = rec.peak_bytes <= budget_bytes * (1.0 + kRelTol) + 1e-9;
    const bool bound_carries =
        budget_bytes <= rec.solved_budget * (1.0 + kRelTol) &&
        rec.cost - rec.best_bound <=
            relative_gap * std::max(1.0, std::abs(rec.cost));
    const bool at_floor = rec.cost <= ideal + 1e-9 * std::max(1.0, ideal);
    if (fits && (bound_carries || at_floor) && candidate < 0)
      candidate = static_cast<ptrdiff_t>(i);
    ++i;
  }
  if (candidate < 0) {
    ++stats_.misses;
    return std::nullopt;
  }
  Record& rec = records[static_cast<size_t>(candidate)];
  ScheduleResult out =
      evaluate_schedule_against(problem, rec.solution, budget_bytes);
  if (!out.feasible || out.peak_memory > budget_bytes * (1.0 + kRelTol)) {
    // Can only happen if the stored peak lied; drop the record and miss.
    quarantine_locked(key, static_cast<size_t>(candidate),
                      "budget validation failed");
    ++stats_.misses;
    return std::nullopt;
  }
  out.milp_status = milp::MilpStatus::kOptimal;
  const bool bound_carries =
      budget_bytes <= rec.solved_budget * (1.0 + kRelTol);
  out.best_bound = bound_carries ? rec.best_bound : out.cost;
  out.message = "plan store: proven optimum served from disk";
  ++stats_.hits;
  return out;
}

bool PlanStore::put(const RematProblem& problem, const StoreShape& shape,
                    double solved_budget_bytes, double relative_gap,
                    const ScheduleResult& result) {
  if (!result.feasible) return false;
  const std::string blob = problem.serialize_canonical();
  const uint64_t fingerprint = problem.fingerprint();
  const uint64_t key = shape.routing_key(fingerprint);

  std::lock_guard lock(mu_);
  auto& records = index_[key];
  for (const Record& rec : records) {
    if (rec.shape != shape || rec.problem_blob != blob) continue;
    // An existing record with an equal-or-wider staircase step and an
    // equal-or-tighter certificate already answers everything this one
    // could; skip the write (sweeps re-prove the same optimum at many
    // budgets -- only distinct steps earn disk records).
    if (rec.solved_budget >= solved_budget_bytes * (1.0 - kRelTol) &&
        rec.peak_bytes <= result.peak_memory * (1.0 + kRelTol) + 1e-9 &&
        rec.cost - rec.best_bound <=
            relative_gap * std::max(1.0, std::abs(rec.cost)))
      return true;
  }

  Record rec;
  rec.problem_blob = blob;
  rec.shape = shape;
  rec.solved_budget = solved_budget_bytes;
  rec.relative_gap = relative_gap;
  rec.cost = result.cost;
  rec.best_bound = result.best_bound;
  rec.peak_bytes = result.peak_memory;
  rec.solution = result.solution;
  rec.validated = true;  // born from a live, simulator-validated solve

  const std::string payload = encode(fingerprint, rec);
  Writer header;
  header.u32(kMagic);
  header.u32(kPlanStoreFormatVersion);
  header.u64(payload.size());
  header.u64(checksum64(payload));
  std::string bytes = std::move(header.out);
  bytes += payload;

  // Content-addressed filename: identical records collapse onto one file,
  // so re-proving the same optimum (or two processes racing on the same
  // store) is idempotent rather than duplicative.
  const std::string name =
      hex16(fingerprint) + "-" + hex16(checksum64(bytes)) + ".plan";
  const std::string path = (fs::path(dir_) / name).string();
  bool ok;
  try {
    ok = write_record_file(dir_, path, bytes);
  } catch (const std::exception&) {
    ok = false;
  }
  rec.path = ok ? path : std::string();
  records.push_back(std::move(rec));  // serve from memory either way
  if (ok)
    ++stats_.puts;
  else
    ++stats_.put_failures;
  return ok;
}

StoreStats PlanStore::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

size_t PlanStore::size() const {
  std::lock_guard lock(mu_);
  size_t n = 0;
  for (const auto& kv : index_) n += kv.second.size();
  return n;
}

}  // namespace checkmate::store
