#include "sim/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "linalg/stats.h"
#include "obs/metrics.h"
#include "sim/des.h"
#include "sim/plan_synth.h"
#include "telemetry/feature_catalog.h"

namespace wpred {
namespace {

// Time-of-day multipliers (paper Section 6.2: three daily execution slots
// with visibly different VM performance).
constexpr double kGroupCpuSpeed[3] = {1.0, 0.93, 1.06};
constexpr double kGroupIoSpeed[3] = {1.0, 0.96, 1.03};

// Buffer-pool warm-up time constant (seconds of simulated time).
constexpr double kWarmupTauS = 25.0;

// Random page read cost at reference IO speed; sequential pages stream
// much faster. Milliseconds per 8 KB page.
constexpr double kRandomPageMs = 0.08;
constexpr double kSeqPageMs = 0.02;

// Per-transaction state that travels through the pipeline stages. The loop
// is closed, so a terminal has at most one transaction in flight and its
// state lives in that terminal's slot.
struct TxnState {
  const TxnTypeSpec* txn = nullptr;
  size_t type_id = 0;  // interned transaction type name
  double start_s = 0.0;
  double granted_mb = 0.0;
  /// Run-level speed multiplier of this transaction type (plan/cache
  /// idiosyncrasies drift per type per run, independently across types —
  /// the effect that makes per-type prediction noisier than workload-level
  /// prediction, paper Figure 1).
  double type_mult = 1.0;
  // Carried from one stage to the next.
  double pf = 0.0;  // parallel fraction of the CPU work
  double serial_ms = 0.0;
  double chunk_ms = 0.0;
  int chunks_left = 0;  // fork-join chunks still on the CPU station
  double read_pages = 0.0;
  double write_pages = 0.0;
  double dirtied = 0.0;
};

struct TypeStats {
  double latency_sum_s = 0.0;
  uint64_t count = 0;
};

// What each simulator event means to the engine; an event's id is the
// terminal, except for kSample (the sample row).
enum EventKind : int {
  kStartTxn,
  kLockWaitDone,
  kSerialCpuDone,  // CPU station
  kChunkDone,      // CPU station
  kIoDone,         // IO station
  kCheckpoint,
  kFlushDone,  // IO station; arg = pages flushed
  kSample,
};

class EngineSim {
 public:
  explicit EngineSim(const RunRequest& request)
      : request_(request),
        rng_(request.config.seed),
        sim_(),
        cpu_(&sim_, std::max(1, request.sku.cpus)),
        io_(&sim_, 8) {}

  Result<Experiment> Run();

 private:
  const WorkloadSpec& workload() const { return request_.workload; }
  const Sku& sku() const { return request_.sku; }

  void Dispatch(const Event& event);
  size_t PickTxnIndex();
  void StartTxn(int terminal);
  void CpuPhase(int terminal);
  void SerialCpuDone(int terminal);
  void ChunkDone(int terminal);
  void IoPhase(int terminal);
  void IoDone(int terminal);
  void Commit(int terminal);
  void Checkpoint();
  void TakeSample(size_t row);

  double ConflictProbability(const TxnTypeSpec& txn) const;

  const RunRequest& request_;
  Rng rng_;
  Simulator sim_;
  FcfsStation cpu_;
  FcfsStation io_;

  int terminals_ = 1;
  double cpu_speed_ = 1.0;      // effective core speed multiplier
  double io_speed_ = 1.0;       // effective IO speed multiplier
  double grant_cap_mb_ = 0.0;
  double lock_wait_mult_ = 1.0;

  // Live state.
  std::vector<TxnState> txns_;  // indexed by terminal
  double active_write_locks_ = 0.0;
  double active_grants_mb_ = 0.0;
  int active_txns_ = 0;

  // Monotone counters; the sampler differences them per interval.
  double lock_requests_ = 0.0;
  double lock_waits_ = 0.0;
  double read_ios_ = 0.0;
  double write_ios_ = 0.0;
  double cpu_work_ref_ms_ = 0.0;
  double dirty_pages_ = 0.0;  // awaiting the next checkpoint flush

  // Sampler memory of the previous counter values.
  double prev_cpu_busy_ = 0.0;
  double prev_lock_requests_ = 0.0;
  double prev_lock_waits_ = 0.0;
  double prev_read_ios_ = 0.0;
  double prev_write_ios_ = 0.0;
  double prev_cpu_work_ = 0.0;

  Matrix samples_;
  // Per-type stats by interned name id, so two types sharing a name share
  // one accumulator.
  std::vector<const std::string*> type_names_;
  std::vector<TypeStats> type_stats_;
  TypeStats total_stats_;

  // Cumulative mix weights for transaction sampling.
  std::vector<double> cum_weights_;
  // Per-transaction-type run-level CPU-time multiplier and interned name id.
  std::vector<double> type_cpu_mult_;
  std::vector<size_t> type_ids_;
};

void EngineSim::Dispatch(const Event& event) {
  const int terminal = event.tag.id;
  switch (event.tag.kind) {
    case kStartTxn:
      StartTxn(terminal);
      break;
    case kLockWaitDone:
      CpuPhase(terminal);
      break;
    case kSerialCpuDone:
      cpu_.Complete(event);
      SerialCpuDone(terminal);
      break;
    case kChunkDone:
      cpu_.Complete(event);
      ChunkDone(terminal);
      break;
    case kIoDone:
      io_.Complete(event);
      IoDone(terminal);
      break;
    case kCheckpoint:
      Checkpoint();
      break;
    case kFlushDone:
      io_.Complete(event);
      write_ios_ += event.tag.arg;
      break;
    case kSample:
      TakeSample(static_cast<size_t>(event.tag.id));
      break;
    default:
      WPRED_CHECK(false) << "unknown event kind " << event.tag.kind;
  }
}

size_t EngineSim::PickTxnIndex() {
  const double u = rng_.Uniform(0.0, cum_weights_.back());
  const auto it = std::lower_bound(cum_weights_.begin(), cum_weights_.end(), u);
  return std::min(workload().transactions.size() - 1,
                  static_cast<size_t>(it - cum_weights_.begin()));
}

double EngineSim::ConflictProbability(const TxnTypeSpec& txn) const {
  if (txn.locks_acquired <= 0.0 || active_write_locks_ <= 0.0) return 0.0;
  // Hot-key population shrinks exponentially with access skew; conflicts
  // scale with the product of this transaction's lock footprint and the
  // write locks currently held by others.
  const double hot_keys = std::max(
      500.0, txn.table_cardinality * std::pow(10.0, -6.0 * workload().access_skew));
  const double pressure = txn.locks_acquired * active_write_locks_ / hot_keys;
  return 1.0 - std::exp(-pressure);
}

void EngineSim::StartTxn(int terminal) {
  TxnState& state = txns_[terminal];
  state = TxnState{};
  const size_t txn_index = PickTxnIndex();
  state.txn = &workload().transactions[txn_index];
  state.type_id = type_ids_[txn_index];
  state.type_mult = type_cpu_mult_[txn_index];
  state.start_s = sim_.now();
  ++active_txns_;

  const TxnTypeSpec& txn = *state.txn;
  lock_requests_ += txn.locks_acquired;
  const double p_conflict = ConflictProbability(txn);
  if (txn.is_write) active_write_locks_ += txn.locks_acquired;

  if (p_conflict > 0.0 && rng_.Bernoulli(p_conflict)) {
    lock_waits_ += 1.0;
    // Waiters block roughly for the residence time of the lock holder,
    // which grows with system load; the run-level multiplier injects the
    // bursty, high-variance nature of lock waits in the cloud.
    const double mean_wait_s =
        (0.002 + 0.004 * active_txns_ / std::max(1, sku().cpus)) *
        lock_wait_mult_;
    sim_.Schedule(rng_.Exponential(mean_wait_s), {kLockWaitDone, terminal});
  } else {
    CpuPhase(terminal);
  }
}

void EngineSim::CpuPhase(int terminal) {
  TxnState& state = txns_[terminal];
  const TxnTypeSpec& txn = *state.txn;
  state.granted_mb = std::min(txn.query_memory_mb, grant_cap_mb_);
  active_grants_mb_ += state.granted_mb;

  state.pf = std::clamp(txn.parallel_fraction, 0.0, 1.0);
  state.serial_ms = txn.cpu_ms * state.type_mult * (1.0 - state.pf);
  const double serial_s = state.serial_ms / 1000.0 / cpu_speed_;
  cpu_.Submit(serial_s, {kSerialCpuDone, terminal});
}

void EngineSim::SerialCpuDone(int terminal) {
  TxnState& state = txns_[terminal];
  cpu_work_ref_ms_ += state.serial_ms;
  const TxnTypeSpec& txn = *state.txn;
  const int dop = std::min(sku().cpus, std::max(1, txn.max_dop));
  if (state.pf <= 0.0 || dop <= 1) {
    IoPhase(terminal);
    return;
  }
  // Fork-join: the parallel portion splits into dop equal chunks that
  // queue on the shared CPU station, so parallel speed-up degrades
  // gracefully under contention (emergent Amdahl behaviour).
  state.chunk_ms = txn.cpu_ms * state.type_mult * state.pf / dop;
  const double chunk_s = state.chunk_ms / 1000.0 / cpu_speed_;
  state.chunks_left = dop;
  for (int i = 0; i < dop; ++i) {
    cpu_.Submit(chunk_s, {kChunkDone, terminal});
  }
}

void EngineSim::ChunkDone(int terminal) {
  TxnState& state = txns_[terminal];
  cpu_work_ref_ms_ += state.chunk_ms;
  if (--state.chunks_left == 0) IoPhase(terminal);
}

void EngineSim::IoPhase(int terminal) {
  TxnState& state = txns_[terminal];
  const TxnTypeSpec& txn = *state.txn;
  const double hit = BufferHitRate(workload(), sku(), sim_.now());
  const double misses = txn.logical_ios * (1.0 - hit);

  // Memory-starved queries spill their overflow to tempdb: written once,
  // read back once (sequential both ways).
  const double spill_mb = std::max(0.0, txn.query_memory_mb - state.granted_mb);
  const double spill_pages = spill_mb * 128.0 * 2.0;

  // Writers flush a share of touched pages plus the log record.
  const double flush_pages =
      txn.is_write ? 0.4 * txn.logical_ios + 2.0 : 0.0;

  state.read_pages = misses + spill_pages / 2.0;
  state.write_pages = flush_pages + spill_pages / 2.0;

  // Large logical footprints stream sequentially; point accesses are random.
  const double miss_page_ms = txn.logical_ios > 2000.0 ? kSeqPageMs : kRandomPageMs;
  const double service_ms = (misses * miss_page_ms + spill_pages * kSeqPageMs +
                             flush_pages * kRandomPageMs * 0.5) /
                            io_speed_;
  const double service_s = service_ms / 1000.0;

  // A share of the touched pages stays dirty in the buffer pool until the
  // periodic checkpoint flushes it.
  state.dirtied = txn.is_write ? 0.3 * txn.logical_ios : 0.0;
  if (service_s <= 0.0) {
    IoDone(terminal);
  } else {
    io_.Submit(service_s, {kIoDone, terminal});
  }
}

void EngineSim::IoDone(int terminal) {
  const TxnState& state = txns_[terminal];
  read_ios_ += state.read_pages;
  write_ios_ += state.write_pages;
  dirty_pages_ += state.dirtied;
  Commit(terminal);
}

void EngineSim::Commit(int terminal) {
  const TxnState& state = txns_[terminal];
  const TxnTypeSpec& txn = *state.txn;
  active_grants_mb_ -= state.granted_mb;
  if (txn.is_write) active_write_locks_ -= txn.locks_acquired;
  --active_txns_;

  const double latency_s = sim_.now() - state.start_s;
  TypeStats& per_type = type_stats_[state.type_id];
  per_type.latency_sum_s += latency_s;
  per_type.count += 1;
  total_stats_.latency_sum_s += latency_s;
  total_stats_.count += 1;

  const double think_s =
      workload().think_time_ms > 0.0
          ? rng_.Exponential(workload().think_time_ms / 1000.0)
          : 0.0;
  sim_.Schedule(think_s, {kStartTxn, terminal});
}

// Flushes the accumulated dirty pages in one burst.
void EngineSim::Checkpoint() {
  if (dirty_pages_ <= 0.0) return;
  const double pages = dirty_pages_;
  dirty_pages_ = 0.0;
  const double service_s = pages * kSeqPageMs / io_speed_ / 1000.0;
  io_.Submit(service_s, {kFlushDone, 0, pages});
}

void EngineSim::TakeSample(size_t row) {
  const double dt = request_.config.sample_period_s;
  const int cpus = std::max(1, sku().cpus);

  const double cpu_busy = cpu_.BusyIntegral();
  const double util = 100.0 * (cpu_busy - prev_cpu_busy_) / (cpus * dt);
  prev_cpu_busy_ = cpu_busy;

  const double eff =
      100.0 * ((cpu_work_ref_ms_ - prev_cpu_work_) / 1000.0) / (cpus * dt);
  prev_cpu_work_ = cpu_work_ref_ms_;

  const double buffer_gb =
      std::min(workload().working_set_gb, 0.8 * sku().memory_gb) *
      (1.0 - std::exp(-sim_.now() / kWarmupTauS));
  const double mem =
      100.0 * (buffer_gb + active_grants_mb_ / 1024.0) / sku().memory_gb;

  const double reads = read_ios_ - prev_read_ios_;
  const double writes = write_ios_ - prev_write_ios_;
  prev_read_ios_ = read_ios_;
  prev_write_ios_ = write_ios_;
  const double iops = (reads + writes) / dt;
  const double rw_ratio = (reads + 1.0) / (reads + writes + 2.0);

  const double lock_req = lock_requests_ - prev_lock_requests_;
  const double lock_wait = lock_waits_ - prev_lock_waits_;
  prev_lock_requests_ = lock_requests_;
  prev_lock_waits_ = lock_waits_;

  double* sample = samples_.data().data() + row * kNumResourceFeatures;
  sample[IndexOf(FeatureId::kCpuUtilization)] = util;
  sample[IndexOf(FeatureId::kCpuEffective)] = eff;
  sample[IndexOf(FeatureId::kMemUtilization)] = mem;
  sample[IndexOf(FeatureId::kIopsTotal)] = iops;
  sample[IndexOf(FeatureId::kReadWriteRatio)] = rw_ratio;
  sample[IndexOf(FeatureId::kLockReqAbs)] = lock_req;
  sample[IndexOf(FeatureId::kLockWaitAbs)] = lock_wait;

  // perf-style measurement noise, drawn in column order.
  for (size_t c = 0; c < kNumResourceFeatures; ++c) {
    sample[c] = std::max(0.0, sample[c] * (1.0 + rng_.Gaussian(0.0, 0.035)));
  }
}

Result<Experiment> EngineSim::Run() {
  const SimConfig& config = request_.config;
  if (config.duration_s <= 0.0) {
    return Status::InvalidArgument("duration must be positive");
  }
  if (config.sample_period_s <= 0.0 ||
      config.sample_period_s > config.duration_s) {
    return Status::InvalidArgument("invalid sample period");
  }
  if (request_.terminals < 1) {
    return Status::InvalidArgument("terminals must be >= 1");
  }
  if (workload().transactions.empty()) {
    return Status::InvalidArgument("workload has no transaction types");
  }

  terminals_ = workload().serial_only ? 1 : request_.terminals;

  const int group = ((config.data_group % 3) + 3) % 3;
  cpu_speed_ = sku().core_speed * kGroupCpuSpeed[group] *
               rng_.LogNormalMedian(1.0, 0.02);
  io_speed_ = (sku().io_mbps / 400.0) * kGroupIoSpeed[group] *
              rng_.LogNormalMedian(1.0, 0.03);
  grant_cap_mb_ = MemoryGrantCapMb(sku(), terminals_);
  lock_wait_mult_ = rng_.LogNormalMedian(1.0, 0.15);
  type_cpu_mult_.clear();
  for (size_t t = 0; t < workload().transactions.size(); ++t) {
    type_cpu_mult_.push_back(rng_.LogNormalMedian(1.0, 0.15));
  }

  // Intern type names to dense ids once per run.
  std::map<std::string_view, size_t> name_ids;
  type_ids_.clear();
  type_names_.clear();
  for (const TxnTypeSpec& t : workload().transactions) {
    const auto [it, inserted] = name_ids.emplace(t.name, type_names_.size());
    if (inserted) type_names_.push_back(&t.name);
    type_ids_.push_back(it->second);
  }
  type_stats_.assign(type_names_.size(), TypeStats{});

  cum_weights_.clear();
  double acc = 0.0;
  for (const TxnTypeSpec& t : workload().transactions) {
    WPRED_CHECK_GT(t.weight, 0.0) << "non-positive mix weight for " << t.name;
    acc += t.weight;
    cum_weights_.push_back(acc);
  }

  const size_t num_samples =
      static_cast<size_t>(config.duration_s / config.sample_period_s + 1e-9);
  samples_ = Matrix(num_samples, kNumResourceFeatures);

  txns_.assign(terminals_, TxnState{});

  // Stagger terminal start-up so clients do not run in lockstep.
  for (int t = 0; t < terminals_; ++t) {
    const double offset =
        rng_.Uniform(0.0, (workload().think_time_ms + 1.0) / 1000.0);
    sim_.Schedule(offset, {kStartTxn, t});
  }
  // Periodic resource sampling.
  for (size_t s = 0; s < num_samples; ++s) {
    sim_.ScheduleAt((s + 1) * config.sample_period_s,
                    {kSample, static_cast<int>(s)});
  }
  // Periodic checkpoints: flush accumulated dirty pages in a burst.
  if (config.checkpoint_interval_s > 0.0) {
    for (double t = config.checkpoint_interval_s; t <= config.duration_s;
         t += config.checkpoint_interval_s) {
      sim_.ScheduleAt(t, {kCheckpoint});
    }
  }

  const auto wall_start = std::chrono::steady_clock::now();
  sim_.RunUntil(config.duration_s,
                [this](const Event& event) { Dispatch(event); });
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  WPRED_COUNT_ADD("sim.runs", 1);
  WPRED_COUNT_ADD("sim.events_processed", sim_.processed_events());
  WPRED_HIST_RECORD("sim.wall_seconds", wall_seconds);
  // Simulated seconds per wall second; >> 1 means the engine outruns
  // real time (a gauge, so the dump reports the most recent run).
  if (wall_seconds > 0.0) {
    WPRED_GAUGE_SET("sim.time_ratio", config.duration_s / wall_seconds);
  }

  Experiment experiment;
  experiment.workload = workload().name;
  experiment.type = workload().type;
  experiment.sku = sku().name;
  experiment.cpus = sku().cpus;
  experiment.memory_gb = sku().memory_gb;
  experiment.terminals = terminals_;
  experiment.run_id = request_.run_id;
  experiment.data_group = config.data_group;
  experiment.resource.values = std::move(samples_);
  experiment.resource.sample_period_s = config.sample_period_s;

  Rng plan_rng = rng_.Fork(0x9a57);
  WPRED_ASSIGN_OR_RETURN(
      experiment.plans,
      SynthesizePlanStats(workload(), sku(), config.plan_observations,
                          plan_rng));

  PerfSummary perf;
  perf.throughput_tps =
      static_cast<double>(total_stats_.count) / config.duration_s;
  perf.mean_latency_ms =
      total_stats_.count > 0
          ? 1000.0 * total_stats_.latency_sum_s / total_stats_.count
          : 0.0;
  // Only types that committed at least once get an entry.
  for (size_t id = 0; id < type_stats_.size(); ++id) {
    const TypeStats& stats = type_stats_[id];
    if (stats.count == 0) continue;
    const std::string& name = *type_names_[id];
    perf.latency_ms_by_type[name] = 1000.0 * stats.latency_sum_s / stats.count;
    perf.throughput_tps_by_type[name] =
        static_cast<double>(stats.count) / config.duration_s;
  }
  experiment.perf = std::move(perf);
  return experiment;
}

}  // namespace

double BufferHitRate(const WorkloadSpec& workload, const Sku& sku, double t) {
  const double coverage =
      std::min(1.0, 0.8 * sku.memory_gb / std::max(1e-9, workload.working_set_gb));
  const double hit_final = std::min(0.985, 0.30 + 0.68 * coverage);
  const double warm = 1.0 - std::exp(-std::max(0.0, t) / kWarmupTauS);
  return 0.30 + (hit_final - 0.30) * warm;
}

double MemoryGrantCapMb(const Sku& sku, int terminals) {
  return 0.10 * sku.memory_gb * 1024.0 /
         std::sqrt(static_cast<double>(std::max(1, terminals)));
}

Result<Experiment> RunExperiment(const RunRequest& request) {
  EngineSim engine(request);
  return engine.Run();
}

}  // namespace wpred
