#include "serve/checkpoint.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <utility>

#include "common/string_util.h"
#include "obs/metrics.h"

namespace wpred::serve {
namespace checkpoint_internal {

uint64_t Fnv1a64(const char* data, size_t size) {
  uint64_t hash = 14695981039346656037ull;
  for (size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 1099511628211ull;
  }
  return hash;
}

namespace {

constexpr char kMagic[8] = {'W', 'P', 'R', 'E', 'D', 'C', 'K', 'P'};

// --- encoding ---------------------------------------------------------------

class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
  }
  void PutU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
  }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutDouble(double v) { PutU64(std::bit_cast<uint64_t>(v)); }
  void PutString(const std::string& s) {
    PutU64(s.size());
    buf_.append(s);
  }
  void PutMatrix(const Matrix& m) {
    PutU64(m.rows());
    PutU64(m.cols());
    for (double v : m.data()) PutDouble(v);
  }

  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

// --- decoding (every read bounds-checked) -----------------------------------

class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Result<uint8_t> GetU8() {
    if (pos_ >= data_.size()) return Truncated("u8");
    return static_cast<uint8_t>(data_[pos_++]);
  }
  Result<uint32_t> GetU32() {
    if (data_.size() - pos_ < 4) return Truncated("u32");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  Result<uint64_t> GetU64() {
    if (data_.size() - pos_ < 8) return Truncated("u64");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  Result<int64_t> GetI64() {
    WPRED_ASSIGN_OR_RETURN(uint64_t v, GetU64());
    return static_cast<int64_t>(v);
  }
  Result<double> GetDouble() {
    WPRED_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
    return std::bit_cast<double>(bits);
  }
  Result<std::string> GetString() {
    WPRED_ASSIGN_OR_RETURN(uint64_t size, GetU64());
    if (size > data_.size() - pos_) return Truncated("string body");
    std::string s(data_.substr(pos_, size));
    pos_ += size;
    return s;
  }
  Result<Matrix> GetMatrix() {
    WPRED_ASSIGN_OR_RETURN(uint64_t rows, GetU64());
    WPRED_ASSIGN_OR_RETURN(uint64_t cols, GetU64());
    if (cols != 0 && rows > data_.size() / 8 / cols) {
      return Truncated("matrix body");
    }
    const uint64_t cells = rows * cols;
    if (cells * 8 > data_.size() - pos_) return Truncated("matrix body");
    Matrix m(rows, cols);
    for (uint64_t i = 0; i < cells; ++i) {
      WPRED_ASSIGN_OR_RETURN(m.data()[i], GetDouble());
    }
    return m;
  }

  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  Status Truncated(const char* what) const {
    return Status::IoError(StrFormat(
        "checkpoint payload truncated reading %s at offset %zu", what, pos_));
  }

  std::string_view data_;
  size_t pos_ = 0;
};

// --- config / corpus codecs -------------------------------------------------

void EncodeConfig(ByteWriter& w, const PipelineConfig& config) {
  w.PutString(config.selector);
  w.PutU64(config.top_k);
  w.PutU32(static_cast<uint32_t>(config.representation));
  w.PutString(config.measure);
  w.PutString(config.strategy);
  w.PutU32(static_cast<uint32_t>(config.context));
  w.PutU64(config.subsamples);
  w.PutI64(config.num_threads);
  w.PutU64(config.similarity_shard_traces);
  w.PutI64(config.similarity_sketch_bins);
  w.PutU8(config.quality_gate ? 1 : 0);
  w.PutDouble(config.quality.stuck_run_fraction);
  w.PutDouble(config.quality.max_bad_fraction);
  w.PutU64(config.quality.min_samples);
  w.PutU64(config.quality.max_dead_features);
  w.PutU8(config.incremental_refit ? 1 : 0);
}

Result<PipelineConfig> DecodeConfig(ByteReader& r) {
  PipelineConfig config;
  WPRED_ASSIGN_OR_RETURN(config.selector, r.GetString());
  WPRED_ASSIGN_OR_RETURN(uint64_t top_k, r.GetU64());
  config.top_k = top_k;
  WPRED_ASSIGN_OR_RETURN(uint32_t representation, r.GetU32());
  if (representation > static_cast<uint32_t>(Representation::kPhaseFp)) {
    return Status::IoError(StrFormat(
        "checkpoint holds unknown representation enum %u", representation));
  }
  config.representation = static_cast<Representation>(representation);
  WPRED_ASSIGN_OR_RETURN(config.measure, r.GetString());
  WPRED_ASSIGN_OR_RETURN(config.strategy, r.GetString());
  WPRED_ASSIGN_OR_RETURN(uint32_t context, r.GetU32());
  if (context > static_cast<uint32_t>(ModelContext::kPairwise)) {
    return Status::IoError(
        StrFormat("checkpoint holds unknown model context enum %u", context));
  }
  config.context = static_cast<ModelContext>(context);
  WPRED_ASSIGN_OR_RETURN(uint64_t subsamples, r.GetU64());
  config.subsamples = subsamples;
  WPRED_ASSIGN_OR_RETURN(int64_t num_threads, r.GetI64());
  config.num_threads = static_cast<int>(num_threads);
  WPRED_ASSIGN_OR_RETURN(uint64_t shard_traces, r.GetU64());
  config.similarity_shard_traces = shard_traces;
  WPRED_ASSIGN_OR_RETURN(int64_t sketch_bins, r.GetI64());
  config.similarity_sketch_bins = static_cast<int>(sketch_bins);
  WPRED_ASSIGN_OR_RETURN(uint8_t quality_gate, r.GetU8());
  config.quality_gate = quality_gate != 0;
  WPRED_ASSIGN_OR_RETURN(config.quality.stuck_run_fraction, r.GetDouble());
  WPRED_ASSIGN_OR_RETURN(config.quality.max_bad_fraction, r.GetDouble());
  WPRED_ASSIGN_OR_RETURN(uint64_t min_samples, r.GetU64());
  config.quality.min_samples = min_samples;
  WPRED_ASSIGN_OR_RETURN(uint64_t max_dead, r.GetU64());
  config.quality.max_dead_features = max_dead;
  WPRED_ASSIGN_OR_RETURN(uint8_t incremental_refit, r.GetU8());
  config.incremental_refit = incremental_refit != 0;
  return config;
}

void EncodeStringDoubleMap(ByteWriter& w,
                           const std::map<std::string, double>& m) {
  w.PutU64(m.size());
  for (const auto& [key, value] : m) {
    w.PutString(key);
    w.PutDouble(value);
  }
}

Result<std::map<std::string, double>> DecodeStringDoubleMap(ByteReader& r) {
  WPRED_ASSIGN_OR_RETURN(uint64_t size, r.GetU64());
  std::map<std::string, double> m;
  for (uint64_t i = 0; i < size; ++i) {
    WPRED_ASSIGN_OR_RETURN(std::string key, r.GetString());
    WPRED_ASSIGN_OR_RETURN(double value, r.GetDouble());
    m[std::move(key)] = value;
  }
  return m;
}

void EncodeExperiment(ByteWriter& w, const Experiment& e) {
  w.PutString(e.workload);
  w.PutU32(static_cast<uint32_t>(e.type));
  w.PutString(e.sku);
  w.PutI64(e.cpus);
  w.PutDouble(e.memory_gb);
  w.PutI64(e.terminals);
  w.PutI64(e.run_id);
  w.PutI64(e.data_group);
  w.PutI64(e.subsample_id);
  w.PutMatrix(e.resource.values);
  w.PutDouble(e.resource.sample_period_s);
  w.PutMatrix(e.plans.values);
  w.PutU64(e.plans.query_names.size());
  for (const std::string& name : e.plans.query_names) w.PutString(name);
  w.PutDouble(e.perf.throughput_tps);
  w.PutDouble(e.perf.mean_latency_ms);
  EncodeStringDoubleMap(w, e.perf.latency_ms_by_type);
  EncodeStringDoubleMap(w, e.perf.throughput_tps_by_type);
}

Result<Experiment> DecodeExperiment(ByteReader& r) {
  Experiment e;
  WPRED_ASSIGN_OR_RETURN(e.workload, r.GetString());
  WPRED_ASSIGN_OR_RETURN(uint32_t type, r.GetU32());
  if (type > static_cast<uint32_t>(WorkloadType::kMixed)) {
    return Status::IoError(
        StrFormat("checkpoint holds unknown workload type enum %u", type));
  }
  e.type = static_cast<WorkloadType>(type);
  WPRED_ASSIGN_OR_RETURN(e.sku, r.GetString());
  WPRED_ASSIGN_OR_RETURN(int64_t cpus, r.GetI64());
  e.cpus = static_cast<int>(cpus);
  WPRED_ASSIGN_OR_RETURN(e.memory_gb, r.GetDouble());
  WPRED_ASSIGN_OR_RETURN(int64_t terminals, r.GetI64());
  e.terminals = static_cast<int>(terminals);
  WPRED_ASSIGN_OR_RETURN(int64_t run_id, r.GetI64());
  e.run_id = static_cast<int>(run_id);
  WPRED_ASSIGN_OR_RETURN(int64_t data_group, r.GetI64());
  e.data_group = static_cast<int>(data_group);
  WPRED_ASSIGN_OR_RETURN(int64_t subsample_id, r.GetI64());
  e.subsample_id = static_cast<int>(subsample_id);
  WPRED_ASSIGN_OR_RETURN(e.resource.values, r.GetMatrix());
  WPRED_ASSIGN_OR_RETURN(e.resource.sample_period_s, r.GetDouble());
  WPRED_ASSIGN_OR_RETURN(e.plans.values, r.GetMatrix());
  WPRED_ASSIGN_OR_RETURN(uint64_t num_queries, r.GetU64());
  e.plans.query_names.reserve(
      static_cast<size_t>(std::min<uint64_t>(num_queries, 4096)));
  for (uint64_t i = 0; i < num_queries; ++i) {
    WPRED_ASSIGN_OR_RETURN(std::string name, r.GetString());
    e.plans.query_names.push_back(std::move(name));
  }
  WPRED_ASSIGN_OR_RETURN(e.perf.throughput_tps, r.GetDouble());
  WPRED_ASSIGN_OR_RETURN(e.perf.mean_latency_ms, r.GetDouble());
  WPRED_ASSIGN_OR_RETURN(e.perf.latency_ms_by_type, DecodeStringDoubleMap(r));
  WPRED_ASSIGN_OR_RETURN(e.perf.throughput_tps_by_type,
                         DecodeStringDoubleMap(r));
  return e;
}

void EncodeSelection(ByteWriter& w, const FeatureSelection& selection) {
  w.PutU64(selection.ranking.ranks.size());
  for (int rank : selection.ranking.ranks) w.PutI64(rank);
  w.PutU64(selection.ranking.scores.size());
  for (double score : selection.ranking.scores) w.PutDouble(score);
  w.PutU64(selection.features.size());
  for (size_t f : selection.features) w.PutU64(f);
  w.PutU64(selection.workloads.size());
  for (const std::string& name : selection.workloads) w.PutString(name);
}

// Besides bounds, checks that the ranks are a 1-based ranking with one score
// each and that every selected feature is one of the ranked features, so a
// restore cannot index past the ranking.
Result<FeatureSelection> DecodeSelection(ByteReader& r) {
  FeatureSelection selection;
  WPRED_ASSIGN_OR_RETURN(uint64_t num_ranks, r.GetU64());
  std::vector<int>& ranks = selection.ranking.ranks;
  for (uint64_t i = 0; i < num_ranks; ++i) {
    WPRED_ASSIGN_OR_RETURN(int64_t rank, r.GetI64());
    if (rank < 1 || static_cast<uint64_t>(rank) > num_ranks) {
      return Status::IoError(StrFormat(
          "checkpoint selection holds rank %lld of %llu features",
          static_cast<long long>(rank),
          static_cast<unsigned long long>(num_ranks)));
    }
    ranks.push_back(static_cast<int>(rank));
  }
  WPRED_ASSIGN_OR_RETURN(uint64_t num_scores, r.GetU64());
  if (num_scores != num_ranks) {
    return Status::IoError(StrFormat(
        "checkpoint selection holds %llu scores for %llu ranks",
        static_cast<unsigned long long>(num_scores),
        static_cast<unsigned long long>(num_ranks)));
  }
  for (uint64_t i = 0; i < num_scores; ++i) {
    WPRED_ASSIGN_OR_RETURN(double score, r.GetDouble());
    selection.ranking.scores.push_back(score);
  }
  WPRED_ASSIGN_OR_RETURN(uint64_t num_features, r.GetU64());
  for (uint64_t i = 0; i < num_features; ++i) {
    WPRED_ASSIGN_OR_RETURN(uint64_t f, r.GetU64());
    if (f >= num_ranks) {
      return Status::IoError(StrFormat(
          "checkpoint selection selects feature %llu of %llu",
          static_cast<unsigned long long>(f),
          static_cast<unsigned long long>(num_ranks)));
    }
    selection.features.push_back(static_cast<size_t>(f));
  }
  WPRED_ASSIGN_OR_RETURN(uint64_t num_workloads, r.GetU64());
  for (uint64_t i = 0; i < num_workloads; ++i) {
    WPRED_ASSIGN_OR_RETURN(std::string name, r.GetString());
    selection.workloads.push_back(std::move(name));
  }
  return selection;
}

}  // namespace

std::string EncodePayload(const PipelineConfig& config,
                          const ExperimentCorpus& corpus,
                          const FeatureSelection& selection) {
  ByteWriter w;
  EncodeConfig(w, config);
  w.PutU64(corpus.size());
  for (const Experiment& e : corpus.experiments()) EncodeExperiment(w, e);
  EncodeSelection(w, selection);
  return w.Take();
}

Result<CheckpointContents> DecodePayload(std::string_view payload) {
  ByteReader r(payload);
  CheckpointContents contents;
  WPRED_ASSIGN_OR_RETURN(contents.config, DecodeConfig(r));
  WPRED_ASSIGN_OR_RETURN(uint64_t count, r.GetU64());
  std::vector<Experiment> experiments;
  experiments.reserve(static_cast<size_t>(std::min<uint64_t>(count, 65536)));
  for (uint64_t i = 0; i < count; ++i) {
    WPRED_ASSIGN_OR_RETURN(Experiment e, DecodeExperiment(r));
    experiments.push_back(std::move(e));
  }
  WPRED_ASSIGN_OR_RETURN(contents.selection, DecodeSelection(r));
  if (!r.AtEnd()) {
    return Status::IoError("checkpoint payload has trailing bytes");
  }
  contents.corpus = ExperimentCorpus(std::move(experiments));
  return contents;
}

}  // namespace checkpoint_internal

Status WriteCheckpoint(const std::string& path, const PipelineConfig& config,
                       const ExperimentCorpus& corpus,
                       const FeatureSelection& selection) {
  const std::string payload =
      checkpoint_internal::EncodePayload(config, corpus, selection);

  std::string file;
  file.append(checkpoint_internal::kMagic, sizeof(checkpoint_internal::kMagic));
  {
    checkpoint_internal::ByteWriter header;
    header.PutU32(kCheckpointVersion);
    header.PutU64(payload.size());
    header.PutU64(
        checkpoint_internal::Fnv1a64(payload.data(), payload.size()));
    file.append(header.Take());
  }
  file.append(payload);

  // Same-directory temp name keeps rename(2) atomic (no cross-filesystem
  // fallback copy).
  const std::string temp = path + ".tmp";
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IoError("cannot open checkpoint temp file " + temp);
    }
    out.write(file.data(), static_cast<std::streamsize>(file.size()));
    out.flush();
    if (!out) {
      (void)std::remove(temp.c_str());  // best-effort cleanup of the temp
      return Status::IoError("short write to checkpoint temp file " + temp);
    }
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    (void)std::remove(temp.c_str());  // best-effort cleanup of the temp
    return Status::IoError("cannot rename checkpoint into place at " + path);
  }
  WPRED_COUNT_ADD("serve.checkpoint.writes", 1);
  return Status::OK();
}

Result<CheckpointContents> ReadCheckpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("no checkpoint at " + path);
  }
  std::string file((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    return Status::IoError("cannot read checkpoint at " + path);
  }

  constexpr size_t kHeaderSize =
      sizeof(checkpoint_internal::kMagic) + 4 + 8 + 8;
  if (file.size() < kHeaderSize) {
    return Status::IoError(StrFormat(
        "checkpoint %s truncated: %zu bytes, header needs %zu", path.c_str(),
        file.size(), kHeaderSize));
  }
  if (std::string_view(file.data(), sizeof(checkpoint_internal::kMagic)) !=
      std::string_view(checkpoint_internal::kMagic,
                       sizeof(checkpoint_internal::kMagic))) {
    return Status::IoError("checkpoint " + path +
                           " has a bad magic header (not a wpred checkpoint)");
  }
  checkpoint_internal::ByteReader header(
      std::string_view(file).substr(sizeof(checkpoint_internal::kMagic)));
  WPRED_ASSIGN_OR_RETURN(uint32_t version, header.GetU32());
  if (version != kCheckpointVersion) {
    return Status::FailedPrecondition(StrFormat(
        "checkpoint %s is format version %u; this binary supports version %u",
        path.c_str(), version, kCheckpointVersion));
  }
  WPRED_ASSIGN_OR_RETURN(uint64_t payload_size, header.GetU64());
  WPRED_ASSIGN_OR_RETURN(uint64_t checksum, header.GetU64());
  const std::string_view payload = std::string_view(file).substr(kHeaderSize);
  if (payload.size() != payload_size) {
    return Status::IoError(StrFormat(
        "checkpoint %s truncated: header promises %llu payload bytes, file "
        "has %zu",
        path.c_str(), static_cast<unsigned long long>(payload_size),
        payload.size()));
  }
  const uint64_t actual =
      checkpoint_internal::Fnv1a64(payload.data(), payload.size());
  if (actual != checksum) {
    return Status::IoError(
        "checkpoint " + path +
        " failed checksum verification (bit rot or torn write); refusing to "
        "restore");
  }
  Result<CheckpointContents> contents =
      checkpoint_internal::DecodePayload(payload);
  if (contents.ok()) WPRED_COUNT_ADD("serve.checkpoint.restores", 1);
  return contents;
}

}  // namespace wpred::serve
