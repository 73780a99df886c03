#ifndef WPRED_SERVE_CHECKPOINT_H_
#define WPRED_SERVE_CHECKPOINT_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "core/pipeline.h"

// Crash-safe checkpointing of serving state (DESIGN.md §11).
//
// A checkpoint persists a FittedSnapshot's *fit closure* — the full
// PipelineConfig, the exact reference corpus the fit consumed, and the
// feature selection it served with, every double bit-exact — rather than
// the fitted model weights. Restoring replays Pipeline::Refit from the
// checkpointed selection; because every stage is deterministic (DESIGN.md
// §7), the restored snapshot serves bit-identical predictions to the one
// that was checkpointed, warm or cold, while the format stays simple enough
// to bounds-check exhaustively and version explicitly.
//
// File layout (all integers little-endian):
//   8 bytes  magic "WPREDCKP"
//   u32      format version (kCheckpointVersion)
//   u64      payload byte count
//   u64      FNV-1a 64 checksum of the payload bytes
//   payload  config + corpus + selection, length-prefixed fields, doubles
//            as IEEE bits
//
// Writes are atomic: the file is assembled under a temporary name in the
// same directory and moved into place with rename(2), so a crash mid-write
// leaves either the previous checkpoint or none — never a torn file. Reads
// verify magic, version, length, and checksum before touching the payload;
// truncated or bit-flipped files are rejected with a descriptive IoError so
// the service can fall back to a cold refit instead of serving garbage.

namespace wpred::serve {

/// Version 4 added the fitted feature selection (ranks, scores, selected
/// features and workload set); version 3 dropped the quality gate's MAD
/// threshold and three repair switches, and the fit-time metrics switch,
/// from the config; version 2 had added similarity_shard_traces,
/// similarity_sketch_bins and incremental_refit. Any other version is
/// rejected as a mismatch.
inline constexpr uint32_t kCheckpointVersion = 4;

/// The deserialised fit closure of a checkpoint.
struct CheckpointContents {
  PipelineConfig config;
  ExperimentCorpus corpus;
  FeatureSelection selection;
};

/// Serialises (config, corpus, selection) to `path` atomically (temp file +
/// rename).
Status WriteCheckpoint(const std::string& path, const PipelineConfig& config,
                       const ExperimentCorpus& corpus,
                       const FeatureSelection& selection);

/// Loads and verifies a checkpoint. Errors:
///   - NotFound: no file at `path`;
///   - IoError: unreadable, truncated, checksum mismatch, or undecodable
///     payload (message says which);
///   - FailedPrecondition: format version other than kCheckpointVersion.
Result<CheckpointContents> ReadCheckpoint(const std::string& path);

namespace checkpoint_internal {

/// FNV-1a 64-bit over `size` bytes — the checkpoint checksum.
uint64_t Fnv1a64(const char* data, size_t size);

/// In-memory encode/decode of the payload section (exposed for tests that
/// corrupt specific bytes without going through a file).
std::string EncodePayload(const PipelineConfig& config,
                          const ExperimentCorpus& corpus,
                          const FeatureSelection& selection);
Result<CheckpointContents> DecodePayload(std::string_view payload);

}  // namespace checkpoint_internal

}  // namespace wpred::serve

#endif  // WPRED_SERVE_CHECKPOINT_H_
