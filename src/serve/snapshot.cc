#include "serve/snapshot.h"

#include <chrono>
#include <thread>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"

namespace wpred::serve {

Result<SnapshotPtr> BuildSnapshot(const PipelineConfig& config,
                                  const ExperimentCorpus& corpus,
                                  uint64_t epoch,
                                  const FeatureSelection* selection) {
  auto snapshot = std::make_shared<FittedSnapshot>();
  snapshot->epoch = epoch;
  snapshot->config = config;
  snapshot->source_corpus = corpus;

  auto pipeline = std::make_shared<Pipeline>(config);
  const auto start = std::chrono::steady_clock::now();
  WPRED_RETURN_IF_ERROR(selection == nullptr
                            ? pipeline->Fit(corpus)
                            : pipeline->Refit(corpus, *selection));
  snapshot->fit_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  snapshot->reselected = pipeline->reselected();
  // Pin the read path to the serial (inline, pool-free) execution mode; the
  // determinism contract makes this invisible in results.
  pipeline->set_num_threads(1);
  snapshot->pipeline = std::move(pipeline);
  return SnapshotPtr(std::move(snapshot));
}

void SnapshotBox::WaitForReaders(uint32_t version) const {
  // Readers hold the pin only for the duration of one prediction; spin with
  // escalating politeness instead of parking on a futex the readers would
  // then have to wake (readers must stay wait-free).
  int spins = 0;
  while (readers_[version].load(std::memory_order_seq_cst) != 0) {
    ++spins;
    if (spins < 64) {
      // busy spin
    } else if (spins < 256) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
}

void SnapshotBox::Publish(SnapshotPtr next) {
  WPRED_CHECK(next != nullptr) << "SnapshotBox::Publish(nullptr)";
  const uint32_t current = lr_.load(std::memory_order_seq_cst);
  const uint32_t target = 1 - current;
  // The target slot was drained at the end of the previous Publish (or has
  // never been read); overwriting it is safe.
  slots_[target] = std::move(next);
  // New readers route to the fresh slot from here on.
  lr_.store(target, std::memory_order_seq_cst);
  // Left-right epoch drain: flip the arrival counter readers use, then wait
  // out both epochs. Afterwards every reader still running arrived after the
  // lr_ flip and is reading slots_[target]; slots_[current] is unobserved
  // and free for the next publish to retire.
  const uint32_t version = version_index_.load(std::memory_order_seq_cst);
  WaitForReaders(1 - version);
  version_index_.store(1 - version, std::memory_order_seq_cst);
  WaitForReaders(version);
  WPRED_COUNT_ADD("serve.snapshot.publishes", 1);
}

}  // namespace wpred::serve
