// HistoryStore: the decoded view of one sensor's approximate history, as
// held in every storage::QueryService epoch snapshot next to the
// compressed view. Ingested transmissions are decoded in arrival
// order (the decoder's base-signal mirror makes order significant) and the
// reconstructed chunks are retained, so any time range of any quantity
// can be served — the paper's "reconstruct the series Y_i at any given
// point in the past". Chunks the transmission protocol declared lost are
// kept as explicit gaps: queries touching them return DataLoss instead of
// silently fabricated values.
#ifndef SBR_STORAGE_HISTORY_STORE_H_
#define SBR_STORAGE_HISTORY_STORE_H_

#include <memory>
#include <vector>

#include "core/decoder.h"
#include "core/transmission.h"
#include "util/status.h"

namespace sbr::storage {

/// Per-sensor decoded history with range queries and explicit loss gaps.
class HistoryStore {
 public:
  /// `m_base` must match the sensor's encoder configuration.
  explicit HistoryStore(size_t m_base)
      : decoder_(core::DecoderOptions{m_base}) {}

  /// Decodes and retains the next transmission.
  Status Ingest(const core::Transmission& t);

  /// Records `chunks` lost chunks: the timeline advances but the values
  /// are gone; queries over them report DataLoss.
  void MarkGap(size_t chunks = 1);

  /// Re-establishes the decoder's base-signal mirror from a resync
  /// snapshot.
  Status ApplySnapshot(const core::BaseSnapshot& snapshot);

  /// Number of chunks on the timeline (decoded + gaps).
  size_t num_chunks() const { return chunks_.size(); }
  /// Chunks recorded as lost.
  size_t num_gaps() const { return num_gaps_; }
  /// True if chunk `c` is a loss gap.
  bool IsGap(size_t c) const { return chunks_[c] == nullptr; }
  /// Signals per chunk (0 until the first ingest).
  size_t num_signals() const { return num_signals_; }
  /// Values per signal per chunk.
  size_t chunk_len() const { return chunk_len_; }
  /// Total reconstructed timeline length per signal.
  size_t history_len() const { return chunks_.size() * chunk_len_; }

  /// Reconstructed values of `signal` over the global time range
  /// [t0, t1) (t measured in samples since the first transmission).
  /// Returns DataLoss if the range touches a lost chunk.
  StatusOr<std::vector<double>> QueryRange(size_t signal, size_t t0,
                                           size_t t1) const;

  /// Single reconstructed value.
  StatusOr<double> QueryPoint(size_t signal, size_t t) const;

  /// Whole reconstructed chunk c as a num_signals x chunk_len matrix;
  /// DataLoss if the chunk is a gap.
  StatusOr<linalg::Matrix> Chunk(size_t c) const;

 private:
  core::SbrDecoder decoder_;
  size_t num_signals_ = 0;
  size_t chunk_len_ = 0;
  size_t num_gaps_ = 0;
  /// chunks_[c] is the flat concatenated reconstruction of chunk c; a
  /// nullptr marks a loss gap. Payloads are immutable once decoded and
  /// shared between copies, so copying a store (the QueryService snapshot
  /// publish path) costs O(chunks) pointer copies, not O(samples).
  std::vector<std::shared_ptr<const std::vector<double>>> chunks_;
};

}  // namespace sbr::storage

#endif  // SBR_STORAGE_HISTORY_STORE_H_
