#include "storage/history_store.h"

#include <algorithm>

namespace sbr::storage {

Status HistoryStore::Ingest(const core::Transmission& t) {
  if (!t.signal_lengths.empty()) {
    return Status::Unimplemented(
        "multi-rate chunks are not indexable by the history store");
  }
  if (num_signals_ == 0) {
    num_signals_ = t.num_signals;
    chunk_len_ = t.chunk_len;
  } else if (t.num_signals != num_signals_ || t.chunk_len != chunk_len_) {
    return Status::FailedPrecondition("transmission geometry changed");
  }
  auto decoded = decoder_.DecodeChunk(t);
  if (!decoded.ok()) return decoded.status();
  chunks_.push_back(std::make_shared<const std::vector<double>>(
      std::move(decoded).value()));
  return Status::Ok();
}

void HistoryStore::MarkGap(size_t chunks) {
  chunks_.insert(chunks_.end(), chunks, nullptr);
  num_gaps_ += chunks;
}

Status HistoryStore::ApplySnapshot(const core::BaseSnapshot& snapshot) {
  return decoder_.ApplySnapshot(snapshot);
}

StatusOr<std::vector<double>> HistoryStore::QueryRange(size_t signal,
                                                       size_t t0,
                                                       size_t t1) const {
  if (signal >= num_signals_) {
    return Status::OutOfRange("signal " + std::to_string(signal));
  }
  if (t0 > t1 || t1 > history_len()) {
    return Status::OutOfRange("range [" + std::to_string(t0) + ", " +
                              std::to_string(t1) + ") of " +
                              std::to_string(history_len()));
  }
  std::vector<double> out;
  out.reserve(t1 - t0);
  // Chunk-wise walk. Only chunks with at least one sample inside [t0, t1)
  // are touched: a range that merely abuts a gap (ends exactly where the
  // gap starts, or starts exactly where it ends) succeeds, while any range
  // with a sample inside a gap reports DataLoss.
  for (size_t t = t0; t < t1;) {
    const size_t c = t / chunk_len_;
    if (IsGap(c)) {
      return Status::DataLoss("range touches lost chunk " +
                              std::to_string(c));
    }
    const size_t offset = t % chunk_len_;
    const size_t take = std::min(chunk_len_ - offset, t1 - t);
    const std::vector<double>& flat = *chunks_[c];
    const double* row = flat.data() + signal * chunk_len_ + offset;
    out.insert(out.end(), row, row + take);
    t += take;
  }
  return out;
}

StatusOr<double> HistoryStore::QueryPoint(size_t signal, size_t t) const {
  auto range = QueryRange(signal, t, t + 1);
  if (!range.ok()) return range.status();
  return (*range)[0];
}

StatusOr<linalg::Matrix> HistoryStore::Chunk(size_t c) const {
  if (c >= chunks_.size()) {
    return Status::OutOfRange("chunk " + std::to_string(c));
  }
  if (IsGap(c)) {
    return Status::DataLoss("chunk " + std::to_string(c) + " was lost");
  }
  return linalg::Matrix(num_signals_, chunk_len_, *chunks_[c]);
}

}  // namespace sbr::storage
