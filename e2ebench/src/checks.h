// Output checks of the end-to-end benchmark. Each check compares one
// answer of the system under test against an independent computation
// (a separate SbrDecoder mirror, a naive fold, counts injected by the
// benchmark itself) and returns false with a reason when they disagree.
// They run outside every timed region; checks_test.cc shows that each
// one rejects a perturbed answer.
#ifndef E2EBENCH_CHECKS_H_
#define E2EBENCH_CHECKS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "core/transmission.h"
#include "net/base_station.h"
#include "storage/query_engine.h"

namespace e2ebench {

/// Tolerances of the floating-point checks. Reconstruction is compared
/// with a tolerance, not bitwise, so that serving it from another view
/// (a different floating-point association) stays within the check.
/// Measured worst cases on Table-2 weather: sum 1.3e-11 relative to
/// sum|x|, variance 6e-9 relative to the mean square, min/max exact.
struct Tolerances {
  /// |got - want| <= kValueRel * max(1, |want|) per reconstructed sample.
  static constexpr double kValueRel = 1e-9;
  /// |sum - naive| <= kSumRel * sum|x|.
  static constexpr double kSumRel = 1e-9;
  /// |min - naive| <= kMinMaxRel * max(1, |naive|), same for max.
  static constexpr double kMinMaxRel = 1e-9;
  /// |variance - naive| <= kVarianceRel * mean square.
  static constexpr double kVarianceRel = 1e-6;
};

/// Aggregates of a range computed the plain way (two-pass variance).
struct NaiveAggregate {
  size_t count = 0;
  double sum = 0.0;
  double sum_abs = 0.0;
  double min = 0.0;
  double max = 0.0;
  double mean_square = 0.0;
  double variance = 0.0;
};

NaiveAggregate FoldNaive(std::span<const double> xs);

/// Each transmission stays within its bandwidth: ValueCount() <= band.
bool CheckBand(const sbr::core::Transmission& t, size_t total_band,
               std::string* why);

/// Reconstructed samples against the decoder mirror.
bool CheckValues(std::span<const double> got, std::span<const double> want,
                 std::string* why);

/// One compressed-domain aggregate against a naive fold of the mirror's
/// samples over the same range.
bool CheckAggregate(const sbr::storage::AggregateResult& got,
                    std::span<const double> mirror_range, std::string* why);

/// The receive protocol counters the benchmark expects after a run.
struct ExpectedProtocol {
  size_t frames_accepted = 0;
  size_t duplicates_suppressed = 0;
  size_t corrupt_frames = 0;
  size_t buffered_out_of_order = 0;
};

/// Station counters equal the injected counts; no gaps, no resyncs.
bool CheckProtocol(const sbr::net::ProtocolStats& got,
                   const ExpectedProtocol& want, std::string* why);

/// A re-encode of a chunk produced the same frame bytes as the first.
bool CheckSameBytes(std::span<const uint8_t> got,
                    std::span<const uint8_t> want, std::string* why);

/// The station answered a frame as the schedule predicts.
bool CheckAck(sbr::net::AckType got, sbr::net::AckType want,
              std::string* why);

/// After an accepted frame, and at the end of a round, the sensor's
/// published epoch equals the number of chunks accepted so far (no gaps
/// or snapshots are injected).
bool CheckEpoch(uint64_t got, uint64_t want, std::string* why);

}  // namespace e2ebench

#endif  // E2EBENCH_CHECKS_H_
