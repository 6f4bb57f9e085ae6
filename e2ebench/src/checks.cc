#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace e2ebench {
namespace {

bool Fail(std::string* why, std::string message) {
  if (why != nullptr) *why = std::move(message);
  return false;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool Close(double got, double want, double tolerance) {
  return std::fabs(got - want) <= tolerance;
}

}  // namespace

NaiveAggregate FoldNaive(std::span<const double> xs) {
  NaiveAggregate a;
  a.count = xs.size();
  if (xs.empty()) return a;
  a.min = xs[0];
  a.max = xs[0];
  double sum_sq = 0.0;
  for (double x : xs) {
    a.sum += x;
    a.sum_abs += std::fabs(x);
    sum_sq += x * x;
    a.min = std::min(a.min, x);
    a.max = std::max(a.max, x);
  }
  const double n = static_cast<double>(xs.size());
  const double mean = a.sum / n;
  double dev = 0.0;
  for (double x : xs) dev += (x - mean) * (x - mean);
  a.variance = dev / n;
  a.mean_square = sum_sq / n;
  return a;
}

bool CheckBand(const sbr::core::Transmission& t, size_t total_band,
               std::string* why) {
  if (t.ValueCount() <= total_band) return true;
  return Fail(why, "transmission uses " + std::to_string(t.ValueCount()) +
                       " values, band is " + std::to_string(total_band));
}

bool CheckValues(std::span<const double> got, std::span<const double> want,
                 std::string* why) {
  if (got.size() != want.size()) {
    return Fail(why, "reconstruction has " + std::to_string(got.size()) +
                         " samples, mirror " + std::to_string(want.size()));
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const double tol = Tolerances::kValueRel * std::max(1.0, std::fabs(want[i]));
    if (!Close(got[i], want[i], tol)) {
      return Fail(why, "sample " + std::to_string(i) + ": " + Num(got[i]) +
                           " vs mirror " + Num(want[i]));
    }
  }
  return true;
}

bool CheckAggregate(const sbr::storage::AggregateResult& got,
                    std::span<const double> mirror_range, std::string* why) {
  const NaiveAggregate want = FoldNaive(mirror_range);
  if (got.count != want.count) {
    return Fail(why, "count " + std::to_string(got.count) + " vs " +
                         std::to_string(want.count));
  }
  if (want.count == 0) return true;
  if (!Close(got.sum, want.sum, Tolerances::kSumRel * want.sum_abs)) {
    return Fail(why, "sum " + Num(got.sum) + " vs " + Num(want.sum));
  }
  if (!Close(got.min, want.min,
             Tolerances::kMinMaxRel * std::max(1.0, std::fabs(want.min)))) {
    return Fail(why, "min " + Num(got.min) + " vs " + Num(want.min));
  }
  if (!Close(got.max, want.max,
             Tolerances::kMinMaxRel * std::max(1.0, std::fabs(want.max)))) {
    return Fail(why, "max " + Num(got.max) + " vs " + Num(want.max));
  }
  if (!Close(got.variance, want.variance,
             Tolerances::kVarianceRel * want.mean_square)) {
    return Fail(why, "variance " + Num(got.variance) + " vs " +
                         Num(want.variance));
  }
  return true;
}

bool CheckProtocol(const sbr::net::ProtocolStats& got,
                   const ExpectedProtocol& want, std::string* why) {
  struct Field {
    const char* name;
    size_t got;
    size_t want;
  };
  const Field fields[] = {
      {"frames_accepted", got.frames_accepted, want.frames_accepted},
      {"duplicates_suppressed", got.duplicates_suppressed,
       want.duplicates_suppressed},
      {"corrupt_frames", got.corrupt_frames, want.corrupt_frames},
      {"buffered_out_of_order", got.buffered_out_of_order,
       want.buffered_out_of_order},
      {"gap_chunks", got.gap_chunks, 0},
      {"resync_requests", got.resync_requests, 0},
  };
  for (const Field& f : fields) {
    if (f.got != f.want) {
      return Fail(why, std::string(f.name) + " " + std::to_string(f.got) +
                           " vs injected " + std::to_string(f.want));
    }
  }
  return true;
}

bool CheckSameBytes(std::span<const uint8_t> got,
                    std::span<const uint8_t> want, std::string* why) {
  if (got.size() != want.size()) {
    return Fail(why, std::to_string(got.size()) + " bytes, first encode " +
                         std::to_string(want.size()));
  }
  const auto diff = std::mismatch(got.begin(), got.end(), want.begin());
  if (diff.first == got.end()) return true;
  return Fail(why, "byte " + std::to_string(diff.first - got.begin()) +
                       " differs from the first encode");
}

bool CheckAck(sbr::net::AckType got, sbr::net::AckType want,
              std::string* why) {
  if (got == want) return true;
  return Fail(why, "ack " + std::to_string(static_cast<int>(got)) +
                       ", expected " + std::to_string(static_cast<int>(want)));
}

bool CheckEpoch(uint64_t got, uint64_t want, std::string* why) {
  if (got == want) return true;
  return Fail(why, "epoch " + std::to_string(got) + " after " +
                       std::to_string(want) + " accepted chunks");
}

}  // namespace e2ebench
