// Self-test of the benchmark's output checks: every check accepts the
// right answer and rejects a perturbed one. Exits non-zero on the first
// check that does not behave so.
//
//   .bench_build/e2ebench/e2ebench_checks_test
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"

namespace {

using e2ebench::Tolerances;
using sbr::net::AckType;
using sbr::storage::AggregateResult;

int g_failures = 0;

void Expect(bool passed, bool want, const char* what) {
  if (passed == want) return;
  ++g_failures;
  std::fprintf(stderr, "FAIL: %s: check %s, expected it to %s\n", what,
               passed ? "passed" : "failed", want ? "pass" : "fail");
}

AggregateResult Exact(const std::vector<double>& xs) {
  const auto naive = e2ebench::FoldNaive(xs);
  AggregateResult r;
  r.count = naive.count;
  r.sum = naive.sum;
  r.avg = naive.sum / static_cast<double>(naive.count);
  r.min = naive.min;
  r.max = naive.max;
  r.variance = naive.variance;
  return r;
}

void TestAggregate() {
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(10.0 + (i % 17) * 0.25 - i * 1e-3);
  std::string why;
  const AggregateResult good = Exact(xs);
  Expect(e2ebench::CheckAggregate(good, xs, &why), true, "exact aggregate");

  AggregateResult r = good;
  r.count += 1;
  Expect(e2ebench::CheckAggregate(r, xs, &why), false, "count off by one");
  r = good;
  r.sum += 1e-6 * good.sum;
  Expect(e2ebench::CheckAggregate(r, xs, &why), false, "sum off by 1e-6");
  r = good;
  r.sum += 1e-12 * good.sum;
  Expect(e2ebench::CheckAggregate(r, xs, &why), true, "sum within tolerance");
  r = good;
  r.min -= 1e-6;
  Expect(e2ebench::CheckAggregate(r, xs, &why), false, "min perturbed");
  r = good;
  r.max += 1e-6;
  Expect(e2ebench::CheckAggregate(r, xs, &why), false, "max perturbed");
  r = good;
  r.variance *= 1.0 + 1e-3;
  Expect(e2ebench::CheckAggregate(r, xs, &why), false, "variance perturbed");
}

void TestValues() {
  const std::vector<double> want = {1.0, -2.5, 1e6, 0.0};
  std::string why;
  Expect(e2ebench::CheckValues(want, want, &why), true, "identical values");
  std::vector<double> got = want;
  got[2] *= 1.0 + 1e-12;
  Expect(e2ebench::CheckValues(got, want, &why), true,
         "values within tolerance");
  got = want;
  got[1] += 1e-6;
  Expect(e2ebench::CheckValues(got, want, &why), false, "value perturbed");
  got = want;
  got.pop_back();
  Expect(e2ebench::CheckValues(got, want, &why), false, "value missing");
}

void TestBand() {
  sbr::core::Transmission t;
  t.intervals.resize(10);  // 4 values each
  std::string why;
  Expect(e2ebench::CheckBand(t, 40, &why), true, "band exactly used");
  Expect(e2ebench::CheckBand(t, 39, &why), false, "band exceeded");
}

void TestProtocol() {
  sbr::net::ProtocolStats got;
  got.frames_accepted = 100;
  got.duplicates_suppressed = 5;
  got.corrupt_frames = 4;
  got.buffered_out_of_order = 3;
  const e2ebench::ExpectedProtocol want{100, 5, 4, 3};
  std::string why;
  Expect(e2ebench::CheckProtocol(got, want, &why), true, "matching stats");
  sbr::net::ProtocolStats bad = got;
  bad.frames_accepted = 99;
  Expect(e2ebench::CheckProtocol(bad, want, &why), false, "accepted off");
  bad = got;
  bad.duplicates_suppressed = 6;
  Expect(e2ebench::CheckProtocol(bad, want, &why), false, "duplicates off");
  bad = got;
  bad.corrupt_frames = 3;
  Expect(e2ebench::CheckProtocol(bad, want, &why), false, "corrupt off");
  bad = got;
  bad.buffered_out_of_order = 4;
  Expect(e2ebench::CheckProtocol(bad, want, &why), false, "buffered off");
  bad = got;
  bad.gap_chunks = 1;
  Expect(e2ebench::CheckProtocol(bad, want, &why), false, "gap declared");
  bad = got;
  bad.resync_requests = 1;
  Expect(e2ebench::CheckProtocol(bad, want, &why), false, "resync requested");
}

void TestSameBytes() {
  const std::vector<uint8_t> want = {0x53, 0x42, 0x52, 0x00, 0xff, 0x10};
  std::string why;
  Expect(e2ebench::CheckSameBytes(want, want, &why), true, "same bytes");
  std::vector<uint8_t> got = want;
  got[4] ^= 0x01;
  Expect(e2ebench::CheckSameBytes(got, want, &why), false, "one bit flipped");
  got = want;
  got.push_back(0);
  Expect(e2ebench::CheckSameBytes(got, want, &why), false, "byte appended");
  got = want;
  got.pop_back();
  Expect(e2ebench::CheckSameBytes(got, want, &why), false, "byte missing");
}

void TestAckAndEpoch() {
  std::string why;
  Expect(e2ebench::CheckAck(AckType::kAccept, AckType::kAccept, &why), true,
         "ack as expected");
  Expect(e2ebench::CheckAck(AckType::kDesync, AckType::kAccept, &why), false,
         "unexpected ack");
  Expect(e2ebench::CheckEpoch(7, 7, &why), true, "epoch as expected");
  Expect(e2ebench::CheckEpoch(6, 7, &why), false, "stale epoch");
  // At the end of a round: the epoch of every sensor is its chunk count.
  Expect(e2ebench::CheckEpoch(256, 256, &why), true, "final epoch");
  Expect(e2ebench::CheckEpoch(255, 256, &why), false, "final epoch short");
  Expect(e2ebench::CheckEpoch(257, 256, &why), false, "final epoch past end");
}

}  // namespace

int main() {
  TestAggregate();
  TestValues();
  TestBand();
  TestProtocol();
  TestSameBytes();
  TestAckAndEpoch();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check self-test(s) failed\n", g_failures);
    return 1;
  }
  std::printf("all check self-tests passed\n");
  return 0;
}
