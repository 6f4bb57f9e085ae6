// End-to-end benchmark driver: generated sensor feeds are encoded by
// net::SensorNode (SBR encode plus framing), delivered as on-air bytes to a
// net::BaseStation with file-backed chunk logs, persisted protocol state
// and an attached storage::QueryService, and then queried in the
// compressed domain. Single-threaded, one process.
//
//   e2ebench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   --workdir <dir> [--trace-out <file>]
//
// A run interleaves two kinds of timed units over --seconds:
//  - encode passes: every sensor encodes its whole feed on a fresh node;
//    a run makes the workload's fixed number of them, spread evenly;
//  - ingest rounds: a fresh station and service receive the workload's
//    wire schedule (with the injected duplicates, swaps and corruptions),
//    answer the per-frame queries, then the interleaved query mix. They
//    fill the time between encode passes.
// Every unit of a kind makes the same calls in the same order, so each
// call is taken at its fastest over the run's units (see BestTimes); the
// end-to-end metrics are medians and tails over those per-call best
// times, scaled to the reference machine speed (see SpeedProbe). Round 0
// (the first encode pass and the first ingest round) carries the output
// checks and the heap measurement; it is counted as set-up, not timed
// into the metrics.
//
// With --trace 1 odd units enable obs, so an obs::ScopedSpan around every
// call into a layer records into the TraceCollector beside the library's
// own spans; afterwards the round's frames are replayed through each
// station component alone, so ReceiveBytes can be split into parse, log
// append, checkpoint, history ingest and service ingest. Even units stay
// untraced; their ratio is the tracing overhead.
// The last line of stdout is one JSON object with the result.
#include <malloc.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "checks.h"
#include "core/decoder.h"
#include "core/encoder.h"
#include "core/transmission.h"
#include "datagen/phonecall.h"
#include "datagen/weather.h"
#include "net/base_station.h"
#include "net/node.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "storage/chunk_log.h"
#include "storage/history_store.h"
#include "storage/query_engine.h"
#include "storage/query_service.h"

namespace e2ebench {
namespace {

using namespace sbr;
namespace fs = std::filesystem;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const uint64_t g_process_start_ns = NowNs();

// ------------------------------------------------------------ workloads

enum class DataKind { kWeather, kPhone };

/// Post-ingest queries of one ingest round, by kind.
struct QueryMix {
  size_t random = 0;
  size_t wide = 0;
  size_t dashboard = 0;
  size_t point = 0;
  size_t reconstruct = 0;
};

struct Spec {
  const char* name;
  DataKind data;
  size_t sensors;
  size_t chunks;     ///< chunks per sensor
  size_t chunk_len;  ///< M
  size_t m_base;
  core::ErrorMetric metric;
  /// Encode passes a run makes after round 0, whatever its speed, so that
  /// each chunk's best time is taken over the same number of samples on
  /// faster and on slower code.
  size_t encode_passes;
  /// Shares of the data frames that get a duplicate after accept, that
  /// travel in a swapped adjacent pair, and that are preceded by a copy
  /// with one bit flipped.
  double dup_share;
  double swap_share;
  double corrupt_share;
  /// An aggregate and a point query on the sensor's newest chunk after
  /// every accepted frame of every round. Without them, round 0 still
  /// checks an aggregate on the newest chunk after every accepted frame.
  bool per_frame_queries;
  QueryMix mix;
};

constexpr Spec kSpecs[] = {
    {"table2_weather", DataKind::kWeather, 6, 3, 4096, 3456,
     core::ErrorMetric::kSse, 7, 0.0, 0.0, 0.0, true,
     {384, 128, 384, 384, 256}},
    {"fleet_ingest", DataKind::kWeather, 32, 48, 256, 512,
     core::ErrorMetric::kSse, 20, 0.05, 0.05, 0.05, true,
     {64, 32, 64, 64, 256}},
    {"long_history_query", DataKind::kPhone, 3, 256, 128, 1024,
     core::ErrorMetric::kSseRelative, 12, 0.0, 0.0, 0.0, false,
     {3000, 2000, 3000, 2000, 1000}},
};

/// Ingest rounds a run makes at least, past its --seconds if need be.
constexpr size_t kMinIngestRounds = 4;
/// Width of a reconstruct query, in samples.
constexpr size_t kReconstructLen = 1024;
/// Minimum span of a wide aggregate, in chunks (capped by the history).
constexpr size_t kWideChunks = 64;
/// Distinct dashboard windows; the mix repeats them so the cache hits.
constexpr size_t kDashboardWindows = 8;
/// Round-0 query checks: every k-th post-ingest query is compared with
/// the mirror.
constexpr size_t kQueryCheckStride = 4;
/// Size of BaseStation's protocol checkpoint blob.
constexpr size_t kStationCheckpointBytes = 78;

const Spec* FindSpec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

size_t NumSignals(const Spec& spec) {
  return spec.data == DataKind::kWeather ? 6 : datagen::kNumPhoneStates;
}

size_t TotalBand(const Spec& spec) {
  return NumSignals(spec) * spec.chunk_len / 10;
}

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Uniform integer in [0, n).
size_t Below(std::mt19937_64& rng, size_t n) {
  return n == 0 ? 0 : static_cast<size_t>(rng() % n);
}

// ------------------------------------------------------------ statistics

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  const size_t k = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + k, v.end());
  return v[k];
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? std::nan("") : Sum(v) / v.size();
}

size_t HeapInUse() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

// ------------------------------------------------------------ machine speed

/// Doubles of the calibration pass's array: 256 KiB, resident in L2 like
/// the encoder's and the query views' working sets.
constexpr size_t kCalibrationDoubles = 32768;
/// Calibration passes per sample; a sample is the fastest of them.
constexpr int kCalibrationReps = 5;
/// The reference machine's fastest calibration pass: a 4-vCPU Xeon KVM
/// guest (2 MiB L2 per core), in its fast state. Times are reported at
/// this speed.
constexpr double kCalibrationRefNs = 21900.0;

/// A chain of dependent floating-point adds over an L2-resident array:
/// its time follows the clock speed the host gives this vCPU. The stores
/// keep the compiler from dropping it.
[[gnu::noinline]] double CalibrationPass(std::vector<double>* buf) {
  double acc = 0.0;
  for (double& x : *buf) {
    acc += x * 1.0000001;
    x = acc * 1e-9 + 1.0;
  }
  return acc;
}

/// Measures how fast the shared host runs this process at its best. The
/// run samples it between timed calls; each end-to-end time is a call's
/// best time over the run, taken in the run's fastest state, and the
/// fastest calibration pass measures that state. Its clock speed differs
/// from run to run (the fastest pass took 21.9 to 26.3 us in runs minutes
/// apart on the reference machine, 20%), and times scaled by
/// kCalibrationRefNs over the run's fastest pass do not move with it: four
/// runs of one seed spread 12% on raw aggregate latency and 0.2% scaled.
class SpeedProbe {
 public:
  void Sample() {
    for (int r = 0; r < kCalibrationReps; ++r) {
      const uint64_t t0 = NowNs();
      CalibrationPass(&buf_);
      fastest_ns_ = std::min(fastest_ns_, static_cast<double>(NowNs() - t0));
    }
  }
  /// Reference time over this run's time: multiply a time by it, divide a
  /// rate by it.
  double Factor() const { return kCalibrationRefNs / fastest_ns_; }

 private:
  std::vector<double> buf_ = std::vector<double>(kCalibrationDoubles, 1.0);
  double fastest_ns_ = std::numeric_limits<double>::infinity();
};

// ------------------------------------------------------------ tracing

/// Runs `call` inside an obs span named `span` (recorded only while obs
/// is enabled, in traced units) and stores its wall time in `*ns`.
template <typename Call>
auto Timed(const char* span, double* ns, Call&& call) {
  obs::ScopedSpan scoped(span);
  const uint64_t t0 = NowNs();
  auto result = call();
  *ns = static_cast<double>(NowNs() - t0);
  return result;
}

/// Self time per obs span name (duration minus direct children), summed
/// over the drained events. Events arrive per thread in completion order,
/// children before their parent.
void AccumulateObsSelfTimes(const std::vector<obs::SpanEvent>& events,
                            std::vector<std::pair<std::string, double>>* acc) {
  std::vector<uint64_t> child_sum(64, 0);
  uint32_t tid = UINT32_MAX;
  for (const obs::SpanEvent& e : events) {
    if (e.tid != tid) {
      std::fill(child_sum.begin(), child_sum.end(), 0);
      tid = e.tid;
    }
    if (e.depth + 1 >= child_sum.size()) continue;
    const uint64_t children = child_sum[e.depth + 1];
    child_sum[e.depth + 1] = 0;
    child_sum[e.depth] += e.duration_ns;
    const double self_s =
        static_cast<double>(e.duration_ns - std::min(children, e.duration_ns)) *
        1e-9;
    auto it = std::find_if(acc->begin(), acc->end(),
                           [&](const auto& p) { return p.first == e.name; });
    if (it == acc->end()) {
      acc->emplace_back(e.name, self_s);
    } else {
      it->second += self_s;
    }
  }
}

// ------------------------------------------------------------ schedule

enum class OpKind : uint8_t { kOriginal, kDuplicate, kCorrupt };

/// One ReceiveBytes call of the wire schedule.
struct WireOp {
  uint32_t sensor = 0;
  uint32_t chunk = 0;
  OpKind kind = OpKind::kOriginal;
  net::AckType expect = net::AckType::kAccept;
  /// kAccept only: the sensor's chunks on the timeline afterwards, and how
  /// many transmissions this call ingested (1 plus any drained from the
  /// reorder window).
  uint64_t epoch_after = 0;
  uint32_t ingested = 0;
  /// kAccept only: per-frame query signal and point offset in the newest
  /// chunk.
  uint32_t q_signal = 0;
  uint32_t q_offset = 0;
  /// kCorrupt only: the frame with one bit flipped.
  std::vector<uint8_t> corrupt_bytes;
};

enum class QueryKind : uint8_t {
  kRandom,
  kWide,
  kDashboard,
  kNewest,
  kPoint,
  kReconstruct,
  kNumKinds
};
constexpr size_t kNumQueryKinds = static_cast<size_t>(QueryKind::kNumKinds);
const char* const kQueryKindNames[kNumQueryKinds] = {
    "random", "wide", "dashboard", "newest", "point", "reconstruct"};

bool IsAggregate(QueryKind k) {
  return k == QueryKind::kRandom || k == QueryKind::kWide ||
         k == QueryKind::kDashboard || k == QueryKind::kNewest;
}

struct Query {
  QueryKind kind = QueryKind::kRandom;
  uint32_t sensor = 0;
  uint32_t signal = 0;
  size_t t0 = 0;  ///< the sample of a point query
  size_t t1 = 0;
};

// ------------------------------------------------------------ the run

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string workdir;
  std::string trace_out;
};

/// Per-transmission component timings of one traced round's replay.
struct ComponentTimes {
  double parse = 0, decode = 0, append = 0, checkpoint = 0, history = 0,
         compressed = 0, service = 0;
};

class Run {
 public:
  Run(const Spec& spec, const Args& args)
      : spec_(spec),
        args_(args),
        n_(NumSignals(spec)),
        m_(spec.chunk_len),
        len_(spec.chunks * spec.chunk_len) {}

  int Execute();

 private:
  // Set-up.
  void GenerateInputs();
  core::EncoderOptions EncoderOptionsFor() const;
  storage::QueryServiceOptions ServiceOptions() const {
    storage::QueryServiceOptions o;
    o.m_base = spec_.m_base;
    return o;
  }
  void BuildSchedule();
  void BuildQueries();
  void BuildMirror();

  // Phases.
  void EncodeSensors(size_t begin, size_t end, bool first, bool traced);
  void IngestRound(size_t round, bool traced);
  void RunQuery(const storage::QueryService& service, const Query& q,
                bool check, bool record);
  void FinalChecks(const net::BaseStation& station,
                   const storage::QueryService& service);
  void ReplayComponents(const fs::path& dir, const storage::QueryService& service);
  void MeasureComponentHeaps(const fs::path& dir);

  void Fail(const std::string& what) {
    ++failed_;
    correct_ = false;
    if (first_failure_.empty()) first_failure_ = what;
  }
  size_t RawValues() const { return spec_.sensors * n_ * len_; }
  std::span<const double> MirrorRange(uint32_t sensor, uint32_t signal,
                                      size_t t0, size_t t1) const {
    return std::span<const double>(mirror_[sensor][signal]).subspan(t0, t1 - t0);
  }
  void PrintResult();

  const Spec& spec_;
  const Args& args_;
  const size_t n_;    // signals per sensor
  const size_t m_;    // samples per signal per chunk
  const size_t len_;  // samples per signal per sensor

  // Inputs.
  std::vector<datagen::Dataset> raw_;
  std::vector<std::vector<double>> instants_;  // per sensor, len_ x n_
  double datagen_s_ = 0.0;

  // Encode round 0 outputs.
  std::vector<std::vector<core::Transmission>> txs_;
  std::vector<std::vector<std::vector<uint8_t>>> frames_;
  std::vector<std::vector<std::vector<double>>> mirror_;  // sensor, signal
  size_t wire_bytes_ = 0;

  std::vector<WireOp> schedule_;
  ExpectedProtocol expected_;
  /// (sensor, chunk) in the order the station ingests transmissions.
  std::vector<std::pair<uint32_t, uint32_t>> ingest_order_;
  std::vector<Query> queries_;

  /// Spans of the first traced encode pass and of the first traced ingest
  /// round, drained from the obs TraceCollector, for the trace file.
  std::vector<obs::SpanEvent> trace_encode_, trace_ingest_;
  SpeedProbe speed_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::string first_failure_;
  double setup_s_ = 0.0;

  // End-to-end samples of the unit in progress, one per call in call
  // order; CloseUnit() folds them into the best times.
  std::vector<double> encode_chunk_ns_;
  std::vector<double> receive_ns_;  // every ReceiveBytes call
  std::vector<double> ingest_ns_;   // the accepting ones
  std::vector<double> aggregate_ns_;
  std::vector<double> point_ns_;
  std::vector<double> reconstruct_ns_;
  double station_heap_per_value_ = 0.0;
  double rmse_ = 0.0;

  /// Each call's fastest time over the counted units. Every unit of a
  /// kind makes the same calls in the same order, so slot i is the same
  /// call in every unit. The shared machine only ever adds time to a
  /// call: it runs the program in a fast and a slow state, about a third
  /// apart, each lasting from a few seconds to tens of seconds, in shares
  /// that differ from run to run. A median over all calls moves with that
  /// share; each call's best time is taken in the fast state whenever the
  /// run has one, and its spread within that state is a few percent.
  struct BestTimes {
    std::vector<double> encode_chunk, receive, ingest, aggregate, point,
        reconstruct;
  } best_;
  size_t encode_counted_ = 0, ingest_counted_ = 0;
  static void FoldMin(std::vector<double>* best, std::vector<double>* unit) {
    if (best->size() < unit->size()) {
      best->resize(unit->size(), std::numeric_limits<double>::infinity());
    }
    for (size_t i = 0; i < unit->size(); ++i) {
      (*best)[i] = std::min((*best)[i], (*unit)[i]);
    }
    unit->clear();
  }
  /// Folds the unit's samples into the best times, or drops them (traced
  /// units).
  void CloseUnit(bool counted) {
    const std::pair<std::vector<double>*, std::vector<double>*> fields[] = {
        {&best_.encode_chunk, &encode_chunk_ns_}, {&best_.receive, &receive_ns_},
        {&best_.ingest, &ingest_ns_},             {&best_.aggregate, &aggregate_ns_},
        {&best_.point, &point_ns_},               {&best_.reconstruct, &reconstruct_ns_}};
    for (const auto& [best, unit] : fields) {
      if (counted) {
        FoldMin(best, unit);
      } else {
        unit->clear();
      }
    }
  }

  // Per-layer samples (traced rounds).
  std::vector<double> emit_ns_, frame_build_ns_;
  std::vector<double> intervals_per_chunk_, probes_per_chunk_;
  size_t traced_chunks_ = 0;
  uint64_t shifts_scanned_ = 0;
  std::vector<std::pair<std::string, double>> obs_self_s_;
  std::vector<double> query_kind_ns_[kNumQueryKinds];
  std::vector<double> parse_ns_, decode_ns_, append_ns_, checkpoint_ns_,
      history_ns_, compressed_ns_, service_ns_, publish_ns_, self_ns_;
  std::vector<double> snap_aggregate_ns_, snap_value_ns_, snap_range_ns_;
  std::vector<double> log_bytes_per_frame_;
  std::vector<double> cache_hit_ratio_, cache_evictions_;
  double rb_total_ns_ = 0.0, component_total_ns_ = 0.0;
  size_t decomposed_txs_ = 0;
  std::vector<double> round_ns_traced_, round_ns_untraced_;
  double station_alone_heap_ = 0.0, service_alone_heap_ = 0.0;

  // Per-round scratch of a traced round: ReceiveBytes time by accepting
  // call, for the station decomposition.
  struct AcceptCall {
    uint32_t sensor, chunk, ingested;
    double ns;
  };
  std::vector<AcceptCall> accept_calls_;
  double round_rb_ns_ = 0.0;
};

core::EncoderOptions Run::EncoderOptionsFor() const {
  core::EncoderOptions o;
  o.total_band = TotalBand(spec_);
  o.m_base = spec_.m_base;
  o.metric = spec_.metric;
  o.threads = 1;
  return o;
}

void Run::GenerateInputs() {
  const uint64_t t0 = NowNs();
  for (size_t s = 0; s < spec_.sensors; ++s) {
    const uint64_t seed = MixSeed(args_.seed, s);
    if (spec_.data == DataKind::kWeather) {
      datagen::WeatherOptions o;
      o.length = len_;
      o.seed = seed;
      raw_.push_back(datagen::GenerateWeather(o));
    } else {
      datagen::PhoneCallOptions o;
      o.length = len_;
      o.seed = seed;
      raw_.push_back(datagen::GeneratePhoneCalls(o));
    }
  }
  datagen_s_ = (NowNs() - t0) * 1e-9;
  // Sampling-instant-major copies: one AddSamples call reads n_
  // contiguous values.
  instants_.resize(spec_.sensors);
  for (size_t s = 0; s < spec_.sensors; ++s) {
    instants_[s].resize(len_ * n_);
    for (size_t i = 0; i < n_; ++i) {
      const auto row = raw_[s].Signal(i);
      for (size_t t = 0; t < len_; ++t) instants_[s][t * n_ + i] = row[t];
    }
  }
}

void Run::EncodeSensors(size_t begin, size_t end, bool first, bool traced) {
  for (size_t s = begin; s < end; ++s) {
    net::SensorNode node(static_cast<uint32_t>(s), n_, m_, EncoderOptionsFor());
    for (size_t c = 0; c < spec_.chunks; ++c) {
      const double* base = instants_[s].data() + c * m_ * n_;
      ++attempted_;
      speed_.Sample();
      obs::ScopedSpan chunk_span("sensor.encode_chunk");
      double add_ns = 0.0, emit_ns = 0.0, build_ns = 0.0;
      const bool ok = Timed("sensor.add_samples", &add_ns, [&] {
        bool all = true;
        for (size_t j = 0; j + 1 < m_; ++j) {
          auto r = node.AddSamples(std::span<const double>(base + j * n_, n_));
          all = all && r.ok() && !r->has_value();
        }
        return all;
      });
      auto emitted = Timed("core.encode_chunk", &emit_ns, [&] {
        return node.AddSamples(std::span<const double>(base + (m_ - 1) * n_, n_));
      });
      if (!ok || !emitted.ok() || !emitted->has_value()) {
        Fail("sensor " + std::to_string(s) + " chunk " + std::to_string(c) +
             ": encode did not emit one transmission");
        continue;
      }
      std::vector<uint8_t> bytes = Timed("core.frame_build", &build_ns, [&] {
        const core::Frame frame = node.MakeDataFrame(**emitted);
        BinaryWriter writer;
        frame.Serialize(&writer);
        return writer.TakeBuffer();
      });

      encode_chunk_ns_.push_back(add_ns + emit_ns + build_ns);
      if (traced) {
        emit_ns_.push_back(emit_ns);
        frame_build_ns_.push_back(build_ns);
        intervals_per_chunk_.push_back(node.last_stats().num_intervals);
        probes_per_chunk_.push_back(node.last_stats().search_probes);
        ++traced_chunks_;
      }
      std::string why;
      if (first) {
        if (!CheckBand(**emitted, TotalBand(spec_), &why)) Fail(why);
        wire_bytes_ += bytes.size();
        txs_[s].push_back(std::move(**emitted));
        frames_[s].push_back(std::move(bytes));
      } else if (!CheckSameBytes(bytes, frames_[s][c], &why)) {
        Fail("sensor " + std::to_string(s) + " chunk " + std::to_string(c) +
             " re-encoded: " + why);
      }
    }
  }
}

void Run::BuildMirror() {
  mirror_.assign(spec_.sensors, std::vector<std::vector<double>>(n_));
  for (size_t s = 0; s < spec_.sensors; ++s) {
    core::SbrDecoder decoder(core::DecoderOptions{spec_.m_base});
    for (auto& row : mirror_[s]) row.reserve(len_);
    for (const core::Transmission& t : txs_[s]) {
      auto flat = decoder.DecodeChunk(t);
      if (!flat.ok() || flat->size() != n_ * m_) {
        Fail("mirror decoder rejected a transmission of sensor " +
             std::to_string(s));
        for (auto& row : mirror_[s]) row.resize(row.size() + m_, 0.0);
        continue;
      }
      for (size_t i = 0; i < n_; ++i) {
        mirror_[s][i].insert(mirror_[s][i].end(), flat->begin() + i * m_,
                             flat->begin() + (i + 1) * m_);
      }
    }
  }
}

void Run::BuildSchedule() {
  std::mt19937_64 rng(MixSeed(args_.seed, 1000));
  const size_t sensors = spec_.sensors, chunks = spec_.chunks;
  const size_t frames = sensors * chunks;
  auto id = [&](size_t s, size_t c) { return s * chunks + c; };

  // Swapped adjacent pairs (c even, c + 1): the later frame travels first.
  std::vector<size_t> pair_cands;
  for (size_t s = 0; s < sensors; ++s) {
    for (size_t c = 0; c + 1 < chunks; c += 2) pair_cands.push_back(id(s, c));
  }
  std::shuffle(pair_cands.begin(), pair_cands.end(), rng);
  const size_t n_swaps = std::min(
      pair_cands.size(),
      static_cast<size_t>(std::llround(spec_.swap_share * frames / 2)));
  std::vector<uint8_t> swapped(frames, 0);
  for (size_t i = 0; i < n_swaps; ++i) {
    swapped[pair_cands[i]] = 1;
    swapped[pair_cands[i] + 1] = 1;
  }
  std::vector<size_t> dup_cands;
  for (size_t f = 0; f < frames; ++f) {
    if (!swapped[f]) dup_cands.push_back(f);
  }
  std::shuffle(dup_cands.begin(), dup_cands.end(), rng);
  const size_t n_dups = std::min(
      dup_cands.size(),
      static_cast<size_t>(std::llround(spec_.dup_share * frames)));
  std::vector<uint8_t> dup(frames, 0);
  for (size_t i = 0; i < n_dups; ++i) dup[dup_cands[i]] = 1;
  std::vector<size_t> all(frames);
  for (size_t f = 0; f < frames; ++f) all[f] = f;
  std::shuffle(all.begin(), all.end(), rng);
  const size_t n_corrupt = std::min(
      frames, static_cast<size_t>(std::llround(spec_.corrupt_share * frames)));
  std::vector<uint8_t> corrupt(frames, 0);
  for (size_t i = 0; i < n_corrupt; ++i) corrupt[all[i]] = 1;

  // Frames interleave across sensors chunk by chunk; the station-side
  // protocol is simulated independently to predict every ack and epoch.
  std::vector<uint64_t> next(sensors, 0);
  std::vector<std::vector<uint8_t>> held(sensors,
                                         std::vector<uint8_t>(chunks, 0));
  for (size_t c = 0; c < chunks; ++c) {
    for (size_t s = 0; s < sensors; ++s) {
      size_t fc = c;
      if (swapped[id(s, c)]) fc = (c % 2 == 0) ? c + 1 : c - 1;
      const size_t f = id(s, fc);
      const auto& bytes = frames_[s][fc];
      if (corrupt[f]) {
        WireOp op;
        op.sensor = static_cast<uint32_t>(s);
        op.chunk = static_cast<uint32_t>(fc);
        op.kind = OpKind::kCorrupt;
        op.expect = net::AckType::kCorrupt;
        op.corrupt_bytes = bytes;
        const size_t bit = Below(rng, bytes.size() * 8);
        op.corrupt_bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        schedule_.push_back(std::move(op));
      }
      WireOp op;
      op.sensor = static_cast<uint32_t>(s);
      op.chunk = static_cast<uint32_t>(fc);
      if (fc == next[s]) {
        op.expect = net::AckType::kAccept;
        uint64_t nx = fc + 1;
        while (nx < chunks && held[s][nx]) {
          held[s][nx] = 0;
          ++nx;
        }
        for (uint64_t k = fc; k < nx; ++k) {
          ingest_order_.emplace_back(static_cast<uint32_t>(s),
                                     static_cast<uint32_t>(k));
        }
        op.ingested = static_cast<uint32_t>(nx - fc);
        next[s] = nx;
        op.epoch_after = nx;
        op.q_signal = static_cast<uint32_t>(Below(rng, n_));
        op.q_offset = static_cast<uint32_t>(Below(rng, m_));
      } else {
        op.expect = net::AckType::kBuffered;
        held[s][fc] = 1;
      }
      schedule_.push_back(std::move(op));
      if (dup[f]) {
        WireOp d;
        d.sensor = static_cast<uint32_t>(s);
        d.chunk = static_cast<uint32_t>(fc);
        d.kind = OpKind::kDuplicate;
        d.expect = net::AckType::kDuplicate;
        schedule_.push_back(std::move(d));
      }
    }
  }
  expected_.frames_accepted = frames;
  expected_.duplicates_suppressed = n_dups;
  expected_.corrupt_frames = n_corrupt;
  expected_.buffered_out_of_order = n_swaps;
}

void Run::BuildQueries() {
  std::mt19937_64 rng(MixSeed(args_.seed, 2000));
  const size_t chunks = spec_.chunks;
  auto pick_sensor = [&] { return static_cast<uint32_t>(Below(rng, spec_.sensors)); };
  auto pick_signal = [&] { return static_cast<uint32_t>(Below(rng, n_)); };

  std::vector<Query> dashboard;
  for (size_t i = 0; i < kDashboardWindows; ++i) {
    Query q;
    q.kind = QueryKind::kDashboard;
    q.sensor = pick_sensor();
    q.signal = pick_signal();
    const size_t span = 1 + Below(rng, chunks);
    const size_t start = Below(rng, chunks - span + 1);
    q.t0 = start * m_;
    q.t1 = (start + span) * m_;
    dashboard.push_back(q);
  }
  const QueryMix& mix = spec_.mix;
  for (size_t i = 0; i < mix.random; ++i) {
    Query q;
    q.kind = QueryKind::kRandom;
    q.sensor = pick_sensor();
    q.signal = pick_signal();
    size_t a = Below(rng, len_ + 1), b = Below(rng, len_ + 1);
    if (a > b) std::swap(a, b);
    if (a == b) b == len_ ? --a : ++b;
    q.t0 = a;
    q.t1 = b;
    queries_.push_back(q);
  }
  for (size_t i = 0; i < mix.wide; ++i) {
    Query q;
    q.kind = QueryKind::kWide;
    q.sensor = pick_sensor();
    q.signal = pick_signal();
    const size_t min_span = std::min(kWideChunks, chunks);
    const size_t span = min_span + Below(rng, chunks - min_span + 1);
    const size_t start = Below(rng, chunks - span + 1);
    q.t0 = start * m_;
    q.t1 = (start + span) * m_;
    queries_.push_back(q);
  }
  for (size_t i = 0; i < mix.dashboard; ++i) {
    queries_.push_back(dashboard[Below(rng, dashboard.size())]);
  }
  for (size_t i = 0; i < mix.point; ++i) {
    Query q;
    q.kind = QueryKind::kPoint;
    q.sensor = pick_sensor();
    q.signal = pick_signal();
    q.t0 = Below(rng, len_);
    q.t1 = q.t0 + 1;
    queries_.push_back(q);
  }
  for (size_t i = 0; i < mix.reconstruct; ++i) {
    Query q;
    q.kind = QueryKind::kReconstruct;
    q.sensor = pick_sensor();
    q.signal = pick_signal();
    q.t0 = Below(rng, len_ - kReconstructLen + 1);
    q.t1 = q.t0 + kReconstructLen;
    queries_.push_back(q);
  }
  // Kinds interleave rather than running back to back.
  std::shuffle(queries_.begin(), queries_.end(), rng);
}

void Run::RunQuery(const storage::QueryService& service, const Query& q,
                   bool check, bool record) {
  ++attempted_;
  std::string why;
  const size_t kind = static_cast<size_t>(q.kind);
  double ns = 0.0;
  std::vector<double>* samples = nullptr;
  if (IsAggregate(q.kind)) {
    auto r = Timed("query_service.aggregate", &ns, [&] {
      return service.Aggregate(q.sensor, q.signal, q.t0, q.t1);
    });
    samples = &aggregate_ns_;
    if (!r.ok()) {
      Fail(std::string("aggregate ") + kQueryKindNames[kind] + ": " +
           r.status().ToString());
    } else if (check && !CheckAggregate(*r, MirrorRange(q.sensor, q.signal,
                                                          q.t0, q.t1),
                                         &why)) {
      Fail(std::string("aggregate ") + kQueryKindNames[kind] + ": " + why);
    }
  } else if (q.kind == QueryKind::kPoint) {
    auto r = Timed("query_service.point", &ns,
                   [&] { return service.Point(q.sensor, q.signal, q.t0); });
    samples = &point_ns_;
    if (!r.ok()) {
      Fail("point: " + r.status().ToString());
    } else if (check) {
      const double got = *r;
      if (!CheckValues(std::span<const double>(&got, 1),
                       MirrorRange(q.sensor, q.signal, q.t0, q.t0 + 1), &why)) {
        Fail("point: " + why);
      }
    }
  } else {
    auto r = Timed("query_service.reconstruct", &ns, [&] {
      return service.Reconstruct(q.sensor, q.signal, q.t0, q.t1);
    });
    samples = &reconstruct_ns_;
    if (!r.ok()) {
      Fail("reconstruct: " + r.status().ToString());
    } else if (check &&
               !CheckValues(*r, MirrorRange(q.sensor, q.signal, q.t0, q.t1),
                            &why)) {
      Fail("reconstruct: " + why);
    }
  }
  if (record) samples->push_back(ns);
  if (obs::Enabled()) query_kind_ns_[kind].push_back(ns);
}

void Run::FinalChecks(const net::BaseStation& station,
                      const storage::QueryService& service) {
  std::string why;
  if (!CheckProtocol(station.total_stats(), expected_, &why)) {
    Fail("protocol: " + why);
  }
  // Whole-history reconstruction against the mirror, and its error
  // against the raw feed.
  double sq = 0.0;
  size_t count = 0;
  for (uint32_t s = 0; s < spec_.sensors; ++s) {
    if (!CheckEpoch(service.epoch(s), spec_.chunks, &why)) {
      Fail("sensor " + std::to_string(s) + " at the end: " + why);
    }
    for (uint32_t i = 0; i < n_; ++i) {
      auto r = service.Reconstruct(s, i, 0, len_);
      if (!r.ok()) {
        Fail("reconstruct whole history: " + r.status().ToString());
        continue;
      }
      if (!CheckValues(*r, mirror_[s][i], &why)) {
        Fail("reconstruct whole history: " + why);
      }
      const auto raw = raw_[s].Signal(i);
      for (size_t t = 0; t < len_; ++t) {
        const double d = (*r)[t] - raw[t];
        sq += d * d;
      }
      count += len_;
    }
  }
  rmse_ = count == 0 ? 0.0 : std::sqrt(sq / count);
}

void Run::IngestRound(size_t round, bool traced) {
  const bool first = round == 0;
  const fs::path dir = fs::path(args_.workdir) / "round";
  fs::remove_all(dir);
  fs::create_directories(dir);
  accept_calls_.clear();
  round_rb_ns_ = 0.0;
  const bool record = !first;  // round 0 is the check round
  const size_t heap0 = first ? HeapInUse() : 0;
  {
    storage::QueryService service(ServiceOptions());
    net::BaseStation station(spec_.m_base, dir.string(), 8,
                             /*persist_protocol_state=*/true);
    station.AttachQueryService(&service);

    uint64_t round_start = 0, round_end = 0;
    {
      obs::ScopedSpan round_span("round.ingest");
      round_start = NowNs();
      std::string why;
      for (const WireOp& op : schedule_) {
        const std::vector<uint8_t>& bytes =
            op.kind == OpKind::kCorrupt ? op.corrupt_bytes
                                        : frames_[op.sensor][op.chunk];
        ++attempted_;
        double ns = 0.0;
        auto ack = Timed("station.receive_bytes", &ns,
                         [&] { return station.ReceiveBytes(bytes); });
        if (record) receive_ns_.push_back(ns);
        if (!ack.ok()) {
          Fail("ReceiveBytes: " + ack.status().ToString());
          continue;
        }
        if (!CheckAck(ack->type, op.expect, &why)) {
          Fail("sensor " + std::to_string(op.sensor) + " chunk " +
               std::to_string(op.chunk) + ": " + why);
          continue;
        }
        if (traced && op.kind == OpKind::kOriginal) round_rb_ns_ += ns;
        if (op.expect != net::AckType::kAccept) continue;
        if (record) ingest_ns_.push_back(ns);
        if (traced) accept_calls_.push_back({op.sensor, op.chunk, op.ingested, ns});
        if (!CheckEpoch(service.epoch(op.sensor), op.epoch_after, &why)) {
          Fail("sensor " + std::to_string(op.sensor) + ": " + why);
        }
        if (spec_.per_frame_queries || first) {
          const size_t newest = (op.epoch_after - 1) * m_;
          Query agg{QueryKind::kNewest, op.sensor, op.q_signal, newest,
                    newest + m_};
          RunQuery(service, agg, first, record);
        }
        if (spec_.per_frame_queries) {
          const size_t point = (op.epoch_after - 1) * m_ + op.q_offset;
          RunQuery(service,
                   {QueryKind::kPoint, op.sensor, op.q_signal, point, point + 1},
                   first, record);
        }
      }
      if (first) {
        station_heap_per_value_ =
            static_cast<double>(HeapInUse() - heap0) / RawValues();
      }

      for (size_t i = 0; i < queries_.size(); ++i) {
        RunQuery(service, queries_[i], first && i % kQueryCheckStride == 0,
                 record);
      }
      round_end = NowNs();
    }
    if (!first) {
      const double wall = static_cast<double>(round_end - round_start);
      (traced ? round_ns_traced_ : round_ns_untraced_).push_back(wall);
    }
    if (first) FinalChecks(station, service);
    if (traced) {
      const storage::QueryServiceCounters counters = service.counters();
      const uint64_t lookups = counters.cache_hits + counters.cache_misses;
      cache_hit_ratio_.push_back(lookups == 0 ? 0.0
                                              : static_cast<double>(counters.cache_hits) / lookups);
      cache_evictions_.push_back(static_cast<double>(counters.cache_evictions));
      ReplayComponents(dir, service);
    }
  }
  fs::remove_all(dir);
}

/// Replays the round's transmissions through each station component
/// alone, each on fresh state, and compares their sum with ReceiveBytes.
void Run::ReplayComponents(const fs::path& dir,
                           const storage::QueryService& live) {
  const size_t sensors = spec_.sensors, chunks = spec_.chunks;
  std::vector<ComponentTimes> times(sensors * chunks);
  std::vector<storage::ChunkLog> logs;
  std::vector<core::SbrDecoder> decoders;
  std::vector<storage::HistoryStore> histories;
  std::vector<storage::CompressedHistory> compressed;
  for (size_t s = 0; s < sensors; ++s) {
    auto log = storage::ChunkLog::Open(
        (dir / ("replay_" + std::to_string(s) + ".log")).string());
    if (!log.ok()) {
      Fail("replay log: " + log.status().ToString());
      return;
    }
    logs.push_back(std::move(log).value());
    decoders.emplace_back(core::DecoderOptions{spec_.m_base});
    histories.emplace_back(spec_.m_base);
    compressed.emplace_back(spec_.m_base);
  }
  storage::QueryService service(ServiceOptions());
  const std::vector<uint8_t> checkpoint_blob(kStationCheckpointBytes, 0x5a);
  size_t log_bytes = 0;
  for (const auto& [s, c] : ingest_order_) {
    ComponentTimes& ct = times[s * chunks + c];
    const std::vector<uint8_t>& bytes = frames_[s][c];
    auto tx = Timed("replay.frame_parse", &ct.parse,
                    [&]() -> std::optional<StatusOr<core::Transmission>> {
                      auto frame = core::Frame::Parse(bytes);
                      if (!frame.ok()) return std::nullopt;
                      BinaryReader reader(frame->payload);
                      return core::Transmission::Deserialize(&reader);
                    });
    if (!tx || !tx->ok()) {
      Fail("replay: frame does not parse");
      continue;
    }
    const core::Transmission& t = **tx;

    const size_t disk0 = logs[s].DiskEnd();
    Status st = Timed("replay.chunk_log.append", &ct.append,
                      [&] { return logs[s].Append(t); });
    log_bytes += logs[s].DiskEnd() - disk0;
    if (!st.ok()) Fail("replay append: " + st.ToString());
    st = Timed("replay.chunk_log.checkpoint", &ct.checkpoint,
               [&] { return logs[s].AppendCheckpoint(checkpoint_blob); });
    if (!st.ok()) Fail("replay checkpoint: " + st.ToString());
    auto decoded = Timed("replay.decoder.decode_chunk", &ct.decode,
                         [&] { return decoders[s].DecodeChunk(t); });
    if (!decoded.ok()) Fail("replay decode: " + decoded.status().ToString());
    st = Timed("replay.history.ingest", &ct.history,
               [&] { return histories[s].Ingest(t); });
    if (!st.ok()) Fail("replay history ingest: " + st.ToString());
    st = Timed("replay.compressed.ingest", &ct.compressed,
               [&] { return compressed[s].Ingest(t); });
    if (!st.ok()) Fail("replay compressed ingest: " + st.ToString());
    st = Timed("replay.query_service.ingest", &ct.service,
               [&] { return service.Ingest(s, t); });
    if (!st.ok()) Fail("replay service ingest: " + st.ToString());

    parse_ns_.push_back(ct.parse);
    decode_ns_.push_back(ct.decode);
    append_ns_.push_back(ct.append);
    checkpoint_ns_.push_back(ct.checkpoint);
    history_ns_.push_back(ct.history);
    compressed_ns_.push_back(ct.compressed);
    service_ns_.push_back(ct.service);
    publish_ns_.push_back(ct.service - ct.history - ct.compressed);
  }
  log_bytes_per_frame_.push_back(static_cast<double>(log_bytes) /
                                 ingest_order_.size());

  // ReceiveBytes against the components it runs: parse, log append,
  // checkpoint, the station's own history ingest and the service ingest.
  auto component_sum = [](const ComponentTimes& ct) {
    return ct.parse + ct.append + ct.checkpoint + ct.history + ct.service;
  };
  for (const ComponentTimes& ct : times) component_total_ns_ += component_sum(ct);
  rb_total_ns_ += round_rb_ns_;
  decomposed_txs_ += ingest_order_.size();
  for (const AcceptCall& call : accept_calls_) {
    if (call.ingested != 1) continue;
    self_ns_.push_back(call.ns -
                       component_sum(times[call.sensor * chunks + call.chunk]));
  }

  // The same queries straight on a snapshot's views, without the service
  // and its cache.
  std::vector<std::shared_ptr<const storage::SensorSnapshot>> snaps;
  for (uint32_t s = 0; s < sensors; ++s) snaps.push_back(live.Snapshot(s));
  auto snap_query = [&](const Query& q) {
    const storage::SensorSnapshot& snap = *snaps[q.sensor];
    double ns = 0.0;
    if (IsAggregate(q.kind)) {
      auto r = Timed("replay.compressed.aggregate", &ns, [&] {
        return snap.compressed.Aggregate(q.signal, q.t0, q.t1);
      });
      snap_aggregate_ns_.push_back(ns);
      if (!r.ok()) Fail("snapshot aggregate: " + r.status().ToString());
    } else if (q.kind == QueryKind::kPoint) {
      auto r = Timed("replay.compressed.value", &ns,
                     [&] { return snap.compressed.Value(q.signal, q.t0); });
      snap_value_ns_.push_back(ns);
      if (!r.ok()) Fail("snapshot value: " + r.status().ToString());
    } else {
      auto r = Timed("replay.history.query_range", &ns, [&] {
        return snap.history.QueryRange(q.signal, q.t0, q.t1);
      });
      snap_range_ns_.push_back(ns);
      if (!r.ok()) Fail("snapshot range: " + r.status().ToString());
    }
  };
  if (spec_.per_frame_queries) {
    for (const WireOp& op : schedule_) {
      if (op.expect != net::AckType::kAccept) continue;
      const size_t newest = (op.epoch_after - 1) * m_;
      snap_query({QueryKind::kNewest, op.sensor, op.q_signal, newest,
                  newest + m_});
      snap_query({QueryKind::kPoint, op.sensor, op.q_signal,
                  newest + op.q_offset, newest + op.q_offset + 1});
    }
  }
  for (const Query& q : queries_) snap_query(q);
}

/// Heap held by a station alone (no service) and by a service alone, fed
/// the same stream.
void Run::MeasureComponentHeaps(const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    const size_t heap0 = HeapInUse();
    net::BaseStation station(spec_.m_base, dir.string(), 8, true);
    for (const WireOp& op : schedule_) {
      const auto& bytes = op.kind == OpKind::kCorrupt
                              ? op.corrupt_bytes
                              : frames_[op.sensor][op.chunk];
      auto ack = station.ReceiveBytes(bytes);
      if (!ack.ok() || ack->type != op.expect) {
        Fail("station-alone replay: unexpected ack");
        break;
      }
    }
    station_alone_heap_ =
        static_cast<double>(HeapInUse() - heap0) / RawValues();
  }
  {
    const size_t heap0 = HeapInUse();
    storage::QueryService service(ServiceOptions());
    for (const auto& [s, c] : ingest_order_) {
      if (!service.Ingest(s, txs_[s][c]).ok()) {
        Fail("service-alone replay: ingest failed");
        break;
      }
    }
    service_alone_heap_ =
        static_cast<double>(HeapInUse() - heap0) / RawValues();
  }
  fs::remove_all(dir);
}

// ------------------------------------------------------------ output

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void Run::PrintResult() {
  std::vector<Metric> m;
  const double values_per_chunk = static_cast<double>(n_ * m_);
  if (!args_.trace) {
    m.push_back({"setup_s", setup_s_, "s"});
    // Rates are one unit's work over the sum of its calls' best times: a
    // total, not a per-call median, because the chunks of a pass differ in
    // work.
    m.push_back({"encode_values_per_s",
                 values_per_chunk * best_.encode_chunk.size() /
                     (Sum(best_.encode_chunk) * 1e-9),
                 "values/s"});
    m.push_back({"wire_bytes_per_value",
                 static_cast<double>(wire_bytes_) / RawValues(), "B/value"});
    m.push_back({"recon_rmse", rmse_, "value"});
    m.push_back({"ingest_frames_per_s",
                 static_cast<double>(ingest_order_.size()) /
                     (Sum(best_.receive) * 1e-9),
                 "frames/s"});
    m.push_back({"ingest_us_p50", Median(best_.ingest) * 1e-3, "us"});
    m.push_back({"aggregate_us_p50", Median(best_.aggregate) * 1e-3, "us"});
    m.push_back({"aggregate_us_p90", Quantile(best_.aggregate, 0.9) * 1e-3, "us"});
    m.push_back({"point_us_p50", Median(best_.point) * 1e-3, "us"});
    m.push_back({"reconstruct_us_p50", Median(best_.reconstruct) * 1e-3, "us"});
    m.push_back({"station_heap_bytes_per_value", station_heap_per_value_,
                 "B/value"});
  } else {
    auto obs_self = [&](const char* name) {
      for (const auto& [n, s] : obs_self_s_) {
        if (n == name) return s / std::max<size_t>(1, traced_chunks_);
      }
      return 0.0;
    };
    auto kind_us = [&](QueryKind k) {
      return Median(query_kind_ns_[static_cast<size_t>(k)]) * 1e-3;
    };
    m.push_back({"datagen.generate_s", datagen_s_, "s"});
    m.push_back({"core.encode_chunk_ms", Median(emit_ns_) * 1e-6, "ms"});
    m.push_back({"core.encode.get_base_s", obs_self("encode.get_base"), "s"});
    m.push_back({"core.encode.search_s", obs_self("encode.search"), "s"});
    m.push_back({"core.encode.search_probe_s", obs_self("encode.search.probe"), "s"});
    m.push_back({"core.encode.approx_s", obs_self("encode.approx"), "s"});
    m.push_back({"core.best_map.shifts_scanned",
                 static_cast<double>(shifts_scanned_) /
                     std::max<size_t>(1, traced_chunks_),
                 "count"});
    m.push_back({"core.search_probes", Mean(probes_per_chunk_), "count"});
    m.push_back({"core.intervals_per_chunk", Mean(intervals_per_chunk_), "count"});
    m.push_back({"core.frame_build_us", Median(frame_build_ns_) * 1e-3, "us"});
    m.push_back({"core.frame_parse_us", Median(parse_ns_) * 1e-3, "us"});
    m.push_back({"core.decode_chunk_us", Median(decode_ns_) * 1e-3, "us"});
    m.push_back({"storage.chunk_log.append_us", Median(append_ns_) * 1e-3, "us"});
    m.push_back({"storage.chunk_log.checkpoint_us", Median(checkpoint_ns_) * 1e-3, "us"});
    m.push_back({"storage.chunk_log.bytes_per_frame", Median(log_bytes_per_frame_), "B"});
    m.push_back({"storage.history.ingest_us", Median(history_ns_) * 1e-3, "us"});
    m.push_back({"storage.compressed.ingest_us", Median(compressed_ns_) * 1e-3, "us"});
    m.push_back({"storage.query_service.ingest_us_p50", Median(service_ns_) * 1e-3, "us"});
    m.push_back({"storage.query_service.ingest_us_p99",
                 Quantile(service_ns_, 0.99) * 1e-3, "us"});
    m.push_back({"storage.query_service.publish_us", Median(publish_ns_) * 1e-3, "us"});
    m.push_back({"net.station.self_us", Median(self_ns_) * 1e-3, "us"});
    m.push_back({"net.station.receive_us_p99",
                 Quantile(best_.ingest, 0.99) * 1e-3, "us"});
    m.push_back({"storage.query_service.aggregate_us_p99",
                 Quantile(best_.aggregate, 0.99) * 1e-3,
                 "us"});
    m.push_back({"net.station.receive_us_per_frame",
                 rb_total_ns_ * 1e-3 / std::max<size_t>(1, decomposed_txs_), "us"});
    m.push_back({"net.station.component_sum_us_per_frame",
                 component_total_ns_ * 1e-3 / std::max<size_t>(1, decomposed_txs_),
                 "us"});
    m.push_back({"net.station.unattributed_share",
                 1.0 - component_total_ns_ / rb_total_ns_, "ratio"});
    m.push_back({"storage.query_service.aggregate_random_us", kind_us(QueryKind::kRandom), "us"});
    m.push_back({"storage.query_service.aggregate_wide_us", kind_us(QueryKind::kWide), "us"});
    m.push_back({"storage.query_service.aggregate_dashboard_us",
                 kind_us(QueryKind::kDashboard), "us"});
    m.push_back({"storage.compressed.aggregate_us", Median(snap_aggregate_ns_) * 1e-3, "us"});
    m.push_back({"storage.query_service.cache_hit_ratio", Median(cache_hit_ratio_), "ratio"});
    m.push_back({"storage.query_service.cache_evictions", Median(cache_evictions_), "count"});
    m.push_back({"storage.compressed.value_us", Median(snap_value_ns_) * 1e-3, "us"});
    m.push_back({"storage.history.query_range_us", Median(snap_range_ns_) * 1e-3, "us"});
    m.push_back({"net.station.heap_bytes_per_value", station_alone_heap_, "B/value"});
    m.push_back({"storage.query_service.heap_bytes_per_value", service_alone_heap_,
                 "B/value"});
    m.push_back({"trace.overhead_ratio",
                 Median(round_ns_traced_) / Median(round_ns_untraced_), "ratio"});
    m.push_back({"machine.speed_factor", speed_.Factor(), "ratio"});
  }
  // Every time and rate at the reference speed (see SpeedProbe).
  for (Metric& x : m) {
    const std::string_view unit = x.unit;
    if (unit == "s" || unit == "ms" || unit == "us") {
      x.value *= speed_.Factor();
    } else if (unit.ends_with("/s")) {
      x.value /= speed_.Factor();
    }
  }
  if (!first_failure_.empty()) {
    std::fprintf(stderr, "check failed: %s\n", first_failure_.c_str());
  }
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < m.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + m[i].name + "\": {\"value\": " + FormatNumber(m[i].value) +
           ", \"unit\": \"" + m[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Run::Execute() {
  speed_.Sample();
  GenerateInputs();
  txs_.assign(spec_.sensors, {});
  frames_.assign(spec_.sensors, {});
  BuildQueries();
  obs::MetricsRegistry::Global().ResetAll();
  obs::TraceCollector::Global().Clear();

  // Round 0 of each phase builds the start state of the timed units: every
  // sensor encodes once (the frames are kept), then the check round of
  // ingest. It belongs to set-up, which ends at the first timed unit.
  EncodeSensors(0, spec_.sensors, /*first=*/true, /*traced=*/false);
  encode_chunk_ns_.clear();
  BuildMirror();
  BuildSchedule();
  IngestRound(0, /*traced=*/false);

  setup_s_ = (NowNs() - g_process_start_ns) * 1e-9;
  const uint64_t start = NowNs();
  const double run_ns = args_.seconds * 1e9;
  const uint64_t deadline = start + static_cast<uint64_t>(run_ns);

  // The workload's encode passes (every sensor's whole feed, each on a
  // fresh node) are spread evenly over the run, pass i due after i /
  // encode_passes of it; passes still due when the time is up run back to
  // back. Ingest rounds fill the time between passes, so both kinds of
  // unit sample the same stretch of machine time. Traced runs alternate
  // traced (odd) and untraced (even) units of each kind; only untraced
  // units count towards the end-to-end metrics.
  size_t encode_units = 0, ingest_rounds = 1;
  while (true) {
    const uint64_t now = NowNs();
    const bool over = now >= deadline;
    const bool encode =
        encode_units < spec_.encode_passes &&
        (over || static_cast<double>(encode_units) * run_ns <=
                     static_cast<double>(now - start) * spec_.encode_passes);
    if (over && !encode && ingest_rounds > kMinIngestRounds) break;
    const size_t index = encode ? encode_units : ingest_rounds;
    const bool traced = args_.trace && index % 2 == 1;
    speed_.Sample();
    obs::SetEnabled(traced);
    const uint64_t shifts0 = obs::MetricsRegistry::Global()
                                 .GetCounter("encode.best_map.shifts_scanned")
                                 .Value();
    if (encode) {
      EncodeSensors(0, spec_.sensors, /*first=*/false, traced);
    } else {
      IngestRound(ingest_rounds, traced);
    }
    obs::SetEnabled(false);
    CloseUnit(/*counted=*/!traced);
    const std::vector<obs::SpanEvent> events =
        obs::TraceCollector::Global().Drain();
    std::vector<obs::SpanEvent>& keep = encode ? trace_encode_ : trace_ingest_;
    if (traced && keep.empty()) keep = events;
    if (encode) {
      ++encode_units;
      encode_counted_ += !traced;
      if (traced) {
        shifts_scanned_ += obs::MetricsRegistry::Global()
                               .GetCounter("encode.best_map.shifts_scanned")
                               .Value() -
                           shifts0;
        AccumulateObsSelfTimes(events, &obs_self_s_);
      }
    } else {
      ++ingest_rounds;
      ingest_counted_ += !traced;
    }
  }
  speed_.Sample();
  std::fprintf(stderr,
               "units: %zu encode passes (%zu counted), %zu ingest rounds "
               "(%zu counted); speed factor %.4f\n",
               encode_units, encode_counted_, ingest_rounds - 1, ingest_counted_,
               speed_.Factor());
  if (args_.trace) {
    MeasureComponentHeaps(fs::path(args_.workdir) / "heap");
    if (!args_.trace_out.empty()) {
      std::vector<obs::SpanEvent> events = trace_encode_;
      events.insert(events.end(), trace_ingest_.begin(), trace_ingest_.end());
      std::sort(events.begin(), events.end(),
                [](const obs::SpanEvent& a, const obs::SpanEvent& b) {
                  return a.seq < b.seq;
                });
      std::ofstream out(args_.trace_out);
      out << obs::TraceCollector::ToCsv(events);
      if (!out) {
        std::fprintf(stderr, "cannot write trace to %s\n",
                     args_.trace_out.c_str());
      }
    }
  }
  PrintResult();
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::stoull(value);
    } else if (key == "--seconds") {
      args->seconds = std::stod(value);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--workdir") {
      args->workdir = value;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 && !args->workdir.empty();
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  e2ebench::Args args;
  if (!e2ebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --workdir <dir> [--trace-out <file>]\n",
                 argv[0]);
    return 2;
  }
  const e2ebench::Spec* spec = e2ebench::FindSpec(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  e2ebench::Run run(*spec, args);
  return run.Execute();
}
