// Failure-injection and adversarial-input tests: corrupted wire bytes,
// non-finite samples, pathological signals and boundary geometries. The
// contract under attack is always the same — a clean Status, never a
// crash, never silent garbage.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <vector>

#include "core/decoder.h"
#include "core/encoder.h"
#include "core/regression.h"
#include "net/base_station.h"
#include "net/node.h"
#include "storage/chunk_log.h"
#include "storage/query_service.h"
#include "util/rng.h"
#include "util/stats.h"

namespace sbr {
namespace {

using core::EncoderOptions;
using core::SbrDecoder;
using core::SbrEncoder;
using core::Transmission;

// ------------------------------------------------------- wire fuzzing

TEST(Robustness, RandomBytesNeverCrashDeserializer) {
  Rng rng(1);
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t len = static_cast<size_t>(rng.UniformInt(0, 200));
    std::vector<uint8_t> bytes(len);
    for (auto& b : bytes) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    BinaryReader reader(bytes);
    auto t = Transmission::Deserialize(&reader);
    // Either a parse error or a structurally valid transmission; both are
    // acceptable, crashing or hanging is not.
    if (t.ok()) {
      (void)t->ValueCount();
      (void)t->TotalSamples();
    }
  }
}

TEST(Robustness, BitFlippedTransmissionsFailOrDecodeCleanly) {
  EncoderOptions opts;
  opts.total_band = 100;
  opts.m_base = 128;
  SbrEncoder enc(opts);
  Rng rng(2);
  std::vector<double> y(256);
  for (auto& v : y) v = std::sin(v) + rng.Uniform(0, 1);
  auto t = enc.EncodeChunk(y, 2);
  ASSERT_TRUE(t.ok());
  BinaryWriter w;
  t->Serialize(&w);
  std::vector<uint8_t> base_bytes = w.buffer();

  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> bytes = base_bytes;
    const size_t pos =
        static_cast<size_t>(rng.UniformInt(0, bytes.size() - 1));
    bytes[pos] ^= static_cast<uint8_t>(1 << rng.UniformInt(0, 7));
    BinaryReader reader(bytes);
    auto parsed = Transmission::Deserialize(&reader);
    if (!parsed.ok()) continue;
    SbrDecoder dec(core::DecoderOptions{opts.m_base});
    auto decoded = dec.DecodeChunk(*parsed);
    if (decoded.ok()) {
      // A flipped coefficient byte can still decode; the output must at
      // least have the right shape.
      EXPECT_EQ(decoded->size(), parsed->TotalSamples());
    }
  }
}

// ----------------------------------------- base-station frame fuzzing

// Builds a few genuine on-air frames from a real sensor node.
std::vector<std::vector<uint8_t>> RealFrameBytes(size_t count) {
  EncoderOptions opts;
  opts.total_band = 100;
  opts.m_base = 64;
  net::SensorNode node(1, 2, 64, opts);
  Rng rng(11);
  std::vector<std::vector<uint8_t>> frames;
  std::vector<double> sample(2);
  while (frames.size() < count) {
    sample[0] = std::sin(frames.size() + rng.Uniform(0, 1));
    sample[1] = rng.Uniform(0, 5);
    auto r = node.AddSamples(sample);
    EXPECT_TRUE(r.ok());
    if (!r->has_value()) continue;
    BinaryWriter w;
    node.MakeDataFrame(**r).Serialize(&w);
    frames.push_back(w.buffer());
  }
  return frames;
}

TEST(Robustness, StationSurvivesRandomFrameBytes) {
  net::BaseStation station(64);
  Rng rng(6);
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t len = static_cast<size_t>(rng.UniformInt(0, 200));
    std::vector<uint8_t> bytes(len);
    for (auto& b : bytes) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    auto ack = station.ReceiveBytes(bytes);
    // Always a clean typed NACK; never an internal error, never a crash.
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    EXPECT_EQ(ack->type, net::AckType::kCorrupt);
  }
  EXPECT_EQ(station.total_stats().corrupt_frames, 2000u);
  EXPECT_EQ(station.num_sensors(), 0u);
}

TEST(Robustness, StationSurvivesTruncatedFrames) {
  net::BaseStation station(64);
  const auto frames = RealFrameBytes(1);
  for (size_t cut = 0; cut < frames[0].size(); ++cut) {
    std::vector<uint8_t> truncated(frames[0].begin(),
                                   frames[0].begin() + cut);
    auto ack = station.ReceiveBytes(truncated);
    ASSERT_TRUE(ack.ok());
    EXPECT_EQ(ack->type, net::AckType::kCorrupt) << "cut at " << cut;
  }
  // Nothing was ingested from any prefix.
  EXPECT_FALSE(station.HasSensor(1));
}

TEST(Robustness, StationRejectsEveryBitFlipThenAcceptsThePristineFrame) {
  net::BaseStation station(64);
  const auto frames = RealFrameBytes(2);
  Rng rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> bytes = frames[0];
    const size_t pos =
        static_cast<size_t>(rng.UniformInt(0, bytes.size() - 1));
    bytes[pos] ^= static_cast<uint8_t>(1 << rng.UniformInt(0, 7));
    auto ack = station.ReceiveBytes(bytes);
    ASSERT_TRUE(ack.ok());
    // CRC32 catches every single-bit flip without exception.
    EXPECT_EQ(ack->type, net::AckType::kCorrupt);
  }
  EXPECT_EQ(station.stats(1).frames_accepted, 0u);

  // The untouched frames still go through afterwards: duplicated and
  // reordered copies are handled as protocol events, not errors.
  auto buffered = station.ReceiveBytes(frames[1]);  // seq 1 before seq 0
  ASSERT_TRUE(buffered.ok());
  EXPECT_EQ(buffered->type, net::AckType::kBuffered);
  auto accepted = station.ReceiveBytes(frames[0]);
  ASSERT_TRUE(accepted.ok());
  EXPECT_EQ(accepted->type, net::AckType::kAccept);
  auto duplicate = station.ReceiveBytes(frames[0]);
  ASSERT_TRUE(duplicate.ok());
  EXPECT_EQ(duplicate->type, net::AckType::kDuplicate);
  EXPECT_EQ(station.stats(1).frames_accepted, 2u);  // both drained, once
  auto history = station.History(1);
  ASSERT_TRUE(history.ok());
  EXPECT_EQ((*history)->num_chunks(), 2u);
  EXPECT_EQ((*history)->num_gaps(), 0u);
}

// --------------------------------------------------- non-finite inputs

TEST(Robustness, EncoderRejectsNaNAndInfinity) {
  EncoderOptions opts;
  opts.total_band = 60;
  opts.m_base = 64;
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    SbrEncoder enc(opts);
    std::vector<double> y(128, 1.0);
    y[77] = bad;
    auto t = enc.EncodeChunk(y, 1);
    ASSERT_FALSE(t.ok());
    EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
    // The encoder is still usable afterwards.
    std::vector<double> good(128, 1.0);
    EXPECT_TRUE(enc.EncodeChunk(good, 1).ok());
  }
}

// -------------------------------------------------- pathological data

TEST(Robustness, ConstantSignalEncodesPerfectly) {
  EncoderOptions opts;
  opts.total_band = 40;
  opts.m_base = 64;
  SbrEncoder enc(opts);
  SbrDecoder dec(core::DecoderOptions{opts.m_base});
  std::vector<double> y(256, 42.0);
  auto t = enc.EncodeChunk(y, 2);
  ASSERT_TRUE(t.ok());
  auto rec = dec.DecodeChunk(*t);
  ASSERT_TRUE(rec.ok());
  EXPECT_NEAR(SumSquaredError(y, *rec), 0.0, 1e-12);
}

TEST(Robustness, HugeDynamicRangeStaysFinite) {
  EncoderOptions opts;
  opts.total_band = 80;
  opts.m_base = 128;
  SbrEncoder enc(opts);
  SbrDecoder dec(core::DecoderOptions{opts.m_base});
  Rng rng(3);
  std::vector<double> y(256);
  for (size_t i = 0; i < y.size(); ++i) {
    // Values spanning ~17 orders of magnitude.
    y[i] = (i % 2 == 0 ? 1e-8 : 1e9) * rng.Uniform(0.5, 2.0);
  }
  auto t = enc.EncodeChunk(y, 2);
  ASSERT_TRUE(t.ok());
  auto rec = dec.DecodeChunk(*t);
  ASSERT_TRUE(rec.ok());
  for (double v : *rec) EXPECT_TRUE(std::isfinite(v));
}

TEST(Robustness, AlternatingSpikesSurviveRoundTrip) {
  EncoderOptions opts;
  opts.total_band = 200;
  opts.m_base = 128;
  SbrEncoder enc(opts);
  SbrDecoder dec(core::DecoderOptions{opts.m_base});
  std::vector<double> y(512, 0.0);
  for (size_t i = 0; i < y.size(); i += 17) y[i] = 1000.0;
  auto t = enc.EncodeChunk(y, 2);
  ASSERT_TRUE(t.ok());
  auto rec = dec.DecodeChunk(*t);
  ASSERT_TRUE(rec.ok());
  EXPECT_NEAR(SumSquaredError(y, *rec), enc.last_stats().total_error,
              1e-6 * std::max(1.0, enc.last_stats().total_error));
}

// ----------------------------------------------- boundary geometries

TEST(Robustness, SingleSignalSingleChunkMinimalEverything) {
  EncoderOptions opts;
  opts.total_band = 4 + 3;  // one interval + one base value + margin
  opts.m_base = 2;
  opts.w = 2;
  SbrEncoder enc(opts);
  std::vector<double> y{1.0, 2.0, 3.0, 4.0};
  auto t = enc.EncodeChunk(y, 1);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  SbrDecoder dec(core::DecoderOptions{opts.m_base});
  EXPECT_TRUE(dec.DecodeChunk(*t).ok());
}

TEST(Robustness, WLargerThanChunkStillWorks) {
  // W bigger than any signal: no candidate base intervals exist, the
  // encoder must degrade to pure fall-back encoding.
  EncoderOptions opts;
  opts.total_band = 24;
  opts.m_base = 64;
  opts.w = 50;
  SbrEncoder enc(opts);
  Rng rng(4);
  std::vector<double> y(32);
  for (auto& v : y) v = rng.Uniform(0, 1);
  auto t = enc.EncodeChunk(y, 1);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->base_updates.empty());
  SbrDecoder dec(core::DecoderOptions{opts.m_base});
  EXPECT_TRUE(dec.DecodeChunk(*t).ok());
}

TEST(Robustness, ZeroTotalBandRejected) {
  EncoderOptions opts;
  opts.total_band = 0;
  opts.m_base = 64;
  SbrEncoder enc(opts);
  std::vector<double> y(64, 1.0);
  EXPECT_FALSE(enc.EncodeChunk(y, 1).ok());
}

// ------------------------------------------------ storage corruption

TEST(Robustness, LogWithGarbageTailRecovers) {
  const std::string path = testing::TempDir() + "/sbr_garbage_tail.log";
  std::filesystem::remove(path);
  {
    auto log = storage::ChunkLog::Open(path);
    ASSERT_TRUE(log.ok());
    Transmission t;
    t.num_signals = 1;
    t.chunk_len = 4;
    t.w = 2;
    t.intervals.push_back({0, -1, 1.0, 0.0, 0.0});
    ASSERT_TRUE(log->Append(t).ok());
  }
  {
    // Simulate a corrupt partial append.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const char junk[] = "\x40\x00\x00\x00garbage";
    out.write(junk, sizeof(junk));
  }
  auto recovered = storage::ChunkLog::Open(path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->size(), 1u);
  storage::QueryServiceOptions options;
  options.m_base = 64;
  storage::QueryService service(options);
  ASSERT_TRUE(storage::ReplayLog(*recovered, 0, &service).ok());
  auto replayed = service.Snapshot(0);
  ASSERT_NE(replayed, nullptr);
  EXPECT_EQ(replayed->history.num_chunks(), 1u);
  std::filesystem::remove(path);
}

// ------------------------------------------------- numeric torture

TEST(Robustness, RegressionKernelsSurviveExtremeValues) {
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 2 + static_cast<size_t>(rng.UniformInt(0, 10));
    std::vector<double> x(n), y(n);
    for (size_t i = 0; i < n; ++i) {
      const double mag = std::pow(10.0, rng.Uniform(-12, 12));
      x[i] = mag * rng.Uniform(-1, 1);
      y[i] = mag * rng.Uniform(-1, 1);
    }
    for (auto fit : {core::FitSse(x, y),
                     core::FitSseRelative(x, y, 1.0)}) {
      EXPECT_TRUE(std::isfinite(fit.a));
      EXPECT_TRUE(std::isfinite(fit.b));
      EXPECT_GE(fit.err, 0.0);
    }
    const auto q = core::FitQuadratic(x, y);
    EXPECT_TRUE(std::isfinite(q.err));
  }
}

}  // namespace
}  // namespace sbr
