// QueryService: the base station's concurrent, multi-client read
// front-end over per-sensor histories. Readers are served from immutable
// epoch snapshots published RCU-style — a std::shared_ptr to a frozen
// CompressedHistory + HistoryStore pair, swapped atomically at
// chunk-ingest boundaries — so queries never block ingest and never
// observe a half-ingested chunk. Both stores share their chunk payloads
// by shared_ptr, so freezing an epoch costs O(chunks) pointer copies,
// not O(samples).
//
// Concurrency contract:
//  - Writer side (Ingest / MarkGap / ApplySnapshot): one logical writer
//    per service at a time — the BaseStation ingest path, which the sim
//    engine already serializes behind its station mutex. Writer calls for
//    *different* sensors are still serialized by the service's writer
//    mutex; this keeps sensor creation and epoch accounting trivial.
//  - Reader side (Snapshot / Aggregate / Reconstruct / Point /
//    AggregateBatch): any number of threads, any time. A reader acquires
//    the per-sensor published pointer with one atomic load and then works
//    entirely on immutable state.
//
// Every published snapshot carries the epoch (a per-sensor monotone
// publish counter), so an answer is always attributable to one exact
// prefix of the ingest stream — the property the differential oracle and
// the TSan concurrency suite pin.
//
// The sharded aggregate cache keys entries by (sensor, epoch, signal,
// range); publishing a new epoch invalidates by construction (stale
// epochs can never be looked up again) and capacity-bounded LRU eviction
// reclaims their slots (evictions and resident entries are counted).
#ifndef SBR_STORAGE_QUERY_SERVICE_H_
#define SBR_STORAGE_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/transmission.h"
#include "storage/chunk_log.h"
#include "storage/history_store.h"
#include "storage/query_engine.h"
#include "util/status.h"

namespace sbr::storage {

/// One frozen epoch of one sensor's history: the compressed interval view
/// (aggregates in O(intervals)) and the materialized view (exact
/// range reconstruction), advanced in lockstep chunk for chunk.
struct SensorSnapshot {
  /// Monotone per-sensor publish counter; epoch e was published after
  /// exactly e writer mutations (ingests, gaps, snapshots) of the sensor.
  uint64_t epoch = 0;
  CompressedHistory compressed;
  HistoryStore history;

  SensorSnapshot(uint64_t e, const CompressedHistory& c,
                 const HistoryStore& h)
      : epoch(e), compressed(c), history(h) {}
};

struct QueryServiceOptions {
  /// Must match the sensors' encoder configuration.
  size_t m_base = 0;
  /// Aggregate-cache shards (rounded up to a power of two; 0 disables the
  /// cache entirely).
  size_t cache_shards = 8;
  /// Cached aggregates per shard; LRU eviction beyond this.
  size_t cache_capacity_per_shard = 512;
  /// Compressed-domain acceleration for every sensor's builder (the
  /// hierarchical moment index + base RMQ; disable for the legacy
  /// interval-scan reference path).
  IndexOptions index;
};

/// Service-level counters, mirrored into obs metrics when enabled; kept
/// as plain atomics too so the noobs build can still assert on them.
struct QueryServiceCounters {
  uint64_t queries = 0;      ///< reader-side calls answered (any status)
  uint64_t cache_hits = 0;   ///< aggregate answers served from the cache
  uint64_t cache_misses = 0; ///< aggregate answers computed from a snapshot
  uint64_t cache_evictions = 0; ///< LRU victims dropped from the cache
  uint64_t cache_resident = 0;  ///< aggregate entries currently cached
  uint64_t dataloss = 0;     ///< answers that reported DataLoss
  uint64_t publishes = 0;    ///< epoch snapshots published (all sensors)
};

/// Concurrent multi-sensor query front-end with snapshot isolation.
class QueryService {
 public:
  explicit QueryService(QueryServiceOptions options);

  // ------------------------------------------------------- writer side
  /// Decodes + indexes the next transmission of `sensor_id` and publishes
  /// a new epoch. If the materialized ingest succeeds but the compressed
  /// index rejects the chunk, the compressed view records a gap in its
  /// place so the two timelines stay aligned (counted in obs).
  Status Ingest(uint32_t sensor_id, const core::Transmission& t);

  /// Records `chunks` lost chunks on both views and publishes.
  Status MarkGap(uint32_t sensor_id, size_t chunks = 1);

  /// Re-anchors both views' base-signal mirrors from a resync snapshot
  /// and publishes.
  Status ApplySnapshot(uint32_t sensor_id,
                       const core::BaseSnapshot& snapshot);

  // ------------------------------------------------------- reader side
  /// The sensor's latest published epoch snapshot (one atomic load);
  /// nullptr if the sensor has never been ingested.
  std::shared_ptr<const SensorSnapshot> Snapshot(uint32_t sensor_id) const;

  /// Compressed-domain aggregates of `signal` over [t0, t1), served from
  /// the aggregate cache when the (sensor, epoch, signal, range) entry is
  /// warm. NotFound for unknown sensors; DataLoss for ranges touching
  /// lost chunks; OutOfRange for malformed ranges.
  StatusOr<AggregateResult> Aggregate(uint32_t sensor_id, size_t signal,
                                      size_t t0, size_t t1) const;

  /// Materialized range reconstruction from the same snapshot mechanism.
  StatusOr<std::vector<double>> Reconstruct(uint32_t sensor_id,
                                            size_t signal, size_t t0,
                                            size_t t1) const;

  /// Single-sample point query (compressed domain).
  StatusOr<double> Point(uint32_t sensor_id, size_t signal, size_t t) const;

  /// One aggregate range request of a batch.
  struct RangeQuery {
    size_t signal = 0;
    size_t t0 = 0;
    size_t t1 = 0;
  };

  /// Answers every range of a batch against ONE epoch snapshot (mutually
  /// consistent answers). Per-query failures — DataLoss over gaps above
  /// all — stay per-query instead of failing the whole batch; each
  /// DataLoss answer is counted (obs `query.dataloss`).
  std::vector<StatusOr<AggregateResult>> AggregateBatch(
      uint32_t sensor_id, const std::vector<RangeQuery>& ranges) const;

  /// Latest published epoch of the sensor (0 if unknown).
  uint64_t epoch(uint32_t sensor_id) const;

  /// Sensors with at least one published epoch.
  size_t num_sensors() const;

  /// Point-in-time merged counters.
  QueryServiceCounters counters() const;

 private:
  struct PerSensor {
    /// Writer-owned mutable builders; copied into each published epoch.
    CompressedHistory builder_compressed;
    HistoryStore builder_history;
    uint64_t epoch = 0;
    /// The RCU slot readers load.
    std::atomic<std::shared_ptr<const SensorSnapshot>> published;

    PerSensor(size_t m_base, IndexOptions index)
        : builder_compressed(m_base, index), builder_history(m_base) {}
  };

  struct CacheKey {
    uint32_t sensor = 0;
    uint64_t epoch = 0;
    uint64_t signal = 0;
    uint64_t t0 = 0;
    uint64_t t1 = 0;
    bool operator==(const CacheKey&) const = default;
  };
  struct CacheKeyHash {
    size_t operator()(const CacheKey& k) const;
  };
  struct CacheShard {
    mutable std::mutex mu;
    /// Recency list: front = LRU victim, back = most recently used.
    std::list<CacheKey> lru;
    struct Entry {
      AggregateResult value;
      std::list<CacheKey>::iterator pos;  ///< this entry's lru node
    };
    std::unordered_map<CacheKey, Entry, CacheKeyHash> entries;
  };

  /// Writer path: looks up or creates the sensor's builder state.
  PerSensor* GetOrCreateLocked(uint32_t sensor_id);
  /// Freezes the builders into a new epoch and swaps the RCU slot.
  void Publish(PerSensor* s);
  /// Aggregate answered on an explicit snapshot, consulting the cache.
  StatusOr<AggregateResult> AggregateOn(uint32_t sensor_id,
                                        const SensorSnapshot& snap,
                                        size_t signal, size_t t0,
                                        size_t t1) const;
  CacheShard* ShardFor(const CacheKey& key) const;
  void CountStatus(const Status& status) const;

  /// Reader path: resolves the sensor's slot (brief map_mu_ hold only).
  const PerSensor* Find(uint32_t sensor_id) const;

  QueryServiceOptions options_;

  /// Guards only the sensor map's *structure* (find/insert); held for
  /// nanoseconds on either side, so readers never wait out a decode.
  mutable std::mutex map_mu_;
  std::map<uint32_t, std::unique_ptr<PerSensor>> sensors_;

  /// Serializes writer mutations (builder updates + publish). Readers
  /// never take it: they only load the published atomic shared_ptr.
  std::mutex writer_mu_;

  /// Sharded aggregate cache; empty when cache_shards == 0.
  mutable std::vector<std::unique_ptr<CacheShard>> cache_;

  mutable std::atomic<uint64_t> queries_{0};
  mutable std::atomic<uint64_t> cache_hits_{0};
  mutable std::atomic<uint64_t> cache_misses_{0};
  mutable std::atomic<uint64_t> cache_evictions_{0};
  mutable std::atomic<uint64_t> cache_resident_{0};
  mutable std::atomic<uint64_t> dataloss_{0};
  std::atomic<uint64_t> publishes_{0};
};

/// Replays a chunk log into `service` as sensor `sensor_id`, record by
/// record (transmissions, gap markers, snapshots; checkpoints skipped).
/// Log read errors propagate. A transmission the service rejects is
/// skipped: the live ingest that logged it was refused by the same service
/// state and left the timeline where it was, so the replayed timeline
/// equals the live one.
Status ReplayLog(const ChunkLog& log, uint32_t sensor_id,
                 QueryService* service);

}  // namespace sbr::storage

#endif  // SBR_STORAGE_QUERY_SERVICE_H_
