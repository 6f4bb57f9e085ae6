// NetworkSim: end-to-end simulation tying the substrates together. Each
// sensor node samples its own multi-signal feed, batches, compresses with
// SBR and ships framed transmissions over a multi-hop route of seeded
// FaultChannels to the base station; the simulator accounts radio energy
// for both the compressed traffic and the raw-feed counterfactual, which
// is the quantity the paper's motivation section argues about.
//
// Links are lossy and adversarial (drop / duplicate / reorder / bit-flip
// per hop), and the run never aborts on loss: the fault-tolerant protocol
// detects corruption by CRC, suppresses duplicates, recovers from
// desynchronization with base-signal snapshots plus self-contained
// re-encodes, and records irrecoverable chunks as explicit DataLoss gaps.
//
// All of the delivery machinery — routing, retries/backoff, energy
// charging, report merging — lives in the shared net::SimEngine
// (sim_engine.h); NetworkSim is the engine's null-lifecycle configuration:
// it builds routes and feeds, points a DeliverySink at its NodeReport rows
// and lets the engine drive each chunk to a terminal outcome.
#ifndef SBR_NET_NETWORK_H_
#define SBR_NET_NETWORK_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "datagen/dataset.h"
#include "net/base_station.h"
#include "net/energy.h"
#include "net/sim_engine.h"
#include "net/topology.h"
#include "storage/query_service.h"

namespace sbr::net {

/// Static description of one sensor's place in the routing tree. With the
/// legacy (placement-only) constructor, `hops_to_base` models the node's
/// route as a private chain of that many lossy hops; with a Topology the
/// route is the tree's real uplink path and `hops_to_base` is ignored.
struct NodePlacement {
  uint32_t id = 0;
  size_t hops_to_base = 1;
};

/// Radio-link reliability and protocol tuning. SBR transmissions are
/// stateful (base-signal updates must arrive in order), so frames are
/// sequence-numbered, CRC-protected and acknowledged end-to-end; a frame
/// that stays undeliverable degrades gracefully (resync + self-contained
/// re-encode, then an explicit DataLoss gap) instead of failing the run.
struct LinkOptions {
  /// Per-hop probability that one frame copy is lost.
  double loss_probability = 0.0;
  /// Per-hop probability that a frame copy is delivered twice.
  double duplicate_probability = 0.0;
  /// Per-hop probability that a frame is held and delivered out of order.
  double reorder_probability = 0.0;
  /// Per-hop probability that one random bit of a frame copy is flipped.
  double bit_flip_probability = 0.0;
  /// End-to-end delivery attempts per frame before giving up on it.
  size_t max_attempts = 16;
  /// Resync rounds (snapshot + degraded re-encode) per failed chunk.
  size_t max_resync_rounds = 3;
  /// Base-station reorder window (frames buffered ahead of the expected
  /// sequence number before a gap is declared).
  size_t reorder_window = 8;
  /// Disable to study unrecovered desync: lost frames then surface as
  /// DataLoss at the base station and are never re-encoded.
  bool resync_enabled = true;
  /// Seed for the deterministic per-hop fault processes.
  uint64_t seed = 17;
  /// Energy-aware retry budget: when > 0, a node whose EnergyAccount has
  /// already spent `retry_energy_fraction` of this budget (in nJ) stops
  /// retransmitting — the frame is abandoned after its first attempt — but
  /// keeps sensing, encoding and first-attempt delivery. A draining node
  /// sheds retries before it sheds sensing. 0 disables the budget.
  double node_energy_budget_nj = 0.0;
  /// Fraction of the budget beyond which retries are shed (see above).
  double retry_energy_fraction = 0.75;
};

/// Multi-sensor, single-base-station simulation.
class NetworkSim {
 public:
  /// All nodes share the encoder configuration; each node `i` samples
  /// dataset `feeds[i]` (one feed per placement, same signal count each).
  /// Legacy routing: node `i`'s route is a private chain of
  /// `placements[i].hops_to_base` lossy hops (a star — no shared relays).
  NetworkSim(std::vector<NodePlacement> placements,
             core::EncoderOptions encoder_options, size_t chunk_len,
             EnergyParams energy = EnergyParams(),
             LinkOptions link = LinkOptions());

  /// Tree routing: node `i` occupies `topology` index `i` and its frames
  /// travel the tree's uplink path, relayed by its ancestors. Every copy
  /// entering a relay pays that relay's radio energy (charged to the
  /// relay's NodeReport, merged deterministically in placement order), so
  /// deep subtrees drain their relays — the routing-structure effect the
  /// star model could not express. A depth-1 star topology reproduces the
  /// legacy constructor's report byte for byte. `placements[i].hops_to_base`
  /// is ignored; depth comes from the topology.
  NetworkSim(Topology topology, std::vector<NodePlacement> placements,
             core::EncoderOptions encoder_options, size_t chunk_len,
             EnergyParams energy = EnergyParams(),
             LinkOptions link = LinkOptions());

  /// Streams every feed through its node until the feeds are exhausted
  /// (only whole chunks are transmitted) and returns the report.
  ///
  /// When encoder_options.threads > 1, nodes are simulated concurrently on
  /// the shared pool: each node's sampling, encoding, fault channels and
  /// energy account are private, and the shared base station is serialized
  /// behind the engine's mutex. Per-node reports are computed independently
  /// and aggregated in placement order, so the report is bitwise identical
  /// at any thread count.
  StatusOr<SimulationReport> Run(const std::vector<datagen::Dataset>& feeds);

  const BaseStation& base_station() const { return station_; }

  /// Makes every node issue a read-only probe (aggregate + point) against
  /// its own history in the base station's query service after every
  /// `probe_every_chunks` resolved chunks — concurrent readers exercising
  /// the snapshot path while ingest runs. Probe answers feed only obs
  /// metrics and the service counters; the SimulationReport stays bitwise
  /// identical to a run without probes.
  void EnableQueryService(size_t probe_every_chunks = 4);

  /// The base station's query service.
  const storage::QueryService* query_service() const {
    return &station_.query_service();
  }

 private:
  /// The entire lifetime of one node: sampling, encoding, delivery (via
  /// the engine), trailing resync, hop flush and history scoring. Touches
  /// only per-node state plus the engine-serialized station, so nodes may
  /// run concurrently. `charges` is this origin's private relay-charge row
  /// block (nullptr for legacy star runs).
  Status RunNode(size_t index, const datagen::Dataset& feed, NodeReport* nr,
                 RelayCharges* charges);

  std::vector<NodePlacement> placements_;
  Topology topology_;
  bool has_topology_ = false;
  core::EncoderOptions encoder_options_;
  size_t chunk_len_;
  LinkOptions link_;
  BaseStation station_;
  /// The shared delivery engine, running the null lifecycle policy.
  /// Declared after station_: the engine holds a pointer to it.
  SimEngine engine_;
  /// Resolved chunks between probes; 0 = no probes (EnableQueryService).
  size_t probe_every_chunks_ = 0;
};

}  // namespace sbr::net

#endif  // SBR_NET_NETWORK_H_
