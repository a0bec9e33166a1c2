#ifndef AURORA_ENGINE_AURORA_ENGINE_H_
#define AURORA_ENGINE_AURORA_ENGINE_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/sim_time.h"
#include "engine/load_shedder.h"
#include "engine/qos_monitor.h"
#include "engine/query_network.h"
#include "engine/storage_manager.h"
#include "obs/metrics.h"
#include "ops/operator.h"
#include "qos/inference.h"
#include "stream/connection_point.h"
#include "stream/stream_queue.h"

namespace aurora {

/// Box scheduling disciplines (§2.3; ablated in bench_scheduler).
enum class SchedulerPolicy {
  /// Cycle through boxes, one activation each.
  kRoundRobin,
  /// Activate the box with the most queued input tuples.
  kLongestQueue,
  /// Activate the ready box nearest an output (latency-oriented, the
  /// QoS-driven discipline's core heuristic).
  kMinOutputDistance,
  /// One tuple per activation, no trains (the baseline train scheduling is
  /// compared against).
  kTupleAtATime,
  /// QoS-slack scheduling (§2.3/§7.1): activate the box whose oldest queued
  /// tuple is closest to violating its inferred latency deadline
  /// (CriticalX of the arc's inferred QoS graph). Call RefreshQoSDeadlines
  /// after setting output QoS specs and after topology changes.
  kQoSSlack,
};

struct EngineOptions {
  SchedulerPolicy scheduler = SchedulerPolicy::kLongestQueue;
  /// Max tuples consumed per box activation (train scheduling, §2.3).
  int train_size = 64;
  /// Most tuples handed to one Operator::ProcessBatch call; the chunk rule
  /// is RunActivation's (engine/activation.h).
  int batch_size = 1;
  /// How far a train is pushed toward the output within one step: after a
  /// box activation, boxes that received its emissions are activated too,
  /// up to this many layers.
  int train_depth = 1;
  /// Storage manager budget; 0 = unbounded memory (no spilling).
  size_t memory_budget_bytes = 0;
  /// Simulated cost of reading one spilled tuple back from disk.
  double spill_read_cost_us = 20.0;
  /// With a durable store attached, how many of the newest records each
  /// connection point keeps cached in memory (0 = no cap beyond retention).
  size_t cp_cache_tuples = 128;
  /// Load shedder configuration (policy kNone disables shedding).
  LoadShedder::Options shedder;
};

/// \brief Single-node Aurora run-time (paper §2, Fig. 3).
///
/// Executes a QueryNetwork (the shared model of ports, boxes, and arcs) with
/// per-arc queues beside it, and owns the train scheduler, the storage
/// manager, the QoS monitor, and the load shedder. The network is fully
/// dynamic: boxes and arcs can be added, choked, drained, and
/// removed at run time — the primitive operations the distributed layer's
/// box sliding and splitting are built from.
///
/// Time is externalized: callers pass the current SimTime into PushInput /
/// RunOneStep, and RunOneStep returns the simulated CPU microseconds the
/// activation consumed. Standalone (non-simulated) use just passes a fixed
/// or monotonically increasing time.
class AuroraEngine {
 public:
  using OutputCallback = std::function<void(const Tuple&, SimTime)>;

  explicit AuroraEngine(EngineOptions opts = {});

  // ---- Topology construction ------------------------------------------

  /// Declares a named input stream with its schema.
  Result<PortId> AddInput(const std::string& name, SchemaPtr schema);
  /// Declares a named output (application attachment point).
  Result<PortId> AddOutput(const std::string& name);
  /// Adds a box from its declarative spec. The operator is instantiated
  /// immediately but not initialized until InitializeBoxes().
  Result<BoxId> AddBox(const OperatorSpec& spec);
  /// Connects two endpoints with a new arc. At most one arc may enter a
  /// given (box, input index); sources may fan out freely.
  Result<ArcId> Connect(Endpoint from, Endpoint to);
  /// Initializes all not-yet-initialized boxes in topological order,
  /// propagating schemas. Call after a batch of topology changes. With
  /// `require_all` false, boxes that cannot be initialized yet (inputs not
  /// wired) are left for a later call instead of failing — used by
  /// progressive distributed deployment.
  Status InitializeBoxes(bool require_all = true);
  bool IsBoxInitialized(BoxId box) const;

  /// Marks an arc as a connection point with historical storage (§2.2).
  Status MakeConnectionPoint(ArcId arc, const std::string& name,
                             RetentionPolicy policy);
  Result<ConnectionPoint*> GetConnectionPoint(const std::string& name);

  /// Attaches an ad hoc query at a connection point (§2.2): tuples in the
  /// retained history that satisfy `predicate` are replayed into `sink`
  /// immediately (stamped with their original timestamps), and matching
  /// live tuples follow as they pass the point. Returns a token for
  /// DetachAdHocQuery.
  Result<int> AttachAdHocQuery(const std::string& cp_name, Predicate predicate,
                               OutputCallback sink);
  Status DetachAdHocQuery(const std::string& cp_name, int token);
  /// The connection point on an arc, or nullptr. Non-owning.
  ConnectionPoint* ArcConnectionPoint(ArcId arc);

  // ---- Dynamic reconfiguration (used by box sliding/splitting) --------

  /// Chokes an arc per the stabilization protocol (§5.1): tuples already
  /// queued keep draining into the destination box, but *new* arrivals are
  /// collected in a side hold buffer instead of the consumable queue.
  Status ChokeArc(ArcId arc);
  /// Reopens the arc, moving held tuples back to the front of the flow.
  Status UnchokeArc(ArcId arc);
  bool ArcChoked(ArcId arc) const;
  /// Removes an arc. Its queue must be empty (TakeArcQueue first).
  Status DisconnectArc(ArcId arc);
  /// Removes a box. All of its arcs must have been disconnected.
  Status RemoveBox(BoxId box);
  /// Empties an arc's queue, returning the tuples (for migration).
  Result<std::vector<Tuple>> TakeArcQueue(ArcId arc);
  /// Takes the tuples collected while the arc was choked, in arrival order.
  Result<std::vector<Tuple>> TakeHeldTuples(ArcId arc);
  size_t HeldTupleCount(ArcId arc) const;
  /// Extracts a fully-disconnected box's operator *with its state* — the
  /// state-migration flavour of box sliding (Aurora*, intra-participant).
  /// The box id is retired.
  Result<OperatorPtr> ExtractBoxOperator(BoxId box);
  /// Adds an already-initialized operator (from ExtractBoxOperator on
  /// another engine). Connections must match its existing schemas.
  Result<BoxId> AdoptBoxOperator(OperatorPtr op);

  // ---- Lookup ----------------------------------------------------------

  Result<PortId> FindInput(const std::string& name) const {
    return net_.FindInput(name);
  }
  Result<PortId> FindOutput(const std::string& name) const {
    return net_.FindOutput(name);
  }
  const std::string& input_name(PortId p) const { return net_.input(p).name; }
  const std::string& output_name(PortId p) const {
    return net_.output(p).name;
  }
  SchemaPtr input_schema(PortId p) const { return net_.input(p).schema; }
  /// Arc entering (box, input index), or NotFound.
  Result<ArcId> FindArcInto(BoxId box, int input_index) const {
    return net_.FindArcInto(box, input_index);
  }
  /// All arcs leaving an endpoint. Invalidated by the next topology change;
  /// copy it before rewiring.
  std::span<const ArcId> ArcsFrom(Endpoint from) const {
    return net_.ArcsFrom(from);
  }
  std::span<const ArcId> ArcsInto(PortId output_port) const {
    return net_.ArcsInto(output_port);
  }
  Result<const OperatorSpec*> BoxSpec(BoxId box) const;
  Result<Operator*> BoxOp(BoxId box);
  std::vector<BoxId> BoxIds() const { return net_.BoxIds(); }
  Endpoint ArcFrom(ArcId arc) const { return net_.arc(arc).from; }
  Endpoint ArcTo(ArcId arc) const { return net_.arc(arc).to; }
  size_t ArcQueueSize(ArcId arc) const;
  /// Smallest non-zero sequence number among tuples queued (or held) on the
  /// arc; kNoSeqNo when none. Used by the HA truncation protocol (§6.2).
  SeqNo ArcQueueMinSeq(ArcId arc) const;
  size_t num_boxes() const { return net_.BoxIds().size(); }
  /// Copy of the callback registered on an output port (may be empty).
  OutputCallback GetOutputCallback(PortId output) const;

  // ---- QoS -------------------------------------------------------------

  Status SetOutputQoS(PortId output, QoSSpec spec);
  /// Infers the QoS spec holding on an arc by pushing output specs through
  /// the boxes between the arc and every reachable output, using measured
  /// T_B where available and per-kind cost defaults otherwise (§7.1).
  Result<QoSSpec> InferArcQoS(ArcId arc) const;
  /// Recomputes each box's latency deadline (the ms at which its inferred
  /// input-side QoS drops below 0.5 utility) for kQoSSlack scheduling.
  void RefreshQoSDeadlines();

  // ---- Data path -------------------------------------------------------

  /// `gate_ingest` applies the blocked-upstream ingestion gate (see
  /// SetIngestBlocked). Source-side injection gates; remote deliveries that
  /// already consumed transport credit must pass `false` so credited data
  /// is never dropped at the door.
  Status PushInput(PortId input, Tuple t, SimTime now, bool gate_ingest = true);
  Status PushInputByName(const std::string& name, Tuple t, SimTime now);
  void SetOutputCallback(PortId output, OutputCallback cb);
  /// Delivers a tuple directly to an output port (bypassing boxes). Used
  /// when re-injecting tuples held during a reconfiguration whose new path
  /// begins at an engine output (box sliding).
  Status EmitToOutputPort(PortId output, const Tuple& t, SimTime now);
  /// Enqueues a tuple directly onto an arc's queue. Used when re-injecting
  /// held tuples onto a rewired arc (box splitting).
  Status EnqueueOnArc(ArcId arc, Tuple t, SimTime now);

  // ---- Execution -------------------------------------------------------

  /// True when some initialized box has consumable queued input.
  bool HasWork() const;
  /// Runs one scheduler step (one box activation train, pushed downstream
  /// per train_depth). Returns simulated CPU microseconds consumed; 0.0
  /// when there was no work.
  Result<double> RunOneStep(SimTime now);
  /// Runs steps until no work remains (or `max_steps`). Time stays at
  /// `now`; intended for logical (non-simulated) processing.
  Status RunUntilQuiescent(SimTime now, int max_steps = 1 << 28);
  /// Delivers timer ticks to time-driven boxes (WSort timeouts).
  void Tick(SimTime now);
  /// Flushes a box's operator state downstream (stabilization/migration).
  Status DrainBoxState(BoxId box, SimTime now);

  /// Rebuilds the load shedder's per-input cost/utility model from current
  /// topology, measured selectivities, and output QoS specs.
  void RebuildShedderModel();

  // ---- Flow control (credit back-pressure; set by StreamNode) -----------

  /// While blocked, gated PushInput calls are rejected with Unavailable
  /// ("blocked upstream") and attributed as QoS drops — the node is out of
  /// downstream credit, so offered load must be visible to shedding/QoS
  /// instead of silently growing queues.
  void SetIngestBlocked(bool blocked);
  /// Bytes currently queued on all arcs fed by the input port (its backlog
  /// against a receive-side credit budget).
  size_t InputBacklogBytes(PortId input) const;

  // ---- Components and statistics ----------------------------------------

  // ---- Durable storage ---------------------------------------------------

  /// Wires a tiered store (not owned) under the engine: arc-queue spills
  /// write real tuple bytes through the StorageManager, existing and future
  /// connection points switch to tiered history ("cp/<name>" streams), and
  /// Tick() drives the store's background compaction.
  void AttachDurableStore(TieredStore* store);
  TieredStore* durable_store() { return durable_store_; }

  /// Drops what a process crash loses from the storage consumers: every
  /// connection point's memory tier and index. The store itself is crashed
  /// separately (TieredStore::Crash) by the owner.
  void WipeVolatileStorage();
  /// Rebuilds every bound connection point from the (re-opened) store.
  void RecoverDurableState(SimTime now);

  QoSMonitor& qos_monitor() { return qos_; }
  const QoSMonitor& qos_monitor() const { return qos_; }
  StorageManager& storage_manager() { return storage_; }
  LoadShedder& load_shedder() { return shedder_; }
  const EngineOptions& options() const { return opts_; }

  /// Cumulative simulated CPU microseconds consumed by RunOneStep.
  double total_cpu_micros() const { return total_cpu_micros_; }
  uint64_t total_activations() const { return total_activations_; }
  /// Sum of queued tuples over all arcs.
  size_t TotalQueuedTuples() const;

  /// Node id stamped on lineage spans this engine records (src/obs/trace.h);
  /// -1 for a standalone (non-distributed) engine. Set by StreamNode.
  void set_trace_node(int node) {
    trace_node_ = node;
    std::string scope = node < 0 ? "local" : "n" + std::to_string(node);
    storage_.set_scope(scope);
    qos_.set_scope(scope);
  }

 private:
  /// Runtime state beside each QueryNetwork box (same index).
  struct BoxRt {
    int rr_next_input = 0;
    /// Latency budget for tuples entering this box (kQoSSlack); +inf when
    /// no QoS-bearing output is reachable.
    double deadline_ms = 1e18;
    /// Per-box profiler series (`engine.box.n<node>.<id>:<kind>.*`),
    /// registered on the box's first activation and cached here so the
    /// activation funnel pays pointer adds, not name lookups.
    Counter* prof_activations = nullptr;
    Counter* prof_tuples = nullptr;
    Counter* prof_self_us = nullptr;
    LatencyHistogram* prof_tuple_cost_us = nullptr;
  };
  /// Runtime state beside each QueryNetwork arc (same index).
  struct ArcRt {
    bool choked = false;
    StreamQueue queue;
    std::deque<int64_t> enqueue_us;  // parallel to queue items
    /// Arrivals collected while choked (§5.1 "simply collecting any
    /// subsequent input arriving at the connection point"), with their
    /// arrival times.
    std::vector<std::pair<Tuple, int64_t>> hold;
    std::unique_ptr<ConnectionPoint> cp;
  };

  /// Delivers `n` tuples emitted to one endpoint, in emission order, to all
  /// its arcs — the one routing path (a scalar emission is a chunk of one).
  /// Per destination arc the whole chunk is applied at once: one
  /// queue-append run and one touched-dedup probe.
  /// Arc-major iteration preserves everything the gates observe: per-arc
  /// FIFO, per-output delivery order, and per-CP record order are each
  /// per-destination state. Consumes (moves from) the span.
  void RouteChunk(const Endpoint& from, Tuple* tuples, size_t n, SimTime now,
                  std::vector<BoxId>* touched);
  /// Adds what RouteChunk counted to the engine.batch.* registry counters,
  /// once per PushInput, RunOneStep, Tick and DrainBoxState: per-hop atomic
  /// adds would cost more than a chunk of one's routing.
  void PublishRouteCounts();
  void DeliverToOutput(PortId port, const Tuple& t, SimTime now);
  /// The scheduler (see docs/PERFORMANCE.md §4): one scan over the boxes
  /// picks the ready box with the largest PickKey; ties go to the first box
  /// scanned. The round-robin policies start the scan after their last
  /// pick, the others at box 0.
  Result<BoxId> PickBox(SimTime now);
  /// The policy's priority of a ready box (larger runs first): its queued
  /// tuples, its negated output distance, or its negated QoS slack; 0 under
  /// the round-robin policies, so the scan order alone decides.
  double PickKey(BoxId box, SimTime now) const;
  /// Activates one box through RunActivation (engine/activation.h), with a
  /// budget of train_size tuples (one under kTupleAtATime). Returns cost.
  double ActivateBox(BoxId box, SimTime now, std::vector<BoxId>* touched);
  /// Registers the box's profiler series on first activation.
  void EnsureBoxProfile(BoxId box_id);
  /// The box is live and initialized, and one of its in-arc queues is
  /// non-empty. A choked arc's queue still drains, so it counts; its hold
  /// buffer does not.
  bool BoxReady(BoxId box) const;
  /// Tuples queued across the box's in-arcs.
  size_t QueuedTuples(BoxId box) const;
  /// Appends `n` tuples to an arc's queue, stamped with their enqueue time.
  /// With `may_move` the span's handles are moved (last arc of a fan-out);
  /// otherwise each arc takes its own cheap COW handle copy.
  void ArcEnqueueChunk(ArcId arc, Tuple* tuples, size_t n, int64_t enqueue_us,
                       bool may_move);
  /// Runtime state of a live arc, or nullptr for a bad / removed id.
  ArcRt* LiveArc(ArcId arc);
  /// Spills queues until the resident bytes fit the memory budget; a
  /// budget of 0 means unbounded, and then this returns at once.
  void EnforceStorageBudget();
  /// Binds one arc's connection point to the durable store (no-op when no
  /// store is attached or the point is already bound).
  void BindConnectionPointStorage(ArcId arc);
  /// Walks downstream from an arc, collecting reachable outputs and the
  /// largest expected cost to each (measured T_B where available, the
  /// operator's cost default otherwise). Used by the shedder model and QoS
  /// inference.
  void WalkArc(ArcId arc, double cost_so_far_us,
               std::map<PortId, double>* outputs_cost) const;
  /// Charges a tuple dropped at `input` to every output downstream of it, so
  /// the QoS monitor's delivered fraction reflects the drop.
  void AttributeInputDrop(PortId input);

  EngineOptions opts_;
  QueryNetwork net_;
  std::vector<OutputCallback> output_callbacks_;  // per output port
  std::vector<BoxRt> boxes_;                      // per QueryNetwork box
  std::vector<ArcRt> arcs_;                       // per QueryNetwork arc
  std::map<std::string, ArcId> connection_points_;
  QoSMonitor qos_;
  StorageManager storage_;
  LoadShedder shedder_;
  int rr_next_box_ = 0;  // where the round-robin policies' next scan starts
  double total_cpu_micros_ = 0.0;
  uint64_t total_activations_ = 0;
  int trace_node_ = -1;
  bool ingest_blocked_ = false;
  TieredStore* durable_store_ = nullptr;
  // Cached registry metrics (process-wide aggregates across engines; the
  // per-output QoS series are per-engine, via QoSMonitor's prefix).
  Counter* m_tuples_in_;
  Counter* m_tuples_shed_;
  Counter* m_tuples_blocked_;
  Gauge* m_ingest_blocked_;
  Counter* m_activations_;
  Counter* m_sched_decisions_;
  LatencyHistogram* m_box_exec_us_;
  LatencyHistogram* m_queue_wait_ms_;
  Gauge* m_queue_depth_;
  // Chunked-emission accounting (see aurora_inspect --check): emitter-side
  // chunk/tuple counts, the per-arc fan-out total, and sink-side counts by
  // destination kind. Conservation: enqueued + delivered + held == fanout.
  Counter* m_batch_chunks_;
  Counter* m_batch_chunk_tuples_;
  Counter* m_batch_fanout_tuples_;
  Counter* m_batch_chunk_enqueued_;
  Counter* m_batch_chunk_delivered_;
  Counter* m_batch_chunk_held_;
  struct RouteCounts {
    uint64_t chunks = 0;
    uint64_t tuples = 0;
    uint64_t fanout = 0;
    uint64_t enqueued = 0;
    uint64_t delivered = 0;
    uint64_t held = 0;
  };
  RouteCounts route_counts_;  // not yet published; see PublishRouteCounts
  /// Dequeue scratch of the outermost running ActivateBox.
  TupleBatch batch_scratch_;
  int activation_depth_ = 0;
  Status deferred_error_;  // first error raised inside an emitter callback
};

}  // namespace aurora

#endif  // AURORA_ENGINE_AURORA_ENGINE_H_
