#ifndef AURORA_ENGINE_THREADED_ENGINE_H_
#define AURORA_ENGINE_THREADED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/sim_time.h"
#include "engine/query_network.h"
#include "engine/worker_pool.h"
#include "obs/metrics.h"
#include "ops/operator.h"
#include "stream/ring_buffer.h"

namespace aurora {

/// Options for the threaded runtime (docs/THREADING.md).
struct ThreadedEngineOptions {
  /// Worker threads. 0 = one (the runtime never silently multiplies
  /// threads; callers opt into a width explicitly, benches sweep it).
  int workers = 1;
  /// Max tuples one box activation consumes before re-queuing itself —
  /// the train size of the single-threaded scheduler (§2.3).
  int train_size = 64;
  /// Per-arc ring capacity in tuples (rounded up to a power of two). Full
  /// rings backpressure by running the consumer inline, so this bounds
  /// memory, not correctness.
  size_t ring_capacity = 1024;
  /// Most tuples per Operator::ProcessBatch call; the chunk rule is
  /// RunActivation's (engine/activation.h).
  int batch_size = 1;
};

/// \brief Multithreaded execution runtime: an executor over the same
/// QueryNetwork AuroraEngine runs (input ports -> boxes -> output ports),
/// driven by a WorkerPool instead of the discrete-event simulation. The
/// model is frozen at the first Start, which builds the runtime state beside
/// it: one ring per box-bound arc, one claim state per box, one mutex per
/// output.
///
/// Architecture (docs/THREADING.md has the full story):
///  - Every arc is a bounded SPSC ring (stream/ring_buffer.h). Producer and
///    consumer exclusivity come from box-exclusive execution, not from the
///    ring, so boxes (and their arcs) migrate freely between workers.
///  - Each box carries an atomic state machine {Idle, Queued, Running,
///    RunningNotified}. Producers notify a box after pushing to its ring;
///    the CAS protocol guarantees a box is queued at most once and running
///    on at most one worker, while a notify that races an activation
///    (Running -> RunningNotified) forces a re-queue so no tuple is ever
///    stranded.
///  - Boxes are partitioned across workers at Start(): weakly-connected
///    components of the box graph, assigned greedily largest-first (LPT) by
///    estimated cost. Stealing covers imbalance at runtime, so the
///    partition only has to be roughly right.
///  - A full ring never blocks a producer on a slower consumer: the
///    producer claims and runs the consumer box inline ("help on full").
///    The network is acyclic, so helping terminates.
///
/// Determinism contract: per-arc FIFO order and exactly-once consumption
/// hold unconditionally, so for linear (single-input-box) networks every
/// output port sees the byte-identical row sequence the single-threaded
/// oracle produces — the property tests/check/threaded_simcheck_test.cc
/// gates on. What threading *does* reorder is documented in
/// docs/THREADING.md (cross-output interleaving, multi-input merge order,
/// wall-clock-dependent operators, scheduling-dependent metrics).
///
/// Operators run with `now` = the consumed tuple's timestamp; OnTick and
/// Drain are not driven (no wall-clock timers in threaded mode yet).
///
/// Thread contract: topology construction, Start, and Stop are
/// single-threaded. PushInput may be called concurrently for *different*
/// input ports (one thread at a time per port — each port's arcs are SPSC
/// rings whose producer side is the pushing thread). WaitQuiescent is
/// called by pushers after their pushes complete.
class ThreadedEngine {
 public:
  /// Delivery callback; called with the output's mutex held (serialized
  /// per output, concurrent across outputs) from worker threads.
  using OutputCallback = std::function<void(const Tuple&, SimTime)>;

  explicit ThreadedEngine(ThreadedEngineOptions opts = {});
  ~ThreadedEngine();

  ThreadedEngine(const ThreadedEngine&) = delete;
  ThreadedEngine& operator=(const ThreadedEngine&) = delete;

  const ThreadedEngineOptions& options() const { return opts_; }

  // --- Topology construction (before the first Start) -----------------------
  Result<PortId> AddInput(const std::string& name, SchemaPtr schema);
  Result<PortId> AddOutput(const std::string& name);
  Result<BoxId> AddBox(const OperatorSpec& spec);
  Result<ArcId> Connect(Endpoint from, Endpoint to);
  /// Fixed-point schema propagation (QueryNetwork::InitializeBoxes).
  Status InitializeBoxes(bool require_all = true) {
    return net_.InitializeBoxes(require_all);
  }
  Result<PortId> FindInput(const std::string& name) const {
    return net_.FindInput(name);
  }
  Result<PortId> FindOutput(const std::string& name) const {
    return net_.FindOutput(name);
  }
  bool IsBoxInitialized(BoxId box) const {
    return net_.IsBoxInitialized(box);
  }
  void SetOutputCallback(PortId output, OutputCallback cb);

  // --- Execution -----------------------------------------------------------
  /// Initializes the network, builds the runtime state (first call only),
  /// partitions the boxes, and launches the workers.
  Status Start();
  /// True between a successful Start and Stop.
  bool running() const { return pool_ != nullptr && pool_->started(); }

  /// Injects one tuple (timestamp defaults to `now` when unset). Applies
  /// backpressure by helping when downstream rings are full; never drops.
  Status PushInput(PortId input, Tuple t, SimTime now);
  Status PushInputByName(const std::string& input, Tuple t, SimTime now);

  /// Blocks until no box is queued or running and every ring is empty.
  /// Callers must have finished their own PushInputs first (in-flight
  /// pushes from *other* threads can re-arm work after this returns).
  void WaitQuiescent();

  /// Drains (WaitQuiescent), stops the workers, and returns the first
  /// operator error deferred during the run, if any.
  Status Stop();

  // --- Introspection -------------------------------------------------------
  int partition_of(BoxId box) const;
  uint64_t tuples_in() const {
    return tuples_in_.load(std::memory_order_relaxed);
  }
  uint64_t delivered(PortId output) const;
  uint64_t activations() const {
    return activations_.load(std::memory_order_relaxed);
  }
  /// Ready-box migrations between workers (see WorkerPool::steals).
  uint64_t steals() const { return pool_ == nullptr ? 0 : pool_->steals(); }
  /// Times a producer found a ring full and helped the consumer inline.
  uint64_t ring_full_events() const {
    return ring_full_events_.load(std::memory_order_relaxed);
  }

 private:
  /// Box activation states (the ready-protocol of docs/THREADING.md).
  enum BoxState : uint32_t {
    kIdle = 0,     ///< no pending notify; not on any ready queue
    kQueued = 1,   ///< on some worker's ready queue (or claimed for help)
    kRunning = 2,  ///< a worker is inside ActivateBox
    kRunningNotified = 3,  ///< running, and a producer notified meanwhile
  };

  /// Runtime state beside each QueryNetwork box (same index).
  struct BoxRt {
    int partition = 0;
    int64_t priority = 0;  ///< scheduler key; -distance_to_output
    std::atomic<uint32_t> state{kIdle};
    /// Round-robin cursor over the box's in-arcs; touched only by the
    /// worker that currently holds the box claim.
    int rr_next_input = 0;
  };
  /// Runtime state beside each output port (same index).
  struct OutputRt {
    std::mutex mu;  // serializes deliveries per output
    std::atomic<uint64_t> delivered{0};
  };

  /// Delivers `n` tuples leaving `from` (an input port or a box output) to
  /// every arc out of it — the one routing path for box emissions and
  /// PushInput alike. Box-bound branches take the whole span through the
  /// ring's multi-push; output branches deliver per tuple (the callback
  /// contract is per tuple). Consumes the span.
  void RouteChunk(const Endpoint& from, Tuple* tuples, size_t n, int worker);
  /// Multi-pushes the span into the arc's ring (one release store per
  /// published run), helping the consumer inline whenever the ring fills —
  /// a chunk larger than the ring degrades to repeated partial publishes
  /// with help-on-full between them, never a deadlock. Every partial
  /// publish notifies the destination before the producer yields/helps,
  /// preserving the "non-empty ring implies notified box" invariant the
  /// quiescence protocol relies on. `worker` is the calling worker id (-1
  /// for an external pusher); used as the re-queue preference. Consumes the
  /// span and returns the number of publish runs.
  size_t EnqueueArcChunk(ArcId arc, Tuple* tuples, size_t n, int worker);
  /// Marks the box ready: Idle -> Queued (+submit), Running ->
  /// RunningNotified, no-op otherwise.
  void NotifyReady(BoxId box, int worker);
  /// Claims an un-queued or queued box directly (help path). On success the
  /// box is Running and the caller must PostRun it.
  bool TryClaimForHelp(BoxId box);
  /// Activates one box through RunActivation (engine/activation.h), with a
  /// budget of train_size tuples from its in-rings. Uses only stack scratch
  /// — help-on-full can nest activations on one thread.
  void RunBoxActivation(BoxId box, int worker);
  /// Post-activation protocol: re-queue if notified or input remains, else
  /// transition to Idle and release the work item.
  void PostRun(BoxId box, int worker);
  /// WorkerPool callback: validate the claim, activate, post-run.
  void RunReadyItem(int box, int worker);

  void DeliverToOutput(PortId output, const Tuple& t);

  /// Any tuple left in any of the box's input rings?
  bool AnyInputPending(BoxId box) const;

  /// Component-based LPT assignment of boxes to workers.
  void PartitionBoxes();

  void DeferError(const Status& s);

  ThreadedEngineOptions opts_;
  QueryNetwork net_;
  std::vector<OutputCallback> output_callbacks_;  // per output port
  // Runtime state, sized once over the frozen model at the first Start.
  bool frozen_ = false;
  std::vector<BoxRt> boxes_;
  /// Per arc; nullptr for arcs into output ports.
  std::vector<std::unique_ptr<BoundedRing<Tuple>>> rings_;
  std::vector<OutputRt> outputs_;

  std::unique_ptr<WorkerPool> pool_;
  /// Boxes currently Queued or Running (in any flavor). Zero, after all
  /// pushers returned, means quiescent: every ring is empty (a worker that
  /// could still push is itself counted here).
  std::atomic<int64_t> work_items_{0};

  std::mutex error_mu_;
  Status deferred_error_;

  std::atomic<uint64_t> tuples_in_{0};
  std::atomic<uint64_t> activations_{0};
  std::atomic<uint64_t> ring_full_events_{0};

  Counter* m_tuples_in_;
  Counter* m_delivered_;
  Counter* m_activations_;
  Counter* m_ring_full_;
  Gauge* m_workers_;
  Gauge* m_steals_;
  // Chunked-emission accounting (totals are exact; see docs/THREADING.md on
  // which threaded metrics are scheduling-dependent — these are not).
  Counter* m_batch_chunks_;
  Counter* m_batch_chunk_tuples_;
  Counter* m_multipush_publishes_;
};

}  // namespace aurora

#endif  // AURORA_ENGINE_THREADED_ENGINE_H_
