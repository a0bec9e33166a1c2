#include "engine/threaded_engine.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/logging.h"
#include "engine/activation.h"

namespace aurora {

// ---------------------------------------------------------------------------
// Construction / topology
// ---------------------------------------------------------------------------

ThreadedEngine::ThreadedEngine(ThreadedEngineOptions opts) : opts_(opts) {
  if (opts_.workers < 1) opts_.workers = 1;
  if (opts_.train_size < 1) opts_.train_size = 1;
  if (opts_.ring_capacity < 2) opts_.ring_capacity = 2;
  if (opts_.batch_size < 1) opts_.batch_size = 1;
  MetricsRegistry& reg = MetricsRegistry::Global();
  m_tuples_in_ = reg.GetCounter("engine.threaded.tuples_in");
  m_delivered_ = reg.GetCounter("engine.threaded.delivered");
  m_activations_ = reg.GetCounter("engine.threaded.activations");
  m_ring_full_ = reg.GetCounter("engine.threaded.ring_full_events");
  m_workers_ = reg.GetGauge("engine.threaded.workers");
  m_steals_ = reg.GetGauge("engine.threaded.steals");
  m_batch_chunks_ = reg.GetCounter("engine.threaded.batch.emitted_chunks");
  m_batch_chunk_tuples_ =
      reg.GetCounter("engine.threaded.batch.emitted_tuples");
  m_multipush_publishes_ =
      reg.GetCounter("engine.threaded.batch.multipush_publishes");
}

ThreadedEngine::~ThreadedEngine() {
  if (running()) (void)Stop();
}

Result<PortId> ThreadedEngine::AddInput(const std::string& name,
                                        SchemaPtr schema) {
  AURORA_CHECK(!frozen_) << "AddInput after Start";
  return net_.AddInput(name, std::move(schema));
}

Result<PortId> ThreadedEngine::AddOutput(const std::string& name) {
  AURORA_CHECK(!frozen_) << "AddOutput after Start";
  AURORA_ASSIGN_OR_RETURN(PortId id, net_.AddOutput(name));
  output_callbacks_.emplace_back();
  return id;
}

Result<BoxId> ThreadedEngine::AddBox(const OperatorSpec& spec) {
  AURORA_CHECK(!frozen_) << "AddBox after Start";
  return net_.AddBox(spec);
}

Result<ArcId> ThreadedEngine::Connect(Endpoint from, Endpoint to) {
  AURORA_CHECK(!frozen_) << "Connect after Start";
  return net_.Connect(from, to);
}

void ThreadedEngine::SetOutputCallback(PortId output, OutputCallback cb) {
  AURORA_CHECK(output >= 0 &&
               output < static_cast<int>(output_callbacks_.size()));
  output_callbacks_[output] = std::move(cb);
}

// ---------------------------------------------------------------------------
// Partitioning
// ---------------------------------------------------------------------------

namespace {
int FindRoot(std::vector<int>& parent, int x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];
    x = parent[x];
  }
  return x;
}
}  // namespace

void ThreadedEngine::PartitionBoxes() {
  // Weakly-connected components over box->box arcs. Boxes that only share
  // an input port are independent flows and may land on different workers.
  int n = static_cast<int>(boxes_.size());
  std::vector<int> parent(n);
  for (int i = 0; i < n; ++i) parent[i] = i;
  for (size_t i = 0; i < net_.num_arc_slots(); ++i) {
    const QueryNetwork::Arc& arc = net_.arc(static_cast<ArcId>(i));
    if (arc.from.is_box() && arc.to.is_box()) {
      int a = FindRoot(parent, arc.from.id);
      int b = FindRoot(parent, arc.to.id);
      if (a != b) parent[std::max(a, b)] = std::min(a, b);
    }
  }
  struct Component {
    int root = -1;
    double cost = 0.0;
    std::vector<int> members;
  };
  std::vector<Component> comps;
  std::vector<int> comp_of(n, -1);
  for (int i = 0; i < n; ++i) {
    int root = FindRoot(parent, i);
    if (comp_of[root] < 0) {
      comp_of[root] = static_cast<int>(comps.size());
      Component c;
      c.root = root;
      comps.push_back(std::move(c));
    }
    Component& c = comps[comp_of[root]];
    c.members.push_back(i);
    c.cost += net_.box(i).op->cost_micros_per_tuple();
  }
  // Greedy LPT: heaviest component to the least-loaded worker; determinism
  // via (cost desc, root asc) ordering and lowest-index tie-break.
  std::sort(comps.begin(), comps.end(), [](const Component& a,
                                           const Component& b) {
    if (a.cost != b.cost) return a.cost > b.cost;
    return a.root < b.root;
  });
  std::vector<double> load(static_cast<size_t>(opts_.workers), 0.0);
  for (const Component& c : comps) {
    int target = 0;
    for (int w = 1; w < opts_.workers; ++w) {
      if (load[w] < load[target]) target = w;
    }
    load[target] += c.cost;
    for (int member : c.members) boxes_[member].partition = target;
  }
}

// ---------------------------------------------------------------------------
// Start / Stop
// ---------------------------------------------------------------------------

Status ThreadedEngine::Start() {
  if (running()) return Status::FailedPrecondition("engine already running");
  AURORA_RETURN_NOT_OK(net_.InitializeBoxes());
  if (!frozen_) {
    frozen_ = true;
    boxes_ = std::vector<BoxRt>(net_.num_box_slots());
    outputs_ = std::vector<OutputRt>(net_.num_outputs());
    rings_.resize(net_.num_arc_slots());
    for (size_t i = 0; i < rings_.size(); ++i) {
      if (net_.arc(static_cast<ArcId>(i)).to.is_box()) {
        rings_[i] = std::make_unique<BoundedRing<Tuple>>(opts_.ring_capacity);
      }
    }
    PartitionBoxes();
    // Boxes nearer an output run first (the kMinOutputDistance
    // discipline), which drains rings instead of growing them.
    for (size_t i = 0; i < boxes_.size(); ++i) {
      const int dist = net_.box(static_cast<BoxId>(i)).distance_to_output;
      boxes_[i].priority = -static_cast<int64_t>(dist);
    }
  }
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    deferred_error_ = Status::OK();
  }
  m_workers_->Set(static_cast<double>(opts_.workers));
  pool_ = std::make_unique<WorkerPool>(opts_.workers);
  pool_->Start([this](int box, int worker) { RunReadyItem(box, worker); });
  return Status::OK();
}

Status ThreadedEngine::Stop() {
  if (!running()) return Status::FailedPrecondition("engine not running");
  WaitQuiescent();
  m_steals_->Set(static_cast<double>(pool_->steals()));
  pool_->Stop();
  pool_.reset();
  std::lock_guard<std::mutex> lock(error_mu_);
  Status err = deferred_error_;
  deferred_error_ = Status::OK();
  return err;
}

void ThreadedEngine::WaitQuiescent() {
  if (!running()) return;
  while (work_items_.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
#ifndef NDEBUG
  for (size_t i = 0; i < rings_.size(); ++i) {
    if (rings_[i] != nullptr) {
      const QueryNetwork::Arc& arc = net_.arc(static_cast<ArcId>(i));
      AURORA_DCHECK(rings_[i]->EmptyApprox())
          << "quiescent with tuples on arc " << arc.from.ToString() << "->"
          << arc.to.ToString();
    }
  }
#endif
}

void ThreadedEngine::DeferError(const Status& s) {
  std::lock_guard<std::mutex> lock(error_mu_);
  if (deferred_error_.ok()) deferred_error_ = s;
}

// ---------------------------------------------------------------------------
// Ready protocol
// ---------------------------------------------------------------------------

void ThreadedEngine::NotifyReady(BoxId box, int worker) {
  (void)worker;
  BoxRt& b = boxes_[box];
  uint32_t state = b.state.load(std::memory_order_relaxed);
  for (;;) {
    switch (state) {
      case kIdle:
        // acq_rel: acquire pairs with the releasing transition of the
        // previous holder (PostRun's CAS to Idle), which is the handoff
        // edge box-exclusive structures (rings, rr cursor, op state) ride.
        if (b.state.compare_exchange_weak(state, kQueued,
                                          std::memory_order_acq_rel)) {
          work_items_.fetch_add(1, std::memory_order_acq_rel);
          pool_->Submit(box, b.priority, b.partition);
          return;
        }
        break;  // state reloaded; retry
      case kQueued:
        return;  // already pending; the queued claim will see our tuple
      case kRunning:
        if (b.state.compare_exchange_weak(state, kRunningNotified,
                                          std::memory_order_acq_rel)) {
          return;  // runner must re-check before going idle
        }
        break;
      case kRunningNotified:
        return;
      default:
        AURORA_CHECK(false) << "bad box state " << state;
    }
  }
}

bool ThreadedEngine::TryClaimForHelp(BoxId box) {
  BoxRt& b = boxes_[box];
  uint32_t state = b.state.load(std::memory_order_relaxed);
  for (;;) {
    if (state == kIdle) {
      if (b.state.compare_exchange_weak(state, kRunning,
                                        std::memory_order_acq_rel)) {
        work_items_.fetch_add(1, std::memory_order_acq_rel);
        return true;
      }
    } else if (state == kQueued) {
      // Take over the queued claim; the stale ready-queue entry will fail
      // its own CAS and be skipped.
      if (b.state.compare_exchange_weak(state, kRunning,
                                        std::memory_order_acq_rel)) {
        return true;
      }
    } else {
      return false;  // running elsewhere; let it drain
    }
  }
}

void ThreadedEngine::RunReadyItem(int box, int worker) {
  BoxRt& b = boxes_[box];
  uint32_t expected = kQueued;
  // A stale entry (its claim was taken over by a helper, or an earlier
  // duplicate) fails here and is dropped.
  if (!b.state.compare_exchange_strong(expected, kRunning,
                                       std::memory_order_acq_rel)) {
    return;
  }
  RunBoxActivation(box, worker);
  PostRun(box, worker);
}

void ThreadedEngine::RunBoxActivation(BoxId box, int worker) {
  activations_.fetch_add(1, std::memory_order_relaxed);
  m_activations_->Add();
  BoxRt& b = boxes_[box];
  const QueryNetwork::Box& model = net_.box(box);
  // Stack scratch: help-on-full means a ProcessBatch emission can run a
  // downstream box's activation on this same thread, so nothing batched may
  // live in the engine or box.
  TupleBatch batch;
  BoxEmitter emitter(box, [&](const Endpoint& from, Tuple* t, size_t n) {
    RouteChunk(from, t, n, worker);
  });
  Status error;
  RunActivation(
      model.op.get(), static_cast<int>(model.in_arcs.size()),
      opts_.train_size, opts_.batch_size, batch, &emitter,
      [&]() -> int& { return b.rr_next_input; },
      [&](int input, int want, TupleBatch& out) {
        const ArcId arc = model.in_arcs[input];
        int got = 0;
        Tuple t;
        while (arc >= 0 && got < want && rings_[arc]->TryPop(&t)) {
          // Operators see `now` = the tuple's own timestamp (threaded mode
          // has no global clock; docs/THREADING.md).
          const SimTime ts = t.timestamp();
          out.Push(std::move(t), ts);
          got++;
        }
        return got;
      },
      &error);
  if (!error.ok()) DeferError(error);
}

void ThreadedEngine::PostRun(BoxId box, int worker) {
  BoxRt& b = boxes_[box];
  for (;;) {
    uint32_t state = b.state.load(std::memory_order_acquire);
    if (state == kRunningNotified || AnyInputPending(box)) {
      // Unconditional store is safe: only the claim holder may write
      // Queued/Idle, and a racing producer CAS (Running->RunningNotified)
      // either lands before (we overwrite, but we are re-queuing anyway) or
      // fails against our store and re-reads Queued.
      b.state.store(kQueued, std::memory_order_release);
      // Re-queue where it just ran (warm caches); external pushers (-1)
      // fall back to the partition owner.
      pool_->Submit(box, b.priority, worker >= 0 ? worker : b.partition);
      return;
    }
    if (b.state.compare_exchange_strong(state, kIdle,
                                        std::memory_order_acq_rel)) {
      work_items_.fetch_sub(1, std::memory_order_acq_rel);
      return;
    }
    // Notified between the load and the CAS; loop and re-queue.
  }
}

bool ThreadedEngine::AnyInputPending(BoxId box) const {
  for (ArcId arc : net_.box(box).in_arcs) {
    if (arc >= 0 && !rings_[arc]->EmptyApprox()) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Data movement
// ---------------------------------------------------------------------------

void ThreadedEngine::RouteChunk(const Endpoint& from, Tuple* tuples,
                                size_t n, int worker) {
  m_batch_chunks_->Add();
  m_batch_chunk_tuples_->Add(static_cast<uint64_t>(n));
  // The model is frozen while running, so the span outlives the callbacks.
  std::span<const ArcId> fan = net_.ArcsFrom(from);
  // The registry counters are shared by every worker; add once per route.
  uint64_t publishes = 0;
  for (size_t k = 0; k < fan.size(); ++k) {
    const Endpoint& to = net_.arc(fan[k]).to;
    if (!to.is_box()) {
      for (size_t i = 0; i < n; ++i) DeliverToOutput(to.id, tuples[i]);
    } else if (k + 1 == fan.size()) {
      publishes += EnqueueArcChunk(fan[k], tuples, n, worker);
    } else if (n == 1) {
      // COW handle copies for every branch but the last; a chunk of one (a
      // scalar emission or a pushed input) copies on the stack.
      Tuple copy = tuples[0];
      publishes += EnqueueArcChunk(fan[k], &copy, 1, worker);
    } else {
      std::vector<Tuple> copies(tuples, tuples + n);
      publishes += EnqueueArcChunk(fan[k], copies.data(), n, worker);
    }
  }
  if (publishes > 0) m_multipush_publishes_->Add(publishes);
}

size_t ThreadedEngine::EnqueueArcChunk(ArcId arc_id, Tuple* tuples,
                                       size_t n, int worker) {
  BoundedRing<Tuple>* ring = rings_[arc_id].get();
  const BoxId dest = net_.arc(arc_id).to.id;
  size_t pushed = 0;
  size_t publishes = 0;
  while (pushed < n) {
    size_t k = ring->TryPushN(tuples + pushed, n - pushed);
    if (k > 0) {
      ++publishes;
      pushed += k;
      // Notify after every published run, not just the last: if the ring
      // filled mid-chunk the producer is about to help or yield, and the
      // consumer must already be queued for the tuples just published.
      NotifyReady(dest, worker);
      if (pushed == n) break;
    }
    // Ring full: run the consumer inline until room opens. The network is
    // acyclic, so the helping chain is bounded by its depth; if the
    // consumer is running on another worker, give it time to drain. A
    // chunk larger than the ring's capacity makes progress one
    // capacity-sized run at a time.
    ring_full_events_.fetch_add(1, std::memory_order_relaxed);
    m_ring_full_->Add();
    if (TryClaimForHelp(dest)) {
      RunBoxActivation(dest, worker);
      PostRun(dest, worker);
    } else {
      std::this_thread::yield();
    }
  }
  return publishes;
}

void ThreadedEngine::DeliverToOutput(PortId output, const Tuple& t) {
  OutputRt& port = outputs_[output];
  port.delivered.fetch_add(1, std::memory_order_relaxed);
  m_delivered_->Add();
  const OutputCallback& callback = output_callbacks_[output];
  if (!callback) return;
  std::lock_guard<std::mutex> lock(port.mu);
  // Callbacks are application code: suspend the hot-path guard as the
  // single-threaded engine does.
  TupleHotPathSection::Exemption exemption;
  callback(t, t.timestamp());
}

Status ThreadedEngine::PushInput(PortId input, Tuple t, SimTime now) {
  if (!running()) return Status::FailedPrecondition("engine not running");
  AURORA_RETURN_NOT_OK(net_.CheckInputTuple(input, t));
  if (t.timestamp().micros() == 0) t.set_timestamp(now);
  tuples_in_.fetch_add(1, std::memory_order_relaxed);
  m_tuples_in_->Add();
  RouteChunk(Endpoint::InputPort(input), &t, 1, /*worker=*/-1);
  return Status::OK();
}

Status ThreadedEngine::PushInputByName(const std::string& input, Tuple t,
                                       SimTime now) {
  AURORA_ASSIGN_OR_RETURN(PortId port, FindInput(input));
  return PushInput(port, std::move(t), now);
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

int ThreadedEngine::partition_of(BoxId box) const {
  AURORA_CHECK(box >= 0 && box < static_cast<int>(boxes_.size()));
  return boxes_[box].partition;
}

uint64_t ThreadedEngine::delivered(PortId output) const {
  AURORA_CHECK(output >= 0 && output < static_cast<int>(net_.num_outputs()));
  if (outputs_.empty()) return 0;  // not started yet
  return outputs_[output].delivered.load(std::memory_order_relaxed);
}

}  // namespace aurora
