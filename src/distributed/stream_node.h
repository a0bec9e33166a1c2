#ifndef AURORA_DISTRIBUTED_STREAM_NODE_H_
#define AURORA_DISTRIBUTED_STREAM_NODE_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/aurora_engine.h"
#include "net/transport.h"
#include "sim/simulation.h"

namespace aurora {

/// \brief One Aurora server in the distributed system: an AuroraEngine
/// bound to a simulated node's CPU and links.
///
/// The node schedules engine steps as simulation events — each step's
/// returned CPU cost (scaled by the node's speed) is the time until the
/// node can run again, so overload manifests as queue growth exactly as it
/// would on a real machine. Cross-node arcs are *remote bindings*: an
/// engine output whose tuples are batched, sequence-numbered, serialized,
/// and sent over the pair's Transport to an engine input on the peer.
class StreamNode {
 public:
  StreamNode(Simulation* sim, OverlayNetwork* net, NodeId id,
             EngineOptions engine_opts, TransportOptions transport_opts);

  NodeId id() const { return id_; }
  AuroraEngine& engine() { return engine_; }
  const AuroraEngine& engine() const { return engine_; }
  double speed() const { return net_->node(id_).speed; }

  /// Begins periodic engine ticks (WSort timeouts etc.), every 10 ms of
  /// simulated time.
  void Start();

  /// Scope of this node's lifetime: callbacks that other components send
  /// toward the node (e.g. routed source tuples) are wrapped in its Guard.
  const Liveness& liveness() const { return liveness_; }

  // ---- Remote arcs -------------------------------------------------------

  /// Routes the named engine output to `remote_input` on `dst`. The stream
  /// name (globally unique, caller-chosen) keys transport scheduling,
  /// duplicate suppression at `dst` and HA logs. AlreadyExists when this
  /// node already binds that name or `dst` has ever received on it.
  Status BindRemoteOutput(const std::string& output_name, StreamNode* dst,
                          const std::string& remote_input,
                          const std::string& stream_name, double weight = 1.0);
  Status UnbindRemoteOutput(const std::string& output_name);
  /// Name of the binding (== engine output name) attached to the given
  /// engine output port, or NotFound.
  Result<std::string> BindingNameForOutputPort(PortId port) const;

  /// Delivery entry point used by the transport: tracks the stream's
  /// received flow offset, delivers the payload into the stream's engine
  /// input, and re-grants credit. A message on a stream no binding ever
  /// registered here is dropped with a warning.
  void OnRemoteMessage(const std::string& stream, const Message& msg);

  /// True while some remote binding is out of credit, which pauses engine
  /// stepping and makes Inject() reject with "blocked upstream".
  bool flow_blocked() const { return flow_blocked_; }

  /// Sender-side transport toward `dst`, or nullptr if no traffic has been
  /// bound there yet. Read-only: lets tests and observability inspect queue
  /// depth and credit state without going through the metrics registry.
  const Transport* PeerTransport(NodeId dst) const {
    auto it = transports_.find(dst);
    return it == transports_.end() ? nullptr : it->second.get();
  }

  /// Pushes a batch of serialized tuples into a local engine input.
  void OnRemoteTuples(const std::string& input_name,
                      const std::vector<uint8_t>& payload);

  // ---- Data sources ------------------------------------------------------

  /// Pushes a source tuple into a local engine input (§4.2: a data source
  /// sends events to one of the nodes).
  Status Inject(const std::string& input_name, Tuple t);

  /// Ensures a processing step is scheduled.
  void Kick();

  /// Immediately sends any tuples buffered on remote bindings (used after
  /// out-of-band emissions during reconfiguration).
  void Flush() { FlushPending(); }

  // ---- Failure model -----------------------------------------------------

  /// Crashes / restores the node (pairs with OverlayNetwork::SetNodeUp).
  void SetUp(bool up);
  bool up() const { return up_; }

  /// Fail-stop crash (fault injection): goes down AND wipes the node's
  /// volatile sender state — unsent pending batches, retained output logs,
  /// and received-sequence watermarks — exactly what a real process loses.
  /// Upstream-backup recovery replays the *upstream* neighbours' logs, so
  /// the wiped state is never read again (§6.3). Returns the number of
  /// tuples lost from this node's own buffers.
  size_t Crash();

  /// Tuples dropped as duplicates by per-stream sequence tracking (chaos
  /// duplication or retransmits; see OnRemoteMessage).
  uint64_t duplicate_tuples_dropped() const { return dup_tuples_dropped_; }

  // ---- Durable storage ----------------------------------------------------

  /// Wires a tiered store (not owned) under this node: the engine's spills
  /// and connection points go durable, and every retained HA output log is
  /// mirrored to a "halog/<stream>" store stream. Crash() then also crashes
  /// the store (unsynced bytes lost) and RecoverDurableState() rebuilds CP
  /// history, output logs, and sequence counters from what survived.
  void AttachDurableStorage(TieredStore* store);
  bool has_durable_storage() const { return store_ != nullptr; }
  TieredStore* durable_store() { return store_; }

  /// Recovery after a crash+restart with durable storage: re-opens the
  /// store, rebuilds connection-point history, restores each retained
  /// binding's output log and next_seq from its halog stream, and replays
  /// the restored log downstream (receivers' dedup watermarks suppress
  /// anything they already processed — the §6.3 upstream-backup replay, fed
  /// from disk instead of from a surviving peer).
  Status RecoverDurableState();

  // ---- Invariant probes (used by src/check) -------------------------------

  /// Observes every tuple arriving on a named transport stream, *before*
  /// engine ingestion: `duplicate` is true when the per-stream dedup
  /// watermark suppressed it. Model-checking harnesses hang per-stream
  /// FIFO / exactly-once invariant checks here; unset in production.
  using DeliveryProbe = std::function<void(
      NodeId node, const std::string& stream, const Tuple& t, bool duplicate)>;
  void SetDeliveryProbe(DeliveryProbe probe) {
    delivery_probe_ = std::move(probe);
  }

  // ---- HA hooks (used by src/ha) ------------------------------------------

  /// A retained sent tuple plus its lineage: the sequence number (in the
  /// space of this node's *incoming* stream) of the earliest input tuple it
  /// was derived from. Lineage is what cascaded truncation reports upstream
  /// ("tuples whose values got determined directly or indirectly", §6.2).
  struct LogEntry {
    Tuple tuple;        // seq() is this stream's outgoing sequence number
    SeqNo lineage = kNoSeqNo;
  };

  struct RemoteBinding {
    PortId output_port = -1;
    StreamNode* dst = nullptr;
    /// This node's transport toward `dst`, which carries `stream`.
    Transport* transport = nullptr;
    std::string remote_input;
    std::string stream;
    double weight = 1.0;
    /// Next sequence number to assign on this stream (§6.2: monotonically
    /// increasing, per stream).
    SeqNo next_seq = 1;
    /// When true, sent tuples are retained in `output_log` until the
    /// downstream confirms them processed (upstream backup, Fig. 8).
    bool retain_log = false;
    std::deque<LogEntry> output_log;
    /// Schema of the logged tuples; configuration (not data), so it
    /// survives Crash() and decodes the durable log during recovery.
    SchemaPtr log_schema;
    std::vector<Tuple> pending;  // emitted this step, not yet sent
    /// When the pending buffer first hit a credit-blocked stream (-1 =
    /// not blocked). Tuples sent after a blocked spell get a kCreditWait
    /// span covering it, so latency attribution charges the wait to credit
    /// back-pressure instead of to the wire.
    int64_t blocked_since_us = -1;
    uint64_t tuples_sent = 0;
    uint64_t messages_sent = 0;
  };

  /// The durable part of a binding: its retained log and sequence counter.
  /// When a slide re-routes a binding whose consumer carried its operator
  /// state along (state migration), the replacement binding must continue
  /// the same sequence space and keep the unconfirmed log — otherwise a
  /// later failure of the destination could lose the migrated open-window
  /// contents.
  struct BindingContinuity {
    std::deque<LogEntry> output_log;
    SeqNo next_seq = 1;
  };
  Result<BindingContinuity> SnapshotBindingContinuity(
      const std::string& output_name) const;
  Status RestoreBindingContinuity(const std::string& output_name,
                                  BindingContinuity continuity);

  /// Enables upstream-backup retention on all current and future bindings.
  void RetainOutputLogs(bool retain);
  const std::map<std::string, RemoteBinding>& bindings() const {
    return bindings_;
  }
  /// The binding that carries `stream`, or nullptr.
  const RemoteBinding* BindingForStream(const std::string& stream) const;
  /// Discards logged tuples with seq <= `upto` on the stream (§6.2 queue
  /// truncation). Returns how many were discarded.
  size_t TruncateOutputLog(const std::string& stream, SeqNo upto);
  /// Tuples currently retained on the stream's output log.
  std::vector<Tuple> OutputLogSnapshot(const std::string& stream) const;
  size_t OutputLogSize(const std::string& stream) const;
  /// Smallest lineage over all retained + pending tuples of every binding:
  /// the oldest *input* tuple this node's unconfirmed outputs still depend
  /// on. kNoSeqNo when nothing is retained.
  SeqNo UnconfirmedOutputMinLineage() const;
  /// Highest sequence number delivered so far on the named incoming stream
  /// (its dedup watermark); kNoSeqNo for a stream never bound here. Each
  /// stream numbers its tuples from 1, so watermarks of two streams into
  /// one input do not compare.
  SeqNo LastReceivedSeq(const std::string& stream) const;

  // ---- Statistics ---------------------------------------------------------

  /// Fraction of time the CPU was busy over the most recent utilization
  /// window (smoothed).
  double utilization() const { return utilization_; }
  uint64_t steps_executed() const { return steps_executed_; }

 private:
  /// Receiver side of one remote arc, filled when the sender binds it and
  /// kept after an unbind (stragglers may still arrive). Flow fields: see
  /// FLOW_CONTROL.md.
  struct IncomingStream {
    PortId input_port = -1;     // the engine input the stream feeds
    StreamNode* src = nullptr;  // the sending node; grants go back to it
    /// Highest cumulative payload-byte offset received (or probed).
    uint64_t received_offset = 0;
    /// Last cumulative limit granted to the sender.
    uint64_t granted_limit = 0;
    /// Highest sequence number delivered: the stream's dedup watermark.
    /// Streams are FIFO per transport, so in normal operation sequences
    /// only grow and this never drops anything; under chaos duplication (or
    /// overtaking reorder) stale tuples are suppressed, which keeps the §6
    /// recovery invariant "only in-process tuples are redone" intact.
    SeqNo last_seq = kNoSeqNo;
  };
  using IncomingEntry = std::map<std::string, IncomingStream>::value_type;

  void ScheduleStep();
  void Step();
  void FlushPending();
  Transport* TransportTo(StreamNode* dst);
  RemoteBinding* MutableBindingForStream(const std::string& stream);
  /// Deserializes a batch and pushes it into input `port`. `stream` is the
  /// incoming stream it arrived on (null for catalog-routed tuples): its
  /// watermark suppresses duplicates by sequence number.
  void DeliverTuples(PortId port, IncomingEntry* stream,
                     const std::vector<uint8_t>& payload);
  /// Credit probe from a stalled sender: `sent_offset` is its cumulative
  /// dispatched bytes. Data lost on the wire (chaos) leaves the receiver's
  /// watermark behind the sender's; adopting the larger offset re-opens the
  /// window so the stream cannot deadlock on loss.
  void OnFlowProbe(const std::string& stream, uint64_t sent_offset);
  /// Cumulative credit grant arriving back at this (sending) node.
  void OnFlowGrant(const std::string& stream, uint64_t limit);
  bool flow_enabled() const { return transport_opts_.credit_window_bytes > 0; }
  /// Re-grants credit on the stream (flow control on) when the input
  /// backlog leaves room for more than already granted; `force` resends the
  /// current limit even when unchanged (probe replies, healing lost grants).
  void MaybeGrantCredit(const std::string& stream, IncomingStream& in,
                        bool force);
  /// Recomputes flow_blocked_ from the bindings' transport credit state and
  /// mirrors it into the engine's ingestion gate.
  void UpdateFlowBlocked();

  Simulation* sim_;
  OverlayNetwork* net_;
  NodeId id_;
  AuroraEngine engine_;
  TransportOptions transport_opts_;
  std::map<NodeId, std::unique_ptr<Transport>> transports_;
  std::map<std::string, RemoteBinding> bindings_;
  std::map<std::string, IncomingStream> incoming_;
  /// Per-node decode scratch recycled across remote batches (the encode
  /// side now lives in Transport's span Send).
  std::vector<Tuple> decode_scratch_;
  DeliveryProbe delivery_probe_;
  TieredStore* store_ = nullptr;
  std::vector<uint8_t> halog_scratch_;
  uint64_t dup_tuples_dropped_ = 0;
  bool retain_logs_ = false;
  bool step_scheduled_ = false;
  bool up_ = true;
  bool started_ = false;
  bool flow_blocked_ = false;
  /// CPU accounting: the node may not start another step before this time,
  /// enforcing its processing capacity even across idle gaps.
  SimTime busy_until_{};
  uint64_t steps_executed_ = 0;
  // Utilization accounting.
  SimTime window_start_{};
  double busy_us_in_window_ = 0.0;
  double utilization_ = 0.0;
  // Registry mirrors of cross-node traffic (process-wide totals).
  Counter* m_tuples_sent_;
  Counter* m_msgs_sent_;
  Counter* m_dup_dropped_;
  Counter* m_crash_lost_;
  Counter* m_flow_grants_;
  Counter* m_flow_granted_bytes_;
  Counter* m_halog_appends_;
  Counter* m_halog_replayed_;
  /// Guards every callback that points at this node: its tick and steps,
  /// its peers' transport deliveries and probes into it, the credit grants
  /// its receivers send back to it, and tuples routed to it by a
  /// CatalogBinding. (Its own transports guard their events the same way.)
  Liveness liveness_;
};

}  // namespace aurora

#endif  // AURORA_DISTRIBUTED_STREAM_NODE_H_
