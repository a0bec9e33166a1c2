#ifndef AURORA_NET_TRANSPORT_H_
#define AURORA_NET_TRANSPORT_H_

#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "net/overlay_network.h"
#include "obs/metrics.h"

namespace aurora {

class Tuple;

/// Transport strategies compared in bench_transport (experiment C1, §4.3).
enum class TransportMode {
  /// One connection per message stream. Models the paper's rejected
  /// baseline: per-connection overhead, and bandwidth shared per-connection
  /// (equally) rather than by prescribed weights, with cross-connection
  /// interference [11].
  kPerStreamConnections,
  /// All streams multiplexed onto one connection; a weighted scheduler
  /// decides which stream uses the connection at any time (the paper's
  /// design).
  kMultiplexed,
};

struct TransportOptions {
  TransportMode mode = TransportMode::kMultiplexed;

  // ---- Tuple trains ------------------------------------------------------
  /// Max queued messages coalesced into one wire frame per dispatch; 1
  /// disables batching (legacy one-message-per-frame behavior). When a
  /// message carries a tuple_count, the budget counts tuples instead of
  /// messages, so trains target `train_size` *tuples* per frame.
  size_t train_size = 1;
  /// A partially filled train departs once its oldest message has waited
  /// this long (bounds the batching latency cost).
  SimDuration train_max_delay = SimDuration::Millis(2);

  // ---- Credit-based flow control ----------------------------------------
  /// Receiver-granted credit window per stream, in payload bytes; 0
  /// disables flow control. A stream may have at most this many payload
  /// bytes beyond the receiver's last grant outstanding.
  size_t credit_window_bytes = 0;
  /// Per-stream sequence-number duplicate suppression at the receiving
  /// StreamNode (PR 2). Exists so correctness harnesses (simcheck) can turn
  /// the mechanism off and demonstrate the duplicate-delivery violations it
  /// prevents; production configurations leave it on.
  bool stream_dedup = true;
};

/// \brief Message transport between one ordered node pair (paper §4.3).
///
/// Both modes serialize messages over the same simulated link; they differ
/// in scheduling and overhead. The multiplexed mode implements start-time
/// weighted fair queuing over per-stream queues, giving each stream its
/// prescribed share of the bottleneck; per-stream mode services connections
/// round-robin (equal shares regardless of weights) and pays interference
/// and setup overheads.
///
/// With `train_size > 1` the dispatcher coalesces consecutive same-stream
/// messages into one length-framed wire message (a *tuple train*), paying
/// the per-message header once; frames are unpacked at the receiver and the
/// delivery handler still sees one callback per original message, so FIFO
/// order and per-message sequence numbers are preserved.
///
/// With `credit_window_bytes > 0` each stream also carries credit-based
/// back-pressure: the receiver grants a cumulative byte limit (see
/// docs/FLOW_CONTROL.md) and the dispatcher refuses to put a message on the
/// wire past it. Grants are cumulative maxima, so chaos duplication cannot
/// double-spend credit and a lost grant is healed by the next one (or by a
/// credit probe carrying the sender's cumulative sent offset).
class Transport {
 public:
  using DeliveryHandler =
      std::function<void(const std::string& stream, const Message&)>;
  /// Invoked at the *receiving* node when a credit probe arrives; the
  /// argument is the sender's cumulative sent offset for the stream.
  using FlowProbeHandler =
      std::function<void(const std::string& stream, uint64_t sent_offset)>;

  Transport(Simulation* sim, OverlayNetwork* net, NodeId src, NodeId dst,
            TransportOptions opts);

  NodeId src() const { return src_; }
  NodeId dst() const { return dst_; }

  /// Declares a message stream with its bandwidth weight (from QoS or
  /// contract specifications, per the paper).
  Status RegisterStream(const std::string& name, double weight);

  /// Queues a message on the stream. Delivery order within a stream is
  /// FIFO.
  Status Send(const std::string& stream, Message msg);

  /// Tuple-span Send: serializes `n` tuples into one "tuples" data message
  /// (tuple_count = n) and queues it with a single flow/queue update, so a
  /// chunked batch emission becomes one train sub-message directly instead
  /// of n per-message bookkeeping passes. Byte-equivalent to building the
  /// message by hand and calling Send(stream, msg).
  Status Send(const std::string& stream, const Tuple* tuples, size_t n);

  /// Handler invoked (in the simulation, at the receiving node's time) for
  /// every delivered message. Trains are unpacked first: one call per
  /// original message.
  void SetDeliveryHandler(DeliveryHandler handler) {
    handler_ = std::move(handler);
  }
  void SetFlowProbeHandler(FlowProbeHandler handler) {
    probe_handler_ = std::move(handler);
  }

  // ---- Flow control -----------------------------------------------------

  /// Raises the stream's cumulative credit limit (receiver grant). Grants
  /// are monotone: a stale or duplicated grant is a no-op.
  void GrantCredit(const std::string& stream, uint64_t limit);
  /// True when the stream has consumed its whole credit window: everything
  /// enqueued so far reaches the granted limit, so the producer should stop
  /// handing the transport more data. Always false with flow control off.
  bool StreamBlocked(const std::string& stream) const;
  uint64_t credit_limit(const std::string& stream) const;
  /// Cumulative payload bytes dispatched onto the wire for the stream.
  uint64_t sent_offset(const std::string& stream) const;

  // ---- Statistics -------------------------------------------------------

  uint64_t delivered_count(const std::string& stream) const;
  uint64_t delivered_bytes(const std::string& stream) const;
  /// All bytes charged to the wire on behalf of this transport, including
  /// headers, tags, setup, interference, and flow-control probes.
  uint64_t total_wire_bytes() const { return total_wire_bytes_; }
  /// Wire bytes minus payload bytes: the overhead the mode costs.
  uint64_t overhead_bytes() const { return total_wire_bytes_ - payload_bytes_; }
  /// Wire frames dispatched (a train counts once).
  uint64_t frames_sent() const { return frames_sent_; }
  size_t queued_messages() const;
  size_t queued_bytes() const;
  size_t queued_bytes(const std::string& stream) const;
  /// Payload bytes currently queued, and their high-water mark — the
  /// quantity the credit window bounds (credit offsets count payload only).
  size_t queued_payload_bytes() const;
  size_t peak_queued_payload_bytes() const { return peak_queued_payload_; }
  uint64_t credit_stalls() const { return credit_stalls_; }

 private:
  struct StreamState {
    double weight = 1.0;
    std::deque<Message> queue;
    std::deque<int64_t> enqueue_us;  // parallel to queue; feeds queue_delay_us
    double last_finish_tag = 0.0;
    uint64_t delivered = 0;
    uint64_t delivered_bytes = 0;
    size_t queued_bytes = 0;
    size_t queued_payload = 0;
    // Flow control (cumulative payload-byte offsets; see FLOW_CONTROL.md).
    uint64_t enqueued_offset = 0;  // bytes ever handed to Send()
    uint64_t sent_offset = 0;      // bytes ever put on the wire
    uint64_t credit_limit = 0;     // receiver's cumulative grant
    bool stalled = false;          // head is past the credit limit
    int64_t stall_start_us = -1;   // when the current stall began (-1 = none)
    SimTime next_probe_at{};       // earliest next credit probe
  };

  bool flow_enabled() const { return opts_.credit_window_bytes > 0; }
  /// True when the stream's head message is larger than the whole credit
  /// window (it can never fit under any grant) and everything queued before
  /// it has been credited — the one case where dispatch may overdraw the
  /// window rather than deadlock the stream.
  bool OversizedHead(const StreamState& st) const;
  /// Head-of-line messages of `st` that fit the train budget and credit
  /// limit right now (>= 1 unless credit-stalled).
  size_t TrainLength(const StreamState& st) const;
  /// Wire size of a frame carrying the first `k` queued messages.
  size_t TrainWireSize(const StreamState& st, size_t k) const;
  /// True when the stream should dispatch now; a stream with data that must
  /// wait (filling a train) reports its deadline through `wake`.
  bool ReadyToDispatch(const std::string& name, StreamState& st,
                       SimTime* wake);
  /// If the connection is idle and work is queued, dispatches the next
  /// frame per the mode's discipline.
  void MaybeDispatch();
  void DispatchTrain(const std::string& stream, size_t k, size_t extra_bytes);
  void DeliverFrame(const std::string& stream, const Message& frame);
  /// Schedules a MaybeDispatch retry at `when` (train flush deadlines and
  /// credit/partition retries), keeping only the earliest pending wake.
  void ArmWake(SimTime when);
  void SendCreditProbe(const std::string& stream, StreamState& st);
  /// Closes the stream's current credit stall, recording the window as a
  /// trace-0 kCreditWait system span (site "credit:<stream>") so the flight
  /// recorder shows when the sender was credit-blocked.
  void NoteUnstalled(const std::string& stream, StreamState& st);

  Simulation* sim_;
  OverlayNetwork* net_;
  NodeId src_;
  NodeId dst_;
  TransportOptions opts_;
  std::map<std::string, StreamState> streams_;
  std::vector<std::string> rr_order_;  // per-stream mode round-robin
  size_t rr_next_ = 0;
  bool in_flight_ = false;
  double virtual_time_ = 0.0;
  DeliveryHandler handler_;
  FlowProbeHandler probe_handler_;
  uint64_t total_wire_bytes_ = 0;
  uint64_t payload_bytes_ = 0;
  uint64_t frames_sent_ = 0;
  uint64_t credit_stalls_ = 0;
  size_t peak_queued_payload_ = 0;
  bool wake_armed_ = false;
  SimTime wake_at_{};
  /// Encode scratch for the tuple-span Send (cleared per call, capacity
  /// kept warm).
  std::vector<uint8_t> encode_scratch_;
  // Registry mirrors: per-pair byte/message counters plus the process-wide
  // sender-side queueing-delay histogram and net.flow.* instruments.
  Counter* m_wire_bytes_;
  Counter* m_payload_bytes_;
  Counter* m_msgs_;
  LatencyHistogram* m_queue_delay_us_;
  Counter* m_flow_stalls_;
  Counter* m_flow_probes_;
  LatencyHistogram* m_train_msgs_;
  LatencyHistogram* m_train_tuples_;
  /// Guards every event and network callback this transport schedules
  /// (wakes, link-free events, frame and probe deliveries).
  Liveness liveness_;
};

}  // namespace aurora

#endif  // AURORA_NET_TRANSPORT_H_
