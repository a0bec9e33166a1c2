#ifndef AURORA_ENGINE_LOAD_SHEDDER_H_
#define AURORA_ENGINE_LOAD_SHEDDER_H_

#include <map>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "engine/topology.h"
#include "qos/qos_spec.h"
#include "tuple/tuple.h"

namespace aurora {

/// Shedding strategies compared in bench_load_shedding (experiment C5).
enum class SheddingPolicy {
  /// Never drop; overload shows up as queue growth and latency collapse.
  kNone,
  /// Drop uniformly at random across all inputs, just enough to fit.
  kRandom,
  /// Drop where the marginal utility loss per CPU-microsecond recovered is
  /// smallest, per the outputs' loss-tolerance QoS graphs (§2.3, §7.1).
  kQoSAware,
  /// Semantic shedding: drop the *least valuable tuples* first, per the
  /// outputs' value-based QoS graphs (§7.1: "which measures that it prefer
  /// Aurora take" — QoS decides which tuples to drop, not just how many).
  kSemantic,
};

/// \brief Input-side load shedder (the Load Shedder of Fig. 3).
///
/// Estimates offered CPU load from per-input arrival rates and per-input
/// expected downstream processing cost; when the load exceeds the capacity
/// target, computes per-input drop probabilities according to the policy.
class LoadShedder {
 public:
  struct Options {
    SheddingPolicy policy = SheddingPolicy::kNone;
    /// CPU capacity in processing-microseconds per second of time (1e6 =
    /// one dedicated core).
    double capacity_us_per_sec = 1e6;
    /// Shed down to this fraction of capacity.
    double target_utilization = 0.9;
    /// How often drop probabilities are recomputed.
    SimDuration recompute_interval = SimDuration::Millis(100);
  };

  /// Static description of one engine input, rebuilt by the engine when
  /// topology or measured statistics change.
  struct InputInfo {
    PortId input = -1;
    /// Expected CPU microseconds consumed downstream per pushed tuple.
    double downstream_cost_us = 1.0;
    /// Aggregate slope of reachable outputs' loss-utility graphs: utility
    /// lost per unit of delivered-fraction reduction. Higher = more
    /// valuable stream.
    double utility_slope = 1.0;
    /// Outputs reachable from this input (drop attribution for QoS stats).
    std::vector<PortId> outputs;
    /// Value-based QoS (kSemantic): utility of a tuple as a function of
    /// this attribute's value; empty graph = no semantic information.
    std::string value_field;
    UtilityGraph value_graph;
    /// Index of value_field in the input's schema, resolved once at model
    /// (re)build time so the per-tuple path reads value(i) instead of
    /// scanning field names; -1 = unresolved (fall back to name lookup).
    int value_index = -1;
  };

  LoadShedder() : LoadShedder(Options()) {}
  explicit LoadShedder(Options opts) : opts_(opts), rng_(0xbadcafe) {}

  const Options& options() const { return opts_; }

  void SetInputs(std::vector<InputInfo> inputs);

  /// Per-tuple admission decision; also feeds the rate estimator. Returns
  /// true when the tuple should be dropped at the input. The tuple itself
  /// is consulted only by the semantic policy.
  bool ShouldDrop(PortId input, const Tuple& t, SimTime now);

  double drop_probability(PortId input) const;
  uint64_t total_dropped() const { return total_dropped_; }
  /// Most recent offered-load estimate, in CPU-us per second.
  double offered_load() const { return offered_load_; }

  const std::vector<InputInfo>& inputs() const { return inputs_; }

 private:
  void Recompute(SimTime now);
  /// Tracks the off->on shedding transition; the first activation trips the
  /// flight recorder ("shed_activation") with the load picture that forced
  /// it.
  void NoteDropState(SimTime now);

  Options opts_;
  Rng rng_;
  std::vector<InputInfo> inputs_;
  std::map<PortId, size_t> input_index_;
  std::vector<uint64_t> arrivals_;  // since last recompute, per input
  std::vector<double> drop_p_;
  SimTime last_recompute_{};
  bool started_ = false;
  bool shedding_ = false;
  uint64_t total_dropped_ = 0;
  double offered_load_ = 0.0;
};

}  // namespace aurora

#endif  // AURORA_ENGINE_LOAD_SHEDDER_H_
