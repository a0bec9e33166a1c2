#include "distributed/load_daemon.h"

#include <algorithm>

#include "obs/metrics.h"

namespace aurora {

namespace {
/// Utilization above which a node tries to offload.
constexpr double kHighWater = 0.85;
/// Peers below this utilization will accept load.
constexpr double kLowWater = 0.6;
/// Fraction of link bandwidth a moved arc may consume.
constexpr double kBandwidthHeadroom = 0.8;
}  // namespace

void LoadShareDaemon::Start() {
  last_round_ = system_->sim()->Now();
  system_->sim()->SchedulePeriodic(opts_.interval, liveness_.Guard([this]() {
    RunOnce();
    return true;
  }));
}

std::vector<LoadShareDaemon::BoxLoad> LoadShareDaemon::MeasureBoxLoads(
    NodeId node) {
  std::vector<BoxLoad> loads;
  double elapsed_s =
      std::max(1e-3, (system_->sim()->Now() - last_round_).seconds());
  AuroraEngine& engine = system_->node(node).engine();
  for (const auto& [name, placed] : deployed_->boxes) {
    if (placed.node != node) continue;
    auto op = engine.BoxOp(placed.box);
    if (!op.ok()) continue;
    uint64_t in_now = (*op)->tuples_in();
    uint64_t& prev = last_tuples_in_[name];
    uint64_t delta = in_now >= prev ? in_now - prev : 0;
    prev = in_now;
    BoxLoad load;
    load.name = name;
    load.recent_cost_us =
        static_cast<double>(delta) * (*op)->cost_micros_per_tuple();
    // Rough bandwidth need of the box's input if it crossed a link: recent
    // tuple rate times a nominal wire size.
    constexpr double kNominalTupleBytes = 64.0;
    load.in_rate_bytes_per_s =
        static_cast<double>(delta) / elapsed_s * kNominalTupleBytes;
    loads.push_back(std::move(load));
  }
  std::sort(loads.begin(), loads.end(),
            [](const BoxLoad& a, const BoxLoad& b) {
              return a.recent_cost_us > b.recent_cost_us;
            });
  return loads;
}

bool LoadShareDaemon::BandwidthAllows(NodeId src, NodeId dst,
                                      double bytes_per_s) const {
  if (!opts_.bandwidth_aware) return true;
  auto link = system_->net()->GetLinkOptions(src, dst);
  if (!link.ok()) return false;
  return bytes_per_s <= link->bandwidth_bytes_per_sec * kBandwidthHeadroom;
}

int LoadShareDaemon::RunOnce() {
  rounds_++;
  SimTime now = system_->sim()->Now();
  int actions = 0;
  const size_t n = system_->num_nodes();
  for (size_t i = 0; i < n; ++i) {
    NodeId src = static_cast<NodeId>(i);
    StreamNode& src_node = system_->node(src);
    if (!src_node.up() || src_node.utilization() < kHighWater) continue;

    // Pair-wise: find the least-loaded live peer below the low-water mark.
    NodeId target = -1;
    double best_util = kLowWater;
    for (size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      StreamNode& peer = system_->node(static_cast<NodeId>(j));
      if (!peer.up()) continue;
      if (peer.utilization() < best_util) {
        best_util = peer.utilization();
        target = static_cast<NodeId>(j);
      }
    }
    if (target < 0) continue;

    std::vector<BoxLoad> loads = MeasureBoxLoads(src);
    for (const BoxLoad& load : loads) {
      if (load.recent_cost_us <= 0.0) continue;
      auto moved_it = last_moved_.find(load.name);
      if (moved_it != last_moved_.end() &&
          now - moved_it->second < opts_.cooldown) {
        continue;
      }
      const auto& placed = deployed_->boxes.at(load.name);
      auto spec = system_->node(placed.node).engine().BoxSpec(placed.box);
      if (!spec.ok()) continue;
      if (!system_->net()->NodeSupports(target, (*spec)->kind)) continue;
      if (!BandwidthAllows(src, target, load.in_rate_bytes_per_s)) continue;

      bool try_slide = opts_.action != RepartitionAction::kSplitOnly;
      if (try_slide) {
        auto result = slider_.Slide(deployed_, load.name, target,
                                    SlideMode::kStateMigration);
        if (result.ok()) {
          last_moved_[load.name] = now;
          slides_++;
          actions++;
          break;  // one action per overloaded node per round
        }
      }
      if (opts_.action != RepartitionAction::kSlideOnly &&
          !opts_.split_field.empty()) {
        SplitRequest req;
        req.box_name = load.name;
        // Alternate the hash remainder so repeated splits partition
        // differently ("half of the available streams", §5.2).
        req.partition = Predicate::HashPartition(
            opts_.split_field, 2, static_cast<uint32_t>(split_counter_ % 2));
        split_counter_++;
        req.dst_node = target;
        req.wsort_timeout_us = 10'000;
        auto result = splitter_.Split(deployed_, req);
        if (result.ok()) {
          last_moved_[load.name] = now;
          splits_++;
          actions++;
          break;
        }
      }
    }
  }
  last_round_ = now;
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("lb.rounds")->Add();
  reg.GetCounter("lb.actions")->Add(static_cast<uint64_t>(actions));
  return actions;
}

}  // namespace aurora
