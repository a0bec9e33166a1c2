#include "ha/process_pair.h"

namespace aurora {

uint64_t ProcessPairModel::ProcessedSoFar() const {
  uint64_t total = 0;
  AuroraEngine& engine = system_->node(primary_).engine();
  for (BoxId id : engine.BoxIds()) {
    auto op = engine.BoxOp(id);
    if (op.ok()) total += (*op)->tuples_in();
  }
  return total;
}

void ProcessPairModel::Start(SimDuration poll) {
  system_->sim()->SchedulePeriodic(poll, liveness_.Guard([this]() {
    uint64_t now_processed = ProcessedSoFar();
    uint64_t delta = now_processed - last_seen_;
    last_seen_ = now_processed;
    if (delta == 0) return true;
    checkpoint_messages_ += delta;
    // Checkpoints ride the overlay like any other traffic; batch them into
    // one message per poll to keep event counts sane, sized as the sum of
    // the individual checkpoints.
    Message msg;
    msg.kind = "pp:checkpoint";
    msg.payload.resize(static_cast<size_t>(delta) * bytes_per_tuple_);
    (void)system_->net()->Send(primary_, backup_, std::move(msg), nullptr);
    return true;
  }));
}

}  // namespace aurora
