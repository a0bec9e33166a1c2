#include "ops/operator.h"

#include "common/logging.h"

namespace aurora {

Status Operator::Init(std::vector<SchemaPtr> input_schemas) {
  if (initialized_) {
    return Status::FailedPrecondition("operator already initialized");
  }
  if (static_cast<int>(input_schemas.size()) != num_inputs()) {
    return Status::InvalidArgument(
        kind() + " expects " + std::to_string(num_inputs()) + " inputs, got " +
        std::to_string(input_schemas.size()));
  }
  for (const auto& s : input_schemas) {
    if (s == nullptr) return Status::InvalidArgument("null input schema");
  }
  input_schemas_ = std::move(input_schemas);
  output_schemas_.assign(num_outputs(), nullptr);
  last_seq_.assign(num_inputs(), kNoSeqNo);
  cost_micros_ = spec_.GetDouble("cost_us", DefaultCostMicros(kind()));
  AURORA_RETURN_NOT_OK(InitImpl());
  for (int i = 0; i < num_outputs(); ++i) {
    if (output_schemas_[i] == nullptr) {
      return Status::Internal(kind() + " did not set output schema " +
                              std::to_string(i));
    }
  }
  initialized_ = true;
  return Status::OK();
}

Status Operator::Process(int input, const Tuple& t, SimTime now,
                         Emitter* emitter) {
  AURORA_DCHECK(initialized_) << "Process before Init on " << kind();
  if (input < 0 || input >= num_inputs()) {
    return Status::InvalidArgument("bad input index " + std::to_string(input));
  }
  if (t.seq() != kNoSeqNo) last_seq_[input] = t.seq();
  ++tuples_in_;
  // Unbuffered: each emission is stamped with this tuple's lineage (HA
  // seq, §6.2, and trace id) and counted for selectivity, then passed on.
  BatchEmitter stamping(emitter, &tuples_out_);
  stamping.SetCurrent(t);
  return ProcessImpl(input, t, now, &stamping);
}

Status Operator::ProcessBatch(int input, TupleBatch& batch, Emitter* emitter) {
  AURORA_DCHECK(initialized_) << "ProcessBatch before Init on " << kind();
  // A train of one is the scalar path: the ProcessImpl oracle itself.
  if (batch.size() == 1) {
    return Process(input, batch.tuple(0), batch.now(0), emitter);
  }
  if (input < 0 || input >= num_inputs()) {
    return Status::InvalidArgument("bad input index " + std::to_string(input));
  }
  BatchEmitter be(emitter, &tuples_out_);
  be.EnableBuffering(batch.size());
  Status st = ProcessBatchImpl(input, batch, &be);
  be.Flush();
  return st;
}

Status Operator::ProcessBatchImpl(int input, TupleBatch& batch,
                                  BatchEmitter* emitter) {
  Status first = Status::OK();
  for (size_t i = 0; i < batch.size(); ++i) {
    const Tuple& t = batch.tuple(i);
    NoteBatchTupleIn(input, t);
    emitter->SetCurrent(t);
    Status st = ProcessImpl(input, t, batch.now(i), emitter);
    if (!st.ok() && first.ok()) first = std::move(st);
  }
  return first;
}

void Operator::OnTick(SimTime, Emitter*) {}

void Operator::Drain(Emitter*) {}

SeqNo Operator::StatefulDependency(int) const { return kNoSeqNo; }

std::vector<SeqNo> Operator::Dependencies() const {
  std::vector<SeqNo> deps(static_cast<size_t>(num_inputs()), kNoSeqNo);
  for (int i = 0; i < num_inputs(); ++i) {
    if (HasState()) {
      SeqNo s = StatefulDependency(i);
      // A stateful box with no open state behaves like a stateless one.
      deps[i] = (s != kNoSeqNo) ? s : last_seq_[i];
    } else {
      deps[i] = last_seq_[i];
    }
  }
  return deps;
}

double DefaultCostMicros(const std::string& kind) {
  if (kind == "filter") return 1.0;
  if (kind == "map") return 2.0;
  if (kind == "union") return 0.5;
  if (kind == "wsort") return 5.0;
  if (kind == "tumble") return 3.0;
  if (kind == "xsection" || kind == "slide") return 4.0;
  if (kind == "join") return 8.0;
  if (kind == "resample") return 4.0;
  return 2.0;
}

}  // namespace aurora
