#ifndef AURORA_ENGINE_ACTIVATION_H_
#define AURORA_ENGINE_ACTIVATION_H_

#include <algorithm>
#include <utility>

#include "engine/topology.h"
#include "ops/operator.h"

namespace aurora {

/// \brief One box activation (paper §2.3, Fig. 3): the loop AuroraEngine and
/// ThreadedEngine both run.
///
/// The chunk rule: an activation consumes at most `budget` tuples (the train
/// size, or 1 under kTupleAtATime). Each round-robin turn over the box's
/// `n_inputs` inputs takes min(batch_size, budget left) tuples from a
/// single-input box and one tuple from a multi-input box, whose merge order
/// larger chunks would change. Each chunk is one Operator::ProcessBatch call;
/// a chunk of one runs the scalar Process, so batch_size 1 is the scalar
/// oracle, and outputs are bit-identical at every size. The activation ends
/// when the budget is spent or a whole round finds every input empty.
///
/// `cursor()` returns the box's round-robin cursor as an `int&`, and
/// `take(input, want, batch)` moves up to `want` tuples of one input into
/// the cleared `batch`, with the engine's per-tuple accounting, and returns
/// how many it moved. Both are called anew every turn: emissions inside
/// ProcessBatch may run callbacks that grow the network, so no reference
/// into the engine's per-box or per-arc arrays may live across that call.
/// The first failing ProcessBatch status goes into `*first_error` while that
/// is still OK, and the activation goes on. Returns the tuples processed.
template <class Cursor, class Take>
int RunActivation(Operator* op, int n_inputs, int budget, int batch_size,
                  TupleBatch& batch, Emitter* emitter, Cursor&& cursor,
                  Take&& take, Status* first_error) {
  const int chunk_cap = n_inputs == 1 ? std::min(budget, batch_size) : 1;
  batch.Reserve(static_cast<size_t>(chunk_cap));
  int processed = 0;
  int idle_scans = 0;
  while (processed < budget && idle_scans < n_inputs) {
    int& rr = cursor();
    const int input = rr % n_inputs;
    rr = (input + 1) % n_inputs;
    batch.Clear();
    const int got = take(input, std::min(budget - processed, chunk_cap), batch);
    if (got == 0) {
      idle_scans++;
      continue;
    }
    idle_scans = 0;
    processed += got;
    // Per-tuple operator work must use bound field indices, not Get(name).
    TupleHotPathSection hot_path;
    Status st = op->ProcessBatch(input, batch, emitter);
    if (!st.ok() && first_error->ok()) *first_error = std::move(st);
  }
  batch.Clear();  // release the last chunk's tuples now
  return processed;
}

/// \brief Routes a box's emissions: a chunk for `output` goes to
/// `route(Endpoint::BoxPort(box, output), tuples, n)`, the engine's one
/// routing path. Lineage stamping happens in the operator's emitter
/// wrappers, so a scalar emission is just a chunk of one.
template <class Route>
class BoxEmitter final : public Emitter {
 public:
  BoxEmitter(BoxId box, Route route) : box_(box), route_(std::move(route)) {}

  void Emit(int output, Tuple t) override { EmitChunk(output, &t, 1); }

  void EmitChunk(int output, Tuple* tuples, size_t n) override {
    route_(Endpoint::BoxPort(box_, output), tuples, n);
  }

 private:
  BoxId box_;
  Route route_;
};

}  // namespace aurora

#endif  // AURORA_ENGINE_ACTIVATION_H_
