#ifndef AURORA_WORKLOAD_GENERATOR_H_
#define AURORA_WORKLOAD_GENERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "tuple/tuple.h"

namespace aurora {

/// \brief Tuple arrival process: when does the next tuple arrive?
///
/// The paper's motivating workloads are push-based with "time varying,
/// unpredictable input rates" (§5); the bursty process reproduces the load
/// spikes that drive load management experiments.
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;
  virtual SimDuration NextInterarrival(Rng* rng) = 0;

  static std::unique_ptr<ArrivalProcess> Constant(double rate_per_sec);
  static std::unique_ptr<ArrivalProcess> Poisson(double rate_per_sec);
  /// Alternates between a base Poisson rate and `burst_factor` times that
  /// rate, dwelling `period` in each phase.
  static std::unique_ptr<ArrivalProcess> Bursty(double base_rate_per_sec,
                                                double burst_factor,
                                                SimDuration period);
};

/// Per-field value generators for synthetic streams.
class FieldGen {
 public:
  virtual ~FieldGen() = default;
  virtual Value Next(Rng* rng) = 0;

  static std::unique_ptr<FieldGen> UniformInt(int64_t lo, int64_t hi);
  /// Zipf-skewed integers over [0, n) — models skewed groupby keys, the
  /// condition under which content-based split predicates misbalance load.
  static std::unique_ptr<FieldGen> ZipfInt(uint64_t n, double skew);
  static std::unique_ptr<FieldGen> Sequential();
  static std::unique_ptr<FieldGen> Choice(std::vector<std::string> options);
};

/// \brief Synthetic stream source: a schema, one FieldGen per field, and an
/// arrival process.
class StreamGenerator {
 public:
  StreamGenerator(SchemaPtr schema, std::vector<std::unique_ptr<FieldGen>> gens,
                  std::unique_ptr<ArrivalProcess> arrivals, uint64_t seed);

  const SchemaPtr& schema() const { return schema_; }

  /// Produces the next tuple; `now` is stamped as its source timestamp and
  /// the return also advances the generator's internal next-arrival clock.
  Tuple Next(SimTime now);
  /// Interarrival gap before the next tuple.
  SimDuration NextGap();

 private:
  SchemaPtr schema_;
  std::vector<std::unique_ptr<FieldGen>> gens_;
  std::unique_ptr<ArrivalProcess> arrivals_;
  Rng rng_;
};

}  // namespace aurora

#endif  // AURORA_WORKLOAD_GENERATOR_H_
