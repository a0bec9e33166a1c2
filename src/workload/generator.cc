#include "workload/generator.h"

#include "common/logging.h"

namespace aurora {

namespace {

class ConstantArrivals : public ArrivalProcess {
 public:
  explicit ConstantArrivals(double rate) : gap_(SimDuration::Seconds(1.0 / rate)) {}
  SimDuration NextInterarrival(Rng*) override { return gap_; }

 private:
  SimDuration gap_;
};

class PoissonArrivals : public ArrivalProcess {
 public:
  explicit PoissonArrivals(double rate) : mean_s_(1.0 / rate) {}
  SimDuration NextInterarrival(Rng* rng) override {
    return SimDuration::Seconds(rng->Exponential(mean_s_));
  }

 private:
  double mean_s_;
};

class BurstyArrivals : public ArrivalProcess {
 public:
  BurstyArrivals(double base_rate, double burst_factor, SimDuration period)
      : base_rate_(base_rate), burst_factor_(burst_factor), period_(period) {}
  SimDuration NextInterarrival(Rng* rng) override {
    double rate = in_burst_ ? base_rate_ * burst_factor_ : base_rate_;
    SimDuration gap = SimDuration::Seconds(rng->Exponential(1.0 / rate));
    phase_elapsed_ += gap;
    if (phase_elapsed_ >= period_) {
      in_burst_ = !in_burst_;
      phase_elapsed_ = SimDuration();
    }
    return gap;
  }

 private:
  double base_rate_;
  double burst_factor_;
  SimDuration period_;
  SimDuration phase_elapsed_{};
  bool in_burst_ = false;
};

class UniformIntGen : public FieldGen {
 public:
  UniformIntGen(int64_t lo, int64_t hi) : lo_(lo), hi_(hi) {}
  Value Next(Rng* rng) override { return Value(rng->UniformInt(lo_, hi_)); }

 private:
  int64_t lo_, hi_;
};

class ZipfIntGen : public FieldGen {
 public:
  ZipfIntGen(uint64_t n, double skew) : zipf_(n, skew) {}
  Value Next(Rng* rng) override {
    return Value(static_cast<int64_t>(zipf_.Sample(rng)));
  }

 private:
  ZipfGenerator zipf_;
};

class SequentialGen : public FieldGen {
 public:
  Value Next(Rng*) override { return Value(static_cast<int64_t>(next_++)); }

 private:
  int64_t next_ = 0;
};

class ChoiceGen : public FieldGen {
 public:
  explicit ChoiceGen(std::vector<std::string> options)
      : options_(std::move(options)) {}
  Value Next(Rng* rng) override {
    return Value(options_[rng->Uniform(options_.size())]);
  }

 private:
  std::vector<std::string> options_;
};

}  // namespace

std::unique_ptr<ArrivalProcess> ArrivalProcess::Constant(double rate) {
  return std::make_unique<ConstantArrivals>(rate);
}
std::unique_ptr<ArrivalProcess> ArrivalProcess::Poisson(double rate) {
  return std::make_unique<PoissonArrivals>(rate);
}
std::unique_ptr<ArrivalProcess> ArrivalProcess::Bursty(double base_rate,
                                                       double burst_factor,
                                                       SimDuration period) {
  return std::make_unique<BurstyArrivals>(base_rate, burst_factor, period);
}

std::unique_ptr<FieldGen> FieldGen::UniformInt(int64_t lo, int64_t hi) {
  return std::make_unique<UniformIntGen>(lo, hi);
}
std::unique_ptr<FieldGen> FieldGen::ZipfInt(uint64_t n, double skew) {
  return std::make_unique<ZipfIntGen>(n, skew);
}
std::unique_ptr<FieldGen> FieldGen::Sequential() {
  return std::make_unique<SequentialGen>();
}
std::unique_ptr<FieldGen> FieldGen::Choice(std::vector<std::string> options) {
  return std::make_unique<ChoiceGen>(std::move(options));
}

StreamGenerator::StreamGenerator(SchemaPtr schema,
                                 std::vector<std::unique_ptr<FieldGen>> gens,
                                 std::unique_ptr<ArrivalProcess> arrivals,
                                 uint64_t seed)
    : schema_(std::move(schema)),
      gens_(std::move(gens)),
      arrivals_(std::move(arrivals)),
      rng_(seed) {
  AURORA_CHECK(schema_->num_fields() == gens_.size())
      << "one FieldGen per schema field required";
}

Tuple StreamGenerator::Next(SimTime now) {
  Tuple::Builder row(schema_, gens_.size());
  for (auto& g : gens_) row.Append(g->Next(&rng_));
  Tuple t = row.Finish();
  t.set_timestamp(now);
  return t;
}

SimDuration StreamGenerator::NextGap() {
  return arrivals_->NextInterarrival(&rng_);
}

}  // namespace aurora
