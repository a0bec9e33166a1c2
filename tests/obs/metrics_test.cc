// Unit tests for the observability layer (src/obs): histogram quantile
// correctness, registry registration semantics, snapshot export, and an
// end-to-end check that the network layer's registered series match the
// layer's own statistics.
#include <gtest/gtest.h>

#include <string>

#include "net/transport.h"
#include "obs/metrics.h"
#include "tests/test_util.h"

namespace aurora {
namespace {

TEST(LatencyHistogramTest, UniformQuantiles) {
  LatencyHistogram h;
  for (int v = 1; v <= 1000; ++v) h.Record(static_cast<double>(v));

  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_DOUBLE_EQ(h.mean(), 500.5);

  // Log buckets with growth 1.15 bound relative error to ~15% before
  // interpolation; allow that.
  EXPECT_NEAR(h.Quantile(0.5), 500.0, 80.0);
  EXPECT_NEAR(h.Quantile(0.95), 950.0, 150.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 1000.0);
}

TEST(LatencyHistogramTest, QuantilesAreMonotone) {
  LatencyHistogram h;
  for (int v = 1; v <= 1000; ++v) h.Record(static_cast<double>(v * v % 977));
  double prev = 0.0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}) {
    double val = h.Quantile(q);
    EXPECT_GE(val, prev) << "quantile " << q;
    EXPECT_LE(val, h.max());
    prev = val;
  }
}

TEST(LatencyHistogramTest, ConstantDistribution) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.Record(42.0);
  // Clamping to the observed [min, max] makes every quantile exact here.
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 42.0);
  EXPECT_DOUBLE_EQ(h.mean(), 42.0);
}

TEST(LatencyHistogramTest, EmptyAndReset) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
  h.Record(3.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

// Record and RecordN remember the last value's bucket. Values alternating
// between two buckets and one below min_bound must still land in their own
// buckets. With min_bound 1 and growth 2, bucket 0 holds [0, 1), 5 falls in
// [4, 8) and 40 in [32, 64).
TEST(LatencyHistogramTest, AlternatingValuesKeepTheirBuckets) {
  LatencyHistogram h(1.0, 2.0);
  h.Record(5.0);
  h.Record(40.0);
  h.RecordN(5.0, 100);
  h.Record(0.5);
  h.RecordN(40.0, 98);
  h.Record(5.0);
  h.RecordN(0.5, 2);
  h.Record(40.0);
  EXPECT_EQ(h.count(), 205u);  // 3 x 0.5, 102 x 5, 100 x 40
  EXPECT_DOUBLE_EQ(h.sum(), 1.5 + 510.0 + 4000.0);
  EXPECT_EQ(h.min(), 0.5);
  EXPECT_EQ(h.max(), 40.0);
  // p50 is rank 103: the 100th of the 102 values in [4, 8).
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 4.0 + 4.0 * (100.0 / 102.0));
  // p99 is rank 203: the 98th of the 100 values in [32, 64).
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 40.0);  // 32 + 32 * 0.98, clamped to max
  // p1 is rank 3: the last of the 3 values below min_bound.
  EXPECT_DOUBLE_EQ(h.Quantile(0.01), 1.0);
}

TEST(MetricsRegistryTest, RegistrationReturnsStablePointers) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* c1 = reg.GetCounter("test.reg.counter");
  c1->Add(5);
  Counter* c2 = reg.GetCounter("test.reg.counter");
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(c2->value(), 5u);

  Gauge* g = reg.GetGauge("test.reg.gauge");
  g->Set(3.0);
  g->Set(1.0);
  EXPECT_EQ(reg.GetGauge("test.reg.gauge"), g);
  EXPECT_DOUBLE_EQ(g->value(), 1.0);
  EXPECT_DOUBLE_EQ(g->max(), 3.0);

  EXPECT_EQ(reg.FindCounter("test.reg.counter"), c1);
  EXPECT_EQ(reg.FindCounter("test.reg.never_registered"), nullptr);
}

TEST(MetricsRegistryTest, ResetKeepsRegistrationsAndZeroesValues) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* c = reg.GetCounter("test.reset.counter");
  LatencyHistogram* h = reg.GetHistogram("test.reset.hist");
  c->Add(7);
  h->Record(1.25);
  size_t before = reg.num_metrics();

  reg.Reset();

  EXPECT_EQ(reg.num_metrics(), before);  // registrations survive
  EXPECT_EQ(reg.GetCounter("test.reset.counter"), c);  // pointer stable
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->count(), 0u);
}

TEST(MetricsRegistryTest, SnapshotRoundTrip) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("test.snap.counter")->Add(12);
  reg.GetGauge("test.snap.gauge")->Set(2.5);
  reg.GetHistogram("test.snap.hist")->Record(10.0);

  std::string json = reg.SnapshotJson();
  EXPECT_NE(json.find("\"test.snap.counter\": 12"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.snap.gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"test.snap.hist\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);

  std::string csv = reg.SnapshotCsv();
  EXPECT_NE(csv.find("name,type,field,value"), std::string::npos);
  EXPECT_NE(csv.find("test.snap.counter,counter,value,12"), std::string::npos)
      << csv;
  EXPECT_NE(csv.find("test.snap.hist,histogram,count,1"), std::string::npos);
}

// End-to-end: a transport run registers per-link byte counters and a
// queueing-delay histogram whose quantiles are sane (the ISSUE's acceptance
// scenario, in miniature).
TEST(MetricsIntegrationTest, TransportRunPopulatesRegistry) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.Reset();

  Simulation sim;
  OverlayNetwork net(&sim);
  net.AddNode(NodeOptions{"a", 1.0, {}});
  net.AddNode(NodeOptions{"b", 1.0, {}});
  LinkOptions link;
  link.bandwidth_bytes_per_sec = 50'000;  // slow link => real queueing delay
  ASSERT_OK(net.AddLink(0, 1, link));

  TransportOptions opts;
  Transport tx(&sim, &net, 0, 1, opts);
  ASSERT_OK(tx.RegisterStream("s", 1.0));
  for (int i = 0; i < 50; ++i) {
    Message m;
    m.kind = "t";
    m.payload.resize(200);
    ASSERT_OK(tx.Send("s", std::move(m)));
  }
  sim.RunUntil(SimTime::Seconds(2));

  const Counter* bytes = reg.FindCounter("net.link.0->1.bytes");
  ASSERT_NE(bytes, nullptr);
  EXPECT_GT(bytes->value(), 0u);
  EXPECT_EQ(bytes->value(), net.LinkBytesSent(0, 1));

  const Counter* wire = reg.FindCounter("net.transport.0->1.wire_bytes");
  ASSERT_NE(wire, nullptr);
  EXPECT_EQ(wire->value(), tx.total_wire_bytes());

  const LatencyHistogram* delay =
      reg.FindHistogram("net.transport.queue_delay_us");
  ASSERT_NE(delay, nullptr);
  EXPECT_GT(delay->count(), 0u);
  EXPECT_LE(delay->Quantile(0.5), delay->Quantile(0.99));

  std::string json = reg.SnapshotJson();
  EXPECT_NE(json.find("net.link.0->1.bytes"), std::string::npos);
  EXPECT_NE(json.find("net.transport.queue_delay_us"), std::string::npos);
}

}  // namespace
}  // namespace aurora
