// Tests for o2k::metrics — ring/drop accounting, comm-matrix exactness
// against the runtimes' own byte counters, Chrome-trace export (valid JSON,
// per-track monotone timestamps), RunReport, and the guarantee that an
// attached sink never perturbs virtual time.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/nbody_app.hpp"
#include "metrics/metrics.hpp"

namespace o2k {
namespace {

using metrics::Event;
using metrics::EventKind;
using metrics::TraceCollector;
using metrics::TraceOptions;

// ---------------------------------------------------------------------------
// A minimal RFC 8259 syntax checker, enough to assert "this string is one
// well-formed JSON value".  No DOM — exporters are checked structurally via
// the collector, this only guards the serialisation itself.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control char
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos_ + static_cast<std::size_t>(i) >= s_.size() ||
                std::isxdigit(static_cast<unsigned char>(s_[pos_ + static_cast<std::size_t>(i)])) == 0) {
              return false;
            }
          }
          pos_ += 4;
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    return pos_ > start && std::isdigit(static_cast<unsigned char>(s_[pos_ - 1])) != 0;
  }
  bool literal(const char* lit) {
    const std::string l(lit);
    if (s_.compare(pos_, l.size(), l) != 0) return false;
    pos_ += l.size();
    return true;
  }
  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

apps::NbodyConfig tiny_nbody() {
  apps::NbodyConfig cfg;
  cfg.n = 256;
  cfg.steps = 1;
  return cfg;
}

// ---------------------------------------------------------------------------
// Ring buffer: overflow overwrites oldest, drops are accounted.

TEST(TraceRing, KeepsAllEventsBelowCapacity) {
  TraceCollector tc(1, TraceOptions{.ring_capacity = 8});
  for (int i = 0; i < 5; ++i) {
    tc.on_counter(0, "c", static_cast<std::uint64_t>(i), static_cast<double>(i));
  }
  EXPECT_EQ(tc.recorded(0), 5u);
  EXPECT_EQ(tc.dropped(0), 0u);
  const auto evs = tc.events(0);
  ASSERT_EQ(evs.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(evs[static_cast<std::size_t>(i)].value, static_cast<std::uint64_t>(i));
}

TEST(TraceRing, OverflowDropsOldestAndCounts) {
  TraceCollector tc(1, TraceOptions{.ring_capacity = 4});
  for (int i = 0; i < 10; ++i) {
    tc.on_counter(0, "c", static_cast<std::uint64_t>(i), static_cast<double>(i));
  }
  EXPECT_EQ(tc.recorded(0), 10u);
  EXPECT_EQ(tc.dropped(0), 6u);
  EXPECT_EQ(tc.total_dropped(), 6u);
  // Surviving events are the newest four, in chronological order.
  const auto evs = tc.events(0);
  ASSERT_EQ(evs.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(evs[i].value, 6u + i);
    EXPECT_EQ(evs[i].kind, EventKind::kCounter);
  }
}

TEST(TraceRing, CapacityZeroDisablesEventsButKeepsMatrix) {
  TraceCollector tc(2, TraceOptions{.ring_capacity = 0});
  tc.on_message(0, 0, 1, 100, 1.0, /*in_matrix=*/true);
  tc.on_phase_begin(0, "p", 0.0);
  EXPECT_TRUE(tc.events(0).empty());
  EXPECT_EQ(tc.dropped(0), tc.recorded(0));  // everything offered was dropped
  EXPECT_EQ(tc.comm_matrix().total_bytes(), 100u);  // matrix is exact regardless
}

TEST(TraceRing, DropsNeverLoseMatrixBytes) {
  // Matrix accumulation is independent of the ring: overflow must not
  // change totals.
  TraceCollector tc(2, TraceOptions{.ring_capacity = 2});
  for (int i = 0; i < 50; ++i) tc.on_message(0, 0, 1, 8, static_cast<double>(i), true);
  EXPECT_GT(tc.dropped(0), 0u);
  EXPECT_EQ(tc.comm_matrix().bytes_at(0, 1), 400u);
  EXPECT_EQ(tc.comm_matrix().msgs_at(0, 1), 50u);
}

// ---------------------------------------------------------------------------
// Comm matrix semantics.

TEST(CommMatrix, MergesSenderAndReceiverRows) {
  TraceCollector tc(3);
  tc.on_message(0, 0, 1, 100, 1.0, true);   // 0 pushes to 1 (sender canonical)
  tc.on_message(1, 0, 1, 100, 2.0, false);  // matching receive: trace-only
  tc.on_message(2, 1, 2, 64, 3.0, true);    // 2 pulls from 1 (receiver canonical)
  const auto m = tc.comm_matrix();
  EXPECT_EQ(m.bytes_at(0, 1), 100u);
  EXPECT_EQ(m.bytes_at(1, 2), 64u);
  EXPECT_EQ(m.total_bytes(), 164u);
  EXPECT_EQ(m.total_msgs(), 2u);
  EXPECT_EQ(m.row_bytes(1), 64u);
  EXPECT_EQ(m.col_bytes(1), 100u);
}

TEST(CommMatrix, CsvHasTotalsAndBothBlocks) {
  TraceCollector tc(2);
  tc.on_message(0, 0, 1, 10, 1.0, true);
  std::ostringstream os;
  tc.comm_matrix().write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("total_bytes=10"), std::string::npos);
  EXPECT_NE(csv.find("bytes[src][dst]"), std::string::npos);
  EXPECT_NE(csv.find("msgs[src][dst]"), std::string::npos);
}

// Per-model exactness: matrix totals equal the runtimes' own counters.
class CommMatrixVsCounters : public ::testing::TestWithParam<apps::Model> {};

TEST_P(CommMatrixVsCounters, TotalsMatchModelByteCounters) {
  const apps::Model model = GetParam();
  const int p = 4;
  rt::Machine machine;
  TraceCollector tc(p);
  machine.set_sink(&tc);
  const apps::AppReport rep = apps::run_nbody(model, machine, p, tiny_nbody());
  machine.set_sink(nullptr);

  const auto m = tc.comm_matrix();
  std::uint64_t expect_bytes = 0;
  switch (model) {
    case apps::Model::kMp:
      expect_bytes = rep.run.counter("mp.bytes");
      EXPECT_EQ(m.total_msgs(), rep.run.counter("mp.msgs"));
      break;
    case apps::Model::kShmem:
      expect_bytes = rep.run.counter("shmem.bytes");
      break;
    case apps::Model::kSas:
      expect_bytes = rep.run.counter("sas.remote_misses") *
                     machine.params().cache_line_bytes;
      break;
  }
  EXPECT_GT(expect_bytes, 0u);
  EXPECT_EQ(m.total_bytes(), expect_bytes);
}

INSTANTIATE_TEST_SUITE_P(AllModels, CommMatrixVsCounters,
                         ::testing::Values(apps::Model::kMp, apps::Model::kShmem,
                                           apps::Model::kSas),
                         [](const auto& info) { return apps::model_slug(info.param); });

// ---------------------------------------------------------------------------
// Chrome trace export.

TEST(ChromeTrace, JsonParsesAndTracksAreMonotone) {
  const int p = 4;
  rt::Machine machine;
  TraceCollector tc(p);
  machine.set_sink(&tc);
  apps::run_nbody(apps::Model::kMp, machine, p, tiny_nbody());
  machine.set_sink(nullptr);

  std::ostringstream os;
  metrics::write_chrome_trace(tc, os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"o2k virtual Origin2000\""), std::string::npos);

  // The format contract the exporter relies on: per PE, event timestamps
  // are monotone non-decreasing virtual time.
  for (int pe = 0; pe < p; ++pe) {
    const auto evs = tc.events(pe);
    EXPECT_FALSE(evs.empty());
    double last = -1.0;
    for (const auto& e : evs) {
      EXPECT_GE(e.t_ns, last) << "PE " << pe << " time went backwards";
      last = e.t_ns;
      if (e.kind == EventKind::kBarrier) {
        EXPECT_GE(e.t2_ns, e.t_ns);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// RunReport.

TEST(RunReport, BuildsFromRunAndSerialises) {
  const int p = 4;
  rt::Machine machine;
  TraceCollector tc(p);
  machine.set_sink(&tc);
  const apps::AppReport rep = apps::run_nbody(apps::Model::kMp, machine, p, tiny_nbody());
  machine.set_sink(nullptr);

  const metrics::RunReport rr =
      metrics::build_report(rep.run, machine.params(), "nbody", "MPI", &tc);
  EXPECT_EQ(rr.nprocs, p);
  EXPECT_DOUBLE_EQ(rr.makespan_ns, rep.run.makespan_ns);
  EXPECT_EQ(rr.comm_bytes, rep.run.counter("mp.bytes"));
  EXPECT_GT(rr.trace_events, 0u);
  EXPECT_GT(rr.phase_max("force"), 0.0);
  ASSERT_NE(rr.phase("force"), nullptr);
  EXPECT_EQ(rr.phase("force")->pes, p);
  EXPECT_EQ(rr.counter("mp.msgs"), rep.run.counter("mp.msgs"));

  std::ostringstream os;
  rr.write_json(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
  EXPECT_NE(json.find(metrics::RunReport::kSchema), std::string::npos);
}

TEST(RunReport, DerivesCommTotalsWithoutCollector) {
  const int p = 2;
  rt::Machine machine;
  const apps::AppReport rep = apps::run_nbody(apps::Model::kMp, machine, p, tiny_nbody());
  const metrics::RunReport rr =
      metrics::build_report(rep.run, machine.params(), "nbody", "MPI");
  EXPECT_EQ(rr.comm_bytes, rep.run.counter("mp.bytes"));
  EXPECT_EQ(rr.trace_events, 0u);
}

// ---------------------------------------------------------------------------
// The sink must never perturb virtual time (acceptance bar: bit-identical).

TEST(SinkNeutrality, VirtualTimesBitIdenticalWithAndWithoutSink) {
  const int p = 4;
  const auto cfg = tiny_nbody();

  rt::Machine bare;
  const apps::AppReport plain = apps::run_nbody(apps::Model::kShmem, bare, p, cfg);

  rt::Machine traced;
  TraceCollector tc(p);
  traced.set_sink(&tc);
  const apps::AppReport instrumented = apps::run_nbody(apps::Model::kShmem, traced, p, cfg);

  EXPECT_EQ(plain.run.makespan_ns, instrumented.run.makespan_ns);  // exact, not near
  ASSERT_EQ(plain.run.pe_ns.size(), instrumented.run.pe_ns.size());
  for (std::size_t i = 0; i < plain.run.pe_ns.size(); ++i) {
    EXPECT_EQ(plain.run.pe_ns[i], instrumented.run.pe_ns[i]);
  }
}

// ---------------------------------------------------------------------------
// PhaseAgg absent-PE semantics (the satellite fix in rt/phase.hpp).

TEST(PhaseAgg, AbsentPeZeroesMinAndIsCountedInPes) {
  rt::PhaseAgg agg;
  agg.add_pe(50.0);
  agg.add_pe(30.0);
  agg.finalize(/*nprocs=*/4);  // two PEs never entered the phase
  EXPECT_EQ(agg.pes, 2);
  EXPECT_DOUBLE_EQ(agg.min_ns, 0.0);
  EXPECT_DOUBLE_EQ(agg.max_ns, 50.0);
  EXPECT_DOUBLE_EQ(agg.avg_ns(4), 20.0);  // averages over all nprocs
}

TEST(PhaseAgg, AllPesPresentKeepsTrueMinimum) {
  rt::PhaseAgg agg;
  agg.add_pe(50.0);
  agg.add_pe(30.0);
  agg.finalize(2);
  EXPECT_EQ(agg.pes, 2);
  EXPECT_DOUBLE_EQ(agg.min_ns, 30.0);  // not clobbered to 0
}

TEST(PhaseAgg, PhaseSkippedBySomePeSurfacesInRunResult) {
  rt::Machine machine;
  const auto rr = machine.run(2, [](rt::Pe& pe) {
    if (pe.rank() == 0) {
      auto s = pe.phase("lonely");
      pe.advance(100.0);
    }
    pe.barrier(0.0);
  });
  const auto it = rr.phases.find("lonely");
  ASSERT_NE(it, rr.phases.end());
  EXPECT_EQ(it->second.pes, 1);
  EXPECT_DOUBLE_EQ(it->second.min_ns, 0.0);
  EXPECT_DOUBLE_EQ(it->second.max_ns, 100.0);
}

// ---------------------------------------------------------------------------
// Options plumbing.

TEST(Options, WithLabelTagsBeforeExtension) {
  metrics::Options o;
  o.trace_path = "out/trace.json";
  o.comm_path = "comm.csv";
  o.report_path = "report";
  const auto t = o.with_label("mp_p8");
  EXPECT_EQ(t.trace_path, "out/trace.mp_p8.json");
  EXPECT_EQ(t.comm_path, "comm.mp_p8.csv");
  EXPECT_EQ(t.report_path, "report.mp_p8");
  EXPECT_TRUE(metrics::Options{}.with_label("x").trace_path.empty());  // "" stays off
}

}  // namespace
}  // namespace o2k
