// Shared declarations of the o2k host benchmark driver (o2kbench).
//
// The driver measures the simulator from outside: it calls the public
// entry points of each layer and times them with host clocks, and it
// observes the runtime through a metrics::Sink of its own.  Nothing here
// feeds a virtual clock, so simulated results are those of an untraced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "apps/dht_app.hpp"
#include "apps/mesh_app.hpp"
#include "apps/nbody_app.hpp"
#include "metrics/sink.hpp"
#include "rt/machine.hpp"

namespace o2kbench {

// ---- workloads -----------------------------------------------------------

enum class App { kNbody, kMesh, kDht };

struct Workload {
  std::string name;
  App app = App::kNbody;
  int P = 64;
  o2k::apps::NbodyConfig nbody;
  o2k::apps::MeshConfig mesh;
  o2k::apps::DhtConfig dht;
};

/// The named workload with the given seed, or throws std::invalid_argument.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Run one model of the workload's application.
o2k::apps::AppReport run_model(const Workload& w, o2k::apps::Model m, o2k::rt::Machine& machine);

inline constexpr o2k::apps::Model kModels[] = {o2k::apps::Model::kMp, o2k::apps::Model::kShmem,
                                               o2k::apps::Model::kSas};

// ---- host clocks ---------------------------------------------------------

inline double now_s() {
  using clk = std::chrono::steady_clock;
  static const clk::time_point t0 = clk::now();
  return std::chrono::duration<double>(clk::now() - t0).count();
}

/// Process user+sys CPU seconds and context switches (getrusage), which
/// include every thread the process ever ran, exited ones too.
struct Usage {
  double cpu_s = 0.0;
  long vol_csw = 0;
  long invol_csw = 0;
};
Usage usage_now();

/// High-water resident set size of this process (VmHWM), in KiB.
long peak_rss_kb();

/// Samples per-thread CPU time from /proc/self/task/*/schedstat every
/// millisecond while it is running, so the transient worker threads of
/// Machine::run are seen.  The sampler's own thread is excluded.
class TaskSampler {
 public:
  TaskSampler();
  ~TaskSampler();
  TaskSampler(const TaskSampler&) = delete;
  TaskSampler& operator=(const TaskSampler&) = delete;
  /// CPU seconds each sampled thread spent since construction, taken at
  /// its last sample.  Throws std::runtime_error when /proc gave nothing.
  std::vector<double> stop();

 private:
  struct Impl;
  Impl* impl_;
};

/// Record what the process is doing (static strings only), and on SIGTERM
/// print it and exit with code 4, so a run that hangs names where it hung.
void set_stage(const char* pass, const char* step);
void install_stage_reporter();

// ---- spans ---------------------------------------------------------------

/// One host-time interval of the traced run.  `run` is the id of the model
/// run the span belongs to: a model run's own span id, shared by the spans
/// nested in it (0 outside model runs).
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::uint32_t run = 0;
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
};

class SpanLog {
 public:
  /// Open a span now; a `model_run` span becomes the run id of itself.
  std::uint32_t open(std::string name, std::uint32_t parent, bool model_run = false);
  void close(std::uint32_t id);
  void add(std::string name, std::uint32_t parent, std::uint32_t run, double start_s,
           double end_s);
  /// Write every span as one JSON document; returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// ---- the observing sink --------------------------------------------------

/// Records, per PE, the host time of every phase entry/exit and counts
/// every sink event.  Each PE's slot is touched only from that PE's fiber,
/// so no locks are needed (metrics::Sink threading contract).
class PhaseSink final : public o2k::metrics::Sink {
 public:
  explicit PhaseSink(int nprocs);

  void on_phase_begin(int pe, std::string_view name, double t_ns) override;
  void on_phase_end(int pe, std::string_view name, double t_ns) override;
  void on_counter(int pe, std::string_view name, std::uint64_t delta, double t_ns) override;
  void on_message(int pe, int src, int dst, std::uint64_t bytes, double t_ns,
                  bool in_matrix) override;
  void on_barrier(int pe, double begin_ns, double end_ns) override;

  /// Phase spans of the run: for each phase name, the k-th occurrence spans
  /// from the first PE entering its k-th instance to the last PE leaving it.
  struct PhaseSpan {
    std::string name;
    double start_s;
    double end_s;
  };
  [[nodiscard]] std::vector<PhaseSpan> phase_spans() const;
  [[nodiscard]] std::uint64_t events() const;
  [[nodiscard]] std::uint64_t barrier_events() const;

 private:
  struct Occurrence {
    double start_s;
    double end_s;
  };
  struct PhaseLog {
    const char* key;  ///< interned registry spelling: stable and unique per name
    std::string name;
    std::vector<Occurrence> occ;
  };
  struct alignas(64) PeSlot {
    std::vector<PhaseLog> phases;
    std::vector<std::pair<const char*, double>> open;
    std::uint64_t events = 0;
    std::uint64_t barriers = 0;
  };
  std::vector<PeSlot> pes_;
};

// ---- per-layer micro-timings ----------------------------------------------

/// Host timings of single public calls of each layer.  The runtime layers
/// are timed at the workload's P and W on `machine`; each application's
/// kernels at the inputs of that application's own workload with `seed`, on
/// every workload.  Each value is the median over a fixed number of
/// repetitions.  Names match BENCHMARK.json.
std::map<std::string, double> micro_timings(const Workload& w, std::uint64_t seed,
                                            o2k::rt::Machine& machine, SpanLog& spans,
                                            std::uint32_t parent);

}  // namespace o2kbench
