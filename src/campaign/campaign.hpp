// o2k-campaign: deterministic sweep runner over the nine (app, model)
// binaries' worth of in-process entry points.
//
// A campaign expands one declarative grid spec — application × models ×
// simulated PE counts × host worker counts × workload parameters — into a run
// list, executes it on a bounded pool of forked worker processes, and
// streams one RunReport JSON per run into a campaign directory together
// with a manifest and an aggregate summary.
//
// The headline mechanism is warm forking: runs that differ only in
// *branchable* parameters (values the app reads through the
// o2k::common overlay after its setup marker) share the expensive setup.
// One stem process runs the common prefix on a single host worker, and at the app's checkpoint rendezvous —
// quiescence, proven fork-safe — it forks one child per branch.  Each
// child applies its parameter overlay and continues to completion; the
// stem itself continues as branch 0.  The stem also writes the snapshot
// it forked from (campaign dir, snapshots/), so any branch can later be
// re-verified with the apps' --restore replay.  Because branch values
// are only consumed after the marker, a warm branch and a cold from-t=0
// run of the same point are bit-identical in virtual time; --verify
// runs the cold controls and fails the campaign (exit 3) on any
// divergence.
#pragma once

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "rt/machine.hpp"

namespace o2k::campaign {

/// Malformed spec file or campaign usage error; the driver exits
/// kExitSpecError.  (Distinct from SnapshotError: nothing ran yet.)
class SpecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr int kExitRunFailures = 1;   ///< >= 1 run failed
inline constexpr int kExitSpecError = 2;     ///< bad spec / usage
inline constexpr int kExitDeterminism = 3;   ///< warm vs cold divergence

/// One point of the expanded grid.
struct RunUnit {
  std::string label;                            ///< unique file-name stem
  std::map<std::string, std::string> overlay;   ///< overlay key -> value
};

/// One worker process: a single cold run (units.size() == 1, warm false)
/// or a warm stem that forks units.size() - 1 children at the marker.
struct TaskGroup {
  std::string app;    ///< "nbody" | "mesh" | "dht"
  std::string model;  ///< "mp" | "shmem" | "sas"
  int p = 0;
  int workers = 1;  ///< synchronization domains (O2K_WORKERS); > 1 is cold-only
  bool warm = false;
  bool control = false;  ///< cold control of a warm unit (verify mode)
  /// The spec asked for warm forking but this point runs cold anyway
  /// (workers > 1: the pinned engine keeps pool threads alive at the fork
  /// rendezvous).  Surfaced in the manifest and warned about at launch so
  /// the demotion is never silent.
  bool warm_demoted = false;
  std::string cp_label;  ///< app's marker ("step" / "phase" / "setup")
  int cp_occurrence = 1;
  std::string group_label;
  std::map<std::string, std::string> params;  ///< fixed app parameters
  std::vector<RunUnit> units;
};

/// Parsed campaign spec (see docs in campaign.cpp / DESIGN.md section 10).
struct Spec {
  std::string app;
  std::vector<std::string> models;
  std::vector<int> procs;
  std::vector<int> workers = {1};     ///< host synchronization domains per run
  bool warm = true;
  bool verify = false;
  int jobs = 0;  ///< 0 = auto
  int warm_occurrence = 1;
  std::map<std::string, std::string> fixed;               ///< set k = v
  std::vector<std::pair<std::string, std::vector<std::string>>> sweeps;
};

/// Parse a spec file.  Throws SpecError with file/line context.
Spec parse_spec(const std::string& path);

/// Expand a spec into task groups (pure; throws SpecError on bad keys or
/// non-positive branch values).  `allow_warm` gates warm grouping (false
/// under --no-warm).
std::vector<TaskGroup> expand(const Spec& spec, bool allow_warm);

struct CampaignOptions {
  std::string spec_path;
  std::string out_dir;
  int jobs = 0;       ///< 0 = spec value or host core count
  bool no_warm = false;
  bool dry_run = false;
};

/// Run a whole campaign; returns the process exit code (0 /
/// kExitRunFailures / kExitDeterminism; spec problems throw SpecError).
int run_campaign(const CampaignOptions& opts);

}  // namespace o2k::campaign
