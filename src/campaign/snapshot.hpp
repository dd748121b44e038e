// Deterministic run snapshots: write at a checkpoint rendezvous, restore by
// verified replay.
//
// A snapshot records the canonical machine state (rt::StateSink lines: PE
// clocks as exact double bits, barrier epochs, phase/counter stats, model
// world digests) captured at a named Pe::checkpoint marker, plus the run
// configuration it belongs to.  Restore does not patch memory: the
// substrate is deterministic by contract (DESIGN.md §2.2), so `--restore`
// replays the run from t=0 and *proves* at the marker that the replay
// reached the bit-identical state — any divergence (changed code, params,
// cosmic rays in the file) is reported as SnapshotMismatch with the first
// differing line.  That turns every snapshot into a regression fixture for
// whole-machine determinism, which is what lets the campaign runner fork
// warm children from a live checkpoint with confidence.
//
// Format (text, versioned, diffable):
//   o2k.snap.v1
//   app <name>\n model <name>\n nprocs <n>\n backend <word>
//   label <marker>\n occurrence <k>\n state <count>
//   <count raw StateSink lines>
//   digest <16 hex digits>          (FNV-1a over the state lines)
// `backend` is a legacy header line: the writer always writes "fibers" and
// the reader skips its value (older files may say "threads"), so
// snapshots stay portable across every build and worker count.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/lint.hpp"
#include "rt/machine.hpp"
#include "rt/state_capture.hpp"

namespace o2k::campaign {

/// IO or format problem with a snapshot file (missing, truncated, bad
/// version, wrong run configuration).  App drivers exit kExitSnapshotError.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A verified replay diverged from the snapshot — determinism violation or
/// mismatched build.  App drivers exit kExitSnapshotMismatch.
class SnapshotMismatch : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr int kExitUsage = 2;
inline constexpr int kExitSnapshotError = 12;
inline constexpr int kExitSnapshotMismatch = 13;

struct SnapshotMeta {
  std::string app;
  std::string model;
  int nprocs = 0;
  std::string label = "setup";
  int occurrence = 1;
};

struct Snapshot {
  SnapshotMeta meta;
  std::vector<std::string> state;
  std::uint64_t digest = 0;
};

/// Capture the full canonical state of the active run: per-PE clocks,
/// barrier epochs, sorted phase/counter stats, then every registered model
/// world (rt::StateRegistry).  Call only at rendezvous quiescence.
O2K_FORK_SAFE void capture_state(rt::Machine& m, rt::StateSink& sink);

/// Serialise/deserialise.  Both throw SnapshotError on any IO or format
/// problem; load re-digests the state lines and rejects a file whose
/// trailing digest disagrees (truncation/corruption detector).
O2K_FORK_SAFE void write_snapshot(const std::string& path, const Snapshot& s);
Snapshot load_snapshot(const std::string& path);

/// RAII arming of one Machine for a checkpoint write or a verified restore.
///
///   ScopedCheckpoint cp(machine, Mode::kWrite, path, meta);
///   machine.run(...);            // fires at meta.label/occurrence
///   cp.finish();                 // writes the snapshot file
///
/// In kVerify mode the constructor loads `path` (its label/occurrence
/// decide where to verify; its app/model/nprocs must match `meta` or
/// SnapshotError), the run replays from t=0, and finish() throws
/// SnapshotMismatch naming the first divergent line if the captured state
/// differs.  finish() also throws SnapshotError if the marker never fired
/// (wrong label, too few occurrences).
class ScopedCheckpoint {
 public:
  enum class Mode { kWrite, kVerify };

  ScopedCheckpoint(rt::Machine& m, Mode mode, std::string path, SnapshotMeta meta);
  ~ScopedCheckpoint();
  ScopedCheckpoint(const ScopedCheckpoint&) = delete;
  ScopedCheckpoint& operator=(const ScopedCheckpoint&) = delete;

  void finish();

 private:
  rt::Machine& machine_;
  Mode mode_;
  std::string path_;
  SnapshotMeta meta_;
  Snapshot expected_;  ///< verify mode: the loaded file
  std::vector<std::string> captured_;
  bool fired_ = false;
  bool finished_ = false;
};

}  // namespace o2k::campaign
