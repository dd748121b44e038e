// Tests for the campaign subsystem: snapshot write/verify round trips
// across host worker counts, corruption/divergence detection, spec
// parsing, grid expansion (warm grouping), and the hardened env parsing.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/dht_app.hpp"
#include "apps/mesh_app.hpp"
#include "apps/nbody_app.hpp"
#include "campaign/campaign.hpp"
#include "campaign/snapshot.hpp"
#include "exec/engine.hpp"
#include "rt/machine.hpp"

namespace o2k {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& stem) {
  return (fs::temp_directory_path() / ("o2k_test_" + stem)).string();
}

// One small run per app, sized so a round trip stays well under a second.
// `scale` perturbs the workload so a verify replay can be made to diverge.
void run_small(const std::string& app, apps::Model model, rt::Machine& m, int p,
               int scale = 0) {
  if (app == "nbody") {
    apps::NbodyConfig cfg;
    cfg.n = 192 + static_cast<std::size_t>(scale);
    cfg.steps = 2;
    apps::run_nbody(model, m, p, cfg);
  } else if (app == "mesh") {
    apps::MeshConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = 4 + scale;
    cfg.phases = 2;
    apps::run_mesh(model, m, p, cfg);
  } else {
    apps::DhtConfig cfg;
    cfg.requests = 2000 + static_cast<std::uint64_t>(scale);
    cfg.churn_every = 1000;
    apps::run_dht(model, m, p, cfg);
  }
}

const char* marker_for(const std::string& app) {
  if (app == "nbody") return "step";
  if (app == "mesh") return "phase";
  return "setup";
}

// Write a snapshot at the app's marker on `write_workers` host workers,
// then verify it by replay on `verify_workers`.  Passing proves (a) the
// rendezvous capture is deterministic and (b) snapshots are portable across
// worker counts.  P = 8 spans four nodes, so up to four domains.
void round_trip(const std::string& app, apps::Model model, int write_workers,
                int verify_workers) {
  const int p = 8;
  const std::string slug = apps::model_slug(model);
  const std::string path = temp_path("snap_" + app + "_" + slug + ".snap");
  campaign::SnapshotMeta meta;
  meta.app = app;
  meta.model = slug;
  meta.nprocs = p;
  meta.label = marker_for(app);
  meta.occurrence = 1;

  rt::Machine m;
  m.set_workers(write_workers);
  {
    campaign::ScopedCheckpoint cp(m, campaign::ScopedCheckpoint::Mode::kWrite, path, meta);
    run_small(app, model, m, p);
    cp.finish();
  }
  m.set_workers(verify_workers);
  {
    campaign::ScopedCheckpoint cp(m, campaign::ScopedCheckpoint::Mode::kVerify, path, meta);
    run_small(app, model, m, p);
    EXPECT_NO_THROW(cp.finish()) << app << "/" << slug << " replay diverged";
  }
  fs::remove(path);
}

// The *Threads round trips write and verify on four host threads (W = 4).
TEST(Snapshot, RoundTripNbodySasThreads) { round_trip("nbody", apps::Model::kSas, 4, 4); }

TEST(Snapshot, RoundTripMeshMpThreads) { round_trip("mesh", apps::Model::kMp, 4, 4); }

TEST(Snapshot, RoundTripDhtShmemThreads) { round_trip("dht", apps::Model::kShmem, 4, 4); }

TEST(Snapshot, RoundTripAcrossWorkers) {
  // Write on one worker count, verify on another: virtual time and the
  // captured state must be invariant under the domain decomposition.
  round_trip("nbody", apps::Model::kSas, 1, 4);
  round_trip("mesh", apps::Model::kMp, 4, 1);
  round_trip("dht", apps::Model::kShmem, 2, 4);
}

// The o2k.snap.v1 header keeps its `backend` line: the writer writes
// "fibers", and the reader skips the value, so files written when the
// line could also say "threads" still load and verify.
TEST(Snapshot, LegacyBackendLineIsWrittenAndIgnored) {
  const std::string path = temp_path("snap_legacy.snap");
  campaign::SnapshotMeta meta;
  meta.app = "nbody";
  meta.model = "sas";
  meta.nprocs = 2;
  meta.label = "step";

  rt::Machine m;
  {
    campaign::ScopedCheckpoint cp(m, campaign::ScopedCheckpoint::Mode::kWrite, path, meta);
    run_small("nbody", apps::Model::kSas, m, 2);
    cp.finish();
  }
  std::string text;
  {
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    text = ss.str();
  }
  const std::string written = "\nbackend fibers\n";
  const std::size_t at = text.find(written);
  ASSERT_NE(at, std::string::npos) << text.substr(0, 120);
  text.replace(at, written.size(), "\nbackend threads\n");
  std::ofstream(path) << text;
  {
    campaign::ScopedCheckpoint cp(m, campaign::ScopedCheckpoint::Mode::kVerify, path, meta);
    run_small("nbody", apps::Model::kSas, m, 2);
    EXPECT_NO_THROW(cp.finish());
  }
  fs::remove(path);
}

TEST(Snapshot, TamperedFileRejected) {
  const std::string path = temp_path("snap_tamper.snap");
  campaign::SnapshotMeta meta;
  meta.app = "nbody";
  meta.model = "sas";
  meta.nprocs = 2;
  meta.label = "step";

  rt::Machine m;
  campaign::ScopedCheckpoint cp(m, campaign::ScopedCheckpoint::Mode::kWrite, path, meta);
  run_small("nbody", apps::Model::kSas, m, 2);
  cp.finish();

  // Flip one byte in the middle of the state block; the trailing digest
  // must catch it at load time.
  std::string text;
  {
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    text = ss.str();
  }
  const std::size_t mid = text.size() / 2;
  text[mid] = text[mid] == 'a' ? 'b' : 'a';
  std::ofstream(path) << text;
  EXPECT_THROW((void)campaign::load_snapshot(path), campaign::SnapshotError);

  std::ofstream(path) << text.substr(0, mid);  // truncation
  EXPECT_THROW((void)campaign::load_snapshot(path), campaign::SnapshotError);
  fs::remove(path);
  EXPECT_THROW((void)campaign::load_snapshot(path), campaign::SnapshotError);
}

TEST(Snapshot, VerifyDetectsDivergentReplay) {
  const std::string path = temp_path("snap_diverge.snap");
  campaign::SnapshotMeta meta;
  meta.app = "nbody";
  meta.model = "sas";
  meta.nprocs = 2;
  meta.label = "step";

  rt::Machine m;
  {
    campaign::ScopedCheckpoint cp(m, campaign::ScopedCheckpoint::Mode::kWrite, path, meta);
    run_small("nbody", apps::Model::kSas, m, 2, /*scale=*/0);
    cp.finish();
  }
  {
    // Same app/model/P (meta matches) but a different workload: the replay
    // reaches the marker in a different state and must be rejected.
    campaign::ScopedCheckpoint cp(m, campaign::ScopedCheckpoint::Mode::kVerify, path, meta);
    run_small("nbody", apps::Model::kSas, m, 2, /*scale=*/64);
    EXPECT_THROW(cp.finish(), campaign::SnapshotMismatch);
  }
  fs::remove(path);
}

TEST(Snapshot, WriteFailsIfMarkerNeverFires) {
  const std::string path = temp_path("snap_nofire.snap");
  campaign::SnapshotMeta meta;
  meta.app = "nbody";
  meta.model = "sas";
  meta.nprocs = 2;
  meta.label = "no-such-marker";

  rt::Machine m;
  campaign::ScopedCheckpoint cp(m, campaign::ScopedCheckpoint::Mode::kWrite, path, meta);
  run_small("nbody", apps::Model::kSas, m, 2);
  EXPECT_THROW(cp.finish(), campaign::SnapshotError);
  EXPECT_FALSE(fs::exists(path));
}

// ---- spec parsing and expansion ----------------------------------------

std::string write_spec(const std::string& stem, const std::string& body) {
  const std::string path = temp_path(stem + ".spec");
  std::ofstream(path) << body;
  return path;
}

TEST(CampaignSpec, ParsesFullGrammar) {
  const std::string path = write_spec("spec_ok",
                                      "# comment\n"
                                      "schema o2k.campaign.v1\n"
                                      "app nbody\n"
                                      "models mp,sas\n"
                                      "p 2,4\n"
                                      "warm 1\n"
                                      "verify 1\n"
                                      "jobs 3\n"
                                      "set n = 256\n"
                                      "sweep steps = 1,2\n");
  const campaign::Spec spec = campaign::parse_spec(path);
  EXPECT_EQ(spec.app, "nbody");
  EXPECT_EQ(spec.models, (std::vector<std::string>{"mp", "sas"}));
  EXPECT_EQ(spec.procs, (std::vector<int>{2, 4}));
  EXPECT_TRUE(spec.warm);
  EXPECT_TRUE(spec.verify);
  EXPECT_EQ(spec.jobs, 3);
  EXPECT_EQ(spec.fixed.at("n"), "256");
  ASSERT_EQ(spec.sweeps.size(), 1u);
  EXPECT_EQ(spec.sweeps[0].first, "steps");
  fs::remove(path);
}

TEST(CampaignSpec, RejectsMissingSchemaAndBadDirectives) {
  const std::string no_schema = write_spec("spec_noschema", "app nbody\n");
  EXPECT_THROW((void)campaign::parse_spec(no_schema), campaign::SpecError);
  fs::remove(no_schema);

  const std::string bad_dir =
      write_spec("spec_baddir", "schema o2k.campaign.v1\napp nbody\nfrobnicate 1\n");
  EXPECT_THROW((void)campaign::parse_spec(bad_dir), campaign::SpecError);
  fs::remove(bad_dir);

  const std::string bad_p =
      write_spec("spec_badp", "schema o2k.campaign.v1\napp nbody\np 1,x\n");
  EXPECT_THROW((void)campaign::parse_spec(bad_p), campaign::SpecError);
  fs::remove(bad_p);

  EXPECT_THROW((void)campaign::parse_spec(temp_path("no_such.spec")), campaign::SpecError);
}

// There is one scheduler, so the former `exec` directive is an unknown
// directive: the runner exits 2 and names the offending line.
TEST(CampaignSpec, ExecLineIsRejected) {
  const std::string path = write_spec("spec_exec",
                                      "schema o2k.campaign.v1\n"
                                      "app nbody\n"
                                      "models sas\n"
                                      "p 2\n"
                                      "exec fibers\n");
  const std::string cmd = std::string(O2K_CAMPAIGN_BIN) + " --spec=" + path + " --out=" +
                          temp_path("campaign_exec_out") + " 2>&1";
  std::string output;
  std::FILE* p = ::popen(cmd.c_str(), "r");
  ASSERT_NE(p, nullptr);
  std::array<char, 4096> buf{};
  std::size_t n = 0;
  while ((n = std::fread(buf.data(), 1, buf.size(), p)) > 0) output.append(buf.data(), n);
  const int status = ::pclose(p);
  ASSERT_TRUE(WIFEXITED(status)) << output;
  EXPECT_EQ(WEXITSTATUS(status), campaign::kExitSpecError) << output;
  EXPECT_NE(output.find(path + ":5: unknown directive 'exec'"), std::string::npos) << output;
  fs::remove(path);
}

TEST(CampaignSpec, RejectsUnknownAndIllTypedParams) {
  // Parameter names and value types are validated against the app schema
  // at parse time, before anything runs.
  const std::string bad_key = write_spec("spec_badkey",
                                         "schema o2k.campaign.v1\n"
                                         "app nbody\n"
                                         "models sas\n"
                                         "p 2\n"
                                         "set bogus = 1\n");
  EXPECT_THROW((void)campaign::parse_spec(bad_key), campaign::SpecError);
  fs::remove(bad_key);

  const std::string bad_val = write_spec("spec_badval",
                                         "schema o2k.campaign.v1\n"
                                         "app nbody\n"
                                         "models sas\n"
                                         "p 2\n"
                                         "set steps = lots\n");
  EXPECT_THROW((void)campaign::parse_spec(bad_val), campaign::SpecError);
  fs::remove(bad_val);
}

TEST(CampaignSpec, WarmGroupsBranchableSweeps) {
  const std::string path = write_spec("spec_warm",
                                      "schema o2k.campaign.v1\n"
                                      "app nbody\n"
                                      "models sas\n"
                                      "p 2\n"
                                      "sweep steps = 1,2,3\n");
  const campaign::Spec spec = campaign::parse_spec(path);

  const auto warm = campaign::expand(spec, /*allow_warm=*/true);
  ASSERT_EQ(warm.size(), 1u);
  EXPECT_TRUE(warm[0].warm);
  EXPECT_EQ(warm[0].units.size(), 3u);
  EXPECT_EQ(warm[0].cp_label, "step");
  for (const auto& u : warm[0].units) EXPECT_EQ(u.overlay.count("nbody.steps"), 1u);

  // Warm forking disabled (--no-warm): same grid, all cold singleton groups.
  const auto cold = campaign::expand(spec, /*allow_warm=*/false);
  EXPECT_EQ(cold.size(), 3u);
  for (const auto& g : cold) {
    EXPECT_FALSE(g.warm);
    EXPECT_EQ(g.units.size(), 1u);
  }
  fs::remove(path);
}

TEST(CampaignSpec, WorkersAxisExpandsColdOnly) {
  const std::string path = write_spec("spec_workers",
                                      "schema o2k.campaign.v1\n"
                                      "app nbody\n"
                                      "models sas\n"
                                      "p 8\n"
                                      "workers 1,4\n"
                                      "sweep steps = 1,2\n");
  const campaign::Spec spec = campaign::parse_spec(path);
  EXPECT_EQ(spec.workers, (std::vector<int>{1, 4}));

  // workers=1 points warm-group as before; workers=4 points always run
  // cold (the engine's pool threads make the rendezvous unsafe to fork)
  // and carry a .w4 label segment.
  const auto groups = campaign::expand(spec, /*allow_warm=*/true);
  int warm_groups = 0, w4_cold = 0;
  for (const auto& g : groups) {
    if (g.warm) {
      ++warm_groups;
      EXPECT_EQ(g.workers, 1);
    }
    if (g.workers == 4) {
      ++w4_cold;
      EXPECT_FALSE(g.warm);
      EXPECT_NE(g.group_label.find(".w4"), std::string::npos) << g.group_label;
    }
  }
  EXPECT_EQ(warm_groups, 1);
  EXPECT_EQ(w4_cold, 2);  // one cold group per swept branch value
  fs::remove(path);

  // More domains than PEs is a spec error, caught before anything runs.
  const std::string bad = write_spec("spec_workers_bad",
                                     "schema o2k.campaign.v1\n"
                                     "app nbody\n"
                                     "models sas\n"
                                     "p 2\n"
                                     "workers 4\n");
  EXPECT_THROW((void)campaign::expand(campaign::parse_spec(bad), true), campaign::SpecError);
  fs::remove(bad);
}

TEST(CampaignSpec, VerifyAddsColdControls) {
  const std::string path = write_spec("spec_verify",
                                      "schema o2k.campaign.v1\n"
                                      "app nbody\n"
                                      "models sas\n"
                                      "p 2\n"
                                      "verify 1\n"
                                      "sweep steps = 1,2\n");
  const campaign::Spec spec = campaign::parse_spec(path);
  const auto groups = campaign::expand(spec, /*allow_warm=*/true);
  int warm_groups = 0, controls = 0;
  for (const auto& g : groups) {
    warm_groups += g.warm;
    controls += g.control;
  }
  EXPECT_EQ(warm_groups, 1);
  EXPECT_EQ(controls, 2);  // one cold control per warm unit
  fs::remove(path);
}

// ---- hardened env resolution -------------------------------------------

TEST(ExecEnv, StackBytesFallsBackOnJunk) {
  ::setenv("O2K_EXEC_STACK_KB", "64MB", 1);
  EXPECT_EQ(exec::resolved_stack_bytes(), std::size_t{1024} * 1024);
  ::setenv("O2K_EXEC_STACK_KB", "0", 1);  // below the 16 KiB floor
  EXPECT_EQ(exec::resolved_stack_bytes(), std::size_t{1024} * 1024);
  ::setenv("O2K_EXEC_STACK_KB", "256", 1);
  EXPECT_EQ(exec::resolved_stack_bytes(), std::size_t{256} * 1024);
  ::unsetenv("O2K_EXEC_STACK_KB");
}

TEST(ExecEnv, WorkersFallBackOnJunk) {
  rt::Machine m;
  ::unsetenv("O2K_WORKERS");
  m.run(8, [](rt::Pe&) {});
  const int fallback = m.workers();  // min(nodes, hardware threads)
  ::setenv("O2K_WORKERS", "not-a-number", 1);
  m.run(8, [](rt::Pe&) {});
  EXPECT_EQ(m.workers(), fallback);
  ::setenv("O2K_WORKERS", "2", 1);
  m.run(8, [](rt::Pe&) {});
  EXPECT_EQ(m.workers(), 2);
  m.run(1, [](rt::Pe&) {});
  EXPECT_EQ(m.workers(), 1);  // clamped to nprocs
  ::unsetenv("O2K_WORKERS");
}

}  // namespace
}  // namespace o2k
