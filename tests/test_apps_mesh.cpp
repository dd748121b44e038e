// Integration tests: dynamic remeshing under MP, SHMEM and CC-SAS must
// produce the *identical* adapted mesh (deterministic geometry), and the
// PLUM machinery must behave as designed.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <future>
#include <string>
#include <vector>

#include "apps/main/app_main.hpp"
#include "apps/mesh_app.hpp"

namespace o2k::apps {
namespace {

MeshConfig small_cfg() {
  MeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 5;
  cfg.phases = 2;
  return cfg;
}

rt::Machine& machine() {
  static rt::Machine m;
  return m;
}

TEST(MeshSerial, RefinesAndConservesVolume) {
  const auto cfg = small_cfg();
  const auto rep = run_mesh_serial(cfg);
  EXPECT_GT(rep.check("tets"), 6.0 * 5 * 5 * 5);  // refinement happened
  EXPECT_NEAR(rep.check("volume"), 125.0, 1e-6);
  EXPECT_GT(rep.run.counter("mesh.refined"), 0u);
  EXPECT_GT(rep.run.phase_max("solve"), 0.0);
  EXPECT_GT(rep.run.phase_max("refine"), 0.0);
}

struct Case {
  Model model;
  int procs;
};

class MeshModels : public ::testing::TestWithParam<Case> {};

TEST_P(MeshModels, IdenticalMeshAcrossModels) {
  const auto [model, procs] = GetParam();
  const auto cfg = small_cfg();
  const auto serial = run_mesh_serial(cfg);
  const auto rep = run_mesh(model, machine(), procs, cfg);
  EXPECT_DOUBLE_EQ(rep.check("tets"), serial.check("tets"));
  EXPECT_NEAR(rep.check("volume"), serial.check("volume"), 1e-6);
}

TEST_P(MeshModels, SimulatedTimeReproducible) {
  const auto [model, procs] = GetParam();
  const auto r1 = run_mesh(model, machine(), procs, small_cfg());
  const auto r2 = run_mesh(model, machine(), procs, small_cfg());
  // Bit-exact for every model, CC-SAS included: the remesher's cross-PE
  // updates are order-independent RMWs charged at each edge's home slot and
  // its vertex/tet ids come from per-PE prefix ranges, so neither the data
  // layout nor any charge depends on host interleaving.
  EXPECT_DOUBLE_EQ(r1.run.makespan_ns, r2.run.makespan_ns);
  EXPECT_EQ(r1.checks, r2.checks);
}

TEST_P(MeshModels, PhaseStructureMatchesModel) {
  const auto [model, procs] = GetParam();
  const auto rep = run_mesh(model, machine(), procs, small_cfg());
  EXPECT_GT(rep.run.phase_max("mark"), 0.0);
  EXPECT_GT(rep.run.phase_max("closure"), 0.0);
  EXPECT_GT(rep.run.phase_max("refine"), 0.0);
  if (model == Model::kSas) {
    // The shared-memory code has no balance/remap phases at all.
    EXPECT_DOUBLE_EQ(rep.run.phase_max("balance"), 0.0);
    EXPECT_DOUBLE_EQ(rep.run.phase_max("remap"), 0.0);
  } else if (procs > 1) {
    EXPECT_GT(rep.run.phase_max("balance"), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndProcs, MeshModels,
    ::testing::Values(Case{Model::kMp, 1}, Case{Model::kMp, 4}, Case{Model::kMp, 8},
                      Case{Model::kShmem, 1}, Case{Model::kShmem, 4}, Case{Model::kShmem, 8},
                      Case{Model::kSas, 1}, Case{Model::kSas, 4}, Case{Model::kSas, 8}),
    [](const auto& info) {
      std::string name = model_name(info.param.model);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name + "_P" + std::to_string(info.param.procs);
    });

class MeshScaling : public ::testing::TestWithParam<Model> {};

TEST_P(MeshScaling, ParallelBeatsSerial) {
  const Model model = GetParam();
  MeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 8;
  cfg.phases = 2;
  const auto serial = run_mesh_serial(cfg);
  const auto par = run_mesh(model, machine(), 8, cfg);
  EXPECT_LT(par.run.makespan_ns, serial.run.makespan_ns);
}

INSTANTIATE_TEST_SUITE_P(Models, MeshScaling,
                         ::testing::Values(Model::kMp, Model::kShmem, Model::kSas),
                         [](const auto& info) {
                           std::string name = model_name(info.param);
                           name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
                           return name;
                         });

TEST(MeshPlum, BalancerReducesSolveImbalance) {
  MeshConfig with = small_cfg();
  with.phases = 3;
  with.use_plum = true;
  with.policy = plum::RemapPolicy::kAlways;
  MeshConfig without = with;
  without.use_plum = false;
  const auto a = run_mesh_mp(machine(), 8, with);
  const auto b = run_mesh_mp(machine(), 8, without);
  // Same mesh either way…
  EXPECT_DOUBLE_EQ(a.check("tets"), b.check("tets"));
  // …but the balanced run's solve phase (critical path) is no worse.
  EXPECT_LE(a.run.phases.at("solve").max_ns, b.run.phases.at("solve").max_ns * 1.01);
  EXPECT_GT(a.run.counter("mesh.moved_elems"), 0u);
  EXPECT_EQ(b.run.counter("mesh.moved_elems"), 0u);
}

TEST(MeshPlum, NeverPolicySkipsRemap) {
  MeshConfig cfg = small_cfg();
  cfg.policy = plum::RemapPolicy::kNever;
  const auto rep = run_mesh_mp(machine(), 4, cfg);
  EXPECT_EQ(rep.run.counter("mesh.moved_elems"), 0u);
  // The remap phase degenerates to its barrier; no bulk transfer happens.
  EXPECT_LT(rep.run.phase_max("remap"), 1e6);
}

TEST(MeshPlum, AlwaysPolicyMovesElements) {
  MeshConfig cfg = small_cfg();
  cfg.phases = 3;
  cfg.policy = plum::RemapPolicy::kAlways;
  const auto rep = run_mesh_shmem(machine(), 4, cfg);
  EXPECT_GT(rep.run.counter("mesh.moved_elems"), 0u);
}

TEST(MeshConfigChecks, FrontDefaultsDependOnBox) {
  MeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 10;
  EXPECT_GT(cfg.front_radius(), 0.0);
  EXPECT_GT(cfg.front_width(), 0.0);
  const Vec3 c0 = cfg.front_center(0);
  const Vec3 c1 = cfg.front_center(cfg.phases - 1);
  EXPECT_NE(c0, c1);  // the front moves
  cfg.radius = 2.5;
  EXPECT_DOUBLE_EQ(cfg.front_radius(), 2.5);
}

TEST(MeshConfigChecks, RejectsZeroPhases) {
  MeshConfig cfg;
  cfg.phases = 0;
  EXPECT_THROW(run_mesh_serial(cfg), std::invalid_argument);
}

// ---- app binary main ---------------------------------------------------------

int run_mesh_main(Model model, std::vector<std::string> args) {
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  return appmain::mesh_main(static_cast<int>(argv.size()), argv.data(), model);
}

/// Runs `args` through mesh_main and returns {exit code, stderr}.  A run
/// still going after 60 s fails the test and ends the process, since its
/// blocked threads can never be joined.
std::pair<int, std::string> mesh_main_within_deadline(Model model,
                                                      std::vector<std::string> args) {
  testing::internal::CaptureStderr();
  auto rc = std::async(std::launch::async,
                       [model, args]() mutable { return run_mesh_main(model, std::move(args)); });
  if (rc.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    ADD_FAILURE() << model_slug(model) << " did not exit within 60 s";
    std::_Exit(1);
  }
  const int code = rc.get();
  return {code, testing::internal::GetCapturedStderr()};
}

// Box 0 throws inside the replicated setup of one PE.  The other PEs used
// to block in Replicated::get forever (0% CPU); now every PE rethrows and
// both binaries exit promptly with the config error.
TEST(MeshMain, ThrowingReplicatedSetupExitsPromptly) {
  for (Model model : {Model::kMp, Model::kShmem}) {
    const auto [code, err] = mesh_main_within_deadline(model, {"mesh", "--p=4", "--box=0"});
    EXPECT_EQ(code, 2) << model_slug(model);
    EXPECT_NE(err.find("box mesh needs positive dimensions"), std::string::npos) << err;
  }
}

// Config errors exit 2 with one line on stderr, not std::terminate (134).
TEST(MeshMain, ConfigErrorsExitTwoWithOneLine) {
  const std::pair<Model, const char*> cases[] = {{Model::kMp, "--phases=0"},
                                                 {Model::kSas, "--box=0"}};
  for (const auto& [model, flag] : cases) {
    const auto [code, err] = mesh_main_within_deadline(model, {"mesh", flag});
    EXPECT_EQ(code, 2) << flag;
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
    EXPECT_NE(err.find("invalid configuration"), std::string::npos) << err;
  }
}

}  // namespace
}  // namespace o2k::apps
