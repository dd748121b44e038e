#include "campaign/snapshot.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

namespace o2k::campaign {

namespace {

constexpr const char* kMagic = "o2k.snap.v1";

std::uint64_t digest_lines(const std::vector<std::string>& lines) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const auto& line : lines) {
    h = rt::fnv1a(line.data(), line.size(), h);
    h = rt::fnv1a("\n", 1, h);
  }
  return h;
}

[[noreturn]] void format_error(const std::string& path, const std::string& what) {
  throw SnapshotError("snapshot " + path + ": " + what);
}

/// "key value" line where value may contain spaces; throws on key mismatch.
std::string expect_field(std::istream& in, const std::string& path, const std::string& key) {
  std::string line;
  if (!std::getline(in, line)) format_error(path, "truncated (expected '" + key + "')");
  const auto sp = line.find(' ');
  if (sp == std::string::npos || line.substr(0, sp) != key)
    format_error(path, "expected '" + key + " ...', got '" + line + "'");
  return line.substr(sp + 1);
}

std::int64_t expect_int_field(std::istream& in, const std::string& path,
                              const std::string& key) {
  const std::string v = expect_field(in, path, key);
  try {
    std::size_t used = 0;
    const std::int64_t out = std::stoll(v, &used);
    if (used != v.size()) throw std::invalid_argument(v);
    return out;
  } catch (const std::exception&) {
    format_error(path, "field '" + key + "' is not an integer: '" + v + "'");
  }
}

}  // namespace

void capture_state(rt::Machine& m, rt::StateSink& sink) {
  const int n = m.run_nprocs();
  sink.put_u64("machine.nprocs", static_cast<std::uint64_t>(n));
  for (int r = 0; r < n; ++r) {
    rt::Pe& pe = m.run_pe(r);
    const std::string p = "pe." + std::to_string(r);
    sink.put_f64(p + ".clock", pe.now());
    sink.put_u64(p + ".barriers", pe.barrier_epochs());

    // Sorted by name: interning order can differ between binaries that run
    // different app sets first, but the named stats themselves cannot.
    const rt::PhaseStats& st = pe.stats();
    std::vector<std::pair<std::string, double>> phases;
    for (std::uint32_t id = 0; id < st.phase_ns.size(); ++id) {
      if (st.phase_seen[id])
        phases.emplace_back(rt::NameRegistry::phases().name(id), st.phase_ns[id]);
    }
    std::sort(phases.begin(), phases.end());
    for (const auto& [name, ns] : phases) sink.put_f64(p + ".phase." + name, ns);

    std::vector<std::pair<std::string, std::uint64_t>> counters;
    for (std::uint32_t id = 0; id < st.counters.size(); ++id) {
      if (st.counter_seen[id])
        counters.emplace_back(rt::NameRegistry::counters().name(id), st.counters[id]);
    }
    std::sort(counters.begin(), counters.end());
    for (const auto& [name, v] : counters) sink.put_u64(p + ".counter." + name, v);
  }
  rt::StateRegistry::instance().capture_all(sink);
}

void write_snapshot(const std::string& path, const Snapshot& s) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw SnapshotError("snapshot " + path + ": cannot open for writing");
  out << kMagic << '\n'
      << "app " << s.meta.app << '\n'
      << "model " << s.meta.model << '\n'
      << "nprocs " << s.meta.nprocs << '\n'
      << "backend fibers\n"
      << "label " << s.meta.label << '\n'
      << "occurrence " << s.meta.occurrence << '\n'
      << "state " << s.state.size() << '\n';
  for (const auto& line : s.state) out << line << '\n';
  char dig[24];
  std::snprintf(dig, sizeof dig, "%016" PRIx64, digest_lines(s.state));
  out << "digest " << dig << '\n';
  out.flush();
  if (!out) throw SnapshotError("snapshot " + path + ": write failed");
}

Snapshot load_snapshot(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw SnapshotError("snapshot " + path + ": cannot open (missing file?)");
  std::string line;
  if (!std::getline(in, line)) format_error(path, "empty file");
  if (line != kMagic)
    format_error(path, "bad magic '" + line + "' (want " + std::string(kMagic) + ")");

  Snapshot s;
  s.meta.app = expect_field(in, path, "app");
  s.meta.model = expect_field(in, path, "model");
  s.meta.nprocs = static_cast<int>(expect_int_field(in, path, "nprocs"));
  (void)expect_field(in, path, "backend");  // legacy line, value ignored
  s.meta.label = expect_field(in, path, "label");
  s.meta.occurrence = static_cast<int>(expect_int_field(in, path, "occurrence"));
  const std::int64_t count = expect_int_field(in, path, "state");
  if (count < 0 || count > 100'000'000) format_error(path, "implausible state line count");
  s.state.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    if (!std::getline(in, line)) format_error(path, "truncated state section");
    s.state.push_back(line);
  }
  const std::string dig = expect_field(in, path, "digest");
  char want[24];
  s.digest = digest_lines(s.state);
  std::snprintf(want, sizeof want, "%016" PRIx64, s.digest);
  if (dig != want)
    format_error(path, "digest mismatch (file " + dig + ", computed " + want +
                           ") — truncated or corrupted");
  return s;
}

ScopedCheckpoint::ScopedCheckpoint(rt::Machine& m, Mode mode, std::string path,
                                   SnapshotMeta meta)
    : machine_(m), mode_(mode), path_(std::move(path)), meta_(std::move(meta)) {
  if (mode_ == Mode::kVerify) {
    expected_ = load_snapshot(path_);
    // The file decides where to verify; the run it describes must be the
    // run we are about to replay.
    if (expected_.meta.app != meta_.app || expected_.meta.model != meta_.model ||
        expected_.meta.nprocs != meta_.nprocs) {
      throw SnapshotError("snapshot " + path_ + ": recorded for " + expected_.meta.app + "/" +
                          expected_.meta.model + "/p" + std::to_string(expected_.meta.nprocs) +
                          ", but this run is " + meta_.app + "/" + meta_.model + "/p" +
                          std::to_string(meta_.nprocs));
    }
    meta_.label = expected_.meta.label;
    meta_.occurrence = expected_.meta.occurrence;
  }
  machine_.arm_checkpoint(meta_.label, meta_.occurrence, [this](rt::Machine& mm, rt::Pe&) {
    rt::StateSink sink;
    capture_state(mm, sink);
    captured_ = sink.lines();
    fired_ = true;
  });
}

ScopedCheckpoint::~ScopedCheckpoint() { machine_.disarm_checkpoint(); }

void ScopedCheckpoint::finish() {
  if (finished_) return;
  finished_ = true;
  machine_.disarm_checkpoint();
  if (!fired_) {
    throw SnapshotError("checkpoint '" + meta_.label + "' (occurrence " +
                        std::to_string(meta_.occurrence) +
                        ") never fired — no such marker on this run's path");
  }
  if (mode_ == Mode::kWrite) {
    Snapshot s;
    s.meta = meta_;
    s.state = captured_;
    write_snapshot(path_, s);
    return;
  }
  // Verified replay: every captured line must match the file bit-for-bit.
  const std::size_t n = std::min(expected_.state.size(), captured_.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (captured_[i] != expected_.state[i]) {
      throw SnapshotMismatch("restore diverged at state line " + std::to_string(i + 1) +
                             ": snapshot '" + expected_.state[i] + "' vs replay '" +
                             captured_[i] + "'");
    }
  }
  if (expected_.state.size() != captured_.size()) {
    throw SnapshotMismatch("restore diverged: snapshot has " +
                           std::to_string(expected_.state.size()) + " state lines, replay " +
                           std::to_string(captured_.size()));
  }
}

}  // namespace o2k::campaign
