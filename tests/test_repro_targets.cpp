// Tests for engine/repro_targets.hpp: every churnet_repro target is a valid
// sweep, every verdict is exercised by the pinned --quick run and passes
// there, and every verdict is able to fail — doctoring its measured column
// past the bound in a copy of the result flips it to FAIL, while the
// target's dataset is still written and the run's exit status becomes 1.
#include "engine/repro_targets.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace churnet {
namespace {

const std::vector<ReproTarget>& targets() {
  static const std::vector<ReproTarget> all = make_repro_targets();
  return all;
}

const ReproTarget& target_named(const std::string& name) {
  for (const ReproTarget& target : targets()) {
    if (target.name == name) return target;
  }
  ADD_FAILURE() << "no target " << name;
  return targets().front();
}

/// The pinned quick run of `target` (default seed), computed once.
const SweepResult& quick_result(const ReproTarget& target) {
  static std::map<std::string, SweepResult> cache;
  auto it = cache.find(target.name);
  if (it == cache.end()) {
    it = cache.emplace(target.name, SweepRunner(target.quick).run(2)).first;
  }
  return it->second;
}

/// A copy of `result` with `metric` set to `value` in every replication of
/// `cells`.
SweepResult doctored(const SweepResult& result, const std::string& metric,
                     double value, const std::vector<std::size_t>& cells) {
  std::size_t col = 0;
  while (result.metrics()[col] != metric) ++col;
  auto samples = result.samples();
  for (const std::size_t cell : cells) {
    for (auto& rep : samples[cell]) rep[col] = value;
  }
  return SweepResult(result.spec(), result.metrics(), result.cells(),
                     std::move(samples), result.wall_seconds(),
                     result.threads_used());
}

/// Per verdict: the column it measures and a value past its bound.
struct Doctor {
  std::string metric;
  double value;
};

const std::map<std::pair<std::string, std::string>, Doctor>& doctors() {
  static const std::map<std::pair<std::string, std::string>, Doctor> table{
      {{"table1", "L3.5"}, {"isolated_fraction", 0.0}},
      {{"table1", "L4.10"}, {"isolated_fraction", 0.0}},
      {{"table1", "L3.6"}, {"expansion_min_ratio", 0.05}},
      {{"table1", "L4.11"}, {"expansion_min_ratio", 0.05}},
      {{"table1", "T3.15"}, {"expansion_min_ratio", 0.05}},
      {{"table1", "T4.16"}, {"expansion_min_ratio", 0.05}},
      {{"table1", "T3.8"}, {"final_fraction", 0.2}},
      {{"table1", "T4.13"}, {"final_fraction", 0.2}},
      {{"table1", "T3.16"}, {"completion_step", std::nan("")}},
      {{"table1", "T4.20"}, {"completion_step", std::nan("")}},
      {{"flooding-time-vs-n", "T3.16"}, {"completion_step", 1000.0}},
      {{"flooding-time-vs-n", "T4.20"}, {"completion_step", 1000.0}},
      {{"flooding-failure", "T3.7"}, {"final_fraction", 1.0}},
      {{"flooding-failure", "T4.12"}, {"final_fraction", 1.0}},
      {{"flooding-failure", "T3.7 (time)"}, {"completion_step", 100.0}},
      {{"expansion-regen", "T3.15"}, {"expansion_min_ratio", 0.05}},
      {{"expansion-regen", "T4.16"}, {"expansion_min_ratio", 0.05}},
      {{"spectral-gap", "T1 spectral"}, {"spectral_gap", 0.5}},
  };
  return table;
}

std::filesystem::path make_temp_dir() {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("churnet_repro_targets_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(ReproTargets, EveryFullAndQuickSpecValidates) {
  std::set<std::string> names;
  for (const ReproTarget& target : targets()) {
    EXPECT_TRUE(names.insert(target.name).second) << target.name;
    EXPECT_EQ(target.full.validate(), std::nullopt) << target.name;
    EXPECT_EQ(target.quick.validate(), std::nullopt) << target.name;
  }
}

TEST(ReproTargets, EveryVerdictHasAnInRegimeQuickCellAndPasses) {
  for (const ReproTarget& target : targets()) {
    if (target.verdicts.empty()) continue;
    const SweepResult& result = quick_result(target);
    for (const VerdictOutcome& outcome : judge_verdicts(target, result)) {
      SCOPED_TRACE(target.name + " " + outcome.verdict->claim + ": " +
                   outcome.measured);
      EXPECT_FALSE(regime_cells(*outcome.verdict, result).empty());
      EXPECT_EQ(outcome.status, VerdictStatus::kPass);
    }
  }
}

TEST(ReproTargets, EveryVerdictFailsWhenItsColumnIsDoctored) {
  std::size_t verdicts = 0;
  for (const ReproTarget& target : targets()) {
    for (const Verdict& verdict : target.verdicts) {
      ++verdicts;
      SCOPED_TRACE(target.name + " " + verdict.claim);
      const auto doctor = doctors().find({target.name, verdict.claim});
      ASSERT_NE(doctor, doctors().end()) << "add a doctoring entry";
      const SweepResult& honest = quick_result(target);
      const std::vector<std::size_t> cells = regime_cells(verdict, honest);
      const SweepResult bad = doctored(honest, doctor->second.metric,
                                       doctor->second.value, cells);
      std::string measured;
      EXPECT_FALSE(verdict.holds(bad, cells, measured)) << measured;
    }
  }
  EXPECT_EQ(verdicts, doctors().size());
}

TEST(ReproTargets, FailingVerdictStillWritesEveryDatasetAndExitsOne) {
  const std::filesystem::path dir = make_temp_dir();
  const ReproTarget& table1 = target_named("table1");
  const ReproTarget& spectral = target_named("spectral-gap");
  const SweepResult& honest = quick_result(table1);
  const SweepResult bad =
      doctored(honest, "isolated_fraction", 0.0,
               regime_cells(table1.verdicts.front(), honest));

  ReproProvenance provenance;
  provenance.quick = true;
  provenance.started = std::chrono::steady_clock::now();
  std::vector<VerdictOutcome> all =
      write_repro_target(dir, table1, bad, provenance);
  const std::vector<VerdictOutcome> clean =
      write_repro_target(dir, spectral, quick_result(spectral), provenance);
  EXPECT_EQ(verdict_exit_status(clean), 0);
  all.insert(all.end(), clean.begin(), clean.end());
  EXPECT_EQ(verdict_exit_status(all), 1);

  std::ostringstream bad_csv;
  bad.write_csv(bad_csv);
  EXPECT_EQ(read_file(dir / "table1.csv"), bad_csv.str());
  EXPECT_FALSE(read_file(dir / "table1.json").empty());
  EXPECT_FALSE(read_file(dir / "spectral-gap.csv").empty());
  const std::string manifest = read_file(dir / "table1.manifest.json");
  EXPECT_NE(manifest.find("{\"claim\":\"L3.5\""), std::string::npos);
  EXPECT_NE(manifest.find("\"status\":\"FAIL\""), std::string::npos);
  EXPECT_NE(read_file(dir / "spectral-gap.manifest.json")
                .find("\"status\":\"PASS\""),
            std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(ReproTargets, VerdictWithoutInRegimeCellsIsNotApplicable) {
  const ReproTarget& table1 = target_named("table1");
  SweepSpec spec = table1.quick;
  spec.d_values = {12};  // outside L3.5's d <= 3 regime
  spec.scenarios = {"SDG"};
  spec.observers = "isolated";
  spec.replications = 1;
  ReproTarget only_sdg = table1;
  only_sdg.verdicts.resize(1);  // L3.5
  const std::vector<VerdictOutcome> outcomes =
      judge_verdicts(only_sdg, SweepRunner(spec).run(1));
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].status, VerdictStatus::kNotApplicable);
  EXPECT_EQ(verdict_exit_status(outcomes), 0);
  EXPECT_STREQ(verdict_status_name(outcomes[0].status), "n/a");
}

}  // namespace
}  // namespace churnet
