// The paper-reproduction registry behind churnet_repro: every headline
// measurement of "Expansion and Flooding in Dynamic Random Networks with
// Node Churn" (ICDCS 2021) as a named, declarative sweep + observer set,
// together with the paper claims its data must satisfy.
//
// A verdict is one Table-1 claim checked against a target's SweepResult:
// a regime filter (scenario and d range) picks the cells the claim
// quantifies over, and a plain predicate compares the measured column with
// the paper bound at an explicit tolerance spelled out in `bound`. A
// verdict with no in-regime cell is n/a. Verdicts only read the result —
// the CSV/JSON a target writes never depends on them.
//
// Determinism: a target's CSV is a pure function of (target, seed, scale).
// Cell c replication r runs under derive_seed(seed, c, r) exactly as
// churnet_sweep would (DESIGN.md, decisions 8-12), so the verdicts of a
// pinned --quick run are as reproducible as its data.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "engine/sweep_runner.hpp"

namespace churnet {

/// One paper claim checked against a target's data.
struct Verdict {
  std::string claim;                   // paper claim id ("L3.5", "T4.20")
  std::vector<std::string> scenarios;  // regime: cell scenarios (empty = all)
  std::uint32_t d_min = 1;             // regime: inclusive d range
  std::uint32_t d_max = std::numeric_limits<std::uint32_t>::max();
  std::string bound;  // the predicate in words, tolerance included
  /// True when the claim holds over the in-regime `cells` (never empty);
  /// stores the measured value(s) it compared in `measured`.
  std::function<bool(const SweepResult& result,
                     std::span<const std::size_t> cells,
                     std::string& measured)>
      holds;
};

enum class VerdictStatus : std::uint8_t { kPass, kFail, kNotApplicable };

/// "PASS", "FAIL" or "n/a".
const char* verdict_status_name(VerdictStatus status);

struct VerdictOutcome {
  const Verdict* verdict = nullptr;
  VerdictStatus status = VerdictStatus::kNotApplicable;
  std::string measured;  // empty when n/a
};

/// One paper table/figure: a named, declaratively specified sweep.
struct ReproTarget {
  std::string name;       // CLI name ("table1")
  std::string paper_ref;  // what it reproduces ("Table 1")
  std::string description;
  std::string runtime;  // measured full-scale wall time + thread count
  SweepSpec full;
  /// Pinned small-scale variant (sizes, reps and seed fixed): the same grid
  /// shape at toy sizes, bit-identical at any thread count, with at least
  /// one in-regime cell for every verdict.
  SweepSpec quick;
  std::vector<Verdict> verdicts;
};

/// Every target, in --list order.
std::vector<ReproTarget> make_repro_targets();

/// The cells of `result` inside `verdict`'s regime, in cell order.
std::vector<std::size_t> regime_cells(const Verdict& verdict,
                                      const SweepResult& result);

/// The regime in words ("SDG,PDG d=1", "SDGR d>=21", "all cells").
std::string regime_text(const Verdict& verdict);

/// Judges every verdict of `target` against `result`.
std::vector<VerdictOutcome> judge_verdicts(const ReproTarget& target,
                                           const SweepResult& result);

/// 1 when any outcome is FAIL (n/a never fails), else 0: churnet_repro's
/// exit status once every selected target has been written.
int verdict_exit_status(std::span<const VerdictOutcome> outcomes);

/// Run facts recorded in a target's manifest.
struct ReproProvenance {
  bool quick = false;
  std::string git_sha = "unknown";
  std::string trace_path;  // empty = no telemetry trace
  std::chrono::steady_clock::time_point started;
};

/// Writes one finished target under `out_dir`: <name>.csv and <name>.json
/// first, then judges its verdicts and writes <name>.manifest.json (seed,
/// git sha, cell count, resolved spec, "verdicts":[...]). A failing claim
/// therefore never withholds its dataset. Returns the verdict outcomes;
/// throws std::runtime_error when a file cannot be opened.
std::vector<VerdictOutcome> write_repro_target(
    const std::filesystem::path& out_dir, const ReproTarget& target,
    const SweepResult& result, const ReproProvenance& provenance);

}  // namespace churnet
