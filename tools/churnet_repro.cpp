// churnet_repro: one command per paper table/figure, and the check that
// the paper's claims hold on the data.
//
// Every headline measurement of "Expansion and Flooding in Dynamic Random
// Networks with Node Churn" (ICDCS 2021) is a declarative sweep + observer
// set registered by name in engine/repro_targets.hpp. Running a target
// regenerates its dataset as tidy long-format CSV (one row per
// observation) plus a JSON summary and a manifest (seed, git sha, cell
// count, resolved spec, verdicts) under --out, so a figure is always
// `churnet_repro --only <target>` away from its data.
//
//   ./churnet_repro --list                 # every target, with its paper ref
//   ./churnet_repro                        # reproduce everything (slow!)
//   ./churnet_repro --only table1,spectral-gap --threads 8
//   ./churnet_repro --quick                # pinned small-scale variants
//   ./churnet_repro --workers 4 --checkpoint ckpt/   # forked workers +
//   ./churnet_repro --workers 4 --checkpoint ckpt/ --resume  # crash-resume
//
// After each target is written, its verdicts (paper claim vs measured
// value) print as PASS, FAIL or n/a and go into its manifest. Once every
// selected target has been written the tool exits 1 if any verdict
// failed, so `churnet_repro --quick` is the continuously checked form of
// the paper's Table 1.
//
// --quick swaps each target for its pinned small-scale variant: the same
// grid shape at toy sizes, bit-identical for a fixed seed at any
// --threads (CI cmp's every quick CSV between 1 and 8 threads and diffs
// two of them against checked-in goldens).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "churnet/churnet.hpp"

namespace {

using namespace churnet;

/// Best-effort `git rev-parse HEAD` for the manifest; "unknown" when git
/// or the repository is unavailable (the data is still reproducible from
/// the recorded seed + spec).
std::string git_sha() {
  FILE* pipe = popen("git rev-parse HEAD 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  char buffer[128] = {0};
  std::string sha;
  if (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) sha = buffer;
  pclose(pipe);
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  return sha.empty() ? "unknown" : sha;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(
      "churnet_repro: regenerate the paper's table/figure datasets — each "
      "target is a declarative sweep + observer set emitting tidy CSV/JSON "
      "plus a manifest (seed, git sha, cell count) under --out");
  cli.add_string("only", "",
                 "comma-separated target names (default: every target; see "
                 "--list)");
  cli.add_string("out", "results", "output directory (created if missing)");
  cli.add_int("seed", 12345, "base seed (recorded in every manifest)");
  cli.add_int("threads", 1,
              "worker threads (0 = all cores); never changes the data");
  cli.add_int("workers", 0,
              "worker *processes* per target (coordinator/worker mode, "
              ">= 2); 0/1 = in-process --threads pool; never changes the "
              "data");
  cli.add_string("checkpoint", "",
                 "journal each target's completed jobs under "
                 "<dir>/<target>/ so a killed run can --resume with "
                 "byte-identical datasets");
  cli.add_flag("resume",
               "resume targets from --checkpoint's journals: completed "
               "jobs are restored, only missing ones run");
  cli.add_flag("quick",
               "pinned small-scale variants (seconds, bit-identical at any "
               "--threads; the CI smoke surface)");
  cli.add_string("telemetry", "",
                 "stream an NDJSON telemetry trace here (one trace for the "
                 "whole run, one span per target; never changes the data)");
  cli.add_flag("progress",
               "print heartbeat progress lines ([jobs/total] eta) to "
               "stderr while targets run");
  cli.add_flag("list", "list every target with its paper reference and exit");
  cli.add_flag("list-specs",
               "print every spec catalog (scenarios, churn, protocols, "
               "observers, metrics) and exit");
  cli.add_flag("quiet", "suppress the per-target summary tables");
  if (!cli.parse(argc, argv)) return 0;
  const unsigned threads = cli.get_count("threads");
  const unsigned workers = cli.get_count("workers");

  const std::vector<ReproTarget> targets = make_repro_targets();

  if (cli.get_flag("list-specs")) {
    print_spec_catalogs(std::cout);
    return 0;
  }
  if (cli.get_flag("list")) {
    std::printf("paper reproduction targets (CSV/JSON + manifest per "
                "target):\n");
    for (const ReproTarget& target : targets) {
      std::printf("  %-22s %s\n", target.name.c_str(),
                  target.paper_ref.c_str());
      std::printf("  %-22s %s (%s)\n", "", target.description.c_str(),
                  target.runtime.c_str());
    }
    std::printf("run all, or --only <name>[,<name>...]; --quick for the "
                "pinned smoke variants\n");
    return 0;
  }

  // Resolve the target selection; unknown names are an error listing the
  // known targets (proper exit code, CLI semantics).
  std::vector<const ReproTarget*> selected;
  const std::string only = cli.get_string("only");
  if (only.empty()) {
    for (const ReproTarget& target : targets) selected.push_back(&target);
  } else {
    for (const std::string& name : split_spec_list(only)) {
      const ReproTarget* found = nullptr;
      for (const ReproTarget& target : targets) {
        if (target.name == name) {
          found = &target;
          break;
        }
      }
      if (found == nullptr) {
        std::fprintf(stderr, "unknown target '%s'; known targets:\n",
                     name.c_str());
        for (const ReproTarget& target : targets) {
          std::fprintf(stderr, "  %s\n", target.name.c_str());
        }
        return 1;
      }
      selected.push_back(found);
    }
  }

  const bool quick = cli.get_flag("quick");
  // Every selected target's grid must resolve before the first job runs,
  // so a bad scenario name cannot leave a half-written results directory.
  for (const ReproTarget* target : selected) {
    require_resolvable_scenarios(quick ? target->quick : target->full,
                                 ScenarioRegistry::extended(),
                                 target->name.c_str());
  }
  const bool quiet = cli.get_flag("quiet");
  const std::uint64_t seed = cli.get_uint64("seed");
  const std::filesystem::path checkpoint_dir(cli.get_string("checkpoint"));
  const bool resume = cli.get_flag("resume");
  if (resume && checkpoint_dir.empty()) {
    std::fprintf(stderr, "--resume needs --checkpoint <dir>\n");
    return 1;
  }
  const std::filesystem::path out_dir(cli.get_string("out"));
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create output directory '%s': %s\n",
                 out_dir.string().c_str(), ec.message().c_str());
    return 1;
  }
  const std::string sha = git_sha();

  // Telemetry: one trace for the whole run, one span per target. The sink
  // reads clocks only — every CSV/JSON/manifest byte below is identical
  // with or without it, at any --threads.
  const std::string telemetry_path = cli.get_string("telemetry");
  const bool progress = cli.get_flag("progress");
  std::ofstream trace_file;
  if (!telemetry_path.empty()) {
    trace_file.open(telemetry_path);
    if (!trace_file) {
      std::fprintf(stderr, "cannot open telemetry file '%s'\n",
                   telemetry_path.c_str());
      return 1;
    }
  }
  std::optional<telemetry::ScopedTraceSink> scoped_sink;
  if (trace_file.is_open() || progress) {
    telemetry::TraceSink::Options options;
    options.out = trace_file.is_open() ? &trace_file : nullptr;
    options.progress = progress;
    options.tool = "churnet_repro";
    scoped_sink.emplace(options);
  }

  std::vector<VerdictOutcome> all_outcomes;
  for (const ReproTarget* target : selected) {
    SweepSpec spec = quick ? target->quick : target->full;
    spec.base_seed = seed;
    if (!quiet) {
      std::printf("==> %s (%s): %zu cells x %llu replications\n",
                  target->name.c_str(), target->paper_ref.c_str(),
                  spec.cell_count(),
                  static_cast<unsigned long long>(spec.replications));
    }
    const auto target_start = std::chrono::steady_clock::now();
    if (scoped_sink.has_value()) {
      scoped_sink->sink().span_begin(target->name);
    }
    // Each target journals into its own checkpoint subdirectory so a
    // multi-target run can be killed and resumed per target; the service
    // path is byte-identical to plain SweepRunner(spec).run(threads).
    SweepServiceOptions service;
    service.threads = threads;
    service.workers = workers;
    if (!checkpoint_dir.empty()) {
      service.checkpoint_dir = (checkpoint_dir / target->name).string();
    }
    service.resume = resume;
    service.tool = "churnet_repro";
    SweepServiceReport report;
    std::optional<SweepResult> result;
    std::vector<VerdictOutcome> outcomes;
    try {
      result.emplace(SweepService(spec, service)
                         .run(ScenarioRegistry::extended(), &report));
      outcomes = write_repro_target(
          out_dir, *target, *result,
          ReproProvenance{quick, sha, telemetry_path, target_start});
    } catch (const std::exception& error) {
      std::fprintf(stderr, "%s: %s\n", target->name.c_str(), error.what());
      return 1;
    }
    if (!quiet && report.jobs_resumed > 0) {
      std::printf("    checkpoint: %llu job(s) resumed, %llu run this "
                  "session\n",
                  static_cast<unsigned long long>(report.jobs_resumed),
                  static_cast<unsigned long long>(report.jobs_run));
    }
    if (scoped_sink.has_value()) {
      scoped_sink->sink().span_end(target->name);
    }
    if (!quiet) {
      result->to_table().print(std::cout);
      std::printf("    wrote %s.csv + .json + .manifest.json (%.2fs on %u "
                  "%s)\n",
                  (out_dir / target->name).string().c_str(),
                  result->wall_seconds(), report.workers_used,
                  workers >= 2 ? "worker process(es)" : "thread(s)");
    }
    // Verdict lines print even under --quiet: they are the run's outcome.
    for (const VerdictOutcome& outcome : outcomes) {
      std::printf("    %-4s %s %-11s [%s] %s\n",
                  verdict_status_name(outcome.status), target->name.c_str(),
                  outcome.verdict->claim.c_str(),
                  regime_text(*outcome.verdict).c_str(),
                  outcome.verdict->bound.c_str());
      if (!outcome.measured.empty()) {
        std::printf("         measured: %s\n", outcome.measured.c_str());
      }
    }
    if (!quiet) std::printf("\n");
    all_outcomes.insert(all_outcomes.end(), outcomes.begin(), outcomes.end());
  }
  // Every selected dataset is on disk by now; a failed claim only sets
  // the exit status.
  return verdict_exit_status(all_outcomes);
}
