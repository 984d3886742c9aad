// Shared experiment-harness helpers for the bench binaries: seed derivation,
// replication loops, scale switches and uniform headers, so every bench
// prints paper-expected vs measured columns the same way.
//
// Replication loops delegate to the engine (engine/trial_runner.hpp): every
// replication seed is derive_seed(base, stream, replication), and
// run_replications_parallel fans the loop across a thread pool with
// thread-count-independent results.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/cli.hpp"
#include "common/rng.hpp"  // derive_seed lives with the RNG machinery
#include "common/stats.hpp"
#include "engine/trial_runner.hpp"

namespace churnet {

/// Standard experiment scale: benches multiply their default n / replication
/// counts by these factors.
struct BenchScale {
  double size_factor = 1.0;
  double rep_factor = 1.0;
};

/// Adds the standard options (--seed, --reps-factor, --quick, --full,
/// --threads, --csv, --json) to a CLI. Benches call this once before
/// parse().
void add_standard_options(Cli& cli);

/// Reads the standard options; --quick halves sizes and reps, --full
/// quadruples them. Also configures the result log from --csv/--json
/// (see configure_result_output), so every bench that uses the standard
/// options persists its TrialRunner results without further code.
BenchScale scale_from_cli(const Cli& cli);

/// Base seed from --seed.
std::uint64_t seed_from_cli(const Cli& cli);

/// Worker threads from --threads (0 = all hardware threads).
unsigned threads_from_cli(const Cli& cli);

/// Scales a default count by a factor with a floor of `minimum`.
std::uint64_t scaled(std::uint64_t base, double factor,
                     std::uint64_t minimum = 1);

/// Prints the uniform experiment banner: id, paper claim, and a rule.
void print_experiment_header(const std::string& experiment_id,
                             const std::string& paper_claim);

/// Runs `replications` calls of `body(replication_index)` and returns the
/// accumulated statistics of its return values.
OnlineStats run_replications(std::uint64_t replications,
                             const std::function<double(std::uint64_t)>& body);

/// Parallel replication loop over the engine's TrialRunner: replication r
/// runs on some pool thread with seed derive_seed(base_seed, stream, r),
/// and the returned statistics are identical for every thread count. The
/// body must derive ALL of its randomness from the provided seed.
OnlineStats run_replications_parallel(
    std::uint64_t replications, unsigned threads, std::uint64_t base_seed,
    std::uint64_t stream,
    const std::function<double(std::uint64_t replication, std::uint64_t seed)>&
        body);

/// "PASS"/"FAIL" with a measured-vs-expected note, for verdict columns.
std::string verdict(bool pass);

// ---- persisted results (--csv / --json) ------------------------------------
//
// A process-wide labeled log of TrialResults. When --csv/--json paths are
// configured (scale_from_cli does it from the standard options), every
// run_replications_parallel call records its TrialResult automatically,
// benches driving TrialRunner directly add theirs via record_trial(), and
// the log is written on flush_result_output() — also registered atexit, so
// existing benches persist results with zero code changes:
//
//   ./bench_flooding_coverage --csv results.csv --json results.json
//
// The CSV is tidy long format (label,stream,replication,seed,metric,value,
// one row per observation); the JSON is an array of labeled TrialRunner
// JSON sink objects.

/// Reads --csv/--json from the CLI and arms the log (no-op when both are
/// empty). Safe to call once per process, before any trials run.
void configure_result_output(const Cli& cli);

/// Records a labeled TrialResult into the log (no-op when no output is
/// configured). Thread-safe.
void record_trial(const std::string& label, const TrialResult& result);

/// Writes the accumulated log to the configured paths (whole-file rewrite;
/// idempotent). Runs automatically at process exit.
void flush_result_output();

}  // namespace churnet
