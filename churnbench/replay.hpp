// The traced half of churnbench: an in-memory span recorder, a replay of
// SweepPlan::run_job as the public layer calls it makes (one span around
// each call), and a victim-selection probe for the adversarial churn rules.
//
// The replay must produce, bit for bit, the row run_job produces for the
// same job; churnbench.cpp compares the two and fails the traced run on any
// difference, so a span that perturbs a layer (or a replay that drifts
// from the engine's call sequence) cannot go unnoticed.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "churnet/churnet.hpp"
#include "common/sinks.hpp"

namespace churnbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Spans kept in memory and written out once, when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t job = -1;     // -1: not part of a replayed job
    std::int32_t parent = -1;  // index into spans(), -1 for a root
    double start_s = 0.0;      // since the tracer was created
    double end_s = 0.0;
  };

  /// Opens a span under the innermost open span; returns its index.
  std::int32_t open(std::string name, std::int64_t job);
  void close(std::int32_t index);

  const std::vector<Span>& spans() const { return spans_; }
  /// Summed duration per span name.
  std::map<std::string, double> total_seconds() const;
  /// One JSON object per line: name, job, parent, start_s, end_s.
  void write_ndjson(std::ostream& os) const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name, std::int64_t job)
      : tracer_(tracer), index_(tracer.open(std::move(name), job)) {}
  ~Scope() { tracer_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t index_;
};

/// Work counts and sizes one replayed job reports besides its spans.
struct JobCounts {
  // Telemetry counters over warm_up (births + deaths) and over the
  // observation point (bytes materialized into dense snapshots).
  std::uint64_t warm_up_events = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t births = 0;  // total births at observation time
  std::uint64_t alive = 0;
  std::uint64_t edges = 0;
  std::uint64_t flood_steps = 0;
  std::uint64_t messages = 0;
  std::uint64_t useful = 0;
  std::uint64_t duplicate = 0;
  /// Flood reference (flood cells without observers only): whether it ran
  /// and whether AnyNetwork::flood's trace equalled disseminate(flood)'s.
  bool flood_reference = false;
  bool flood_trace_equal = true;
};

/// Replays a plan's jobs as the public layer calls run_job makes. Holds the
/// long-lived per-worker state run_job keeps thread_local (observer set,
/// protocol instances, scratch), so replayed jobs reuse it the same way.
class JobReplayer {
 public:
  JobReplayer(const churnet::SweepPlan& plan,
              const churnet::ScenarioRegistry& registry);
  ~JobReplayer();
  JobReplayer(const JobReplayer&) = delete;
  JobReplayer& operator=(const JobReplayer&) = delete;

  /// The replayed row for `job` (spans under a root "job" span). Flood
  /// cells without observers also rebuild the job's network from the same
  /// seed and run AnyNetwork::flood on it (spans under a root "reference"
  /// span).
  std::vector<double> replay(std::uint64_t job, Tracer& tracer,
                             JobCounts& counts);

 private:
  struct State;
  const churnet::SweepPlan& plan_;
  std::unique_ptr<State> state_;
};

/// Victim-selection probe: ns per AdversaryPolicy::select on a
/// DynamicGraphView over one warmed PDGR network of size n, d = 8. The
/// graph does not change between picks, so each pick pays the rule's full
/// scan (maxdeg/mindeg), its amortized ball rebuild (cutset) or one
/// neighbor list (eclipse).
struct VictimProbe {
  std::map<std::string, double> ns_per_pick;  // by rule name
  std::uint64_t picks = 0;                    // total over all rules
};
VictimProbe probe_victim_selection(std::uint32_t n, std::uint64_t seed,
                                   std::uint32_t picks_per_rule);

/// Bitwise row equality (NaN payloads included).
bool rows_identical(const std::vector<double>& a,
                    const std::vector<double>& b);

}  // namespace churnbench
