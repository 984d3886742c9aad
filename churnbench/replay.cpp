#include "replay.hpp"

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <string_view>

#include "models/graph_view.hpp"

namespace churnbench {

using namespace churnet;

std::int32_t Tracer::open(std::string name, std::int64_t job) {
  Span span;
  span.name = std::move(name);
  span.job = job;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_s = seconds_since(origin_);
  spans_.push_back(std::move(span));
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_s = seconds_since(origin_);
  // Scopes close innermost-first, so the index is always on top.
  open_.pop_back();
}

std::map<std::string, double> Tracer::total_seconds() const {
  std::map<std::string, double> totals;
  for (const Span& span : spans_) totals[span.name] += span.end_s - span.start_s;
  return totals;
}

void Tracer::write_ndjson(std::ostream& os) const {
  const PrecisionGuard precision(os);
  for (const Span& span : spans_) {
    os << "{\"name\":";
    write_json_string(os, span.name);
    os << ",\"job\":" << span.job << ",\"parent\":" << span.parent
       << ",\"start_s\":" << span.start_s << ",\"end_s\":" << span.end_s
       << "}\n";
  }
}

bool rows_identical(const std::vector<double>& a,
                    const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

namespace {

[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "churnbench: %s\n", what.c_str());
  std::exit(2);
}

bool is_snapshot_metric(std::string_view name) {
  return name == "mean_degree" || name == "max_degree" ||
         name == "isolated" || name == "largest_component_frac";
}

bool is_flood_metric(std::string_view name) {
  return name == "completion_step" || name == "final_fraction" ||
         name == "peak_informed" || name == "flood_steps" ||
         name == "messages" || name == "useful_deliveries" ||
         name == "duplicate_deliveries" || name == "lost_messages";
}

/// "expansion(8)" -> "observe.expansion".
std::string observer_span(const MetricObserver& observer) {
  const std::string name = observer.name();
  return "observe." + name.substr(0, name.find('('));
}

std::uint64_t churn_events(const telemetry::Totals& totals) {
  return totals.counters[static_cast<std::size_t>(
      telemetry::Counter::kChurnEvents)];
}

std::uint64_t snapshot_bytes(const telemetry::Totals& totals) {
  return totals.counters[static_cast<std::size_t>(
      telemetry::Counter::kSnapshotBytes)];
}

bool traces_equal(const FloodTrace& a, const FloodTrace& b) {
  return a.informed_per_step == b.informed_per_step &&
         a.alive_per_step == b.alive_per_step && a.steps == b.steps &&
         a.completed == b.completed &&
         a.completion_step == b.completion_step &&
         a.died_out == b.died_out && a.die_out_step == b.die_out_step &&
         a.peak_informed == b.peak_informed &&
         std::bit_cast<std::uint64_t>(a.final_fraction) ==
             std::bit_cast<std::uint64_t>(b.final_fraction);
}

}  // namespace

struct JobReplayer::State {
  struct Cell {
    const Scenario* scenario = nullptr;
    ProtocolSpec protocol;
    std::uint32_t n = 0;
    std::uint32_t d = 0;
  };
  std::vector<Scenario> scenarios;
  std::vector<Cell> cells;
  bool needs_snapshot = false;
  bool needs_flood = false;
  ObserverSet observers;
  ChangeFeed feed;
  ProtocolScratch protocol_scratch;
  FloodScratch flood_scratch;
  std::map<std::string, std::unique_ptr<DisseminationProtocol>> protocols;
};

JobReplayer::JobReplayer(const SweepPlan& plan,
                         const ScenarioRegistry& registry)
    : plan_(plan), state_(std::make_unique<State>()) {
  const SweepSpec& spec = plan.spec();
  State& s = *state_;
  // The grid in SweepPlan's order: scenario-major, then protocol, n, d.
  s.scenarios.reserve(spec.scenarios.size());
  for (const std::string& name : spec.scenarios) {
    s.scenarios.push_back(registry.resolve(name));
  }
  for (const Scenario& scenario : s.scenarios) {
    std::vector<ProtocolSpec> axis;
    if (spec.protocols.empty()) axis.push_back(scenario.protocol());
    for (const std::string& text : spec.protocols) {
      std::string error;
      const auto parsed = ProtocolSpec::parse(text, &error);
      if (!parsed.has_value()) die(error);
      axis.push_back(*parsed);
    }
    for (const ProtocolSpec& protocol : axis) {
      for (const std::uint32_t n : spec.n_values) {
        for (const std::uint32_t d : spec.d_values) {
          s.cells.push_back(State::Cell{&scenario, protocol, n, d});
        }
      }
    }
  }
  // Guard: the reconstruction must name the plan's cells exactly.
  if (s.cells.size() != plan.keys().size()) die("replay grid size mismatch");
  for (std::size_t c = 0; c < s.cells.size(); ++c) {
    const SweepCellKey& key = plan.keys()[c];
    const State::Cell& cell = s.cells[c];
    if (key.scenario != cell.scenario->name() ||
        key.protocol != cell.protocol.canonical() || key.n != cell.n ||
        key.d != cell.d) {
      die("replay cell " + std::to_string(c) + " differs from the plan's");
    }
  }
  for (const std::string& name : spec.metrics) {
    s.needs_snapshot |= is_snapshot_metric(name);
    s.needs_flood |= is_flood_metric(name);
  }
  std::string error;
  const auto observer_spec = ObserverSpec::parse(spec.observers, &error);
  if (!observer_spec.has_value()) die(error);
  s.observers = make_observer_set(*observer_spec);
}

JobReplayer::~JobReplayer() = default;

std::vector<double> JobReplayer::replay(std::uint64_t job, Tracer& tracer,
                                        JobCounts& out) {
  State& s = *state_;
  const SweepSpec& spec = plan_.spec();
  const State::Cell& cell = s.cells[plan_.job_cell(job)];
  const auto tag = static_cast<std::int64_t>(job);
  out = JobCounts{};

  ScenarioParams params;
  params.n = cell.n;
  params.d = cell.d;
  params.seed = plan_.job_seed(job);
  params.max_in_degree = spec.max_in_degree;
  params.intra_threads = spec.intra_threads;

  ObserverSet& observers = s.observers;
  const bool has_observers = !observers.empty();
  const bool incremental = spec.incremental_observers && has_observers;
  std::vector<double> values;
  FloodTrace disseminated_trace;
  bool ran_flood_protocol = false;
  {
    const Scope job_span(tracer, "job", tag);
    AnyNetwork net = [&] {
      const Scope span(tracer, "models.make", tag);
      return cell.scenario->make(params);
    }();
    {
      const telemetry::TrialRecorder recorder;
      {
        const Scope span(tracer, "models.warm_up", tag);
        net.warm_up();
      }
      out.warm_up_events = churn_events(recorder.finish());
    }

    // Observers: begin_trial, each observer's baseline scan (incremental
    // mode) and the observation window, as run_job drives them.
    if (has_observers) {
      const std::uint64_t trial_seed = derive_seed(params.seed, 2, 0);
      const std::uint32_t window = observers.observation_rounds();
      {
        const Scope span(tracer, "observe.begin", tag);
        observers.begin_trial(trial_seed);
      }
      if (incremental) {
        net.attach_change_feed(&s.feed);
        for (std::size_t i = 0; i < observers.size(); ++i) {
          MetricObserver& observer = observers.at(i);
          const Scope span(tracer, observer_span(observer), tag);
          observer.on_trial_start(net.graph(), net.now());
        }
        if (window > 0) {
          const Scope span(tracer, "churn.window", tag);
          for (std::uint32_t r = 0; r < window; ++r) {
            s.feed.clear();
            net.step();
            observers.on_round(net.graph(), net.now());
            observers.on_deltas(net.graph(), s.feed.deltas(), net.now());
          }
        }
        net.attach_change_feed(nullptr);
      } else if (window > 0) {
        const Scope span(tracer, "churn.window", tag);
        for (std::uint32_t r = 0; r < window; ++r) {
          net.step();
          observers.on_round(net.graph(), net.now());
        }
      }
    }

    const double alive = static_cast<double>(net.graph().alive_count());
    out.alive = net.graph().alive_count();
    out.births = net.graph().total_births();
    out.edges = net.graph().edge_count();

    // ObserverSet::observe, call by call: the shared snapshot (the first
    // observation of a trial is always a fresh capture, incremental or
    // not), on_snapshot for the snapshot observers, on_observe for all.
    Snapshot shared;
    const Snapshot* snap = nullptr;
    const telemetry::TrialRecorder snapshot_recorder;
    if (has_observers) {
      const Scope observe_span(tracer, "observe.observe", tag);
      bool dense = false;
      for (std::size_t i = 0; i < observers.size(); ++i) {
        dense = dense || observers.at(i).needs_dense_snapshot();
      }
      if (dense) {
        {
          const Scope span(tracer, "graph.snapshot", tag);
          shared = Snapshot::capture(net.graph(), net.now());
        }
        snap = &shared;
        for (std::size_t i = 0; i < observers.size(); ++i) {
          MetricObserver& observer = observers.at(i);
          if (!observer.wants_snapshot()) continue;
          const Scope span(tracer, observer_span(observer), tag);
          observer.on_snapshot(shared);
        }
      }
      for (std::size_t i = 0; i < observers.size(); ++i) {
        MetricObserver& observer = observers.at(i);
        const Scope span(tracer, observer_span(observer), tag);
        observer.on_observe(net.graph(), net.now());
      }
    }
    Snapshot local;
    if (s.needs_snapshot && snap == nullptr) {
      const Scope span(tracer, "graph.snapshot", tag);
      local = net.snapshot();
      snap = &local;
    }
    out.snapshot_bytes = snapshot_bytes(snapshot_recorder.finish());
    DegreeStats degrees;
    Components components;
    if (s.needs_snapshot) {
      {
        const Scope span(tracer, "graph.degree_stats", tag);
        degrees = degree_stats(*snap);
      }
      const Scope span(tracer, "graph.components", tag);
      components = connected_components(*snap);
    }

    FloodTrace trace;
    ProtocolStats stats;
    if (s.needs_flood || (has_observers && observers.wants_dissemination())) {
      const std::string key = cell.protocol.canonical();
      std::unique_ptr<DisseminationProtocol>& protocol = s.protocols[key];
      if (protocol == nullptr) protocol = make_protocol(cell.protocol);
      ProtocolOptions options =
          protocol_options(cell.protocol, derive_seed(params.seed, 1, 0));
      options.flood.intra_threads = spec.intra_threads;
      ProtocolResult run = [&] {
        const Scope span(tracer, "protocols.disseminate", tag);
        return net.disseminate(*protocol, options, s.protocol_scratch);
      }();
      if (has_observers) {
        const Scope span(tracer, "observe.dissemination", tag);
        observers.on_dissemination(run.trace, &run.stats);
      }
      trace = std::move(run.trace);
      stats = run.stats;
      out.flood_steps = trace.steps;
      out.messages = stats.total_messages();
      out.useful = stats.useful_deliveries;
      out.duplicate = stats.duplicate_deliveries;
      ran_flood_protocol = key == "flood";
    }

    values.reserve(plan_.metric_names().size());
    for (const std::string& name : spec.metrics) {
      if (name == "alive") {
        values.push_back(alive);
      } else if (name == "mean_degree") {
        values.push_back(degrees.mean);
      } else if (name == "max_degree") {
        values.push_back(static_cast<double>(degrees.max));
      } else if (name == "isolated") {
        values.push_back(static_cast<double>(degrees.isolated));
      } else if (name == "largest_component_frac") {
        values.push_back(
            alive > 0.0 ? static_cast<double>(components.largest_size) / alive
                        : std::nan(""));
      } else if (name == "completion_step") {
        values.push_back(trace.completed
                             ? static_cast<double>(trace.completion_step)
                             : std::nan(""));
      } else if (name == "final_fraction") {
        values.push_back(trace.final_fraction);
      } else if (name == "peak_informed") {
        values.push_back(static_cast<double>(trace.peak_informed));
      } else if (name == "flood_steps") {
        values.push_back(static_cast<double>(trace.steps));
      } else if (name == "messages") {
        values.push_back(static_cast<double>(stats.total_messages()));
      } else if (name == "useful_deliveries") {
        values.push_back(static_cast<double>(stats.useful_deliveries));
      } else if (name == "duplicate_deliveries") {
        values.push_back(static_cast<double>(stats.duplicate_deliveries));
      } else if (name == "lost_messages") {
        values.push_back(static_cast<double>(stats.lost_messages));
      } else {
        die("replay does not know metric '" + name + "'");
      }
    }
    if (has_observers) {
      const Scope span(tracer, "observe.append", tag);
      observers.append_values(values);
    }
    disseminated_trace = std::move(trace);
  }

  // The flooding reference: AnyNetwork::flood on a same-seed rebuild of
  // the job's network, after the replayed network is gone (peak memory
  // stays one network). Without observers nothing advanced the network
  // between warm-up and dissemination, so the rebuild floods the same
  // state disseminate(flood) did.
  if (ran_flood_protocol && !has_observers) {
    const Scope root(tracer, "reference", tag);
    AnyNetwork net = [&] {
      const Scope span(tracer, "reference.make", tag);
      return cell.scenario->make(params);
    }();
    {
      const Scope span(tracer, "reference.warm_up", tag);
      net.warm_up();
    }
    ProtocolOptions options =
        protocol_options(cell.protocol, derive_seed(params.seed, 1, 0));
    options.flood.intra_threads = spec.intra_threads;
    const FloodTrace flooded = [&] {
      const Scope span(tracer, "flooding.flood", tag);
      return net.flood(options.flood, s.flood_scratch);
    }();
    out.flood_reference = true;
    out.flood_trace_equal = traces_equal(flooded, disseminated_trace);
  }
  return values;
}

VictimProbe probe_victim_selection(std::uint32_t n, std::uint64_t seed,
                                   std::uint32_t picks_per_rule) {
  ScenarioParams params;
  params.n = n;
  params.d = 8;
  params.seed = seed;
  const AnyNetwork net =
      ScenarioRegistry::extended().resolve("PDGR").make_warmed(params);
  const DynamicGraphView view(net.graph());
  const std::pair<const char*, AdversaryRule> rules[] = {
      {"maxdeg", AdversaryRule::kMaxDegree},
      {"mindeg", AdversaryRule::kMinDegree},
      {"cutset", AdversaryRule::kCutSet},
      {"eclipse", AdversaryRule::kEclipse},
  };
  VictimProbe probe;
  std::uint64_t checksum = 0;
  for (const auto& [name, rule] : rules) {
    AdversaryPolicy policy(AdversaryConfig{rule, 1.0}, adversary_seed(seed));
    const auto start = Clock::now();
    for (std::uint32_t i = 0; i < picks_per_rule; ++i) {
      checksum += policy.select(view).slot;
    }
    probe.ns_per_pick[name] = seconds_since(start) * 1e9 / picks_per_rule;
    probe.picks += picks_per_rule;
  }
  // Keeps the picks observable, so no select() call can be elided.
  if (checksum == ~std::uint64_t{0}) std::fputc('\n', stderr);
  return probe;
}

}  // namespace churnbench
