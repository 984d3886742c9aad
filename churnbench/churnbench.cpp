// churnbench: the benchmark program behind churnbench/run.py. It receives a
// generated SweepSpec (JSON file) and runs it through libchurnet's public
// engine entry points, printing raw measurements as one JSON document on
// stdout; run.py turns them into the benchmark's metrics and checks.
//
//   churnbench --spec FILE --mode timed|traced --exec inproc|service
//              --seconds S --workdir DIR [--spans FILE] [--corrupt-job J]
//
// timed/inproc   passes of SweepPlan::run_job over every job, then fold,
//                repeated while the next pass fits in S seconds
// timed/service  one in-process reference pass (SweepPlan), then passes of
//                SweepService with 2 worker processes, a checkpoint journal,
//                an NDJSON result stream and CSV/JSON output; every pass's
//                CSV must be byte-identical to the reference fold
// traced         every job once through run_job and once through the span-
//                traced replay (replay.hpp), rows compared bit for bit; the
//                service exec also runs one traced 2-worker campaign; plus
//                the victim-selection probe
//
// Single-threaded throughout (threads = 1; the spec carries
// intra_threads = 1); only the service exec forks, two workers.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "churnet/churnet.hpp"
#include "replay.hpp"

namespace fs = std::filesystem;
using namespace churnet;
using namespace churnbench;

namespace {

// One set-up takes 5-30 us, too short to time alone on a shared host, so
// a sample is the mean over kSetupsPerBatch consecutive set-ups. The host's
// speed drifts over seconds, so a timed run takes kBatchesPerPoint samples
// at its start and again between jobs whenever kSetupEverySeconds have
// passed; setup_s is their median. engine.plan_s and
// service.files_setup_s are medians of samples taken once, in the traced
// run.
constexpr int kSetupsPerBatch = 50;
constexpr int kBatchesPerPoint = 4;
constexpr double kSetupEverySeconds = 1.0;
constexpr int kPlanBatches = 21;
constexpr int kFilesBatches = 5;
constexpr unsigned kServiceWorkers = 2;
// The victim probe runs at the resilience workload's n.
constexpr std::uint32_t kVictimProbeN = 4000;
constexpr std::uint32_t kVictimPicksPerRule = 2000;

struct Args {
  std::string spec;
  std::string mode = "timed";
  std::string exec = "inproc";
  double seconds = 10.0;
  std::string workdir;
  std::string spans;
  std::int64_t corrupt_job = -1;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "churnbench: %s\nusage: churnbench --spec FILE --mode "
               "timed|traced --exec inproc|service --seconds S --workdir DIR "
               "[--spans FILE] [--corrupt-job J]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--spec") {
        args.spec = value;
      } else if (flag == "--mode") {
        args.mode = value;
      } else if (flag == "--exec") {
        args.exec = value;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--workdir") {
        args.workdir = value;
      } else if (flag == "--spans") {
        args.spans = value;
      } else if (flag == "--corrupt-job") {
        args.corrupt_job = std::stoll(value);
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.spec.empty() || args.workdir.empty()) {
    usage("--spec and --workdir are required");
  }
  if ((args.mode != "timed" && args.mode != "traced") ||
      (args.exec != "inproc" && args.exec != "service")) {
    usage("bad --mode or --exec");
  }
  if (!(args.seconds > 0.0)) usage("--seconds must be > 0");
  return args;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) usage("cannot read " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

SweepSpec parse_spec(const std::string& text) {
  std::string error;
  std::optional<SweepSpec> spec = SweepSpec::from_json_text(text, &error);
  if (!spec.has_value()) usage("invalid sweep spec: " + error);
  return std::move(*spec);
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t value) {
  char buffer[19];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::string csv_of(const SweepResult& result) {
  std::ostringstream os;
  result.write_csv(os);
  return os.str();
}

std::vector<std::vector<double>> flat_rows(const SweepResult& result) {
  std::vector<std::vector<double>> rows;
  for (const auto& cell : result.samples()) {
    rows.insert(rows.end(), cell.begin(), cell.end());
  }
  return rows;
}

/// This process's peak RSS (VmHWM). getrusage's ru_maxrss would not do:
/// Linux carries it across execve, so it would report the launching
/// process's peak whenever that was larger.
long peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return self.ru_maxrss;
}

std::uint64_t file_size_or_zero(const fs::path& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

/// One pass over the workload's grid, as the JSON document reports it.
struct Pass {
  std::string kind;  // "inproc", "reference", "service" or "traced"
  std::uint64_t jobs = 0;
  double wall_s = 0.0;
  std::set<std::uint64_t> failed_jobs;
  std::vector<std::vector<double>> rows;
};

/// A set-up workload: plan (and, for the service exec, the campaign's
/// checkpoint directory, result stream and service) ready to run.
struct Ready {
  std::optional<SweepPlan> plan;
  fs::path checkpoint_dir;
  fs::path stream_path;
  std::ofstream stream;
  std::optional<SweepService> service;
};

/// Spec resolution, SweepPlan construction and, for the campaign, the
/// SweepService: the in-memory part of everything before the first job can
/// start, which setup_s times.
void set_up(const std::string& spec_text, const Args& args,
            const fs::path& campaign_dir, Ready& ready) {
  SweepSpec spec = parse_spec(spec_text);
  ready.plan.emplace(spec, ScenarioRegistry::extended());
  if (args.exec == "service") {
    ready.checkpoint_dir = campaign_dir / "checkpoint";
    ready.stream_path = campaign_dir / "results.ndjson";
    SweepServiceOptions options;
    options.threads = 1;
    options.workers = kServiceWorkers;
    options.checkpoint_dir = ready.checkpoint_dir.string();
    options.results = &ready.stream;
    options.tool = "churnbench";
    ready.service.emplace(std::move(spec), std::move(options));
  }
}

/// The rest of a campaign's set-up: a fresh checkpoint directory and the
/// result stream. setup_s leaves it out because the kernel's cost of
/// creating them drifts several-fold within minutes on a shared host; the
/// traced run reports it as service.files_setup_s.
void open_campaign_files(Ready& ready) {
  fs::remove_all(ready.checkpoint_dir.parent_path());
  fs::create_directories(ready.checkpoint_dir);
  ready.stream.open(ready.stream_path, std::ios::binary | std::ios::trunc);
}

/// The mean wall time of `step(slot)` over kSetupsPerBatch consecutive
/// calls. Objects the batch builds live in slots until it ends, so no call
/// pays for tearing down the one before.
template <typename T, typename Step>
double batch_seconds(Step&& step) {
  std::vector<T> slots(kSetupsPerBatch);
  const auto start = Clock::now();
  for (int slot = 0; slot < kSetupsPerBatch; ++slot) step(slots[slot]);
  return seconds_since(start) / kSetupsPerBatch;
}

/// setup_s samples, taken at points spread over a timed run.
class SetupSampler {
 public:
  SetupSampler(const std::string& spec_text, const Args& args)
      : spec_text_(spec_text), args_(args) {
    sample();
  }

  /// Samples if kSetupEverySeconds have passed since the last point;
  /// returns the seconds spent, for the caller to leave out of its timing.
  double sample_if_due() {
    if (seconds_since(last_) < kSetupEverySeconds) return 0.0;
    const auto start = Clock::now();
    sample();
    return seconds_since(start);
  }

  const std::vector<double>& samples() const { return samples_; }

 private:
  void sample() {
    for (int b = 0; b < kBatchesPerPoint; ++b) {
      samples_.push_back(batch_seconds<Ready>(
          [&](Ready& ready) { set_up(spec_text_, args_, {}, ready); }));
    }
    last_ = Clock::now();
  }

  const std::string& spec_text_;
  const Args& args_;
  Clock::time_point last_;
  std::vector<double> samples_;
};

/// The --corrupt-job test hook, applied to the copy of a row the checks
/// read: its first value becomes -1.
void corrupt(const Args& args, std::uint64_t job, std::vector<double>& row) {
  if (args.corrupt_job == static_cast<std::int64_t>(job) && !row.empty()) {
    row[0] = -1.0;
  }
}

void corrupt_rows(const Args& args, Pass& pass) {
  for (std::uint64_t job = 0; job < pass.jobs; ++job) {
    corrupt(args, job, pass.rows[job]);
  }
}

/// Every job through run_job into pass.rows, each timed into job_s; a job
/// that throws is recorded as failed with a NaN row. Set-up samples fall
/// between jobs; returns the seconds they took.
double run_jobs(const SweepPlan& plan, Pass& pass, std::vector<double>& job_s,
                SetupSampler& setups) {
  double sampling_s = 0.0;
  for (std::uint64_t job = 0; job < pass.jobs; ++job) {
    sampling_s += setups.sample_if_due();
    const auto job_start = Clock::now();
    try {
      pass.rows[job] = plan.run_job(job);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "churnbench: job %llu threw: %s\n",
                   static_cast<unsigned long long>(job), e.what());
      pass.failed_jobs.insert(job);
      pass.rows[job].assign(plan.metric_names().size(), std::nan(""));
    }
    job_s.push_back(seconds_since(job_start));
  }
  return sampling_s;
}

Pass empty_pass(std::string kind, const SweepPlan& plan) {
  Pass pass;
  pass.kind = std::move(kind);
  pass.jobs = plan.job_count();
  pass.rows.resize(pass.jobs);
  return pass;
}

/// One SweepService campaign with its CSV and JSON sinks; `csv` receives
/// the CSV (empty when the campaign failed, which fails every job).
Pass run_service_pass(Ready& ready, const fs::path& campaign_dir,
                      std::string* csv) {
  Pass pass = empty_pass("service", *ready.plan);
  const auto start = Clock::now();
  std::optional<SweepResult> result;
  try {
    result.emplace(ready.service->run(ScenarioRegistry::extended()));
    *csv = csv_of(*result);
    std::ofstream(campaign_dir / "campaign.csv", std::ios::binary) << *csv;
    std::ofstream json(campaign_dir / "campaign.json", std::ios::binary);
    result->write_json(json);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "churnbench: campaign failed: %s\n", e.what());
    csv->clear();
  }
  pass.wall_s = seconds_since(start);
  ready.stream.close();
  if (result.has_value()) {
    pass.rows = flat_rows(*result);
  } else {
    for (std::uint64_t job = 0; job < pass.jobs; ++job) {
      pass.failed_jobs.insert(job);
      pass.rows[job].assign(ready.plan->metric_names().size(), std::nan(""));
    }
  }
  return pass;
}

/// A campaign's rows must equal the in-process reference's bit for bit and
/// its CSV byte for byte; differing jobs (all of them, for a CSV-only
/// difference) count as failed.
void check_campaign(Pass& campaign, const std::string& csv,
                    const Pass& reference, const std::string& reference_csv) {
  for (std::uint64_t job = 0; job < campaign.jobs; ++job) {
    if (!rows_identical(campaign.rows[job], reference.rows[job])) {
      campaign.failed_jobs.insert(job);
    }
  }
  if (csv != reference_csv && campaign.failed_jobs.empty()) {
    std::fprintf(stderr, "churnbench: campaign CSV differs from the "
                         "in-process fold\n");
    for (std::uint64_t job = 0; job < campaign.jobs; ++job) {
      campaign.failed_jobs.insert(job);
    }
  }
}

void write_number_array(std::ostream& os, const std::vector<double>& xs) {
  os << '[';
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) os << ',';
    write_json_number(os, xs[i]);
  }
  os << ']';
}

void write_passes(std::ostream& os, const std::vector<Pass>& passes) {
  os << "\"passes\":[";
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const Pass& pass = passes[p];
    if (p > 0) os << ',';
    os << "{\"kind\":\"" << pass.kind << "\",\"jobs\":" << pass.jobs
       << ",\"wall_s\":" << pass.wall_s << ",\"failed_jobs\":[";
    bool first = true;
    for (const std::uint64_t job : pass.failed_jobs) {
      os << (first ? "" : ",") << job;
      first = false;
    }
    os << "],\"rows\":[";
    for (std::size_t j = 0; j < pass.rows.size(); ++j) {
      if (j > 0) os << ',';
      write_number_array(os, pass.rows[j]);
    }
    os << "]}";
  }
  os << ']';
}

void write_common(std::ostream& os, const Args& args, const SweepPlan& plan,
                  const std::string& csv) {
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  os << "\"mode\":\"" << args.mode << "\",\"exec\":\"" << args.exec
     << "\",\"metric_names\":[";
  for (std::size_t i = 0; i < plan.metric_names().size(); ++i) {
    if (i > 0) os << ',';
    write_json_string(os, plan.metric_names()[i]);
  }
  os << "],\"job_count\":" << plan.job_count() << ",\"csv_fnv\":\""
     << hex(fnv1a(csv)) << "\",\"peak_rss_kb\":{\"self\":" << peak_rss_kb()
     << ",\"children\":" << children.ru_maxrss << '}';
}

int run_timed(const Args& args, const std::string& spec_text) {
  const auto run_start = Clock::now();
  const fs::path workdir(args.workdir);
  SetupSampler setups(spec_text, args);

  // Another round starts only while the mean round so far still fits in
  // the time budget; the first always runs.
  std::vector<double> rounds;
  const auto budget_left = [&] {
    double total = 0.0;
    for (const double round : rounds) total += round;
    const double mean =
        rounds.empty() ? 0.0 : total / static_cast<double>(rounds.size());
    return rounds.empty() || seconds_since(run_start) + mean <= args.seconds;
  };
  std::vector<Pass> passes;
  std::vector<double> job_s;
  std::string csv;
  std::optional<SweepPlan> plan;
  if (args.exec == "inproc") {
    while (budget_left()) {
      const auto round_start = Clock::now();
      Ready ready;
      set_up(spec_text, args, {}, ready);
      Pass pass = empty_pass("inproc", *ready.plan);
      const auto start = Clock::now();
      const double sampling_s = run_jobs(*ready.plan, pass, job_s, setups);
      const SweepResult result =
          ready.plan->fold(pass.rows, seconds_since(start) - sampling_s, 1);
      pass.wall_s = seconds_since(start) - sampling_s;
      if (passes.empty()) csv = csv_of(result);
      corrupt_rows(args, pass);
      passes.push_back(std::move(pass));
      if (!plan.has_value()) plan.emplace(std::move(*ready.plan));
      rounds.push_back(seconds_since(round_start));
    }
  } else {
    // The in-process reference: the per-job times (forked workers' jobs are
    // not visible here) and the rows and CSV every campaign must match.
    plan.emplace(parse_spec(spec_text), ScenarioRegistry::extended());
    Pass reference = empty_pass("reference", *plan);
    const auto start = Clock::now();
    const double sampling_s = run_jobs(*plan, reference, job_s, setups);
    reference.wall_s = seconds_since(start) - sampling_s;
    csv = csv_of(plan->fold(reference.rows, reference.wall_s, 1));
    corrupt_rows(args, reference);
    passes.push_back(std::move(reference));
    for (int k = 0; budget_left(); ++k) {
      setups.sample_if_due();
      const auto round_start = Clock::now();
      const fs::path dir = workdir / ("campaign-" + std::to_string(k));
      Ready ready;
      set_up(spec_text, args, dir, ready);
      open_campaign_files(ready);
      std::string campaign_csv;
      Pass campaign = run_service_pass(ready, dir, &campaign_csv);
      check_campaign(campaign, campaign_csv, passes.front(), csv);
      passes.push_back(std::move(campaign));
      rounds.push_back(seconds_since(round_start));
    }
  }

  std::ostream& os = std::cout;
  const PrecisionGuard precision(os);
  os << '{';
  write_common(os, args, *plan, csv);
  os << ",\"setup_s\":";
  write_number_array(os, setups.samples());
  os << ",\"job_s\":";
  write_number_array(os, job_s);
  os << ',';
  write_passes(os, passes);
  os << "}\n";
  return 0;
}

double median_of(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

int run_traced(const Args& args, const std::string& spec_text) {
  const ScenarioRegistry& registry = ScenarioRegistry::extended();
  Tracer tracer;
  std::vector<double> plan_s;
  for (int b = 0; b < kPlanBatches; ++b) {
    plan_s.push_back(batch_seconds<std::optional<SweepPlan>>(
        [&](std::optional<SweepPlan>& plan) {
          plan.emplace(parse_spec(spec_text), registry);
        }));
  }
  std::optional<SweepPlan> plan;
  plan.emplace(parse_spec(spec_text), registry);
  JobReplayer replayer(*plan, registry);

  const std::uint64_t jobs = plan->job_count();
  Pass pass = empty_pass("traced", *plan);
  double untraced_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t flood_steps = 0;
  std::uint64_t messages = 0;
  std::uint64_t useful = 0;
  std::uint64_t duplicate = 0;
  std::uint64_t max_alive = 0;
  std::uint64_t max_edges = 0;
  std::uint64_t max_snapshot_bytes = 0;
  std::set<std::int64_t> flood_reference_jobs;
  std::uint64_t replay_mismatches = 0;
  std::uint64_t flood_trace_mismatches = 0;
  std::uint64_t births_violations = 0;
  for (std::uint64_t job = 0; job < jobs; ++job) {
    // Odd jobs are replayed before their run_job call, even jobs after it,
    // so neither side of trace.overhead_frac always finds the caches and
    // the allocator warmed by the other.
    const bool replay_first = job % 2 == 1;
    JobCounts counts;
    std::vector<double> replayed;
    if (replay_first) replayed = replayer.replay(job, tracer, counts);
    const auto start = Clock::now();
    try {
      pass.rows[job] = plan->run_job(job);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "churnbench: job %llu threw: %s\n",
                   static_cast<unsigned long long>(job), e.what());
      pass.failed_jobs.insert(job);
      pass.rows[job].assign(plan->metric_names().size(), std::nan(""));
      continue;
    }
    untraced_s += seconds_since(start);
    pass.wall_s = untraced_s;
    if (!replay_first) replayed = replayer.replay(job, tracer, counts);
    corrupt(args, job, replayed);
    if (!rows_identical(replayed, pass.rows[job])) {
      std::fprintf(stderr, "churnbench: replayed row of job %llu differs "
                           "from run_job's\n",
                   static_cast<unsigned long long>(job));
      ++replay_mismatches;
      pass.failed_jobs.insert(job);
    }
    if (!counts.flood_trace_equal) {
      std::fprintf(stderr, "churnbench: job %llu: AnyNetwork::flood trace "
                           "differs from disseminate(flood)'s\n",
                   static_cast<unsigned long long>(job));
      ++flood_trace_mismatches;
      pass.failed_jobs.insert(job);
    }
    if (counts.alive > counts.births) {
      ++births_violations;
      pass.failed_jobs.insert(job);
    }
    if (counts.flood_reference) {
      flood_reference_jobs.insert(static_cast<std::int64_t>(job));
    }
    events += counts.warm_up_events;
    flood_steps += counts.flood_steps;
    messages += counts.messages;
    useful += counts.useful;
    duplicate += counts.duplicate;
    max_alive = std::max(max_alive, counts.alive);
    max_edges = std::max(max_edges, counts.edges);
    max_snapshot_bytes = std::max(max_snapshot_bytes, counts.snapshot_bytes);
  }

  std::optional<SweepResult> result;
  {
    const Scope span(tracer, "engine.fold", -1);
    result.emplace(plan->fold(pass.rows, untraced_s, 1));
  }
  std::string csv;
  {
    const Scope span(tracer, "engine.csv", -1);
    csv = csv_of(*result);
  }
  std::string json;
  {
    const Scope span(tracer, "engine.json", -1);
    std::ostringstream os;
    result->write_json(os);
    json = os.str();
  }

  // The traced campaign: one 2-worker SweepService run, its journal and
  // stream sizes, and its CSV against the in-process fold.
  double service_wall = 0.0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t stream_bytes = 0;
  if (args.exec == "service") {
    const fs::path dir = fs::path(args.workdir) / "campaign-traced";
    Ready ready;
    set_up(spec_text, args, dir, ready);
    open_campaign_files(ready);
    std::string campaign_csv;
    Pass campaign;
    {
      const Scope span(tracer, "service.run", -1);
      campaign = run_service_pass(ready, dir, &campaign_csv);
    }
    check_campaign(campaign, campaign_csv, pass, csv);
    service_wall = campaign.wall_s;
    pass.failed_jobs.insert(campaign.failed_jobs.begin(),
                            campaign.failed_jobs.end());
    journal_bytes = file_size_or_zero(ready.checkpoint_dir / "journal.ndjson");
    stream_bytes = file_size_or_zero(ready.stream_path);
  }

  // The campaign's file set-up, each on a directory of its own, as a
  // campaign's first set-up finds none.
  std::vector<double> files_s;
  if (args.exec == "service") {
    for (int b = 0; b < kFilesBatches; ++b) {
      std::vector<Ready> readies(kSetupsPerBatch);
      for (int i = 0; i < kSetupsPerBatch; ++i) {
        const int index = b * kSetupsPerBatch + i;
        set_up(spec_text, args,
               fs::path(args.workdir) / ("files-" + std::to_string(index)),
               readies[i]);
      }
      const auto start = Clock::now();
      for (Ready& ready : readies) open_campaign_files(ready);
      files_s.push_back(seconds_since(start) / kSetupsPerBatch);
    }
  }

  VictimProbe probe;
  {
    const Scope span(tracer, "churn.victim_probe", -1);
    probe = probe_victim_selection(kVictimProbeN, plan->spec().base_seed,
                                   kVictimPicksPerRule);
  }

  // Per-layer figures from the spans.
  const std::vector<Tracer::Span>& spans = tracer.spans();
  const std::map<std::string, double> totals = tracer.total_seconds();
  const auto total = [&totals](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second;
  };
  double traced_job_s = 0.0;
  double covered_s = 0.0;
  double flood_cell_disseminate_s = 0.0;
  for (const Tracer::Span& span : spans) {
    const double duration = span.end_s - span.start_s;
    if (span.parent < 0 && span.name == "job") traced_job_s += duration;
    if (span.parent >= 0 &&
        spans[static_cast<std::size_t>(span.parent)].name == "job") {
      covered_s += duration;
    }
    if (span.name == "protocols.disseminate" &&
        flood_reference_jobs.count(span.job) != 0) {
      flood_cell_disseminate_s += duration;
    }
  }
  const auto column_values = [&](const std::string& column) {
    std::vector<double> values;
    const auto& names = plan->metric_names();
    const auto it = std::find(names.begin(), names.end(), column);
    if (it == names.end()) return values;
    const auto index = static_cast<std::size_t>(it - names.begin());
    for (const auto& row : pass.rows) {
      if (index < row.size() && std::isfinite(row[index])) {
        values.push_back(row[index]);
      }
    }
    return values;
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  std::vector<std::pair<std::string, double>> layers;
  const auto add = [&layers](std::string name, double value) {
    layers.emplace_back(std::move(name), value);
  };
  const double warm_up_s = total("models.warm_up");
  add("models.make_s", total("models.make"));
  add("models.warm_up_s", warm_up_s);
  add("models.warm_up_events", static_cast<double>(events));
  add("models.warm_up_ns_per_event",
      ratio(warm_up_s * 1e9, static_cast<double>(events)));
  for (const char* rule : {"maxdeg", "mindeg", "cutset", "eclipse"}) {
    add(std::string("churn.victim_ns.") + rule, probe.ns_per_pick[rule]);
  }
  add("churn.victim_picks", static_cast<double>(probe.picks));
  add("graph.snapshot_s", total("graph.snapshot"));
  add("graph.snapshot_bytes", static_cast<double>(max_snapshot_bytes));
  add("graph.degree_stats_s", total("graph.degree_stats"));
  add("graph.components_s", total("graph.components"));
  add("graph.alive", static_cast<double>(max_alive));
  add("graph.edges", static_cast<double>(max_edges));
  const double disseminate_s = total("protocols.disseminate");
  add("protocols.disseminate_s", disseminate_s);
  add("protocols.flood_steps", static_cast<double>(flood_steps));
  add("protocols.messages", static_cast<double>(messages));
  add("protocols.ns_per_message",
      ratio(disseminate_s * 1e9, static_cast<double>(messages)));
  add("protocols.useful_ratio", ratio(static_cast<double>(useful),
                                      static_cast<double>(useful + duplicate)));
  const double flood_s = total("flooding.flood");
  add("flooding.flood_s", flood_s);
  add("flooding.disseminate_over_flood",
      ratio(flood_cell_disseminate_s, flood_s));
  add("observe.begin_s", total("observe.begin"));
  add("observe.observe_s", total("observe.observe"));
  for (const char* observer : {"expansion", "spectral", "isolated", "degrees"}) {
    add(std::string("observe.") + observer + "_s",
        total(std::string("observe.") + observer));
  }
  double sets_probed = 0.0;
  for (const double v : column_values("expansion_sets_probed")) {
    sets_probed += v;
  }
  add("expansion.sets_probed", sets_probed);
  const std::vector<double> converged = column_values("spectral_converged");
  double converged_sum = 0.0;
  for (const double v : converged) converged_sum += v;
  add("spectral.converged_frac",
      ratio(converged_sum, static_cast<double>(converged.size())));
  const double fold_s = total("engine.fold");
  add("engine.plan_s", median_of(plan_s));
  add("engine.fold_s", fold_s);
  add("engine.csv_s", total("engine.csv"));
  add("engine.csv_bytes", static_cast<double>(csv.size()));
  add("engine.json_s", total("engine.json"));
  const double njobs = static_cast<double>(jobs);
  add("service.overhead_frac",
      service_wall > 0.0 ? 1.0 - traced_job_s / (kServiceWorkers * service_wall)
                         : 0.0);
  add("service.files_setup_s", files_s.empty() ? 0.0 : median_of(files_s));
  add("service.scaling_eff",
      service_wall > 0.0
          ? ratio(njobs / service_wall,
                  kServiceWorkers * ratio(njobs, untraced_s + fold_s))
          : 0.0);
  add("journal.bytes_per_job",
      ratio(static_cast<double>(journal_bytes), njobs));
  add("stream.bytes_per_job", ratio(static_cast<double>(stream_bytes), njobs));
  add("trace.unexplained_frac", 1.0 - ratio(covered_s, traced_job_s));
  add("trace.overhead_frac", ratio(traced_job_s, untraced_s) - 1.0);

  if (!args.spans.empty()) {
    std::ofstream out(args.spans, std::ios::binary | std::ios::trunc);
    tracer.write_ndjson(out);
  }

  std::ostream& os = std::cout;
  const PrecisionGuard precision(os);
  os << '{';
  write_common(os, args, *plan, csv);
  os << ",\"checks\":{\"replay_mismatches\":" << replay_mismatches
     << ",\"flood_trace_mismatches\":" << flood_trace_mismatches
     << ",\"flood_reference_jobs\":" << flood_reference_jobs.size()
     << ",\"alive_over_births\":" << births_violations
     << "},\"layers\":{";
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (i > 0) os << ',';
    write_json_string(os, layers[i].first);
    os << ':';
    write_json_number(os, layers[i].second);
  }
  os << "},";
  write_passes(os, {pass});
  os << "}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::string spec_text = read_file(args.spec);
  std::filesystem::create_directories(args.workdir);
  return args.mode == "timed" ? run_timed(args, spec_text)
                              : run_traced(args, spec_text);
}
