#include "cli/cli.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <string_view>

#include "analysis/diminishing_returns.h"
#include "analysis/param_registry.h"
#include "analysis/sweep.h"
#include "cli/preset_registry.h"
#include "config/results_io.h"
#include "config/scenario_io.h"
#include "core/run_manifest.h"
#include "core/runner.h"
#include "metrics/report.h"
#include "obs/manifest.h"
#include "obs/report.h"
#include "obs/stats_stream.h"
#include "obs/sweep_stream.h"
#include "prof/profile_io.h"
#include "response/registry.h"
#include "trace/analysis.h"
#include "trace/export.h"
#include "trace/trace.h"
#include "util/json.h"

namespace mvsim::cli {

namespace {

constexpr const char* kUsage = R"(mvsim — mobile phone virus response simulator (DSN'07 reproduction)

usage:
  mvsim run <scenario.json | preset-name> [options]
      --reps N             replications (default 10)
      --seed N             master seed (default 3735928559)
      --threads N          worker threads (default: all cores; results identical)
      --curve-csv PATH     write the mean infection curve as CSV ('-' = stdout)
      --summary-json PATH  write the result summary as JSON ('-' = stdout)
      --metrics PATH       write the telemetry report ('-' = stdout; a path
                           ending in .csv selects CSV, anything else JSON;
                           see docs/observability.md)
      --trace PATH         record one replication's causal event trace
                           ('-' or a .jsonl path = JSONL, anything else =
                           Chrome trace JSON, loadable in Perfetto)
      --trace-rep N        which replication to trace (default 0)
      --trace-cap N        trace event capacity (default 1048576; 0 = unbounded)
      --profile PATH       time the event loop: write a per-event-type wall-clock
                           profile as JSON ('-' = stdout; results bit-identical,
                           see docs/observability.md)
      --shards N           partition the contact graph and run each replication on
                           N cooperating shard schedulers (default 1 = the serial
                           engine; N >= 2 changes results — see docs/parallelism.md;
                           composes with --trace, --profile and --stats-stream;
                           proximity scenarios are rejected)
      --shard-window MIN   synchronization window in simulated minutes (default:
                           the scenario's delivery_delay_mean; model-relevant,
                           like --shards)
      --shard-workers N    threads per sharded replication (default 0 = one per
                           shard; results identical for any value)
      --progress           live progress on stderr (replications done, events/sec,
                           ETA; with --shards also per-window progress); observation-only
      --stats-stream PATH  append live time-series telemetry as NDJSON ('-' =
                           stdout): infected/patched/blocked counts, events/sec,
                           queue depths, per-shard barrier waits; observation-only
                           (schema in docs/observability.md)
      --stats-period MIN   simulated minutes between stats samples (default 30;
                           sharded runs sample at the first window barrier at or
                           past each mark)
      --manifest PATH      write the run manifest as JSON ('-' = stdout): scenario
                           content hash, seed, build provenance, wall-clock phases,
                           peak RSS, artifact paths and the outcome block
                           (schema in docs/observability.md)
      --ledger PATH        append the manifest as one NDJSON line to an experiment
                           ledger (append-safe under concurrent runs)
      --quiet              suppress the human-readable summary
  mvsim sweep <scenario.json | preset-name> --param NAME --values V1,V2,...
              [--reps N] [--seed N] [--threads N] [--ledger PATH] [--stream PATH]
              [--knee-fraction F] [--progress]
                           run a parameter ladder: one experiment per value, a
                           manifest per point appended to the ledger, NDJSON sweep
                           progress on --stream, and the diminishing-returns knee
                           table (paper Sec. 5.3) on stdout
  mvsim sweep --list-params
                           list sweepable parameter names
  mvsim report <manifest.json>
                           single-run report from a manifest: provenance, outcome,
                           and the metrics/trace/profile artifacts it references
  mvsim report --ledger PATH [--knee-fraction F]
                           aggregate an experiment ledger: run table, sweep tables
                           with outcome-vs-parameter and knee detection
  mvsim report --compare <a.json> <b.json> [--threshold F]
                           diff two run manifests: normalized outcome deltas with
                           IMPROVED/REGRESSED/OK verdicts (exit 1 on regression,
                           default threshold 0.05)
  mvsim compare <a> <b> [...] [--reps N] [--seed N]
                           run several scenarios/presets, print a comparison table
  mvsim trace-analyze <file>
                           transmission-tree report from a --trace export
                           (generations, effective R, per-mechanism blocks)
  mvsim profile-analyze <file> [--top N]
                           "where the time goes" report from a --profile export
  mvsim preset <name>      print a preset scenario as JSON (edit & rerun)
  mvsim presets            list available presets
  mvsim mechanisms         list available response mechanisms (scenario "responses" keys)
  mvsim metrics-schema     print the telemetry metric catalogue as JSON
  mvsim validate <file>    parse and validate a scenario file
  mvsim help               this text
)";

struct RunOptions {
  std::string target;
  int replications = 10;
  std::uint64_t seed = 0xDEADBEEFULL;
  int threads = 0;
  std::string curve_csv;
  std::string summary_json;
  std::string metrics_path;
  std::string trace_path;
  int trace_replication = 0;
  std::size_t trace_capacity = trace::TraceBuffer::kDefaultCapacity;
  std::string profile_path;
  std::uint32_t shards = 1;
  double shard_window_minutes = 0.0;  // 0 = scenario delivery_delay_mean
  int shard_workers = 0;
  bool progress = false;
  std::string stats_stream_path;
  double stats_period_minutes = 30.0;
  std::string manifest_path;
  std::string ledger_path;
  bool quiet = false;
};

bool parse_u64(const std::string& text, std::uint64_t& out) {
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

bool looks_like_file(const std::string& target) {
  return target.find('.') != std::string::npos || target.find('/') != std::string::npos;
}

int parse_run_options(const std::vector<std::string>& args, RunOptions& options,
                      std::ostream& err) {
  if (args.empty()) {
    err << "run: missing scenario file or preset name\n";
    return 1;
  }
  options.target = args[0];
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto next = [&](const char* flag) -> const std::string* {
      if (i + 1 >= args.size()) {
        err << flag << ": missing value\n";
        return nullptr;
      }
      return &args[++i];
    };
    if (arg == "--reps") {
      const std::string* v = next("--reps");
      if (v == nullptr) return 1;
      std::uint64_t reps = 0;
      if (!parse_u64(*v, reps) || reps == 0 || reps > 100000) {
        err << "--reps: expected a positive integer, got '" << *v << "'\n";
        return 1;
      }
      options.replications = static_cast<int>(reps);
    } else if (arg == "--seed") {
      const std::string* v = next("--seed");
      if (v == nullptr) return 1;
      if (!parse_u64(*v, options.seed)) {
        err << "--seed: expected an integer, got '" << *v << "'\n";
        return 1;
      }
    } else if (arg == "--threads") {
      const std::string* v = next("--threads");
      if (v == nullptr) return 1;
      std::uint64_t threads = 0;
      if (!parse_u64(*v, threads) || threads > 1024) {
        err << "--threads: expected an integer in [0, 1024], got '" << *v << "'\n";
        return 1;
      }
      options.threads = static_cast<int>(threads);
    } else if (arg == "--curve-csv") {
      const std::string* v = next("--curve-csv");
      if (v == nullptr) return 1;
      options.curve_csv = *v;
    } else if (arg == "--summary-json") {
      const std::string* v = next("--summary-json");
      if (v == nullptr) return 1;
      options.summary_json = *v;
    } else if (arg == "--metrics") {
      const std::string* v = next("--metrics");
      if (v == nullptr) return 1;
      options.metrics_path = *v;
    } else if (arg == "--trace") {
      const std::string* v = next("--trace");
      if (v == nullptr) return 1;
      options.trace_path = *v;
    } else if (arg == "--trace-rep") {
      const std::string* v = next("--trace-rep");
      if (v == nullptr) return 1;
      std::uint64_t rep = 0;
      if (!parse_u64(*v, rep) || rep > 100000) {
        err << "--trace-rep: expected a replication index, got '" << *v << "'\n";
        return 1;
      }
      options.trace_replication = static_cast<int>(rep);
    } else if (arg == "--trace-cap") {
      const std::string* v = next("--trace-cap");
      if (v == nullptr) return 1;
      std::uint64_t cap = 0;
      if (!parse_u64(*v, cap)) {
        err << "--trace-cap: expected an event count (0 = unbounded), got '" << *v << "'\n";
        return 1;
      }
      options.trace_capacity =
          cap == 0 ? std::numeric_limits<std::size_t>::max() : static_cast<std::size_t>(cap);
    } else if (arg == "--profile") {
      const std::string* v = next("--profile");
      if (v == nullptr) return 1;
      options.profile_path = *v;
    } else if (arg == "--shards") {
      const std::string* v = next("--shards");
      if (v == nullptr) return 1;
      std::uint64_t shards = 0;
      if (!parse_u64(*v, shards) || shards == 0 || shards > 4096) {
        err << "--shards: expected an integer in [1, 4096], got '" << *v << "'\n";
        return 1;
      }
      options.shards = static_cast<std::uint32_t>(shards);
    } else if (arg == "--shard-window") {
      const std::string* v = next("--shard-window");
      if (v == nullptr) return 1;
      char* end = nullptr;
      double minutes = std::strtod(v->c_str(), &end);
      if (end != v->c_str() + v->size() || v->empty() || !(minutes > 0.0)) {
        err << "--shard-window: expected a positive number of simulated minutes, got '" << *v
            << "'\n";
        return 1;
      }
      options.shard_window_minutes = minutes;
    } else if (arg == "--shard-workers") {
      const std::string* v = next("--shard-workers");
      if (v == nullptr) return 1;
      std::uint64_t workers = 0;
      if (!parse_u64(*v, workers) || workers > 1024) {
        err << "--shard-workers: expected an integer in [0, 1024], got '" << *v << "'\n";
        return 1;
      }
      options.shard_workers = static_cast<int>(workers);
    } else if (arg == "--progress") {
      options.progress = true;
    } else if (arg == "--stats-stream") {
      const std::string* v = next("--stats-stream");
      if (v == nullptr) return 1;
      options.stats_stream_path = *v;
    } else if (arg == "--stats-period") {
      const std::string* v = next("--stats-period");
      if (v == nullptr) return 1;
      char* end = nullptr;
      double minutes = std::strtod(v->c_str(), &end);
      if (end != v->c_str() + v->size() || v->empty() || !(minutes > 0.0)) {
        err << "--stats-period: expected a positive number of simulated minutes, got '" << *v
            << "'\n";
        return 1;
      }
      options.stats_period_minutes = minutes;
    } else if (arg == "--manifest") {
      const std::string* v = next("--manifest");
      if (v == nullptr) return 1;
      options.manifest_path = *v;
    } else if (arg == "--ledger") {
      const std::string* v = next("--ledger");
      if (v == nullptr) return 1;
      options.ledger_path = *v;
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else {
      err << "run: unknown option '" << arg << "'\n";
      return 1;
    }
  }
  return 0;
}

int resolve_scenario(const std::string& target, core::ScenarioConfig& config,
                     std::ostream& err) {
  if (auto preset = find_preset(target)) {
    config = *preset;
    return 0;
  }
  if (!looks_like_file(target)) {
    err << "unknown preset '" << target << "' (see `mvsim presets`), and it does not look "
        << "like a file path\n";
    return 1;
  }
  try {
    config = config::load_scenario_file(target);
    return 0;
  } catch (const std::exception& e) {
    err << e.what() << '\n';
    return 2;
  }
}

int write_to(const std::string& path, const std::string& content, std::ostream& out,
             std::ostream& err) {
  if (path == "-") {
    out << content;
    return 0;
  }
  std::ofstream file(path);
  if (!file) {
    err << "cannot write '" << path << "'\n";
    return 2;
  }
  file << content;
  file.flush();
  if (!file) {
    // Opened but the write failed (disk full, stream error mid-write):
    // same contract as an unopenable path — report and fail.
    err << "cannot write '" << path << "'\n";
    return 2;
  }
  return 0;
}

/// Content hash of the model inputs: FNV-1a over the compact canonical
/// scenario JSON. Two runs share a hash iff they simulated the same
/// scenario — the provenance link manifests, ledgers and stream
/// headers all carry.
std::string scenario_hash_of(const core::ScenarioConfig& config) {
  return obs::fnv1a_hex(json::stringify(config::to_json(config), 0));
}

/// Fail-fast writability probe for paths written after the run (the
/// "unwritable path => exit 2" contract, without paying minutes of
/// simulation first). Append mode, so probing never truncates an
/// existing ledger. Returns 0 or the exit code.
int probe_writable(const std::string& path, std::ostream& err) {
  if (path.empty() || path == "-") return 0;
  std::ofstream probe(path, std::ios::app);
  if (!probe) {
    err << "cannot write '" << path << "'\n";
    return 2;
  }
  return 0;
}

/// Renders ProgressUpdate lines on `err` as a carriage-return ticker;
/// call finish() (newline) before printing anything else to `err`.
class ProgressTicker {
 public:
  explicit ProgressTicker(std::ostream& err) : err_(&err) {}

  void operator()(const core::ProgressUpdate& update) {
    char line[256];
    if (update.build_phase) {
      // One-time shared-graph build, reported on its own line so the
      // per-replication ETA below never includes it.
      std::snprintf(line, sizeof line, "\r%s: shared graph built in %.1fs   ",
                    update.label.c_str(), update.build_seconds);
      *err_ << line << '\n' << std::flush;
      return;
    }
    if (update.window_fraction > 0.0) {
      // Mid-replication window barrier of a sharded run: show how far
      // through the horizon the in-flight replication is.
      std::snprintf(line, sizeof line,
                    "\r%s: rep %d/%d +%.0f%% (%d shards), %.0f ev/s, ETA %.1fs   ",
                    update.label.c_str(), update.replications_done, update.replications_total,
                    update.window_fraction * 100.0, update.shards, update.events_per_sec,
                    update.eta_seconds);
    } else if (update.config_count > 1) {
      std::snprintf(line, sizeof line, "\r[%d/%d] %s: rep %d/%d, %.0f ev/s, ETA %.1fs   ",
                    update.config_index + 1, update.config_count, update.label.c_str(),
                    update.replications_done, update.replications_total, update.events_per_sec,
                    update.eta_seconds);
    } else {
      std::snprintf(line, sizeof line, "\r%s: rep %d/%d, %.0f ev/s, ETA %.1fs   ",
                    update.label.c_str(), update.replications_done, update.replications_total,
                    update.events_per_sec, update.eta_seconds);
    }
    *err_ << line << std::flush;
    ticked_ = true;
  }

  void finish() {
    if (ticked_) *err_ << '\n';
    ticked_ = false;
  }

 private:
  std::ostream* err_;
  bool ticked_ = false;
};

/// JSONL for '-' (streams line by line) and .jsonl paths; Chrome trace
/// JSON for everything else.
bool trace_path_is_jsonl(const std::string& path) {
  if (path == "-") return true;
  constexpr std::string_view kExt = ".jsonl";
  return path.size() >= kExt.size() &&
         path.compare(path.size() - kExt.size(), kExt.size(), kExt) == 0;
}

int command_run(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  RunOptions options;
  if (int rc = parse_run_options(args, options, err); rc != 0) return rc;

  core::ScenarioConfig scenario;
  if (int rc = resolve_scenario(options.target, scenario, err); rc != 0) return rc;
  const std::string scenario_hash = scenario_hash_of(scenario);

  // Manifest and ledger are written after the run; probe their paths
  // now so a typo'd directory fails in milliseconds, not minutes.
  if (int rc = probe_writable(options.manifest_path, err); rc != 0) return rc;
  if (int rc = probe_writable(options.ledger_path, err); rc != 0) return rc;

  if (options.trace_replication >= options.replications) {
    err << "--trace-rep: replication " << options.trace_replication << " does not exist (only "
        << options.replications << " replication(s))\n";
    return 1;
  }
  std::unique_ptr<trace::TraceBuffer> trace_buffer;
  core::RunnerOptions runner;
  runner.replications = options.replications;
  runner.master_seed = options.seed;
  runner.keep_replications = false;
  runner.threads = options.threads;
  if (!options.trace_path.empty()) {
    trace_buffer = std::make_unique<trace::TraceBuffer>(options.trace_capacity);
    runner.trace = trace_buffer.get();
    runner.trace_replication = options.trace_replication;
  }
  runner.profile = !options.profile_path.empty();
  runner.shards = options.shards;
  if (options.shard_window_minutes > 0.0) {
    runner.shard_window = SimTime::minutes(options.shard_window_minutes);
  }
  runner.shard_workers = options.shard_workers;
  // The stream sink is opened (and its header written) before the run
  // starts, so an unwritable path fails fast instead of after minutes
  // of simulation.
  std::ofstream stats_file;
  std::unique_ptr<obs::RunStream> stats_stream;
  if (!options.stats_stream_path.empty()) {
    std::ostream* sink = &out;
    if (options.stats_stream_path != "-") {
      stats_file.open(options.stats_stream_path);
      if (!stats_file) {
        err << "cannot write '" << options.stats_stream_path << "'\n";
        return 2;
      }
      sink = &stats_file;
    }
    stats_stream = std::make_unique<obs::RunStream>(*sink);
    obs::StreamInfo stream_info;
    stream_info.scenario = scenario.name;
    stream_info.scenario_hash = scenario_hash;
    stream_info.replications = options.replications;
    stream_info.shards = options.shards;
    stats_stream->write_header(stream_info);
    runner.stats_stream = stats_stream.get();
    runner.stats_period = SimTime::minutes(options.stats_period_minutes);
  }
  ProgressTicker ticker(err);
  if (options.progress) {
    runner.progress = [&ticker](const core::ProgressUpdate& update) { ticker(update); };
  }
  const auto run_started = std::chrono::steady_clock::now();
  core::ExperimentResult result = core::run_experiment(scenario, runner);
  const auto run_finished = std::chrono::steady_clock::now();
  ticker.finish();

  std::vector<obs::ManifestArtifact> artifacts;
  if (!options.stats_stream_path.empty()) {
    artifacts.push_back({"stats-stream", options.stats_stream_path});
  }

  if (!options.quiet) {
    out << "scenario: " << scenario.name << "\n"
        << "replications: " << options.replications << " (seed " << options.seed << ")\n"
        << "final infections: " << result.final_infections.mean() << " +/- "
        << result.final_infections.ci95_half_width() << " (expected unrestrained plateau "
        << scenario.expected_unrestrained_plateau() << ")\n"
        << "messages submitted: " << result.messages_submitted.mean()
        << ", blocked: " << result.messages_blocked.mean() << "\n";
  }
  if (!options.summary_json.empty()) {
    std::string text = json::stringify(config::results_to_json(scenario, result), 2) + "\n";
    if (int rc = write_to(options.summary_json, text, out, err); rc != 0) return rc;
    artifacts.push_back({"summary-json", options.summary_json});
  }
  if (!options.curve_csv.empty()) {
    std::ostringstream csv;
    config::write_curve_csv(result, csv);
    if (int rc = write_to(options.curve_csv, csv.str(), out, err); rc != 0) return rc;
    artifacts.push_back({"curve-csv", options.curve_csv});
  }
  if (!options.metrics_path.empty()) {
    metrics::ReportInfo info;
    info.scenario = scenario.name;
    info.replications = options.replications;
    info.threads = result.threads_used;
    info.master_seed = options.seed;
    std::string text;
    bool csv = options.metrics_path.size() >= 4 &&
               options.metrics_path.compare(options.metrics_path.size() - 4, 4, ".csv") == 0;
    if (csv) {
      std::ostringstream report;
      metrics::write_report_csv(info, result.metrics, report);
      text = report.str();
    } else {
      text = json::stringify(metrics::report_to_json(info, result.metrics), 2) + "\n";
    }
    if (int rc = write_to(options.metrics_path, text, out, err); rc != 0) return rc;
    artifacts.push_back({"metrics", options.metrics_path});
  }
  if (!options.profile_path.empty()) {
    metrics::ReportInfo info;
    info.scenario = scenario.name;
    info.replications = options.replications;
    info.threads = result.threads_used;
    info.master_seed = options.seed;
    std::string text = json::stringify(prof::profile_to_json(info, result.metrics), 2) + "\n";
    if (int rc = write_to(options.profile_path, text, out, err); rc != 0) return rc;
    artifacts.push_back({"profile", options.profile_path});
  }
  if (trace_buffer != nullptr) {
    std::ostringstream text;
    if (trace_path_is_jsonl(options.trace_path)) {
      trace::write_jsonl(*trace_buffer, text);
    } else {
      trace::write_chrome_trace(*trace_buffer, text);
    }
    if (int rc = write_to(options.trace_path, text.str(), out, err); rc != 0) return rc;
    artifacts.push_back({"trace", options.trace_path});
    if (!options.quiet && trace_buffer->dropped() > 0) {
      err << "trace: capacity " << trace_buffer->capacity() << " reached, dropped "
          << trace_buffer->dropped() << " event(s); raise --trace-cap (0 = unbounded)\n";
    }
  }
  if (!options.manifest_path.empty() || !options.ledger_path.empty()) {
    core::ManifestInputs inputs;
    inputs.scenario_hash = scenario_hash;
    inputs.seed = options.seed;
    inputs.shards = options.shards;
    inputs.shard_window_min = options.shard_window_minutes;
    inputs.phases.run_seconds = std::chrono::duration<double>(run_finished - run_started).count();
    inputs.phases.write_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - run_finished).count();
    inputs.artifacts = std::move(artifacts);
    obs::RunManifest manifest = core::build_run_manifest(scenario, inputs, result);
    if (!options.manifest_path.empty()) {
      std::string text = json::stringify(obs::to_json(manifest), 2) + "\n";
      if (int rc = write_to(options.manifest_path, text, out, err); rc != 0) return rc;
    }
    if (!options.ledger_path.empty() && !obs::append_to_ledger(options.ledger_path, manifest)) {
      err << "cannot write '" << options.ledger_path << "'\n";
      return 2;
    }
  }
  return 0;
}

int command_trace_analyze(const std::vector<std::string>& args, std::ostream& out,
                          std::ostream& err) {
  if (args.size() != 1) {
    err << "trace-analyze: expected exactly one trace file (from `mvsim run --trace`)\n";
    return 1;
  }
  try {
    trace::LoadedTrace loaded = trace::read_trace_file(args[0]);
    trace::TreeStats stats = trace::analyze(loaded.events);
    stats.dropped = loaded.meta.dropped;
    trace::write_report(stats, out);
    return 0;
  } catch (const std::exception& e) {
    err << e.what() << '\n';
    return 2;
  }
}

int command_profile_analyze(const std::vector<std::string>& args, std::ostream& out,
                            std::ostream& err) {
  std::string path;
  int top_n = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--top") {
      if (i + 1 >= args.size()) {
        err << "--top: missing value\n";
        return 1;
      }
      std::uint64_t value = 0;
      if (!parse_u64(args[i + 1], value) || value == 0 || value > 1000) {
        err << "--top: expected a positive integer, got '" << args[i + 1] << "'\n";
        return 1;
      }
      top_n = static_cast<int>(value);
      ++i;
    } else if (path.empty()) {
      path = args[i];
    } else {
      err << "profile-analyze: unexpected argument '" << args[i] << "'\n";
      return 1;
    }
  }
  if (path.empty()) {
    err << "profile-analyze: expected a profile file (from `mvsim run --profile`)\n";
    return 1;
  }
  try {
    prof::write_profile_report(prof::read_profile_file(path), out, top_n);
    return 0;
  } catch (const std::exception& e) {
    err << e.what() << '\n';
    return 2;
  }
}

int command_compare(const std::vector<std::string>& args, std::ostream& out,
                    std::ostream& err) {
  std::vector<std::string> targets;
  int replications = 10;
  std::uint64_t seed = 0xDEADBEEFULL;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--reps" || args[i] == "--seed") {
      if (i + 1 >= args.size()) {
        err << args[i] << ": missing value\n";
        return 1;
      }
      std::uint64_t value = 0;
      if (!parse_u64(args[i + 1], value)) {
        err << args[i] << ": expected an integer, got '" << args[i + 1] << "'\n";
        return 1;
      }
      if (args[i] == "--reps") {
        if (value == 0) {
          err << "--reps: must be positive\n";
          return 1;
        }
        replications = static_cast<int>(value);
      } else {
        seed = value;
      }
      ++i;
    } else {
      targets.push_back(args[i]);
    }
  }
  if (targets.size() < 2) {
    err << "compare: need at least two scenarios or presets\n";
    return 1;
  }

  struct Row {
    std::string name;
    double final_mean;
    double final_ci;
    double messages;
  };
  std::vector<Row> rows;
  for (const std::string& target : targets) {
    core::ScenarioConfig scenario;
    if (int rc = resolve_scenario(target, scenario, err); rc != 0) return rc;
    core::RunnerOptions runner;
    runner.replications = replications;
    runner.master_seed = seed;
    runner.keep_replications = false;
    runner.threads = 0;
    core::ExperimentResult result = core::run_experiment(scenario, runner);
    rows.push_back({scenario.name, result.final_infections.mean(),
                    result.final_infections.ci95_half_width(),
                    result.messages_submitted.mean()});
  }

  double baseline = rows.front().final_mean;
  out << "scenario,final_infected,ci95,pct_of_first,messages_per_rep\n";
  for (const Row& row : rows) {
    char line[256];
    std::snprintf(line, sizeof line, "%s,%.1f,%.1f,%.1f%%,%.0f\n", row.name.c_str(),
                  row.final_mean, row.final_ci,
                  baseline > 0.0 ? 100.0 * row.final_mean / baseline : 0.0, row.messages);
    out << line;
  }
  return 0;
}

int command_preset(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  if (args.size() != 1) {
    err << "preset: expected exactly one preset name\n";
    return 1;
  }
  auto preset = find_preset(args[0]);
  if (!preset) {
    err << "unknown preset '" << args[0] << "' (see `mvsim presets`)\n";
    return 1;
  }
  out << json::stringify(config::to_json(*preset), 2) << '\n';
  return 0;
}

int command_presets(std::ostream& out) {
  for (const PresetEntry& entry : list_presets()) {
    out << "  " << entry.name;
    for (std::size_t pad = entry.name.size(); pad < 20; ++pad) out << ' ';
    out << entry.description << '\n';
  }
  return 0;
}

int command_mechanisms(std::ostream& out) {
  for (const response::MechanismInfo& info :
       response::ResponseRegistry::built_ins().mechanisms()) {
    out << "  " << info.name;
    for (std::size_t pad = std::string(info.name).size(); pad < 20; ++pad) out << ' ';
    out << info.summary << '\n';
  }
  return 0;
}

int command_metrics_schema(std::ostream& out) {
  out << json::stringify(metrics::schema_to_json(), 2) << '\n';
  return 0;
}

int command_validate(const std::vector<std::string>& args, std::ostream& out,
                     std::ostream& err) {
  if (args.size() != 1) {
    err << "validate: expected exactly one file path\n";
    return 1;
  }
  try {
    core::ScenarioConfig config = config::load_scenario_file(args[0]);
    out << "OK: " << config.name << " (" << config.population << " phones, virus '"
        << config.virus.name << "', " << config.responses.enabled_count()
        << " response mechanism(s))\n";
    return 0;
  } catch (const std::exception& e) {
    err << e.what() << '\n';
    return 2;
  }
}

bool parse_double(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return !text.empty() && end == text.c_str() + text.size();
}

/// Formats a sweep value the way per-point scenario names embed it
/// (compact, round-trippable for the ladders the paper uses).
std::string format_value(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%g", value);
  return buffer;
}

/// Prints the knee verdict as a stable greppable marker line.
void print_knee_marker(const analysis::DiminishingReturnsReport& report, std::ostream& out) {
  if (report.has_knee()) {
    const analysis::MarginalGain& step = report.gains[report.knee_index];
    char line[160];
    std::snprintf(line, sizeof line,
                  "knee: %s past %g (the step to %g earns %.2f avoided/unit)\n",
                  report.parameter_name.c_str(), step.from_parameter, step.to_parameter,
                  step.avoided_per_unit);
    out << line;
  } else if (report.returns_still_increasing()) {
    out << "knee: none (returns still increasing at the strongest setting studied)\n";
  } else {
    out << "knee: none (every step from the peak onward still pays off)\n";
  }
}

int command_sweep(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  if (!args.empty() && args[0] == "--list-params") {
    for (const analysis::SweepableParam& param : analysis::sweepable_params()) {
      out << "  " << param.name;
      for (std::size_t pad = std::string(param.name).size(); pad < 36; ++pad) out << ' ';
      out << param.description << " [" << param.unit << "]\n";
    }
    return 0;
  }
  if (args.empty()) {
    err << "sweep: missing scenario file or preset name\n";
    return 1;
  }
  const std::string target = args[0];
  std::string param_name;
  std::vector<double> values;
  int replications = 10;
  std::uint64_t seed = 0xDEADBEEFULL;
  int threads = 0;
  std::string ledger_path;
  std::string stream_path;
  double knee_fraction = 0.2;
  bool progress = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto next = [&](const char* flag) -> const std::string* {
      if (i + 1 >= args.size()) {
        err << flag << ": missing value\n";
        return nullptr;
      }
      return &args[++i];
    };
    if (arg == "--param") {
      const std::string* v = next("--param");
      if (v == nullptr) return 1;
      param_name = *v;
    } else if (arg == "--values") {
      const std::string* v = next("--values");
      if (v == nullptr) return 1;
      std::string token;
      std::istringstream list(*v);
      while (std::getline(list, token, ',')) {
        double value = 0.0;
        if (!parse_double(token, value)) {
          err << "--values: expected comma-separated numbers, got '" << token << "'\n";
          return 1;
        }
        values.push_back(value);
      }
    } else if (arg == "--reps") {
      const std::string* v = next("--reps");
      if (v == nullptr) return 1;
      std::uint64_t reps = 0;
      if (!parse_u64(*v, reps) || reps == 0 || reps > 100000) {
        err << "--reps: expected a positive integer, got '" << *v << "'\n";
        return 1;
      }
      replications = static_cast<int>(reps);
    } else if (arg == "--seed") {
      const std::string* v = next("--seed");
      if (v == nullptr) return 1;
      if (!parse_u64(*v, seed)) {
        err << "--seed: expected an integer, got '" << *v << "'\n";
        return 1;
      }
    } else if (arg == "--threads") {
      const std::string* v = next("--threads");
      if (v == nullptr) return 1;
      std::uint64_t count = 0;
      if (!parse_u64(*v, count) || count > 1024) {
        err << "--threads: expected an integer in [0, 1024], got '" << *v << "'\n";
        return 1;
      }
      threads = static_cast<int>(count);
    } else if (arg == "--ledger") {
      const std::string* v = next("--ledger");
      if (v == nullptr) return 1;
      ledger_path = *v;
    } else if (arg == "--stream") {
      const std::string* v = next("--stream");
      if (v == nullptr) return 1;
      stream_path = *v;
    } else if (arg == "--knee-fraction") {
      const std::string* v = next("--knee-fraction");
      if (v == nullptr) return 1;
      if (!parse_double(*v, knee_fraction) || !(knee_fraction > 0.0) || knee_fraction >= 1.0) {
        err << "--knee-fraction: expected a fraction in (0, 1), got '" << *v << "'\n";
        return 1;
      }
    } else if (arg == "--progress") {
      progress = true;
    } else {
      err << "sweep: unknown option '" << arg << "'\n";
      return 1;
    }
  }
  if (param_name.empty()) {
    err << "sweep: --param is required (see `mvsim sweep --list-params`)\n";
    return 1;
  }
  const analysis::SweepableParam* param = analysis::find_sweepable(param_name);
  if (param == nullptr) {
    err << "sweep: unknown parameter '" << param_name << "'; sweepable parameters:\n";
    for (const analysis::SweepableParam& entry : analysis::sweepable_params()) {
      err << "  " << entry.name << '\n';
    }
    return 1;
  }
  if (values.size() < 2) {
    err << "sweep: --values needs at least two comma-separated values\n";
    return 1;
  }

  core::ScenarioConfig base;
  if (int rc = resolve_scenario(target, base, err); rc != 0) return rc;
  const std::string base_hash = scenario_hash_of(base);
  if (int rc = probe_writable(ledger_path, err); rc != 0) return rc;

  std::ofstream stream_file;
  std::unique_ptr<obs::SweepStream> stream;
  if (!stream_path.empty()) {
    std::ostream* sink = &out;
    if (stream_path != "-") {
      stream_file.open(stream_path);
      if (!stream_file) {
        err << "cannot write '" << stream_path << "'\n";
        return 2;
      }
      sink = &stream_file;
    }
    stream = std::make_unique<obs::SweepStream>(*sink);
    obs::SweepStreamHeader header;
    header.parameter = param_name;
    header.scenario = base.name;
    header.scenario_hash = base_hash;
    header.points = static_cast<int>(values.size());
    header.replications = replications;
    stream->write_header(header);
  }

  core::RunnerOptions runner;
  runner.replications = replications;
  runner.master_seed = seed;
  runner.keep_replications = false;
  runner.threads = threads;

  auto make_scenario = [&](double value) {
    core::ScenarioConfig scenario = base;
    param->apply(scenario, value);
    scenario.name = base.name + "/" + param_name + "=" + format_value(value);
    return scenario;
  };

  const auto sweep_started = std::chrono::steady_clock::now();
  std::string ledger_error;
  analysis::SweepHooks hooks;
  hooks.point_started = [&](std::size_t index, std::size_t count, double value,
                            const core::ScenarioConfig& config) {
    (void)config;
    if (progress) {
      err << "[" << index + 1 << "/" << count << "] " << param_name << " = "
          << format_value(value) << "...\n";
    }
    if (stream != nullptr) {
      obs::SweepPointRecord record;
      record.type = "point-started";
      record.index = static_cast<int>(index);
      record.count = static_cast<int>(count);
      record.value = value;
      stream->write_point(record);
    }
  };
  hooks.point_finished = [&](std::size_t index, std::size_t count, double value,
                             const core::ScenarioConfig& config,
                             const core::ExperimentResult& result, double wall_seconds) {
    if (stream != nullptr) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - sweep_started)
              .count();
      obs::SweepPointRecord record;
      record.type = "point-finished";
      record.index = static_cast<int>(index);
      record.count = static_cast<int>(count);
      record.value = value;
      record.wall_seconds = wall_seconds;
      record.eta_seconds =
          elapsed / static_cast<double>(index + 1) * static_cast<double>(count - index - 1);
      record.final_infected_mean = result.final_infections.mean();
      record.total_events = result.metrics.counter_value("des.events_executed");
      stream->write_point(record);
    }
    if (!ledger_path.empty() && ledger_error.empty()) {
      core::ManifestInputs inputs;
      inputs.scenario_hash = scenario_hash_of(config);
      inputs.seed = seed;
      inputs.phases.run_seconds = wall_seconds;
      obs::SweepInfo info;
      info.parameter = param_name;
      info.value = value;
      info.index = static_cast<int>(index);
      info.count = static_cast<int>(count);
      inputs.sweep = std::move(info);
      obs::RunManifest manifest = core::build_run_manifest(config, inputs, result);
      if (!obs::append_to_ledger(ledger_path, manifest)) ledger_error = ledger_path;
    }
  };

  analysis::SweepResult sweep =
      analysis::run_sweep(param_name, values, make_scenario, runner, hooks);
  if (!ledger_error.empty()) {
    err << "cannot write '" << ledger_error << "'\n";
    return 2;
  }

  out << "sweep: " << base.name << " over " << param_name << " [" << param->unit << "], "
      << values.size() << " point(s) x " << replications << " replication(s) (seed " << seed
      << ")\n";
  for (const analysis::SweepPoint& point : sweep.points) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-14s %10.1f +/- %-8.1f (blocked %.1f)\n",
                  format_value(point.parameter).c_str(),
                  point.result.final_infections.mean(),
                  point.result.final_infections.ci95_half_width(),
                  point.result.messages_blocked.mean());
    out << line;
  }
  const double baseline_final = sweep.points.front().result.final_infections.mean();
  analysis::DiminishingReturnsReport report =
      analysis::analyze_diminishing_returns(sweep, baseline_final, knee_fraction);
  out << '\n' << analysis::to_table(report);
  print_knee_marker(report, out);
  return 0;
}

/// Stitches the on-disk artifacts one manifest references into the
/// report: the metrics derived section, the trace attribution report
/// and the profile top-N. Missing or unreadable artifacts are noted
/// and skipped — a report must not fail because a run's side files
/// were cleaned up.
void report_artifacts(const obs::RunManifest& manifest, std::ostream& out) {
  for (const obs::ManifestArtifact& artifact : manifest.artifacts) {
    if (artifact.path == "-") continue;  // went to stdout, nothing on disk
    try {
      if (artifact.kind == "metrics") {
        std::ifstream file(artifact.path);
        if (!file) throw std::runtime_error("cannot read '" + artifact.path + "'");
        std::ostringstream text;
        text << file.rdbuf();
        const json::Value doc = json::parse(text.str());
        const json::Value* derived =
            doc.is_object() ? doc.as_object().find("derived") : nullptr;
        if (derived == nullptr || !derived->is_object()) {
          throw std::runtime_error("no derived section (CSV metrics are not stitched)");
        }
        out << "\n-- metrics (" << artifact.path << ") --\n";
        for (const auto& [key, value] : derived->as_object().entries()) {
          out << "  " << key << ": " << json::stringify(value, 0) << '\n';
        }
      } else if (artifact.kind == "trace") {
        trace::LoadedTrace loaded = trace::read_trace_file(artifact.path);
        trace::TreeStats stats = trace::analyze(loaded.events);
        stats.dropped = loaded.meta.dropped;
        out << "\n-- trace (" << artifact.path << ") --\n";
        trace::write_report(stats, out);
      } else if (artifact.kind == "profile") {
        out << "\n-- profile (" << artifact.path << ", top 5) --\n";
        prof::write_profile_report(prof::read_profile_file(artifact.path), out, 5);
      }
    } catch (const std::exception& e) {
      out << "\n-- " << artifact.kind << " (" << artifact.path << "): skipped: " << e.what()
          << " --\n";
    }
  }
}

void report_manifest(const obs::RunManifest& manifest, std::ostream& out) {
  char line[256];
  out << "run: " << manifest.scenario << " (scenario " << manifest.scenario_hash << ")\n"
      << "  seed " << manifest.seed << ", " << manifest.replications << " replication(s), "
      << manifest.threads << " thread(s), " << manifest.shards << " shard(s)\n"
      << "  build " << manifest.build.git_sha << " (" << manifest.build.compiler << ", "
      << manifest.build.build_type << ")\n";
  std::snprintf(line, sizeof line, "  phases: run %.2fs, write %.2fs; peak RSS %.1f MiB\n",
                manifest.phases.run_seconds, manifest.phases.write_seconds,
                static_cast<double>(manifest.peak_rss) / (1024.0 * 1024.0));
  out << line;
  if (manifest.sweep.has_value()) {
    out << "  sweep: " << manifest.sweep->parameter << " = " << format_value(manifest.sweep->value)
        << " (point " << manifest.sweep->index + 1 << "/" << manifest.sweep->count << ")\n";
  }
  const obs::RunOutcome& o = manifest.outcome;
  std::snprintf(line, sizeof line,
                "outcome:\n"
                "  final infected    %.1f +/- %.1f\n"
                "  peak infected     %.1f (at %.1f h)\n"
                "  patched           %.1f\n"
                "  messages blocked  %.1f\n"
                "  total events      %llu\n",
                o.final_infected_mean, o.final_infected_ci95, o.peak_infected_mean,
                o.time_to_peak_h, o.patched_mean, o.messages_blocked_mean,
                static_cast<unsigned long long>(o.total_events));
  out << line;
  if (!manifest.artifacts.empty()) {
    out << "artifacts:\n";
    for (const obs::ManifestArtifact& artifact : manifest.artifacts) {
      out << "  " << artifact.kind << " " << artifact.path << '\n';
    }
  }
}

int report_ledger(const std::string& path, double knee_fraction, std::ostream& out,
                  std::ostream& err) {
  std::vector<obs::RunManifest> manifests;
  try {
    manifests = obs::read_ledger_file(path);
  } catch (const std::exception& e) {
    err << e.what() << '\n';
    return 2;
  }
  if (manifests.empty()) {
    err << "ledger: '" << path << "' holds no runs\n";
    return 1;
  }
  out << "ledger: " << path << ", " << manifests.size() << " run(s)\n";
  char line[256];
  std::snprintf(line, sizeof line, "%-44s %6s %5s %10s %10s %12s\n", "scenario", "reps",
                "thr", "final", "patched", "events");
  out << line;
  for (const obs::RunManifest& manifest : manifests) {
    std::snprintf(line, sizeof line, "%-44s %6d %5d %10.1f %10.1f %12llu\n",
                  manifest.scenario.c_str(), manifest.replications, manifest.threads,
                  manifest.outcome.final_infected_mean, manifest.outcome.patched_mean,
                  static_cast<unsigned long long>(manifest.outcome.total_events));
    out << line;
  }
  // Sweep-tagged runs regroup into their ladders (insertion order, by
  // parameter name) so the report can re-run the knee analysis offline.
  std::vector<std::string> order;
  std::map<std::string, std::vector<std::pair<double, double>>> ladders;
  for (const obs::RunManifest& manifest : manifests) {
    if (!manifest.sweep.has_value()) continue;
    auto [it, inserted] = ladders.try_emplace(manifest.sweep->parameter);
    if (inserted) order.push_back(manifest.sweep->parameter);
    it->second.emplace_back(manifest.sweep->value, manifest.outcome.final_infected_mean);
  }
  for (const std::string& parameter : order) {
    const auto& points = ladders[parameter];
    if (points.size() < 2) continue;
    out << "\nsweep " << parameter << " (" << points.size() << " points):\n";
    analysis::DiminishingReturnsReport report =
        analysis::analyze_diminishing_returns(parameter, points, points.front().second,
                                              knee_fraction);
    out << analysis::to_table(report);
    print_knee_marker(report, out);
  }
  return 0;
}

int command_report(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  if (args.empty()) {
    err << "report: expected a manifest path, --ledger PATH, or --compare A B\n";
    return 1;
  }
  if (args[0] == "--compare") {
    std::vector<std::string> paths;
    double threshold = 0.05;
    for (std::size_t i = 1; i < args.size(); ++i) {
      if (args[i] == "--threshold") {
        if (i + 1 >= args.size()) {
          err << "--threshold: missing value\n";
          return 1;
        }
        if (!parse_double(args[++i], threshold) || !(threshold > 0.0)) {
          err << "--threshold: expected a positive fraction, got '" << args[i] << "'\n";
          return 1;
        }
      } else {
        paths.push_back(args[i]);
      }
    }
    if (paths.size() != 2) {
      err << "report --compare: expected exactly two manifest paths\n";
      return 1;
    }
    try {
      const obs::RunManifest baseline = obs::read_manifest_file(paths[0]);
      const obs::RunManifest current = obs::read_manifest_file(paths[1]);
      const obs::OutcomeComparison comparison =
          obs::compare_outcomes(baseline, current, threshold);
      out << obs::render_comparison(baseline, current, comparison, threshold);
      return comparison.regressions > 0 ? 1 : 0;
    } catch (const std::exception& e) {
      err << e.what() << '\n';
      return 2;
    }
  }
  if (args[0] == "--ledger") {
    std::string path;
    double knee_fraction = 0.2;
    for (std::size_t i = 1; i < args.size(); ++i) {
      if (args[i] == "--knee-fraction") {
        if (i + 1 >= args.size()) {
          err << "--knee-fraction: missing value\n";
          return 1;
        }
        if (!parse_double(args[++i], knee_fraction) || !(knee_fraction > 0.0) ||
            knee_fraction >= 1.0) {
          err << "--knee-fraction: expected a fraction in (0, 1), got '" << args[i] << "'\n";
          return 1;
        }
      } else if (path.empty()) {
        path = args[i];
      } else {
        err << "report --ledger: unexpected argument '" << args[i] << "'\n";
        return 1;
      }
    }
    if (path.empty()) {
      err << "report --ledger: missing ledger path\n";
      return 1;
    }
    return report_ledger(path, knee_fraction, out, err);
  }
  if (args.size() != 1) {
    err << "report: expected a single manifest path (or --ledger / --compare)\n";
    return 1;
  }
  try {
    const obs::RunManifest manifest = obs::read_manifest_file(args[0]);
    report_manifest(manifest, out);
    report_artifacts(manifest, out);
    return 0;
  } catch (const std::exception& e) {
    err << e.what() << '\n';
    return 2;
  }
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help" || args[0] == "-h") {
    out << kUsage;
    return args.empty() ? 1 : 0;
  }
  const std::string& command = args[0];
  std::vector<std::string> rest(args.begin() + 1, args.end());
  try {
    if (command == "run") return command_run(rest, out, err);
    if (command == "sweep") return command_sweep(rest, out, err);
    if (command == "report") return command_report(rest, out, err);
    if (command == "compare") return command_compare(rest, out, err);
    if (command == "trace-analyze") return command_trace_analyze(rest, out, err);
    if (command == "profile-analyze") return command_profile_analyze(rest, out, err);
    if (command == "preset") return command_preset(rest, out, err);
    if (command == "presets") return command_presets(out);
    if (command == "mechanisms") return command_mechanisms(out);
    if (command == "metrics-schema") return command_metrics_schema(out);
    if (command == "validate") return command_validate(rest, out, err);
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return 2;
  }
  err << "unknown command '" << command << "'\n\n" << kUsage;
  return 1;
}

}  // namespace mvsim::cli
