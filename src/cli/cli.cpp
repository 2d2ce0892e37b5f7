#include "cli/cli.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <variant>

#include "analysis/diminishing_returns.h"
#include "analysis/param_registry.h"
#include "cli/preset_registry.h"
#include "config/scenario_io.h"
#include "core/run_manifest.h"
#include "core/runner.h"
#include "metrics/report.h"
#include "obs/manifest.h"
#include "obs/report.h"
#include "obs/stats_stream.h"
#include "prof/profile_io.h"
#include "response/registry.h"
#include "stats/summary.h"
#include "trace/analysis.h"
#include "trace/export.h"
#include "trace/trace.h"
#include "util/checked_integer.h"
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
      --metrics PATH       write the telemetry report as JSON ('-' = stdout; see
                           docs/observability.md)
      --trace PATH         record one replication's causal event trace
                           ('-' or a .jsonl path = JSONL, anything else =
                           Chrome trace JSON, loadable in Perfetto)
      --trace-rep N        which replication to trace (default 0)
      --trace-cap N        trace event capacity (default 1048576; 0 = unbounded)
      --profile PATH       time the event loop and write the --metrics JSON report
                           with its prof.* wall-clock histograms ('-' = stdout;
                           results bit-identical; read it with profile-analyze)
      --progress           live progress on stderr (replications done, events/sec,
                           ETA)
      --stats-stream PATH  append live time-series telemetry as NDJSON ('-' =
                           stdout): infected/patched/blocked counts, events/sec,
                           queue depth
      --stats-period MIN   simulated minutes between stats samples (default 30;
                           at most 10^6 samples per horizon)
      --manifest PATH      write the run manifest as JSON ('-' = stdout): scenario
                           content hash, seed, build provenance, wall-clock phases,
                           peak RSS, artifact paths and the outcome block
      --ledger PATH        append the manifest as one NDJSON line to an experiment
                           ledger (append-safe under concurrent runs)
      --quiet              suppress the human-readable summary
  mvsim sweep <scenario.json | preset-name> --param NAME --values V1,V2,...
              [--reps N] [--seed N] [--threads N] [--ledger PATH]
              [--curve-csv PATH] [--knee-fraction F] [--progress]
                           run a parameter ladder: one experiment per value, a
                           manifest per point appended to the ledger as it
                           finishes, one line per point (with an ETA) on stderr
                           under --progress, the mean infection curve of every
                           point as one CSV ('-' = stdout), and for a response
                           parameter the diminishing-returns knee table (paper
                           Sec. 5.3; values in any order, ranked by response
                           strength) on stdout
  mvsim sweep --list-params
                           list sweepable parameter names
  mvsim report <manifest.json>
                           single-run report from a manifest: provenance, outcome,
                           and the metrics/trace/profile artifacts it references
  mvsim report --ledger PATH [--knee-fraction F]
                           aggregate an experiment ledger: run table (final
                           infections +/- ci95 per run; append several runs to
                           one ledger to compare them), sweep tables with
                           outcome-vs-parameter and knee detection
  mvsim report --compare <a.json> <b.json> [--threshold F]
                           diff two run manifests: normalized outcome deltas with
                           IMPROVED/REGRESSED/OK verdicts (exit 1 on regression,
                           default threshold 0.05)
  mvsim trace-analyze <file>
                           transmission-tree report from a --trace export
                           (generations, effective R, per-mechanism blocks)
  mvsim profile-analyze <file> [--top N]
                           "where the time goes" report from the --profile (or
                           --metrics) report of a profiled run
  mvsim preset <name>      print a preset scenario as JSON (edit & rerun)
  mvsim presets            list available presets
  mvsim mechanisms         list available response mechanisms (scenario "responses" keys)
  mvsim metrics-schema     print the telemetry metric catalogue as JSON
  mvsim validate <file>    parse and validate a scenario file
  mvsim help               this text
)";

bool parse_double(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return !text.empty() && end == text.c_str() + text.size();
}

/// One row of a verb's flag table. The target's type is the flag's
/// kind: bool* is a switch (takes no value), std::string* keeps the
/// value verbatim, an integer target takes an integer in [min, max],
/// and double* takes a positive number (below `below` when that is
/// nonzero). A rejected value prints "NAME: expected EXPECTED, got 'V'".
struct Flag {
  std::string_view name;
  std::variant<bool*, std::string*, double*, int*, std::uint32_t*, std::uint64_t*> target;
  const char* expected = "";
  std::uint64_t min = 0;
  std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  double below = 0.0;
};

Flag reps_flag(int& target) { return {"--reps", &target, "a positive integer", 1, 100000}; }
Flag seed_flag(std::uint64_t& target) { return {"--seed", &target, "an integer"}; }
Flag threads_flag(int& target) {
  return {"--threads", &target, "an integer in [0, 1024]", 0, 1024};
}
Flag knee_fraction_flag(double& target) {
  return {.name = "--knee-fraction", .target = &target, .expected = "a fraction in (0, 1)",
          .below = 1.0};
}

bool assign(const Flag& flag, const std::string& text) {
  return std::visit(
      [&](auto* target) {
        using T = std::remove_pointer_t<decltype(target)>;
        if constexpr (std::is_same_v<T, bool>) {
          *target = true;
        } else if constexpr (std::is_same_v<T, std::string>) {
          *target = text;
        } else if constexpr (std::is_same_v<T, double>) {
          double value = 0.0;
          if (!parse_double(text, value) || !(value > 0.0) ||
              (flag.below > 0.0 && value >= flag.below)) {
            return false;
          }
          *target = value;
        } else {
          std::uint64_t value = 0;
          const char* end = text.data() + text.size();
          const auto [ptr, ec] = std::from_chars(text.data(), end, value);
          if (ec != std::errc() || ptr != end || value < flag.min || value > flag.max) {
            return false;
          }
          *target = static_cast<T>(value);
        }
        return true;
      },
      flag.target);
}

/// Parses args[first..] against `flags`. Arguments that name no flag go
/// to `positional`; a verb without positional arguments (nullptr)
/// rejects them as "VERB: unknown option". Returns 0 or exit code 1.
int parse_flags(const std::vector<std::string>& args, std::size_t first,
                std::span<const Flag> flags, std::vector<std::string>* positional,
                std::string_view verb, std::ostream& err) {
  for (std::size_t i = first; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto flag = std::find_if(flags.begin(), flags.end(),
                                   [&](const Flag& f) { return f.name == arg; });
    if (flag == flags.end()) {
      if (positional == nullptr) {
        err << verb << ": unknown option '" << arg << "'\n";
        return 1;
      }
      positional->push_back(arg);
    } else if (std::holds_alternative<bool*>(flag->target)) {
      assign(*flag, arg);
    } else if (i + 1 >= args.size()) {
      err << arg << ": missing value\n";
      return 1;
    } else if (!assign(*flag, args[++i])) {
      err << arg << ": expected " << flag->expected << ", got '" << args[i] << "'\n";
      return 1;
    }
  }
  return 0;
}

/// RunnerOptions with the CLI's defaults: 10 replications, seed
/// 0xDEADBEEF, all cores, per-replication results not kept.
core::RunnerOptions cli_runner() {
  core::RunnerOptions runner;
  runner.replications = 10;
  runner.master_seed = 0xDEADBEEFULL;
  runner.threads = 0;
  runner.keep_replications = false;
  return runner;
}

bool looks_like_file(const std::string& target) {
  return target.find('.') != std::string::npos || target.find('/') != std::string::npos;
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

/// Renders into `path` ('-' = `out`). An unopenable path or a failed
/// write (disk full, stream error mid-write) reports and returns 2.
int write_to(const std::string& path, const std::function<void(std::ostream&)>& render,
             std::ostream& out, std::ostream& err) {
  if (path == "-") {
    render(out);
    return 0;
  }
  std::ofstream file(path);
  if (file) {
    render(file);
    file.flush();
  }
  if (!file) {
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

/// Opens a live NDJSON sink ('-' = `out`) before the run starts, so an
/// unwritable path fails fast instead of after minutes of simulation.
/// nullptr after reporting the path.
std::ostream* open_stream(const std::string& path, std::ofstream& file, std::ostream& out,
                          std::ostream& err) {
  if (path == "-") return &out;
  file.open(path);
  if (file) return &file;
  err << "cannot write '" << path << "'\n";
  return nullptr;
}

/// Renders a single experiment's ProgressUpdate lines on `err` as a
/// carriage-return ticker; call finish() (newline) before printing
/// anything else to `err`.
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
    std::snprintf(line, sizeof line, "\r%s: rep %d/%d, %.0f ev/s, ETA %.1fs   ",
                  update.label.c_str(), update.replications_done, update.replications_total,
                  update.events_per_sec, update.eta_seconds);
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

/// One file `mvsim run` writes after the simulation: the manifest
/// artifact kind, the path (empty = not requested) and its renderer.
struct Artifact {
  const char* kind;
  const std::string& path;
  std::function<void(const core::ExperimentResult&, std::ostream&)> render;
};

int command_run(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  if (args.empty()) {
    err << "run: missing scenario file or preset name\n";
    return 1;
  }
  core::RunnerOptions runner = cli_runner();
  std::string curve_csv, metrics_path, trace_path, profile_path;
  std::string stats_stream_path, manifest_path, ledger_path;
  std::uint64_t trace_capacity = trace::TraceBuffer::kDefaultCapacity;  // 0 = unbounded
  double stats_period_minutes = 30.0;
  bool progress = false;
  bool quiet = false;
  const Flag flags[] = {
      reps_flag(runner.replications),
      seed_flag(runner.master_seed),
      threads_flag(runner.threads),
      {"--curve-csv", &curve_csv},
      {"--metrics", &metrics_path},
      {"--trace", &trace_path},
      {"--trace-rep", &runner.trace_replication, "a replication index", 0, 100000},
      {"--trace-cap", &trace_capacity, "an event count (0 = unbounded)"},
      {"--profile", &profile_path},
      {"--progress", &progress},
      {"--stats-stream", &stats_stream_path},
      {"--stats-period", &stats_period_minutes, "a positive number of simulated minutes"},
      {"--manifest", &manifest_path},
      {"--ledger", &ledger_path},
      {"--quiet", &quiet},
  };
  if (int rc = parse_flags(args, 1, flags, nullptr, "run", err); rc != 0) return rc;
  if (runner.trace_replication >= runner.replications) {
    err << "--trace-rep: replication " << runner.trace_replication << " does not exist (only "
        << runner.replications << " replication(s))\n";
    return 1;
  }

  core::ScenarioConfig scenario;
  if (int rc = resolve_scenario(args[0], scenario, err); rc != 0) return rc;
  // A period that cuts the horizon too finely would stream without
  // bound; refuse it before any replication runs or byte is written.
  if (!stats_stream_path.empty() &&
      !core::within_step_limit(scenario.horizon, SimTime::minutes(stats_period_minutes))) {
    err << "--stats-period: " << stats_period_minutes << " min cuts the "
        << scenario.horizon.to_minutes() << " min horizon into more than "
        << core::kMaxStepsPerReplication << " samples, the per-replication limit\n";
    return 1;
  }
  const std::string scenario_hash = scenario_hash_of(scenario);

  std::unique_ptr<trace::TraceBuffer> trace_buffer;
  metrics::ReportInfo info{scenario.name, runner.replications, 0, runner.master_seed};
  const auto json_report = [&](const core::ExperimentResult& result, std::ostream& os) {
    os << json::stringify(metrics::report_to_json(info, result.metrics), 2) << '\n';
  };
  const Artifact artifacts[] = {
      {"curve-csv", curve_csv,
       [](const core::ExperimentResult& result, std::ostream& os) {
         stats::write_curve_csv(os, result.curve);
       }},
      {"metrics", metrics_path, json_report},
      // The profile is the metrics report of a profiled run.
      {"profile", profile_path, json_report},
      {"trace", trace_path,
       [&](const core::ExperimentResult&, std::ostream& os) {
         // JSONL for '-' (streams line by line) and .jsonl paths;
         // Chrome trace JSON for everything else.
         if (trace_path == "-" || trace_path.ends_with(".jsonl")) {
           trace::write_jsonl(*trace_buffer, os);
         } else {
           trace::write_chrome_trace(*trace_buffer, os);
         }
       }},
  };
  // Every output is written after the run; probe the paths now so a
  // typo'd directory fails in milliseconds, not minutes.
  for (const Artifact& artifact : artifacts) {
    if (int rc = probe_writable(artifact.path, err); rc != 0) return rc;
  }
  if (int rc = probe_writable(manifest_path, err); rc != 0) return rc;
  if (int rc = probe_writable(ledger_path, err); rc != 0) return rc;

  if (!trace_path.empty()) {
    trace_buffer = std::make_unique<trace::TraceBuffer>(
        trace_capacity == 0 ? std::numeric_limits<std::size_t>::max()
                            : static_cast<std::size_t>(trace_capacity));
    runner.trace = trace_buffer.get();
  }
  runner.profile = !profile_path.empty();
  std::ofstream stats_file;
  std::unique_ptr<obs::RunStream> stats_stream;
  if (!stats_stream_path.empty()) {
    std::ostream* sink = open_stream(stats_stream_path, stats_file, out, err);
    if (sink == nullptr) return 2;
    stats_stream = std::make_unique<obs::RunStream>(*sink);
    stats_stream->write_header({scenario.name, scenario_hash, runner.replications});
    runner.stats_stream = stats_stream.get();
    runner.stats_period = SimTime::minutes(stats_period_minutes);
  }
  ProgressTicker ticker(err);
  if (progress) {
    runner.progress = [&ticker](const core::ProgressUpdate& update) { ticker(update); };
  }
  const auto run_started = std::chrono::steady_clock::now();
  const core::ExperimentResult result = core::run_experiment(scenario, runner);
  const auto run_finished = std::chrono::steady_clock::now();
  ticker.finish();
  info.threads = result.threads_used;

  if (!quiet) {
    out << "scenario: " << scenario.name << "\n"
        << "replications: " << runner.replications << " (seed " << runner.master_seed << ")\n"
        << "final infections: " << result.final_infections.mean() << " +/- "
        << result.final_infections.ci95_half_width() << " (expected unrestrained plateau "
        << scenario.expected_unrestrained_plateau() << ")\n"
        << "messages submitted: " << result.per_replication("net.messages_submitted").mean()
        << ", blocked: " << result.per_replication("net.messages_blocked").mean() << "\n";
  }
  std::vector<obs::ManifestArtifact> written;
  if (!stats_stream_path.empty()) written.push_back({"stats-stream", stats_stream_path});
  for (const Artifact& artifact : artifacts) {
    if (artifact.path.empty()) continue;
    const auto render = [&](std::ostream& os) { artifact.render(result, os); };
    if (int rc = write_to(artifact.path, render, out, err); rc != 0) return rc;
    written.push_back({artifact.kind, artifact.path});
  }
  if (!quiet && trace_buffer != nullptr && trace_buffer->dropped() > 0) {
    err << "trace: capacity " << trace_buffer->capacity() << " reached, dropped "
        << trace_buffer->dropped() << " event(s); raise --trace-cap (0 = unbounded)\n";
  }
  if (manifest_path.empty() && ledger_path.empty()) return 0;
  core::ManifestInputs inputs;
  inputs.scenario_hash = scenario_hash;
  inputs.seed = runner.master_seed;
  inputs.phases.run_seconds = std::chrono::duration<double>(run_finished - run_started).count();
  inputs.phases.write_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - run_finished).count();
  inputs.artifacts = std::move(written);
  const obs::RunManifest manifest = core::build_run_manifest(scenario, inputs, result);
  if (!manifest_path.empty()) {
    const auto render = [&](std::ostream& os) {
      os << json::stringify(obs::to_json(manifest), 2) << '\n';
    };
    if (int rc = write_to(manifest_path, render, out, err); rc != 0) return rc;
  }
  if (!ledger_path.empty() && !obs::append_to_ledger(ledger_path, manifest)) {
    err << "cannot write '" << ledger_path << "'\n";
    return 2;
  }
  return 0;
}

void write_trace_report(const std::string& path, std::ostream& out) {
  const trace::LoadedTrace loaded = trace::read_trace_file(path);
  trace::TreeStats stats = trace::analyze(loaded.events);
  stats.dropped = loaded.meta.dropped;
  trace::write_report(stats, out);
}

int command_trace_analyze(const std::vector<std::string>& args, std::ostream& out,
                          std::ostream& err) {
  if (args.size() != 1) {
    err << "trace-analyze: expected exactly one trace file (from `mvsim run --trace`)\n";
    return 1;
  }
  try {
    write_trace_report(args[0], out);
    return 0;
  } catch (const std::exception& e) {
    err << e.what() << '\n';
    return 2;
  }
}

json::Value read_json_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot read '" + path + "'");
  std::ostringstream text;
  text << file.rdbuf();
  return json::parse(text.str());
}

/// Reads a `--metrics` JSON report (a `--profile` file is one) back
/// into its run identity and snapshot.
metrics::Snapshot read_metrics_report(const std::string& path, metrics::ReportInfo& info) {
  const json::Value doc = read_json_file(path);
  const json::Object& root = doc.as_object();
  if (root.find("schema_version") == nullptr) {
    throw std::runtime_error("'" + path + "' is not an mvsim metrics report (no schema_version)");
  }
  const auto count_at = [&](const char* key) {
    const double n = root.at(key).as_number();
    const std::optional<int> value = n < 0 ? std::nullopt : util::checked_integer<int>(n);
    if (!value) {
      throw std::runtime_error("'" + path + "': '" + key + "' is not a nonnegative integer");
    }
    return *value;
  };
  info.scenario = root.at("scenario").as_string();
  info.replications = count_at("replications");
  info.threads = count_at("threads");
  return metrics::snapshot_from_json(doc);
}

int command_profile_analyze(const std::vector<std::string>& args, std::ostream& out,
                            std::ostream& err) {
  int top_n = 0;
  std::vector<std::string> paths;
  const Flag flags[] = {{"--top", &top_n, "a positive integer", 1, 1000}};
  if (int rc = parse_flags(args, 0, flags, &paths, "profile-analyze", err); rc != 0) return rc;
  if (paths.size() != 1) {
    err << "profile-analyze: "
        << (paths.empty() ? "expected the --profile or --metrics report of a profiled run"
                          : "unexpected argument '" + paths[1] + "'")
        << '\n';
    return 1;
  }
  try {
    metrics::ReportInfo info;
    const metrics::Snapshot snapshot = read_metrics_report(paths[0], info);
    prof::write_profile_report(info, snapshot, out, top_n);
    return 0;
  } catch (const std::exception& e) {
    err << e.what() << '\n';
    return 2;
  }
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

/// Formats a sweep value the way per-point scenario names embed it:
/// whole numbers whole (1000000, not 1e+06), fractions as typed (0.95).
std::string format_value(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.15g", value);
  return buffer;
}

/// Prints the diminishing-returns table of a ladder of (value, mean
/// final infections) points and its knee verdict as a stable greppable
/// marker line, or one note when `parameter` has no stronger end.
void print_knee_analysis(const std::string& parameter,
                         std::vector<std::pair<double, double>> points, double knee_fraction,
                         std::ostream& out) {
  const analysis::SweepableParam* param = analysis::find_sweepable(parameter);
  if (param == nullptr || !param->stronger) {
    out << "no knee analysis: '" << parameter << "' is not a "
        << (param == nullptr ? "sweepable" : "response") << " parameter\n";
    return;
  }
  const analysis::DiminishingReturnsReport report = analysis::analyze_diminishing_returns(
      parameter, std::move(points), *param->stronger, knee_fraction);
  out << analysis::to_table(report);
  if (report.has_knee()) {
    const analysis::MarginalGain& step = report.gains[report.knee_index];
    char line[160];
    std::snprintf(line, sizeof line, "knee: %s past %s (the step to %s earns %.2f avoided/unit)\n",
                  parameter.c_str(), format_value(step.from_parameter).c_str(),
                  format_value(step.to_parameter).c_str(), step.avoided_per_unit);
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
  std::string param_name;
  std::string values_text;
  core::RunnerOptions runner = cli_runner();
  std::string ledger_path;
  std::string curve_csv;
  double knee_fraction = 0.2;
  bool progress = false;
  const Flag flags[] = {
      {"--param", &param_name},          {"--values", &values_text},
      reps_flag(runner.replications),    seed_flag(runner.master_seed),
      threads_flag(runner.threads),      {"--ledger", &ledger_path},
      {"--curve-csv", &curve_csv},       knee_fraction_flag(knee_fraction),
      {"--progress", &progress},
  };
  if (int rc = parse_flags(args, 1, flags, nullptr, "sweep", err); rc != 0) return rc;
  std::vector<double> values;
  std::vector<std::string> value_texts;
  std::string token;
  std::istringstream list(values_text);
  while (std::getline(list, token, ',')) {
    double value = 0.0;
    if (!parse_double(token, value)) {
      err << "--values: expected comma-separated numbers, got '" << token << "'\n";
      return 1;
    }
    values.push_back(value);
    value_texts.push_back(token);
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
  if (int rc = resolve_scenario(args[0], base, err); rc != 0) return rc;

  // Build and validate every point before the first one runs, so a bad
  // value late in the ladder costs no run time and leaves no ledger line.
  std::vector<core::ScenarioConfig> scenarios;
  scenarios.reserve(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    core::ScenarioConfig& scenario = scenarios.emplace_back(base);
    if (!param->apply(scenario, values[i])) {
      err << "sweep: " << param_name << " takes a whole number of " << param->unit
          << " in range, got '" << value_texts[i] << "'\n";
      return 1;
    }
    scenario.name = base.name + "/" + param_name + "=" + format_value(values[i]);
    scenario.validate().throw_if_invalid();
  }
  if (int rc = probe_writable(ledger_path, err); rc != 0) return rc;
  if (int rc = probe_writable(curve_csv, err); rc != 0) return rc;

  // Each point's manifest reaches the ledger as soon as the point
  // finishes, so the ledger is the sweep's live record.
  const std::size_t count = scenarios.size();
  std::vector<core::ExperimentResult> results;
  results.reserve(count);
  double finished_seconds = 0.0;  // summed wall time of the points run so far
  for (std::size_t i = 0; i < count; ++i) {
    const core::ScenarioConfig& scenario = scenarios[i];
    if (progress) {
      err << "[" << i + 1 << "/" << count << "] " << param_name << " = "
          << format_value(values[i]) << "...";
      if (i > 0) {
        const double mean_seconds = finished_seconds / static_cast<double>(i);
        char eta[48];
        std::snprintf(eta, sizeof eta, " (ETA %.1f s)",
                      mean_seconds * static_cast<double>(count - i));
        err << eta;
      }
      err << '\n';
    }
    const auto started = std::chrono::steady_clock::now();
    const core::ExperimentResult& result =
        results.emplace_back(core::run_experiment(scenario, runner));
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
    finished_seconds += wall_seconds;
    if (ledger_path.empty()) continue;
    core::ManifestInputs inputs;
    inputs.scenario_hash = scenario_hash_of(scenario);
    inputs.seed = runner.master_seed;
    inputs.phases.run_seconds = wall_seconds;
    inputs.sweep = obs::SweepInfo{param_name, values[i], static_cast<int>(i),
                                  static_cast<int>(count)};
    if (!obs::append_to_ledger(ledger_path,
                               core::build_run_manifest(scenario, inputs, result))) {
      err << "cannot write '" << ledger_path << "'\n";
      return 2;
    }
  }

  out << "sweep: " << base.name << " over " << param_name << " [" << param->unit << "], "
      << count << " point(s) x " << runner.replications << " replication(s) (seed "
      << runner.master_seed << ")\n";
  std::vector<std::pair<double, double>> finals;
  std::vector<stats::LabelledSeries> curves;
  for (std::size_t i = 0; i < count; ++i) {
    const core::ExperimentResult& result = results[i];
    const std::string value = format_value(values[i]);
    char line[160];
    std::snprintf(line, sizeof line, "  %-14s %10.1f +/- %.1f\n", value.c_str(),
                  result.final_infections.mean(), result.final_infections.ci95_half_width());
    out << line;
    finals.emplace_back(values[i], result.final_infections.mean());
    curves.push_back({param_name + "=" + value, &result.curve});
  }
  out << '\n';
  print_knee_analysis(param_name, std::move(finals), knee_fraction, out);
  if (curve_csv.empty()) return 0;
  // One mean column per point, on the points' shared sample grid.
  return write_to(
      curve_csv,
      [&](std::ostream& os) {
        stats::write_figure_csv(os, curves, results.front().curve.step());
      },
      out, err);
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
        const json::Value doc = read_json_file(artifact.path);
        const json::Value* derived =
            doc.is_object() ? doc.as_object().find("derived") : nullptr;
        if (derived == nullptr || !derived->is_object()) {
          throw std::runtime_error("no derived section");
        }
        out << "\n-- metrics (" << artifact.path << ") --\n";
        for (const auto& [key, value] : derived->as_object().entries()) {
          out << "  " << key << ": " << json::stringify(value, 0) << '\n';
        }
      } else if (artifact.kind == "trace") {
        std::ostringstream report;
        write_trace_report(artifact.path, report);
        out << "\n-- trace (" << artifact.path << ") --\n" << report.str();
      } else if (artifact.kind == "profile") {
        metrics::ReportInfo info;
        const metrics::Snapshot snapshot = read_metrics_report(artifact.path, info);
        out << "\n-- profile (" << artifact.path << ", top 5) --\n";
        prof::write_profile_report(info, snapshot, out, 5);
      }
    } catch (const std::exception& e) {
      out << "\n-- " << artifact.kind << " (" << artifact.path << "): skipped: " << e.what()
          << " --\n";
    }
  }
}

int report_ledger(const std::string& path, double knee_fraction, std::ostream& out,
                  std::ostream& err) {
  const std::vector<obs::RunManifest> manifests = obs::read_ledger_file(path);
  if (manifests.empty()) {
    err << "ledger: '" << path << "' holds no runs\n";
    return 1;
  }
  out << "ledger: " << path << ", " << manifests.size() << " run(s)\n";
  char line[256];
  std::snprintf(line, sizeof line, "%-44s %6s %5s %10s %8s %10s %12s\n", "scenario", "reps",
                "thr", "final", "ci95", "patched", "events");
  out << line;
  for (const obs::RunManifest& manifest : manifests) {
    const obs::RunOutcome& o = manifest.outcome;
    std::snprintf(line, sizeof line, "%-44s %6d %5d %10.1f %8.1f %10.1f %12llu\n",
                  manifest.scenario.c_str(), manifest.replications, manifest.threads,
                  o.final_infected_mean, o.final_infected_ci95, o.patched_mean,
                  static_cast<unsigned long long>(o.total_events));
    out << line;
  }
  // Sweep-tagged runs regroup into their ladders, one per base scenario
  // and parameter (in order of first appearance), so the report can
  // re-run the knee analysis offline. A point's scenario is named
  // "<base>/<parameter>=<value>".
  using LadderKey = std::pair<std::string, std::string>;
  std::vector<LadderKey> order;
  std::map<LadderKey, std::vector<std::pair<double, double>>> ladders;
  for (const obs::RunManifest& manifest : manifests) {
    if (!manifest.sweep.has_value()) continue;
    const std::string& parameter = manifest.sweep->parameter;
    const std::size_t suffix = manifest.scenario.rfind("/" + parameter + "=");
    LadderKey key{manifest.scenario.substr(0, suffix), parameter};
    auto [it, inserted] = ladders.try_emplace(key);
    if (inserted) order.push_back(std::move(key));
    it->second.emplace_back(manifest.sweep->value, manifest.outcome.final_infected_mean);
  }
  for (const LadderKey& key : order) {
    auto& points = ladders[key];
    if (points.size() < 2) continue;
    const auto& [base, parameter] = key;
    out << '\n' << base << ": sweep " << parameter << " (" << points.size() << " points):\n";
    print_knee_analysis(parameter, std::move(points), knee_fraction, out);
  }
  return 0;
}

int command_report(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  if (args.empty()) {
    err << "report: expected a manifest path, --ledger PATH, or --compare A B\n";
    return 1;
  }
  std::vector<std::string> paths;
  try {
    if (args[0] == "--compare") {
      double threshold = 0.05;
      const Flag flags[] = {{"--threshold", &threshold, "a positive fraction"}};
      if (int rc = parse_flags(args, 1, flags, &paths, "report", err); rc != 0) return rc;
      if (paths.size() != 2) {
        err << "report --compare: expected exactly two manifest paths\n";
        return 1;
      }
      const obs::RunManifest baseline = obs::read_manifest_file(paths[0]);
      const obs::RunManifest current = obs::read_manifest_file(paths[1]);
      const obs::OutcomeComparison comparison =
          obs::compare_outcomes(baseline, current, threshold);
      out << obs::render_comparison(baseline, current, comparison, threshold);
      return comparison.regressions > 0 ? 1 : 0;
    }
    if (args[0] == "--ledger") {
      double knee_fraction = 0.2;
      const Flag flags[] = {knee_fraction_flag(knee_fraction)};
      if (int rc = parse_flags(args, 1, flags, &paths, "report", err); rc != 0) return rc;
      if (paths.size() != 1) {
        err << "report --ledger: "
            << (paths.empty() ? "missing ledger path" : "unexpected argument '" + paths[1] + "'")
            << '\n';
        return 1;
      }
      return report_ledger(paths[0], knee_fraction, out, err);
    }
    if (args.size() != 1) {
      err << "report: expected a single manifest path (or --ledger / --compare)\n";
      return 1;
    }
    const obs::RunManifest manifest = obs::read_manifest_file(args[0]);
    out << obs::render_manifest(manifest);
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
