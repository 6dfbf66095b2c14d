// behaviot — command-line front end for the library.
//
// Drives the gateway workflow end-to-end on pcap files:
//
//   behaviot simulate --dataset idle --days 2 --seed 7 --out idle.pcap
//       Write a simulated testbed capture as a classic .pcap file.
//       Datasets: idle | activity | routine | uncontrolled-day:<N>
//
//   behaviot train --idle idle.pcap --window-days 2 --out models.bbm
//       Infer periodic models from an idle capture and save them (with the
//       default deviation thresholds). User-action models need labeled
//       interactions and are therefore trained via the library API, not
//       from raw pcaps — see README.
//
//   behaviot show --models models.bbm [--device <name>]
//       Print the saved models.
//
//   behaviot score --models models.bbm --capture day.pcap
//       Evaluate a capture against saved models and print periodic
//       deviation alerts. With --window-s W the capture is scored in
//       successive W-second windows instead of the prime/score half-split.
//
//   behaviot watch --models models.bbm --capture day.pcap --window-s W
//       Streaming daemon: read the capture incrementally (tail it as it
//       grows with --follow 1), assemble flows with bounded memory, score
//       each W-second deviation window as it closes, and optionally
//       retrain + hot-swap models every N windows (--retrain-every N).
//       On a finite capture whose DNS/SNI bindings precede their flows the
//       alerts are identical to `score --window-s W` (DESIGN.md §5h).
//       --max-windows / --until-s bound the run deterministically; --alerts
//       is rewritten after every window. The daemon is
//       core/watch_daemon.hpp; this command is its flag front end.
//
//   behaviot mud --models models.bbm --device <name>
//       Emit a MUD-like profile for one device.
//
//   behaviot check --models models.bbm --capture day.pcap --device <name>
//       MUD compliance: flag the device's flows that match no profile
//       entry (unknown destination or protocol).
//
//   behaviot explain --alerts report.json [--source periodic|short-term|
//       long-term]
//       Render the provenance of each alert in a report written by
//       `score --alerts FILE`: observed vs expected value, crossed
//       threshold, model group, and cluster/vote evidence.
//
//   behaviot health --capture day.pcap [--models models.bbm]
//       Exercise the pipeline on a capture (assembly + inference, plus
//       scoring when models are given) and print the per-component health
//       report: healthy / degraded / quarantined with reason codes.
//
//   behaviot convert-models --in models.bbm --out models.txt
//       Render a .bbm model set as the text dump for review, or (with a
//       .bbm --out) re-save it. Every model read is a .bbm file; an --out
//       path not ending in .bbm gets the write-only text dump, which
//       nothing loads back. Binary output is re-opened and verified
//       (header, section table, CRC) after the write.
//
// Numeric flags are validated before any file I/O: a malformed or
// out-of-domain value (--window-s abc, --seed -1, --days inf) prints a
// one-line `usage error:` to stderr and exits 2.
//
// Any traffic-consuming command accepts --chaos SPEC to inject
// deterministic faults (packet loss, reordering, clock faults, DNS-answer
// loss, feature corruption...) before processing — the graceful-degradation
// paths then show up in the health report instead of as crashes.
#include <algorithm>
#include <atomic>
#include <cctype>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "behaviot/analysis/alert_report.hpp"
#include "behaviot/chaos/fault_injector.hpp"
#include "behaviot/core/mud_profile.hpp"
#include "behaviot/core/pipeline.hpp"
#include "behaviot/core/serialize.hpp"
#include "behaviot/core/serialize_binary.hpp"
#include "behaviot/core/watch_daemon.hpp"
#include "behaviot/deviation/monitor.hpp"
#include "behaviot/net/pcap.hpp"
#include "behaviot/obs/export.hpp"
#include "behaviot/obs/health.hpp"
#include "behaviot/obs/metrics.hpp"
#include "behaviot/obs/process_stats.hpp"
#include "behaviot/obs/snapshot.hpp"
#include "behaviot/obs/span.hpp"
#include "behaviot/obs/telemetry_server.hpp"
#include "behaviot/obs/trace.hpp"
#include "behaviot/testbed/datasets.hpp"

using namespace behaviot;

namespace {

/// The run's fault injector (nullptr without --chaos). Owned by main(), so it
/// lives for the whole command — feature-stage faults stay armed while the
/// pipeline runs — and is torn down, publishing its fault counters, while
/// the metrics registry it publishes into still exists.
chaos::FaultInjector* g_chaos = nullptr;

/// The run's telemetry server (nullptr without --http). Started before the
/// command dispatch so the endpoints answer for the whole run, including
/// model load and ingest.
std::unique_ptr<obs::TelemetryServer> g_telemetry;

/// Graceful shutdown for `watch`. The first SIGINT/SIGTERM asks the daemon
/// to stop at the last closed window (WatchDaemon::request_stop), after
/// which --resume continues the run byte-identically. A second signal
/// aborts immediately with the conventional 128+SIGINT code — equivalent to
/// a crash, which --resume recovers from too.
std::atomic<int> g_signal_count{0};
std::atomic<WatchDaemon*> g_watch_daemon{nullptr};

extern "C" void handle_watch_signal(int) {
  if (g_signal_count.fetch_add(1, std::memory_order_relaxed) >= 1) {
    std::_Exit(130);
  }
  if (WatchDaemon* daemon = g_watch_daemon.load()) daemon->request_stop();
}

int usage() {
  std::fprintf(stderr,
               "usage: behaviot <simulate|train|show|score|watch|mud|check"
               "|explain|health|convert-models> [options]\n"
               "Models load from binary .bbm files only. An --out path not"
               " ending in .bbm\n"
               "gets a write-only text dump (human-diffable, no user-action"
               " forests).\n"
               "  simulate --dataset idle|activity|routine|uncontrolled-day:N"
               " [--days D] [--seed S] --out FILE.pcap\n"
               "  train    --idle FILE.pcap --window-days D --out MODELS\n"
               "  show     --models MODELS [--device NAME]\n"
               "  score    --models MODELS --capture FILE.pcap"
               " [--window-s W] [--alerts REPORT.json]\n"
               "  watch    --models MODELS --capture FILE.pcap"
               " [--window-s W]\n"
               "      [--max-windows N] [--until-s S] [--retrain-every N]"
               " [--follow 1]\n"
               "      [--poll-ms MS] [--horizon-s S] [--max-open-flows N]\n"
               "      [--max-buffered-packets N] [--alerts REPORT.json]\n"
               "      [--publish-models FILE   write each retrained+swapped"
               " model\n"
               "      generation to FILE (format by extension)]\n"
               "      [--rotate-max-bytes N --rotate-keep K   archive an"
               " --alerts/\n"
               "      --metrics/--trace snapshot as FILE.<window> once it"
               " exceeds N\n"
               "      bytes, keeping the newest K archives (default 3)]\n"
               "      [--checkpoint FILE.bbc [--checkpoint-every N]   write"
               " a durable\n"
               "      checkpoint (engine state + pinned models + capture"
               " cursor) after\n"
               "      every N closed windows (default 1), rotating FILE ->"
               " FILE.prev so\n"
               "      a kill -9 mid-write always leaves one intact"
               " generation]\n"
               "      [--resume FILE.bbc   restore a checkpointed run and"
               " continue it:\n"
               "      the capture replays from the checkpointed byte offset"
               " and the\n"
               "      alert stream continues byte-identically to the"
               " uninterrupted run\n"
               "      (--models becomes optional; the checkpoint embeds the"
               " models)]\n"
               "      [--retrain-timeout-s S   abandon a background retrain"
               " still\n"
               "      running S seconds after launch — prior models keep"
               " scoring and\n"
               "      the next interval retries (0 = wait, fully"
               " deterministic)]\n"
               "      [--reopen-backoff-max-ms MS   cap on the exponential"
               " backoff\n"
               "      used when a --follow input is rotated, truncated or"
               " unreadable\n"
               "      (default 5000); the daemon reopens instead of"
               " exiting]\n"
               "      stream the capture (tail it with --follow 1), score"
               " each closed\n"
               "      W-second window, retrain + hot-swap models every"
               " --retrain-every\n"
               "      windows; --alerts is rewritten after every window."
               " SIGTERM/SIGINT\n"
               "      end the run at the last closed window and flush every"
               " snapshot before\n"
               "      exit 0; --resume continues it byte-identically (a"
               " second signal exits\n"
               "      immediately)\n"
               "  mud      --models MODELS --device NAME\n"
               "  check    --models MODELS --capture FILE.pcap"
               " --device NAME\n"
               "  explain  --alerts REPORT.json [--source"
               " periodic|short-term|long-term]\n"
               "  health   --capture FILE.pcap [--models MODELS]\n"
               "  convert-models --in MODELS.bbm --out FILE\n"
               "      re-save a .bbm model set, or render it as the text"
               " dump for review\n"
               "      when FILE does not end in .bbm (the dump drops"
               " user-action forests)\n"
               "common:\n"
               "  --chaos SPEC             inject deterministic faults into"
               " the loaded or\n"
               "      simulated traffic before processing. SPEC is"
               " comma-separated\n"
               "      name=value: drop/dup/reorder/regress/dnsloss/flap/"
               "truncate/nan/inf/\n"
               "      throw (probabilities in [0,1]), skew (clock drift,"
               " ppm), seed,\n"
               "      crash=POINT + crashn=K (SIGKILL the process at the"
               " K-th hit of a\n"
               "      named crash point, e.g. checkpoint.after_rotate — for"
               " crash-\n"
               "      recovery testing with watch --resume).\n"
               "      Example: --chaos drop=0.01,reorder=0.005,seed=42."
               " Injected faults\n"
               "      surface in the health report, never as crashes\n"
               "  --parse strict|lenient   capture/model parse policy"
               " (default lenient:\n"
               "      damaged records are skipped and reported; strict stops"
               " at the first\n"
               "      malformation with its byte offset)\n"
               "  --metrics FILE           record pipeline metrics (stage"
               " timings, ingestion\n"
               "      skip counters, alert counts) and write them to FILE:"
               " JSON, or\n"
               "      Prometheus text exposition when FILE ends in .prom;"
               " also prints an\n"
               "      end-of-run summary table to stderr\n"
               "  --trace FILE             record an execution timeline and"
               " write it to FILE\n"
               "      as Chrome trace-event JSON (open in Perfetto or"
               " chrome://tracing);\n"
               "      parallel stages render as per-thread lanes of chunk"
               " spans\n"
               "  --http PORT              serve live telemetry on"
               " 127.0.0.1:PORT while the\n"
               "      command runs (0 = ephemeral; the bound port is printed"
               " to stderr):\n"
               "      /metrics (Prometheus 0.0.4), /metrics.json, /healthz"
               " (200/503),\n"
               "      /statusz (run status JSON), /tracez (recent-event"
               " trace)\n");
  return 2;
}

/// A flag value the command cannot use. Distinct from internal failures
/// (exit 1): the operator mistyped, so main() reports it as a one-line
/// usage error and exits 2.
class FlagError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

[[noreturn]] void reject_flag(const char* name, const std::string& value,
                              const char* want) {
  throw FlagError("--" + std::string(name) + " " + value + ": expected " +
                  want);
}

/// Non-negative integer value, digits only. The std::stoul calls this
/// replaces silently wrapped "-1" to 2^64-1 (a watch --max-windows -1 ran
/// forever believing it was bounded) and accepted junk suffixes ("12abc").
std::uint64_t parse_count_value(const char* name, const std::string& value) {
  const bool digits_only =
      !value.empty() && std::all_of(value.begin(), value.end(), [](char c) {
        return std::isdigit(static_cast<unsigned char>(c)) != 0;
      });
  std::uint64_t parsed = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), parsed);
  if (!digits_only || ec != std::errc{} ||
      ptr != value.data() + value.size()) {
    reject_flag(name, value, "a non-negative integer");
  }
  return parsed;
}

std::uint64_t parse_count(const std::map<std::string, std::string>& flags,
                          const char* name, std::uint64_t fallback) {
  const auto it = flags.find(name);
  if (it == flags.end()) return fallback;
  return parse_count_value(name, it->second);
}

/// Finite floating-point value bounded below. The std::stod calls this
/// replaces accepted "nan" (which then disabled every comparison downstream)
/// and threw std::out_of_range on "1e999" — surfacing as a generic exit-1
/// error instead of a usage error.
double parse_double_value(const char* name, const std::string& value,
                          double min_value, const char* want) {
  double parsed = 0.0;
  const auto [ptr, ec] = std::from_chars(
      value.data(), value.data() + value.size(), parsed,
      std::chars_format::general);
  if (ec != std::errc{} || ptr != value.data() + value.size() ||
      !std::isfinite(parsed) || parsed < min_value) {
    reject_flag(name, value, want);
  }
  return parsed;
}

/// Strictly positive seconds/days value (windows, durations).
double parse_positive(const std::map<std::string, std::string>& flags,
                      const char* name, double fallback) {
  const auto it = flags.find(name);
  if (it == flags.end()) return fallback;
  const double v = parse_double_value(name, it->second,
                                      std::numeric_limits<double>::min(),
                                      "a positive finite number");
  return v;
}

/// Non-negative seconds value (offsets, horizons).
double parse_non_negative(const std::map<std::string, std::string>& flags,
                          const char* name, double fallback) {
  const auto it = flags.find(name);
  if (it == flags.end()) return fallback;
  return parse_double_value(name, it->second, 0.0,
                            "a non-negative finite number");
}

/// Parse policy for pcap/model ingestion from the common --parse flag.
ParsePolicy parse_policy(const std::map<std::string, std::string>& flags) {
  const auto it = flags.find("parse");
  if (it == flags.end() || it->second == "lenient") {
    return ParsePolicy::kLenient;
  }
  if (it->second == "strict") return ParsePolicy::kStrict;
  throw std::runtime_error("unknown --parse policy '" + it->second +
                           "' (want strict|lenient)");
}

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) continue;
    const std::string arg = argv[i] + 2;
    // Both spellings work: "--window-s 30" and "--window-s=30".
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      flags[arg] = argv[++i];
    }
  }
  return flags;
}

/// Restores device identity on captured packets and, with --chaos, applies
/// the configured packet faults — right after ingestion, before any
/// pipeline stage sees the traffic. Batch commands run it once per
/// capture, `watch` once per chunk.
void prepare_packets(std::vector<Packet>& packets) {
  testbed::annotate_devices(packets);
  if (g_chaos != nullptr) g_chaos->apply(packets);
}

void print_chaos_summary() {
  if (g_chaos == nullptr) return;
  std::fprintf(stderr, "chaos: %llu faults injected (%s)\n",
               static_cast<unsigned long long>(g_chaos->stats().total()),
               g_chaos->spec().summary().c_str());
}

std::vector<Packet> load_capture(const std::string& path, ParsePolicy policy) {
  auto parsed = read_pcap(path, policy);
  prepare_packets(parsed.packets);
  std::fprintf(stderr, "loaded %s: %s\n", path.c_str(),
               parsed.stats.summary().c_str());
  print_chaos_summary();
  return std::move(parsed.packets);
}

/// The value of a string flag; empty when absent.
std::string flag_value(const std::map<std::string, std::string>& flags,
                       const char* name) {
  const auto it = flags.find(name);
  return it == flags.end() ? std::string() : it->second;
}

int cmd_simulate(const std::map<std::string, std::string>& flags) {
  const std::string dataset = flags.count("dataset") ? flags.at("dataset")
                                                     : "idle";
  const double days = parse_positive(flags, "days", 1.0);
  const std::uint64_t seed = parse_count(flags, "seed", 1);
  if (flags.count("out") == 0) return usage();

  testbed::GeneratedCapture capture;
  if (dataset == "idle") {
    capture = testbed::Datasets::idle(seed, days);
  } else if (dataset == "activity") {
    capture = testbed::Datasets::activity(seed);
  } else if (dataset == "routine") {
    capture = testbed::Datasets::routine_week(seed, days);
  } else if (dataset.rfind("uncontrolled-day:", 0) == 0) {
    capture = testbed::Datasets::uncontrolled_day(
        static_cast<std::size_t>(parse_count_value(
            "dataset", dataset.substr(std::strlen("uncontrolled-day:")))),
        seed);
  } else {
    std::fprintf(stderr, "unknown dataset '%s'\n", dataset.c_str());
    return 2;
  }

  if (g_chaos != nullptr) g_chaos->apply(capture);

  PcapWriter writer(flags.at("out"));
  for (const Packet& p : capture.packets) writer.write(p);
  std::printf("wrote %zu packets to %s (%zu ground-truth user events "
              "withheld — pcap carries traffic only)\n",
              writer.packets_written(), flags.at("out").c_str(),
              capture.events.size());
  return 0;
}

int cmd_train(const std::map<std::string, std::string>& flags) {
  if (flags.count("idle") == 0 || flags.count("out") == 0) return usage();
  const double window_days = parse_positive(flags, "window-days", 1.0);

  const auto packets = load_capture(flags.at("idle"), parse_policy(flags));
  DomainResolver resolver = testbed::gateway_resolver();
  FlowAssembler assembler;
  const auto flows = assembler.assemble(packets, resolver);
  std::fprintf(stderr, "assembled %zu flows\n", flows.size());

  BehaviorModelSet models;
  models.periodic = PeriodicModelSet::infer(flows, window_days * 86400.0);
  save_models_file(flags.at("out"), models);
  std::printf("inferred %zu periodic models (coverage %.1f%%), saved to %s\n",
              models.periodic.size(),
              models.periodic.stats().coverage() * 100.0,
              flags.at("out").c_str());
  return 0;
}

int cmd_show(const std::map<std::string, std::string>& flags) {
  if (flags.count("models") == 0) return usage();
  const BehaviorModelSet models =
      load_models_file_reporting(flags.at("models"), parse_policy(flags));
  const auto& catalog = testbed::Catalog::standard();

  const testbed::DeviceInfo* only = nullptr;
  if (flags.count("device")) {
    only = catalog.by_name(flags.at("device"));
    if (only == nullptr) {
      std::fprintf(stderr, "unknown device '%s'\n",
                   flags.at("device").c_str());
      return 2;
    }
  }
  std::printf("periodic models: %zu; PFSM: %zu states / %zu transitions; "
              "thresholds: periodic %.2f, short-term %.2f, |z| %.2f\n\n",
              models.periodic.size(), models.pfsm.num_states(),
              models.pfsm.num_transitions(), models.thresholds.periodic,
              models.short_term.value(), models.thresholds.long_term_z);
  for (const PeriodicModel& m : models.periodic.all()) {
    if (only != nullptr && m.device != only->id) continue;
    const char* device_name = m.device < catalog.size()
                                  ? catalog.by_id(m.device).name.c_str()
                                  : "?";
    std::printf("%-20s %-4s %-32s T=%8.1fs tol=%6.1fs support=%zu\n",
                device_name, to_string(m.app), m.domain.c_str(),
                m.period_seconds, m.tolerance_seconds, m.support);
  }
  return 0;
}

int cmd_score(const std::map<std::string, std::string>& flags) {
  if (flags.count("models") == 0 || flags.count("capture") == 0) {
    return usage();
  }
  // Validate numeric flags before any file I/O: a typo'd --window-s is a
  // usage error (exit 2) even when the model file also happens to be absent.
  const std::optional<std::int64_t> window_us =
      flags.count("window-s")
          ? std::optional<std::int64_t>(
                seconds(parse_positive(flags, "window-s", 1.0)))
          : std::nullopt;
  const BehaviorModelSet models =
      load_models_file_reporting(flags.at("models"), parse_policy(flags));
  const auto packets = load_capture(flags.at("capture"), parse_policy(flags));
  if (packets.empty()) {
    std::fprintf(stderr, "empty capture\n");
    return 1;
  }
  DomainResolver resolver = testbed::gateway_resolver();
  FlowAssembler assembler;
  const auto flows = assembler.assemble(packets, resolver);

  DeviationMonitor monitor(models.periodic, models.pfsm, models.short_term);
  std::vector<DeviationAlert> alerts;
  if (window_us) {
    // Windowed scoring: evaluate successive W-second windows over the whole
    // capture. This is the grid `behaviot watch` streams over; the two
    // commands emit identical alerts where DNS/SNI bindings precede their
    // flows (DESIGN.md §5h).
    const Timestamp t0 = flows.front().start;
    const Timestamp end = flows.back().end + seconds(1.0);
    std::size_t windows = 0;
    for (Timestamp ws = t0; ws < end; ws = ws + *window_us) {
      const Timestamp we = ws + *window_us;
      std::vector<FlowRecord> in_window;
      for (const FlowRecord& f : flows) {
        if (f.start >= ws && f.start < we) in_window.push_back(f);
      }
      auto batch = monitor.evaluate_window(ws, we, in_window, {});
      alerts.insert(alerts.end(), std::make_move_iterator(batch.begin()),
                    std::make_move_iterator(batch.end()));
      ++windows;
    }
    std::printf("%zu flows, %zu deviation alerts in %zu windows\n",
                flows.size(), alerts.size(), windows);
  } else {
    // Two passes: the first primes the timers, the second scores. A gateway
    // deployment would stream windows (see `behaviot watch`); for a one-shot
    // file we split in half.
    const Timestamp start = flows.front().start;
    const Timestamp end = flows.back().end + seconds(1.0);
    const Timestamp mid((start.micros() + end.micros()) / 2);
    std::vector<FlowRecord> first_half, second_half;
    for (const FlowRecord& f : flows) {
      (f.start < mid ? first_half : second_half).push_back(f);
    }
    (void)monitor.evaluate_window(start, mid, first_half, {});
    alerts = monitor.evaluate_window(mid, end, second_half, {});
    std::printf("%zu flows, %zu deviation alerts in the scored half\n",
                flows.size(), alerts.size());
  }

  for (const auto& a : alerts) print_alert_line(stdout, a);
  if (flags.count("alerts")) {
    const std::string& path = flags.at("alerts");
    const obs::HealthSnapshot health = obs::health().snapshot();
    std::string error;
    if (!obs::write_file_atomic(path, alerts_to_json(alerts, &health),
                                &error)) {
      std::fprintf(stderr, "error: cannot write alerts: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu alert(s) with provenance to %s\n",
                 alerts.size(), path.c_str());
  }
  return 0;
}

/// Streaming counterpart of `score --window-s`: the flag front end of
/// WatchDaemon (core/watch_daemon.hpp).
int cmd_watch(const std::map<std::string, std::string>& flags) {
  WatchDaemonOptions o;
  o.resume_path = flag_value(flags, "resume");
  o.models_path = flag_value(flags, "models");
  o.capture_path = flag_value(flags, "capture");
  if (o.capture_path.empty() ||
      (o.resume_path.empty() && o.models_path.empty())) {
    return usage();
  }
  // Numeric flags first: a usage error exits 2 before any file is touched.
  WatchOptions& e = o.engine;
  if (flags.count("window-s")) {
    e.window_us = seconds(parse_positive(flags, "window-s", 1.0));
  }
  e.max_windows = parse_count(flags, "max-windows", e.max_windows);
  if (flags.count("until-s")) {
    e.until = Timestamp(seconds(parse_non_negative(flags, "until-s", 0.0)));
  }
  e.retrain_every_windows =
      parse_count(flags, "retrain-every", e.retrain_every_windows);
  if (flags.count("horizon-s")) {
    e.assembler.reorder_horizon_us =
        seconds(parse_non_negative(flags, "horizon-s", 0.0));
  }
  e.assembler.max_open_flows =
      parse_count(flags, "max-open-flows", e.assembler.max_open_flows);
  e.assembler.max_buffered_packets = parse_count(
      flags, "max-buffered-packets", e.assembler.max_buffered_packets);
  e.publish_models_path = flag_value(flags, "publish-models");
  e.retrain_timeout_s =
      parse_non_negative(flags, "retrain-timeout-s", e.retrain_timeout_s);
  o.parse = parse_policy(flags);
  o.follow = flags.count("follow") && flags.at("follow") != "0";
  o.poll_ms = static_cast<long>(parse_count(flags, "poll-ms", 200));
  o.reopen_backoff_max_ms = static_cast<long>(std::max<std::uint64_t>(
      1, parse_count(flags, "reopen-backoff-max-ms", 5000)));
  o.alerts_path = flag_value(flags, "alerts");
  o.metrics_path = flag_value(flags, "metrics");
  o.trace_path = flag_value(flags, "trace");
  o.rotation.max_bytes = parse_count(flags, "rotate-max-bytes", 0);
  o.rotation.keep =
      static_cast<std::size_t>(parse_count(flags, "rotate-keep", 3));
  o.checkpoint_path = flag_value(flags, "checkpoint");
  o.checkpoint_every = parse_count(flags, "checkpoint-every", 1);
  if (o.checkpoint_every == 0) {
    reject_flag("checkpoint-every", flags.at("checkpoint-every"),
                "a positive window count");
  }

  WatchDaemon daemon(std::move(o), prepare_packets, g_telemetry.get());
  // The handlers point at this daemon only while it runs.
  struct SignalScope {
    explicit SignalScope(WatchDaemon& d) {
      g_signal_count.store(0);
      g_watch_daemon = &d;
      std::signal(SIGINT, handle_watch_signal);
      std::signal(SIGTERM, handle_watch_signal);
    }
    ~SignalScope() {
      std::signal(SIGINT, SIG_DFL);
      std::signal(SIGTERM, SIG_DFL);
      g_watch_daemon = nullptr;
    }
  };
  int rc = 0;
  {
    const SignalScope scope(daemon);
    rc = daemon.run();
  }
  if (rc == 0) print_chaos_summary();
  return rc;
}

/// Re-saves a .bbm model set, or renders it as the text dump when --out
/// does not end in .bbm. The dump deliberately omits user-action forests.
int cmd_convert(const std::map<std::string, std::string>& flags) {
  if (flags.count("in") == 0 || flags.count("out") == 0) return usage();
  const BehaviorModelSet models =
      load_models_file_reporting(flags.at("in"), parse_policy(flags));
  save_models_file(flags.at("out"), models);
  if (is_binary_model_path(flags.at("out"))) {
    // Verify the written image with the zero-copy view: re-validates the
    // header, section table and CRC straight off disk without a second
    // materializing load, so a torn or miswritten store file is caught at
    // write time rather than by the next reader.
    std::ifstream check(flags.at("out"), std::ios::binary);
    if (!check) {
      std::fprintf(stderr,
                   "error: cannot re-open %s for verification\n",
                   flags.at("out").c_str());
      return 1;
    }
    const std::string image((std::istreambuf_iterator<char>(check)),
                            std::istreambuf_iterator<char>());
    const BinaryModelView view = BinaryModelView::open(
        {reinterpret_cast<const std::uint8_t*>(image.data()), image.size()});
    if (view.periodic_count() != models.periodic.size()) {
      std::fprintf(stderr, "error: written image holds %zu periodic models, "
                           "expected %zu\n",
                   view.periodic_count(), models.periodic.size());
      return 1;
    }
  }
  std::printf("converted %s -> %s (%zu periodic models, %zu states, "
              "%zu user-action classifiers)\n",
              flags.at("in").c_str(), flags.at("out").c_str(),
              models.periodic.size(), models.pfsm.num_states(),
              models.user_actions.size());
  return 0;
}

int cmd_health(const std::map<std::string, std::string>& flags) {
  if (flags.count("capture") == 0) return usage();
  const auto packets = load_capture(flags.at("capture"), parse_policy(flags));
  DomainResolver resolver = testbed::gateway_resolver();
  FlowAssembler assembler;
  const auto flows = assembler.assemble(packets, resolver);
  std::fprintf(stderr, "assembled %zu flows\n", flows.size());

  if (flags.count("models")) {
    // Score the capture against the saved models so the classify/monitor
    // components report too.
    const BehaviorModelSet models =
        load_models_file_reporting(flags.at("models"), parse_policy(flags));
    Pipeline pipeline;
    const auto classified = pipeline.classify(flows, models);
    for (const std::string& reason : classified.degraded) {
      std::fprintf(stderr, "degraded: %s\n", reason.c_str());
    }
    if (!flows.empty()) {
      DeviationMonitor monitor(models.periodic, models.pfsm,
                               models.short_term);
      (void)monitor.evaluate_window(flows.front().start,
                                    flows.back().end + seconds(1.0), flows,
                                    {});
    }
  } else if (!flows.empty()) {
    // No models: exercise inference itself on the capture.
    const double window_s =
        std::max(1.0, (flows.back().end - flows.front().start) / 1e6);
    (void)PeriodicModelSet::infer(flows, window_s);
  }

  std::printf("%s", obs::render_health_table(obs::health().snapshot()).c_str());
  return obs::health().snapshot().overall() == obs::ComponentState::kHealthy
             ? 0
             : 3;  // distinct from usage (2) and hard errors (1)
}

int cmd_explain(const std::map<std::string, std::string>& flags) {
  if (flags.count("alerts") == 0) return usage();
  std::ifstream is(flags.at("alerts"));
  if (!is) {
    std::fprintf(stderr, "error: cannot read %s\n",
                 flags.at("alerts").c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  const auto alerts = alerts_from_json(buf.str());

  const auto& catalog = testbed::Catalog::standard();
  std::size_t shown = 0;
  for (const auto& a : alerts) {
    if (flags.count("source") && flags.at("source") != to_string(a.source)) {
      continue;
    }
    const std::string device_name =
        a.device < catalog.size() ? catalog.by_id(a.device).name : "(system)";
    std::printf("%s\n", render_alert_explanation(a, device_name).c_str());
    ++shown;
  }
  std::printf("%zu of %zu alert(s) explained\n", shown, alerts.size());
  return 0;
}

int cmd_mud(const std::map<std::string, std::string>& flags) {
  if (flags.count("models") == 0 || flags.count("device") == 0) {
    return usage();
  }
  const BehaviorModelSet models =
      load_models_file_reporting(flags.at("models"), parse_policy(flags));
  const auto* device =
      testbed::Catalog::standard().by_name(flags.at("device"));
  if (device == nullptr) {
    std::fprintf(stderr, "unknown device '%s'\n", flags.at("device").c_str());
    return 2;
  }
  const MudProfile profile =
      generate_mud_profile(device->id, device->name, models.periodic, {});
  std::printf("%s", profile.to_json().c_str());
  return 0;
}

int cmd_check(const std::map<std::string, std::string>& flags) {
  if (flags.count("models") == 0 || flags.count("capture") == 0 ||
      flags.count("device") == 0) {
    return usage();
  }
  const BehaviorModelSet models =
      load_models_file_reporting(flags.at("models"), parse_policy(flags));
  const auto* device =
      testbed::Catalog::standard().by_name(flags.at("device"));
  if (device == nullptr) {
    std::fprintf(stderr, "unknown device '%s'\n", flags.at("device").c_str());
    return 2;
  }
  const auto packets =
      load_capture(flags.at("capture"), parse_policy(flags));
  DomainResolver resolver = testbed::gateway_resolver();
  FlowAssembler assembler;
  const auto flows = assembler.assemble(packets, resolver);

  const MudProfile profile = generate_mud_profile(
      device->id, device->name, models.periodic, {});
  const auto violations = check_mud_compliance(profile, device->id, flows);
  std::size_t device_flows = 0;
  for (const auto& f : flows) device_flows += f.device == device->id ? 1 : 0;
  std::printf("%s: %zu flows checked against %zu ACL entries, %zu "
              "non-compliant\n",
              device->display.c_str(), device_flows, profile.entries.size(),
              violations.size());
  for (const auto& v : violations) {
    std::printf("  NONCOMPLIANT %-14s %-40s %s\n", v.protocol.c_str(),
                v.domain.c_str(), v.reason.c_str());
  }
  return 0;
}

}  // namespace

namespace {

int dispatch(const std::string& command,
             const std::map<std::string, std::string>& flags) {
  obs::StageSpan span("cli." + command);
  if (command == "simulate") return cmd_simulate(flags);
  if (command == "train") return cmd_train(flags);
  if (command == "show") return cmd_show(flags);
  if (command == "score") return cmd_score(flags);
  if (command == "watch") return cmd_watch(flags);
  if (command == "mud") return cmd_mud(flags);
  if (command == "check") return cmd_check(flags);
  if (command == "explain") return cmd_explain(flags);
  if (command == "health") return cmd_health(flags);
  if (command == "convert-models") return cmd_convert(flags);
  return usage();
}

/// Stops the tracer and writes its snapshot to `path` as Chrome trace-event
/// JSON. Returns false on I/O failure.
bool write_trace(const std::string& path) {
  obs::Tracer::global().stop();
  const auto snap = obs::Tracer::global().snapshot();
  std::string error;
  if (!obs::write_file_atomic(path, obs::trace_to_chrome_json(snap),
                              &error)) {
    std::fprintf(stderr, "error: cannot write trace: %s\n", error.c_str());
    return false;
  }
  std::fprintf(stderr,
               "wrote trace to %s (%llu events on %zu threads, %llu dropped)"
               " — open in Perfetto or chrome://tracing\n",
               path.c_str(),
               static_cast<unsigned long long>(snap.total_events),
               snap.threads.size(),
               static_cast<unsigned long long>(snap.total_dropped));
  return true;
}

/// Writes the registry to `path` (Prometheus text for .prom, JSON otherwise)
/// and prints the summary table to stderr. Returns false on I/O failure.
bool write_metrics(const std::string& path) {
  obs::update_process_gauges();
  const auto snap = obs::MetricsRegistry::global().snapshot();
  std::string error;
  if (!obs::write_file_atomic(
          path, obs::metrics_document(path, snap, obs::health().snapshot()),
          &error)) {
    std::fprintf(stderr, "error: cannot write metrics: %s\n", error.c_str());
    return false;
  }
  std::fprintf(stderr, "\n%swrote metrics to %s\n",
               obs::summary_table(snap).c_str(), path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const auto flags = parse_flags(argc, argv);
  const auto metrics = flags.find("metrics");
  if (metrics != flags.end()) obs::MetricsRegistry::set_enabled(true);
  const auto trace = flags.find("trace");
  if (trace != flags.end()) {
    obs::Tracer::set_thread_label("main");
    obs::Tracer::global().start();
  }
  const auto chaos_flag = flags.find("chaos");
  std::unique_ptr<chaos::FaultInjector> injector;
  if (chaos_flag != flags.end()) {
    try {
      injector = std::make_unique<chaos::FaultInjector>(
          chaos::parse_chaos_spec(chaos_flag->second));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
    g_chaos = injector.get();
    g_chaos->arm_feature_chaos();
    g_chaos->arm_crash_points();
  }
  const auto http = flags.find("http");
  if (http != flags.end()) {
    try {
      const std::uint64_t port = parse_count_value("http", http->second);
      if (port > 65535) {
        reject_flag("http", http->second, "a TCP port (0-65535)");
      }
      // A scrape surface implies recording: turn the registry on like
      // --metrics does, so /metrics has something to say.
      obs::MetricsRegistry::set_enabled(true);
      obs::TelemetryServerOptions topts;
      topts.port = static_cast<std::uint16_t>(port);
      g_telemetry = std::make_unique<obs::TelemetryServer>(topts);
      std::string err;
      if (!g_telemetry->start(&err)) {
        std::fprintf(stderr, "error: --http: %s\n", err.c_str());
        return 1;
      }
      std::fprintf(stderr, "telemetry: listening on http://127.0.0.1:%u\n",
                   static_cast<unsigned>(g_telemetry->port()));
    } catch (const FlagError& e) {
      std::fprintf(stderr, "usage error: %s\n", e.what());
      return 2;
    }
  }
  int rc = 2;
  try {
    rc = dispatch(command, flags);
  } catch (const FlagError& e) {
    // Operator typo, not a runtime failure: one line, usage exit code.
    std::fprintf(stderr, "usage error: %s\n", e.what());
    rc = 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }
  // Metrics and traces are written even after a failed command: the record
  // up to the failure is exactly what an operator wants to see.
  if (metrics != flags.end() && !write_metrics(metrics->second)) rc = 1;
  if (trace != flags.end() && !write_trace(trace->second)) rc = 1;
  // A degraded run still exits 0 — outputs were produced, the operator just
  // gets told what they cost (the `health` subcommand scrutinizes instead).
  if (command != "health") {
    const obs::HealthSnapshot health = obs::health().snapshot();
    if (health.overall() != obs::ComponentState::kHealthy) {
      std::fprintf(stderr, "\n%s", obs::render_health_table(health).c_str());
    }
  }
  // Stopped after the final writes so a scraper polling through command
  // exit sees the run's complete telemetry.
  g_telemetry.reset();
  return rc;
}
