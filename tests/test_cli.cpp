// End-to-end smoke tests of the `behaviot` CLI: simulate → train → show →
// score → mud → explain, exercising the pcap, serialization, alert-report,
// and trace formats through the shipped binary.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "behaviot/core/binary_io.hpp"
#include "behaviot/core/checkpoint.hpp"
#include "behaviot/obs/json.hpp"

namespace {

std::string cli_path() {
  // tests run from build/tests (ctest) or anywhere (manual); resolve the
  // binary relative to this test's own location.
  const auto self = std::filesystem::read_symlink("/proc/self/exe");
  return (self.parent_path().parent_path() / "tools" / "behaviot").string();
}

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

/// `env` is prepended to the shell command ("NAME=value", may be empty).
CommandResult run(const std::string& args, const std::string& env = "") {
  CommandResult result;
  const std::string cmd =
      (env.empty() ? "" : env + " ") + cli_path() + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 512> buf{};
  while (fgets(buf.data(), buf.size(), pipe) != nullptr) {
    result.output += buf.data();
  }
  const int status = pclose(pipe);
  // Decode the wait(2) status: the exit-code contract (2 for usage errors)
  // is on the process exit code, not the packed status word.
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string read_file(const std::string& path) {
  std::string text;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return text;
  std::array<char, 512> buf{};
  std::size_t n = 0;
  while ((n = std::fread(buf.data(), 1, buf.size(), f)) > 0) {
    text.append(buf.data(), n);
  }
  std::fclose(f);
  return text;
}

class CliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Per process: two builds testing at once must not share (and tear
    // down) each other's inputs.
    dir_ = new std::string(::testing::TempDir() + "/behaviot_cli_" +
                           std::to_string(::getpid()));
    std::filesystem::create_directories(*dir_);
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete dir_;
  }
  static std::string* dir_;
};

std::string* CliTest::dir_ = nullptr;

TEST_F(CliTest, NoArgumentsPrintsUsage) {
  const auto result = run("");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("usage:"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandPrintsUsage) {
  const auto result = run("frobnicate");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("usage:"), std::string::npos);
}

TEST_F(CliTest, FullWorkflow) {
  const std::string pcap = *dir_ + "/idle.pcap";
  const std::string models = *dir_ + "/models.bbm";

  // simulate
  auto result = run("simulate --dataset idle --days 0.1 --seed 5 --out " +
                    pcap);
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("wrote"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(pcap));

  // train
  result = run("train --idle " + pcap + " --window-days 0.1 --out " + models);
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("periodic models"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(models));

  // show
  result = run("show --models " + models + " --device tplink_plug");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("tplink_plug"), std::string::npos);
  EXPECT_NE(result.output.find("tplinkcloud"), std::string::npos);

  // score the same capture against its own models: quiet.
  result = run("score --models " + models + " --capture " + pcap);
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("deviation alerts"), std::string::npos);

  // mud
  result = run("mud --models " + models + " --device tplink_plug");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("ietf-mud:mud"), std::string::npos);

  // check: MUD compliance of the capture against the inferred profile.
  result = run("check --models " + models + " --capture " + pcap +
               " --device tplink_plug");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("flows checked"), std::string::npos);
}

TEST_F(CliTest, MetricsFlagWritesJsonAndSummary) {
  const std::string pcap = *dir_ + "/metrics.pcap";
  const std::string models = *dir_ + "/metrics_models.bbm";
  const std::string metrics = *dir_ + "/metrics.json";
  ASSERT_EQ(run("simulate --dataset idle --days 0.1 --seed 7 --out " + pcap)
                .exit_code,
            0);
  ASSERT_EQ(run("train --idle " + pcap + " --window-days 0.1 --out " + models)
                .exit_code,
            0);

  const auto result = run("score --models " + models + " --capture " + pcap +
                          " --metrics " + metrics);
  ASSERT_EQ(result.exit_code, 0) << result.output;
  ASSERT_TRUE(std::filesystem::exists(metrics));
  // End-of-run summary table on stderr.
  EXPECT_NE(result.output.find("stage"), std::string::npos) << result.output;

  const std::string json = read_file(metrics);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  EXPECT_NE(json.find("ingest.records"), std::string::npos);
  EXPECT_NE(json.find("cli.score"), std::string::npos);
  EXPECT_NE(json.find("deviation.windows"), std::string::npos);
}

TEST_F(CliTest, MetricsFlagWritesPrometheusText) {
  const std::string pcap = *dir_ + "/metrics2.pcap";
  const std::string prom = *dir_ + "/metrics.prom";
  ASSERT_EQ(run("simulate --dataset idle --days 0.05 --seed 8 --out " + pcap)
                .exit_code,
            0);
  const auto result =
      run("simulate --dataset idle --days 0.05 --seed 8 --out " + pcap +
          " --metrics " + prom);
  ASSERT_EQ(result.exit_code, 0) << result.output;
  ASSERT_TRUE(std::filesystem::exists(prom));
  const std::string text = read_file(prom);
  EXPECT_NE(text.find("# TYPE"), std::string::npos);
  EXPECT_NE(text.find("behaviot_"), std::string::npos);
  EXPECT_NE(text.find("behaviot_stage_ms"), std::string::npos);
}

TEST_F(CliTest, ShowRejectsUnknownDevice) {
  const std::string pcap = *dir_ + "/idle2.pcap";
  const std::string models = *dir_ + "/models2.bbm";
  ASSERT_EQ(run("simulate --dataset idle --days 0.05 --seed 6 --out " + pcap)
                .exit_code,
            0);
  ASSERT_EQ(run("train --idle " + pcap + " --window-days 0.05 --out " +
                models)
                .exit_code,
            0);
  const auto result = run("show --models " + models + " --device nope");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("unknown device"), std::string::npos);
}

TEST_F(CliTest, TrainRejectsMissingCapture) {
  const auto result =
      run("train --idle /nonexistent.pcap --window-days 1 --out /tmp/x.bbm");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("error"), std::string::npos);
}

TEST_F(CliTest, TraceFlagWritesChromeJsonWithWorkerLanes) {
  const std::string pcap = *dir_ + "/trace.pcap";
  const std::string models = *dir_ + "/trace_models.bbm";
  const std::string trace = *dir_ + "/trace.json";
  ASSERT_EQ(run("simulate --dataset idle --days 0.1 --seed 5 --out " + pcap)
                .exit_code,
            0);

  // Train with a 4-thread pool so parallel stages fan out to worker lanes.
  const auto result = run("train --idle " + pcap + " --window-days 0.1 --out " +
                              models + " --trace " + trace,
                          "BEHAVIOT_THREADS=4");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("wrote trace to"), std::string::npos)
      << result.output;
  ASSERT_TRUE(std::filesystem::exists(trace));

  // The file must be one valid JSON document with the Chrome trace-event
  // shape: a traceEvents array of ph/name/pid/tid records.
  const auto doc = behaviot::obs::json::parse(read_file(trace));
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_FALSE(events.empty());

  std::map<double, std::string> thread_names;
  std::set<double> chunk_lanes;
  std::map<double, int> depth;
  bool worker_named = false;
  for (const auto& e : events) {
    const std::string& ph = e.at("ph").as_string();
    const std::string& name = e.at("name").as_string();
    const double tid = e.at("tid").as_number();
    (void)e.at("pid").as_number();
    if (ph == "M" && name == "thread_name") {
      const std::string& label = e.at("args").at("name").as_string();
      thread_names[tid] = label;
      worker_named |= label.rfind("pool-worker-", 0) == 0;
    }
    if (ph == "B") {
      ++depth[tid];
      const std::string suffix = "/task";
      if (name.size() > suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        chunk_lanes.insert(tid);
      }
    }
    if (ph == "E") {
      --depth[tid];
      ASSERT_GE(depth[tid], 0) << "unbalanced span end on tid " << tid;
    }
  }
  for (const auto& [tid, d] : depth) {
    EXPECT_EQ(d, 0) << "unclosed span on tid " << tid;
  }
  EXPECT_TRUE(worker_named);
  // A parallel stage rendered chunks on at least two lanes.
  EXPECT_GE(chunk_lanes.size(), 2u);
  // Every lane carrying chunk spans has a thread_name metadata record.
  for (const double tid : chunk_lanes) {
    EXPECT_EQ(thread_names.count(tid), 1u) << "unnamed lane " << tid;
  }
}

TEST_F(CliTest, ScoreWritesAlertReportAndExplainRendersIt) {
  const std::string idle = *dir_ + "/explain_idle.pcap";
  const std::string models = *dir_ + "/explain_models.bbm";
  const std::string outage = *dir_ + "/explain_day30.pcap";
  const std::string report = *dir_ + "/alerts.json";
  ASSERT_EQ(run("simulate --dataset idle --days 0.1 --seed 5 --out " + idle)
                .exit_code,
            0);
  ASSERT_EQ(run("train --idle " + idle + " --window-days 0.1 --out " + models)
                .exit_code,
            0);
  // Day 30 of the uncontrolled dataset carries a scheduled network outage
  // (incidents.cpp), so scoring it against idle models must raise periodic
  // deviations deterministically.
  ASSERT_EQ(run("simulate --dataset uncontrolled-day:30 --seed 5 --out " +
                outage)
                .exit_code,
            0);

  auto result = run("score --models " + models + " --capture " + outage +
                    " --alerts " + report);
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("with provenance"), std::string::npos)
      << result.output;
  ASSERT_TRUE(std::filesystem::exists(report));

  // The report is valid JSON carrying a populated explanation per alert.
  const auto doc = behaviot::obs::json::parse(read_file(report));
  EXPECT_EQ(doc.at("version").as_number(), 1.0);
  const auto& alerts = doc.at("alerts").as_array();
  ASSERT_FALSE(alerts.empty());
  for (const auto& a : alerts) {
    const auto& ex = a.at("explanation");
    EXPECT_FALSE(ex.at("metric").as_string().empty());
    EXPECT_FALSE(ex.at("model_group").as_string().empty());
    EXPECT_GT(ex.at("threshold").as_number(), 0.0);
    (void)ex.at("observed").as_number();
    (void)ex.at("expected").as_number();
    (void)ex.at("support").as_number();
  }

  // explain renders every alert's provenance block.
  result = run("explain --alerts " + report);
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("crossed threshold"), std::string::npos);
  EXPECT_NE(result.output.find("model group:"), std::string::npos);
  EXPECT_NE(result.output.find("alert(s) explained"), std::string::npos);

  // Source filtering narrows the rendering without failing.
  result = run("explain --alerts " + report + " --source periodic");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("[periodic]"), std::string::npos);

  // A malformed report is rejected loudly.
  const std::string bad = *dir_ + "/bad_report.json";
  {
    std::FILE* f = std::fopen(bad.c_str(), "w");
    std::fputs("{\"version\": 99}", f);
    std::fclose(f);
  }
  result = run("explain --alerts " + bad);
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("error"), std::string::npos);
}

TEST_F(CliTest, MalformedNumericFlagsExitTwoWithUsageError) {
  // Every numeric flag is parsed by the checked helpers: a malformed value
  // must produce exit code 2 and a one-line "usage error:" diagnostic, not
  // a stoul/stod exception or a silently truncated number.
  const struct {
    const char* args;
    const char* needle;
  } cases[] = {
      {"score --models m --capture c --window-s abc",
       "a positive finite number"},
      {"score --models m --capture c --window-s 0", "a positive finite"},
      {"score --models m --capture c --window-s -3", "a positive finite"},
      {"score --models m --capture c --window-s inf", "a positive finite"},
      {"simulate --dataset idle --days nope --out /tmp/x", "--days"},
      {"simulate --dataset idle --days 1e, --out /tmp/x", "--days"},
      {"simulate --dataset idle --days 0.1 --seed -1 --out /tmp/x",
       "--seed"},
      {"simulate --dataset idle --days 0.1 --seed 12x --out /tmp/x",
       "--seed"},
      {"train --idle c --window-days -0.5 --out m", "--window-days"},
      {"watch --models m --capture c --max-windows -1", "--max-windows"},
      {"watch --models m --capture c --poll-ms 10.5", "--poll-ms"},
      {"watch --models m --capture c --retrain-every 1e3",
       "--retrain-every"},
      {"watch --models m --capture c --rotate-max-bytes -4",
       "--rotate-max-bytes"},
      {"score --models m --capture c --http nope", "--http"},
      {"score --models m --capture c --http 70000", "TCP port"},
  };
  for (const auto& c : cases) {
    const auto result = run(c.args);
    EXPECT_EQ(result.exit_code, 2) << c.args << "\n" << result.output;
    EXPECT_NE(result.output.find("usage error:"), std::string::npos)
        << c.args << "\n" << result.output;
    EXPECT_NE(result.output.find(c.needle), std::string::npos)
        << c.args << "\n" << result.output;
    // One line, not a usage dump: the diagnostic names the flag directly.
    EXPECT_LT(result.output.size(), 200u) << c.args << "\n" << result.output;
  }
}

TEST_F(CliTest, ConvertModelsRoundTripsThroughBinary) {
  const std::string pcap = *dir_ + "/convert.pcap";
  const std::string binary = *dir_ + "/convert_models.bbm";
  const std::string resaved = *dir_ + "/convert_resaved.bbm";
  const std::string dump = *dir_ + "/convert_dump.txt";
  const std::string dumped = *dir_ + "/train_dump.txt";
  ASSERT_EQ(run("simulate --dataset idle --days 0.1 --seed 5 --out " + pcap)
                .exit_code,
            0);
  ASSERT_EQ(run("train --idle " + pcap + " --window-days 0.1 --out " + binary)
                .exit_code,
            0);
  // Binary magic at offset 0.
  EXPECT_EQ(read_file(binary).substr(0, 4), "BBM1");

  // .bbm -> .bbm re-saves byte-identically: nothing lost, no FP drift.
  auto result = run("convert-models --in " + binary + " --out " + resaved);
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("converted"), std::string::npos);
  EXPECT_EQ(read_file(resaved), read_file(binary));

  // .bbm -> text renders the same dump `train` writes for a text --out.
  result = run("convert-models --in " + binary + " --out " + dump);
  ASSERT_EQ(result.exit_code, 0) << result.output;
  ASSERT_EQ(run("train --idle " + pcap + " --window-days 0.1 --out " + dumped)
                .exit_code,
            0);
  EXPECT_EQ(read_file(dump).substr(0, 15), "behaviot-models");
  EXPECT_EQ(read_file(dump), read_file(dumped));

  result = run("score --models " + binary + " --capture " + pcap);
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("deviation alerts"), std::string::npos);

  // Corrupt binary models: a strict load rejects the file and reports the
  // damaged byte (the default lenient load instead drops/tolerates what the
  // flip damaged — that path is covered in test_serialize_binary).
  std::string corrupt = read_file(binary);
  corrupt[corrupt.size() / 2] ^= 1;
  const std::string bad = *dir_ + "/corrupt.bbm";
  {
    std::FILE* f = std::fopen(bad.c_str(), "wb");
    std::fwrite(corrupt.data(), 1, corrupt.size(), f);
    std::fclose(f);
  }
  result = run("score --models " + bad + " --capture " + pcap +
               " --parse strict");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("at byte"), std::string::npos)
      << result.output;
}

TEST_F(CliTest, ScoreRejectsCorruptModels) {
  const std::string bad = *dir_ + "/bad_models.bbm";
  {
    std::FILE* f = std::fopen(bad.c_str(), "w");
    std::fputs("not a model file\n", f);
    std::fclose(f);
  }
  const auto result = run("score --models " + bad + " --capture /dev/null");
  EXPECT_NE(result.exit_code, 0);
}

TEST_F(CliTest, ScoreRejectsATextDumpNamingItsPath) {
  // `train --out X.txt` writes the text dump, which no command loads: the
  // model read fails with one line that names the file, before the capture
  // is touched.
  const std::string pcap = *dir_ + "/dump.pcap";
  const std::string dump = *dir_ + "/dump_models.txt";
  ASSERT_EQ(run("simulate --dataset idle --days 0.05 --seed 6 --out " + pcap)
                .exit_code,
            0);
  ASSERT_EQ(run("train --idle " + pcap + " --window-days 0.05 --out " + dump)
                .exit_code,
            0);
  const auto result = run("score --models " + dump + " --capture " + pcap);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_EQ(std::count(result.output.begin(), result.output.end(), '\n'), 1)
      << result.output;
  EXPECT_EQ(result.output.rfind("error: " + dump + ": ", 0), 0u)
      << result.output;
}

// ---- Live telemetry: rotation, crash-safety, HTTP endpoint ----

/// Forks and execs the CLI with stdout+stderr redirected to `out_path`.
pid_t spawn_cli(std::vector<std::string> args, const std::string& out_path) {
  const std::string cli = cli_path();
  const pid_t pid = fork();
  if (pid != 0) return pid;
  const int fd = ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    ::dup2(fd, 1);
    ::dup2(fd, 2);
    ::close(fd);
  }
  std::vector<char*> argv;
  std::string argv0 = cli;
  argv.push_back(argv0.data());
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  ::execv(cli.c_str(), argv.data());
  _exit(127);
}

/// Trains models and simulates the deterministic-outage day once for the
/// telemetry tests (uncontrolled-day:30 against idle models raises alerts).
void make_watch_inputs(const std::string& dir, std::string* models,
                       std::string* capture) {
  static std::map<std::string, std::pair<std::string, std::string>> cache;
  if (const auto it = cache.find(dir); it != cache.end()) {
    *models = it->second.first;
    *capture = it->second.second;
    return;
  }
  const std::string idle = dir + "/telemetry_idle.pcap";
  *models = dir + "/telemetry_models.bbm";
  *capture = dir + "/telemetry_day30.pcap";
  ASSERT_EQ(run("simulate --dataset idle --days 0.1 --seed 5 --out " + idle)
                .exit_code,
            0);
  ASSERT_EQ(
      run("train --idle " + idle + " --window-days 0.1 --out " + *models)
          .exit_code,
      0);
  ASSERT_EQ(run("simulate --dataset uncontrolled-day:30 --seed 5 --out " +
                *capture)
                .exit_code,
            0);
  cache[dir] = {*models, *capture};
}

TEST_F(CliTest, WatchRotatesAlertSnapshotsWithoutLosingAlerts) {
  std::string models, capture;
  make_watch_inputs(*dir_, &models, &capture);

  // Reference: one unrotated report over the whole run.
  const std::string ref = *dir_ + "/rotate_ref.json";
  ASSERT_EQ(run("watch --models " + models + " --capture " + capture +
                " --window-s 600 --alerts " + ref)
                .exit_code,
            0);
  const auto ref_alerts =
      behaviot::obs::json::parse(read_file(ref)).at("alerts").as_array();
  ASSERT_FALSE(ref_alerts.empty());

  // Rotated run: a tight byte cap forces archives; keep is high enough that
  // nothing is pruned, so no alert may be lost.
  const std::string rot = *dir_ + "/rotate_live.json";
  const auto result =
      run("watch --models " + models + " --capture " + capture +
          " --window-s 600 --alerts " + rot +
          " --rotate-max-bytes 600 --rotate-keep 50");
  ASSERT_EQ(result.exit_code, 0) << result.output;

  // Every generation on disk — archives (<path>.<window>) plus the live
  // file — is a complete document, and together they carry exactly the
  // reference alerts in order.
  std::vector<std::pair<unsigned long, std::string>> generations;
  const std::string base = std::filesystem::path(rot).filename().string();
  for (const auto& entry : std::filesystem::directory_iterator(*dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(base + ".", 0) == 0) {
      generations.emplace_back(std::stoul(name.substr(base.size() + 1)),
                               entry.path().string());
    }
  }
  ASSERT_FALSE(generations.empty()) << "the byte cap never triggered";
  std::sort(generations.begin(), generations.end());
  if (std::filesystem::exists(rot)) {
    generations.emplace_back(~0ul, rot);  // live file holds the newest tail
  }
  std::size_t i = 0;
  for (const auto& [index, path] : generations) {
    const auto doc = behaviot::obs::json::parse(read_file(path));
    for (const auto& alert : doc.at("alerts").as_array()) {
      ASSERT_LT(i, ref_alerts.size()) << "more alerts than the unrotated run";
      EXPECT_EQ(alert.at("when_us").as_number(),
                ref_alerts[i].at("when_us").as_number())
          << path << " alert " << i;
      EXPECT_EQ(alert.at("score").as_number(),
                ref_alerts[i].at("score").as_number())
          << path << " alert " << i;
      ++i;
    }
  }
  EXPECT_EQ(i, ref_alerts.size());
}

TEST_F(CliTest, KillMidRunNeverLeavesTornTelemetryFiles) {
  std::string models, capture;
  make_watch_inputs(*dir_, &models, &capture);
  const std::string alerts = *dir_ + "/kill_alerts.json";
  const std::string metrics = *dir_ + "/kill_metrics.json";

  // Kill the daemon at several points mid-run; whatever the moment, every
  // telemetry file on disk must parse as a complete document (the atomic
  // temp-then-rename write means a reader sees the previous generation or
  // the new one, never a prefix).
  for (const unsigned delay_us : {5000u, 20000u, 60000u, 150000u}) {
    for (const auto& entry : std::filesystem::directory_iterator(*dir_)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("kill_", 0) == 0) std::filesystem::remove(entry.path());
    }
    const pid_t pid = spawn_cli(
        {"watch", "--models", models, "--capture", capture, "--window-s",
         "300", "--alerts", alerts, "--metrics", metrics,
         "--rotate-max-bytes", "2048", "--rotate-keep", "4"},
        "/dev/null");
    ASSERT_GT(pid, 0);
    ::usleep(delay_us);
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);

    for (const auto& entry : std::filesystem::directory_iterator(*dir_)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("kill_", 0) != 0) continue;
      if (name.find(".tmp.") != std::string::npos) continue;  // orphan temp
      const std::string text = read_file(entry.path().string());
      ASSERT_FALSE(text.empty()) << name;
      EXPECT_NO_THROW((void)behaviot::obs::json::parse(text))
          << name << " torn at delay " << delay_us;
    }
  }
}

/// Minimal HTTP GET against the CLI's telemetry endpoint.
std::pair<int, std::string> http_get(unsigned port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {-1, ""};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return {-1, ""};
  }
  const std::string req =
      "GET " + target + " HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
  (void)::send(fd, req.data(), req.size(), 0);
  std::string raw;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const auto split = raw.find("\r\n\r\n");
  if (split == std::string::npos) return {-1, ""};
  return {std::atoi(raw.c_str() + 9), raw.substr(split + 4)};
}

TEST_F(CliTest, WatchServesHttpTelemetryWhileFollowing) {
  std::string models, capture;
  make_watch_inputs(*dir_, &models, &capture);
  const std::string log = *dir_ + "/http_watch.log";

  // --follow keeps the daemon alive at EOF, holding the endpoints up while
  // we probe them; --http 0 binds an ephemeral port printed to stderr.
  const pid_t pid = spawn_cli(
      {"watch", "--models", models, "--capture", capture, "--window-s",
       "600", "--follow", "1", "--http", "0"},
      log);
  ASSERT_GT(pid, 0);

  unsigned port = 0;
  for (int tries = 0; tries < 100 && port == 0; ++tries) {
    ::usleep(50000);
    const std::string text = read_file(log);
    const auto at = text.find("listening on http://127.0.0.1:");
    if (at != std::string::npos) {
      port = static_cast<unsigned>(
          std::atoi(text.c_str() + at + std::strlen("listening on http://127.0.0.1:")));
    }
  }
  ASSERT_NE(port, 0u) << read_file(log);

  const auto healthz = http_get(port, "/healthz");
  EXPECT_EQ(healthz.first, 200) << healthz.second;
  const auto metrics = http_get(port, "/metrics");
  EXPECT_EQ(metrics.first, 200);
  EXPECT_NE(metrics.second.find("behaviot_process_rss_bytes"),
            std::string::npos);
  const auto statusz = http_get(port, "/statusz");
  EXPECT_EQ(statusz.first, 200);
  EXPECT_NO_THROW((void)behaviot::obs::json::parse(statusz.second));

  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
}

// ---- Crash safety: checkpoint/resume, graceful shutdown, self-healing ----

/// Polls `log` until `needle` appears (or ~10 s pass); returns success.
bool wait_for_log(const std::string& log, const std::string& needle) {
  for (int tries = 0; tries < 200; ++tries) {
    if (read_file(log).find(needle) != std::string::npos) return true;
    ::usleep(50000);
  }
  return false;
}

TEST_F(CliTest, SigtermEndsAtTheLastClosedWindowAndFlushesEverything) {
  std::string models, capture;
  make_watch_inputs(*dir_, &models, &capture);
  const std::string log = *dir_ + "/term_watch.log";
  const std::string alerts = *dir_ + "/term_alerts.json";
  const std::string ckpt = *dir_ + "/term_state.bbc";

  // --follow parks the daemon at EOF after streaming the capture, so the
  // SIGTERM arrives while it idles — the shutdown path must still flush the
  // alerts snapshot, leave the newest per-window checkpoint behind as the
  // resume point, and exit 0.
  const pid_t pid = spawn_cli(
      {"watch", "--models", models, "--capture", capture, "--window-s", "600",
       "--follow", "1", "--alerts", alerts, "--checkpoint", ckpt},
      log);
  ASSERT_GT(pid, 0);
  // Hold fire until the live snapshot already carries alerts, so the flush
  // path has real content to preserve.
  bool has_alerts = false;
  for (int tries = 0; tries < 400 && !has_alerts; ++tries) {
    const std::string text = read_file(alerts);
    has_alerts = text.find("\"when_us\"") != std::string::npos;
    if (!has_alerts) ::usleep(50000);
  }
  ASSERT_TRUE(has_alerts) << read_file(log);
  ::kill(pid, SIGTERM);
  int status = 0;
  ::waitpid(pid, &status, 0);
  ASSERT_TRUE(WIFEXITED(status)) << "daemon did not exit cleanly";
  EXPECT_EQ(WEXITSTATUS(status), 0) << read_file(log);

  const std::string text = read_file(log);
  EXPECT_NE(text.find("shutdown signal received"), std::string::npos) << text;
  EXPECT_NE(text.find("watched"), std::string::npos) << text;

  // The flushed snapshots are complete documents, not prefixes.
  const auto doc = behaviot::obs::json::parse(read_file(alerts));
  EXPECT_FALSE(doc.at("alerts").as_array().empty());
  const std::string bbc = read_file(ckpt);
  ASSERT_FALSE(bbc.empty());
  const behaviot::WatchCheckpoint cp =
      behaviot::load_checkpoint(behaviot::binio::as_bytes(bbc));
  EXPECT_GT(cp.engine.windows, 0u);
  EXPECT_GT(cp.input_offset, 0u);
}

TEST_F(CliTest, FollowModeReopensARotatedInputAndKeepsRunning) {
  std::string models, capture;
  make_watch_inputs(*dir_, &models, &capture);
  const std::string followed = *dir_ + "/rotating_input.pcap";
  const std::string log = *dir_ + "/reopen_watch.log";
  const std::string metrics = *dir_ + "/reopen_metrics.json";
  std::filesystem::copy_file(capture, followed,
                             std::filesystem::copy_options::overwrite_existing);

  const pid_t pid = spawn_cli(
      {"watch", "--models", models, "--capture", followed, "--window-s",
       "600", "--follow", "1", "--metrics", metrics},
      log);
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(wait_for_log(log, "window ")) << read_file(log);

  // Rotate the input under the daemon: a fresh copy moved over the followed
  // path changes the inode, which the poll loop must detect and reopen —
  // logrotate semantics, no signal, no restart.
  const std::string staged = *dir_ + "/rotating_input.staged";
  std::filesystem::copy_file(capture, staged,
                             std::filesystem::copy_options::overwrite_existing);
  std::filesystem::rename(staged, followed);
  ASSERT_TRUE(wait_for_log(log, "reopening from the start"))
      << read_file(log);

  ::kill(pid, SIGTERM);
  int status = 0;
  ::waitpid(pid, &status, 0);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << read_file(log);

  // The healing is observable: a reopen counter and a degradation record,
  // not just a log line.
  const auto doc = behaviot::obs::json::parse(read_file(metrics));
  const auto* reopens = doc.at("counters").find("watch.input_reopens");
  ASSERT_NE(reopens, nullptr) << read_file(metrics);
  EXPECT_GE(reopens->as_number(), 1.0);
}

TEST_F(CliTest, SigkillAtACheckpointPlusResumeYieldsByteIdenticalAlerts) {
  std::string models, capture;
  make_watch_inputs(*dir_, &models, &capture);
  const std::string base_alerts = *dir_ + "/crash_base_alerts.json";
  const std::string crash_alerts = *dir_ + "/crash_live_alerts.json";
  const std::string ckpt = *dir_ + "/crash_state.bbc";

  // Uninterrupted baseline (checkpointing on, so the only difference in the
  // crashed run is the kill itself).
  auto result = run("watch --models " + models + " --capture " + capture +
                    " --window-s 600 --retrain-every 8 --alerts " +
                    base_alerts + " --checkpoint " + ckpt + ".base");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  const std::string expected = read_file(base_alerts);
  ASSERT_FALSE(expected.empty());

  // Same run, but chaos SIGKILLs the process the moment the 20th checkpoint
  // hits the disk — a power cut with maximally fresh durable state. The
  // shell reports 128+SIGKILL.
  result = run("watch --models " + models + " --capture " + capture +
               " --window-s 600 --retrain-every 8 --alerts " + crash_alerts +
               " --checkpoint " + ckpt +
               " --chaos crash=checkpoint.after_write,crashn=20");
  EXPECT_EQ(result.exit_code, 137) << result.output;
  ASSERT_TRUE(std::filesystem::exists(ckpt));

  // A fresh process resumes from the wreckage and must converge on the
  // exact baseline alert stream — same bytes, not just same counts.
  result = run("watch --resume " + ckpt + " --capture " + capture +
               " --alerts " + crash_alerts);
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("resume: restored"), std::string::npos)
      << result.output;
  EXPECT_EQ(read_file(crash_alerts), expected);
}

TEST_F(CliTest, RetrainTimeoutKeepsThePriorGenerationScoring) {
  std::string models, capture;
  make_watch_inputs(*dir_, &models, &capture);
  const std::string ref_alerts = *dir_ + "/watchdog_ref_alerts.json";
  const std::string wd_alerts = *dir_ + "/watchdog_alerts.json";
  const std::string wd_metrics = *dir_ + "/watchdog_metrics.json";

  // Reference: no retraining at all.
  auto result = run("watch --models " + models + " --capture " + capture +
                    " --window-s 600 --alerts " + ref_alerts);
  ASSERT_EQ(result.exit_code, 0) << result.output;

  // A watchdog timeout no retrain can reliably meet: attempts still running
  // at the join point are abandoned (one that happened to finish in time may
  // still swap — the watchdog bounds waiting, it does not reject completed
  // work), the prior generation keeps scoring, and the daemon neither
  // crashes nor hangs.
  result = run("watch --models " + models + " --capture " + capture +
               " --window-s 600 --retrain-every 4 --retrain-timeout-s 1e-6" +
               " --alerts " + wd_alerts + " --metrics " + wd_metrics);
  ASSERT_EQ(result.exit_code, 0) << result.output;

  const auto doc = behaviot::obs::json::parse(read_file(wd_metrics));
  const auto* failures = doc.at("counters").find("watch.retrain_failures_total");
  ASSERT_NE(failures, nullptr) << read_file(wd_metrics);
  EXPECT_GE(failures->as_number(), 1.0);
  // The degradation carries a stable reason code, not just a count.
  EXPECT_NE(read_file(wd_metrics).find("retrain-timeout"), std::string::npos);

  if (result.output.find("0 model swap(s)") != std::string::npos) {
    // Every retrain was abandoned: the alert stream must be byte-for-byte
    // the no-retrain stream. (The health header differs by design — the
    // watchdog run reports its degradation — so compare from the alerts
    // array on.)
    const std::string wd_text = read_file(wd_alerts);
    const std::string ref_text = read_file(ref_alerts);
    const auto wd_at = wd_text.find("\"alerts\"");
    const auto ref_at = ref_text.find("\"alerts\"");
    ASSERT_NE(wd_at, std::string::npos);
    ASSERT_NE(ref_at, std::string::npos);
    EXPECT_EQ(wd_text.substr(wd_at), ref_text.substr(ref_at));
  } else {
    // A retrain beat the clock; the stream is still a complete report.
    EXPECT_FALSE(behaviot::obs::json::parse(read_file(wd_alerts))
                     .at("alerts")
                     .as_array()
                     .empty());
  }
}

}  // namespace
