//===- CliObsSmokeTest.cpp - End-to-end CLI observability smoke -----------===//
//
// Drives the real `dfence` binary (path injected as DFENCE_BIN by CMake)
// on a Table 2 benchmark with --trace-out / --metrics-out and validates
// the artifacts: both files parse as JSON, the trace contains the
// round / slot / sat_solve span hierarchy, and the metrics counters are
// populated. Also pins down the CLI hardening contract: unknown flags
// exit 2 with a pointed message, and --help lists every observability
// flag. Finally checks the CLI-serve contract end to end: `dfence synth`
// and `dfence bench` print the fences and rounds that the daemon's
// resolver (serve::prepareJob) and synthesize() compute for the same
// knobs, and config errors print prepareJob's reason with exit 1. Runs
// as part of tier 1 so the end-to-end path cannot rot.
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "synth/Synthesizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <vector>

using namespace dfence;

#ifndef DFENCE_BIN
#error "DFENCE_BIN must be defined to the dfence executable path"
#endif

namespace {

/// Runs \p Cmd through the shell; returns the exit status (-1 on spawn
/// failure) and leaves combined stdout+stderr in \p Output.
int runCommand(const std::string &Cmd, std::string &Output) {
  Output.clear();
  FILE *P = popen((Cmd + " 2>&1").c_str(), "r");
  if (!P)
    return -1;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), P)) > 0)
    Output.append(Buf, N);
  int Status = pclose(P);
  if (Status == -1)
    return -1;
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

Json parseOrFail(const std::string &Text, const std::string &What) {
  std::string Error;
  std::optional<Json> J = Json::parse(Text, Error);
  EXPECT_TRUE(J.has_value()) << What << ": " << Error;
  return J ? *J : Json();
}

} // namespace

TEST(CliObsSmokeTest, TraceAndMetricsArtifactsAreValid) {
  const std::string MetricsPath = "cli_obs_metrics.json";
  const std::string TracePath = "cli_obs_trace.json";
  std::string Out;
  int Exit = runCommand(std::string(DFENCE_BIN) +
                            " bench \"Chase-Lev WSQ\" --model pso"
                            " --spec sc --k 100 --rounds 4 --jobs 2"
                            " --metrics-out " + MetricsPath +
                            " --trace-out " + TracePath,
                        Out);
  ASSERT_EQ(Exit, 0) << Out;
  EXPECT_NE(Out.find("metrics: " + MetricsPath), std::string::npos) << Out;
  EXPECT_NE(Out.find("trace: " + TracePath), std::string::npos) << Out;

  // The metrics artifact: schema + populated counters that add up.
  Json Metrics = parseOrFail(readFile(MetricsPath), MetricsPath);
  ASSERT_NE(Metrics.find("schema"), nullptr);
  EXPECT_EQ(Metrics.find("schema")->asString(), "dfence-metrics-v1");
  const Json *Counters = Metrics.find("counters");
  ASSERT_NE(Counters, nullptr);
  ASSERT_NE(Counters->find("synth_executions_total"), nullptr);
  EXPECT_GT(Counters->find("synth_executions_total")->asU64(), 0u);
  ASSERT_NE(Counters->find("synth_rounds_total"), nullptr);
  EXPECT_GT(Counters->find("synth_rounds_total")->asU64(), 0u);
  ASSERT_NE(Counters->find("vm_steps_total"), nullptr);
  EXPECT_GT(Counters->find("vm_steps_total")->asU64(), 0u);
  EXPECT_NE(Metrics.find("gauges"), nullptr);
  EXPECT_NE(Metrics.find("histograms"), nullptr);

  // The trace artifact: Chrome trace-event JSON with the span hierarchy.
  Json Trace = parseOrFail(readFile(TracePath), TracePath);
  const Json *Events = Trace.find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  std::set<std::string> Names;
  for (const Json &E : Events->items())
    Names.insert(E.find("name")->asString());
  EXPECT_TRUE(Names.count("synthesize")) << "missing synthesize span";
  EXPECT_TRUE(Names.count("round")) << "missing round spans";
  EXPECT_TRUE(Names.count("slot")) << "missing per-execution spans";
  // Chase-Lev under PSO/SC violates, so a repair (SAT solve + fence
  // enforcement) must appear in the trace.
  EXPECT_TRUE(Names.count("sat_solve")) << "missing sat_solve span";
  EXPECT_TRUE(Names.count("enforce")) << "missing enforce span";
  EXPECT_TRUE(Names.count("thread_name")) << "missing thread metadata";

  std::remove(MetricsPath.c_str());
  std::remove(TracePath.c_str());
}

TEST(CliObsSmokeTest, PrometheusExtensionSelectsTextFormat) {
  const std::string Path = "cli_obs_metrics.prom";
  std::string Out;
  int Exit = runCommand(std::string(DFENCE_BIN) +
                            " bench \"MSN Queue\" --model pso --spec sc"
                            " --k 50 --rounds 1 --metrics-out " + Path,
                        Out);
  ASSERT_EQ(Exit, 0) << Out;
  std::string Text = readFile(Path);
  EXPECT_NE(Text.find("# TYPE dfence_synth_executions_total counter"),
            std::string::npos)
      << Text.substr(0, 400);
  EXPECT_NE(Text.find("dfence_synth_executions_total 50"),
            std::string::npos);
  std::remove(Path.c_str());
}

TEST(CliObsSmokeTest, UnknownFlagExitsTwoWithPointedError) {
  const char *Commands[] = {" bench \"MSN Queue\"",
                            " synth missing.mc --client \"f()\"",
                            " serve", " fuzz"};
  const char *Flags[] = {
      "--bogus-flag",
      // The retired interpreter-dispatch knob: one interpreter remains.
      "--dispatch",
  };
  for (const char *Cmd : Commands)
    for (const char *Flag : Flags) {
      std::string Out;
      int Exit = runCommand(std::string(DFENCE_BIN) + Cmd + " " + Flag +
                                " specialized",
                            Out);
      EXPECT_EQ(Exit, 2) << Cmd << " " << Flag << ": " << Out;
      EXPECT_NE(Out.find("unknown flag '" + std::string(Flag) + "'"),
                std::string::npos)
          << Cmd << " " << Flag << ": " << Out;
      EXPECT_NE(Out.find("--help"), std::string::npos) << Out;
    }
}

TEST(CliObsSmokeTest, MissingFlagValueExitsTwo) {
  std::string Out;
  int Exit = runCommand(std::string(DFENCE_BIN) +
                            " bench \"MSN Queue\" --metrics-out",
                        Out);
  EXPECT_EQ(Exit, 2);
  EXPECT_NE(Out.find("requires a value"), std::string::npos) << Out;
}

TEST(CliObsSmokeTest, HelpListsEveryObservabilityFlag) {
  std::string Out;
  int Exit = runCommand(std::string(DFENCE_BIN) + " --help", Out);
  EXPECT_EQ(Exit, 0);
  for (const char *Flag :
       {"--metrics-out", "--trace-out", "--log-level", "--log-json",
        "--jobs", "--repro", "--replay", "--k", "--rounds"})
    EXPECT_NE(Out.find(Flag), std::string::npos)
        << "help is missing " << Flag << "\n" << Out;
}

TEST(CliObsSmokeTest, InvalidLogLevelExitsTwo) {
  std::string Out;
  int Exit = runCommand(std::string(DFENCE_BIN) +
                            " bench \"MSN Queue\" --k 50 --rounds 1"
                            " --log-level loud",
                        Out);
  EXPECT_EQ(Exit, 2);
  EXPECT_NE(Out.find("log-level"), std::string::npos) << Out;
}

//===--- Flag-spelling contract: --key value and --key=value are -----------
//===--- interchangeable for every value flag, and boolean flags ----------
//===--- strictly reject an inline value with exit 2. ---------------------===//

TEST(CliObsSmokeTest, EqualsAndSpaceFlagSpellingsAgree) {
  // The same run spelled both ways must print identical results (the
  // parser normalizes the spelling before anything else sees it).
  std::string SpaceOut, EqOut;
  int SpaceExit = runCommand(std::string(DFENCE_BIN) +
                                 " bench \"MSN Queue\" --k 50"
                                 " --rounds 1 --jobs 2 --cache on",
                             SpaceOut);
  int EqExit = runCommand(std::string(DFENCE_BIN) +
                              " bench \"MSN Queue\" --k=50"
                              " --rounds=1 --jobs=2 --cache=on",
                          EqOut);
  EXPECT_EQ(SpaceExit, EqExit);
  EXPECT_EQ(SpaceOut, EqOut);
  EXPECT_NE(EqOut.find("result:"), std::string::npos) << EqOut;
}

TEST(CliObsSmokeTest, BooleanFlagRejectsInlineValue) {
  std::string Out;
  int Exit = runCommand(std::string(DFENCE_BIN) +
                            " bench \"MSN Queue\" --k 50 --rounds 1"
                            " --no-merge=1",
                        Out);
  EXPECT_EQ(Exit, 2);
  EXPECT_NE(Out.find("takes no value"), std::string::npos) << Out;
}

TEST(CliObsSmokeTest, ServeFlagsGoThroughTheSameParser) {
  // The serve command rides the same flag machinery: unknown flags and
  // missing values exit 2 before any daemon state is created.
  std::string Out;
  int Exit = runCommand(std::string(DFENCE_BIN) + " serve --bogus 1",
                        Out);
  EXPECT_EQ(Exit, 2);
  EXPECT_NE(Out.find("unknown flag '--bogus'"), std::string::npos)
      << Out;
  Exit = runCommand(std::string(DFENCE_BIN) + " serve --queue", Out);
  EXPECT_EQ(Exit, 2);
  EXPECT_NE(Out.find("requires a value"), std::string::npos) << Out;
  Exit =
      runCommand(std::string(DFENCE_BIN) + " serve --no-stdio=yes", Out);
  EXPECT_EQ(Exit, 2);
  EXPECT_NE(Out.find("takes no value"), std::string::npos) << Out;
  // Bad serve option values are caught before the server spins up.
  struct {
    const char *Flags;
    const char *Needle;
  } Cases[] = {
      {"--cache=maybe", "--cache"},
      {"--cache-capacity -1", "--cache-capacity"},
  };
  for (const auto &Case : Cases) {
    Exit = runCommand(std::string(DFENCE_BIN) + " serve " + Case.Flags,
                      Out);
    EXPECT_EQ(Exit, 2) << Case.Flags << ": " << Out;
    EXPECT_NE(Out.find(Case.Needle), std::string::npos)
        << Case.Flags << ": " << Out;
  }
}

TEST(CliObsSmokeTest, ContradictorySlotFlagsExitTwo) {
  // slots x jobs-per-slot must fit an explicit --jobs budget; a
  // contradiction is a hard error, not a silent re-partition.
  std::string Out;
  int Exit = runCommand(std::string(DFENCE_BIN) +
                            " serve --jobs 2 --slots 2 --jobs-per-slot 2",
                        Out);
  EXPECT_EQ(Exit, 2);
  EXPECT_NE(Out.find("exceeds"), std::string::npos) << Out;
  // Even without an explicit per-slot width: each slot needs at least
  // one worker from the budget.
  Exit = runCommand(std::string(DFENCE_BIN) + " serve --jobs 2 --slots 4",
                    Out);
  EXPECT_EQ(Exit, 2);
  EXPECT_NE(Out.find("exceeds"), std::string::npos) << Out;
  // Zero-width requests are nonsense.
  Exit = runCommand(std::string(DFENCE_BIN) + " serve --slots 0", Out);
  EXPECT_EQ(Exit, 2);
  EXPECT_NE(Out.find("--slots"), std::string::npos) << Out;
  Exit = runCommand(std::string(DFENCE_BIN) + " serve --jobs-per-slot 0",
                    Out);
  EXPECT_EQ(Exit, 2);
  EXPECT_NE(Out.find("--jobs-per-slot"), std::string::npos) << Out;
  // --slots belongs to serve alone; the strict per-command flag table
  // rejects it anywhere else.
  Exit = runCommand(std::string(DFENCE_BIN) +
                        " bench \"MSN Queue\" --k 50 --rounds 1 --slots 2",
                    Out);
  EXPECT_EQ(Exit, 2);
  EXPECT_NE(Out.find("unknown flag '--slots'"), std::string::npos) << Out;
}

//===--- Fuzz command: the strict parser covers its flags, bad values ------
//===--- exit 2 before any campaign state is created, and same-seed -------
//===--- runs are byte-identical at the CLI level. ------------------------===//

TEST(CliObsSmokeTest, FuzzFlagSpellingsAgreeAndRunsAreByteIdentical) {
  // Same campaign spelled --key value vs --key=value, run twice: all
  // four outputs must be identical bytes — the fuzz path prints no
  // wall-clock text, so same-seed determinism is visible at the shell.
  const std::string SpaceCmd = std::string(DFENCE_BIN) +
                               " fuzz --fuzz-seed 11 --count 6 --k 40"
                               " --rounds 3 --threads 2-3";
  const std::string EqCmd = std::string(DFENCE_BIN) +
                            " fuzz --fuzz-seed=11 --count=6 --k=40"
                            " --rounds=3 --threads=2-3";
  std::string A, B, C;
  ASSERT_EQ(runCommand(SpaceCmd, A), 0) << A;
  ASSERT_EQ(runCommand(SpaceCmd, B), 0) << B;
  ASSERT_EQ(runCommand(EqCmd, C), 0) << C;
  EXPECT_EQ(A, B) << "same-seed fuzz reruns must be byte-identical";
  EXPECT_EQ(A, C) << "flag spellings must not change the campaign";
  EXPECT_NE(A.find("distinct fingerprint"), std::string::npos) << A;
}

TEST(CliObsSmokeTest, FuzzBadValuesExitTwo) {
  struct {
    const char *Flags;
    const char *Needle;
  } Cases[] = {
      {"--count 0", "--count"},
      {"--threads 0", "--threads"},
      {"--ops 9-2", "--ops"},
      {"--via-serve 0", "--via-serve"},
      {"--model sc", "--model"},
      {"--cache maybe", "--cache"},
      {"--families wsq,frobnicator", "frobnicator"},
      {"--no-litmus=1", "takes no value"},
  };
  for (const auto &Case : Cases) {
    std::string Out;
    int Exit = runCommand(std::string(DFENCE_BIN) + " fuzz " + Case.Flags,
                          Out);
    EXPECT_EQ(Exit, 2) << Case.Flags << ": " << Out;
    EXPECT_NE(Out.find(Case.Needle), std::string::npos)
        << Case.Flags << ": " << Out;
  }
}

TEST(CliObsSmokeTest, FuzzSeedBelongsToFuzzAlone) {
  // --fuzz-seed is a fuzz flag; the strict per-command tables reject it
  // on every other command instead of silently ignoring it.
  for (const char *Cmd :
       {" bench \"MSN Queue\" --fuzz-seed 3", " serve --fuzz-seed 3"}) {
    std::string Out;
    int Exit = runCommand(std::string(DFENCE_BIN) + Cmd, Out);
    EXPECT_EQ(Exit, 2) << Cmd << ": " << Out;
    EXPECT_NE(Out.find("unknown flag '--fuzz-seed'"), std::string::npos)
        << Cmd << ": " << Out;
  }
}

TEST(CliObsSmokeTest, HelpDocumentsTheFuzzCommand) {
  std::string Out;
  int Exit = runCommand(std::string(DFENCE_BIN) + " --help", Out);
  EXPECT_EQ(Exit, 0);
  for (const char *Needle :
       {"fuzz", "--fuzz-seed", "--count", "--via-serve", "--families",
        "--no-litmus"})
    EXPECT_NE(Out.find(Needle), std::string::npos)
        << "help is missing " << Needle << "\n" << Out;
}

TEST(CliObsSmokeTest, FuzzMetricsArtifactCarriesFuzzCounters) {
  const std::string Path = "cli_fuzz_metrics.json";
  std::string Out;
  int Exit = runCommand(std::string(DFENCE_BIN) +
                            " fuzz --fuzz-seed 11 --count 4 --k 40"
                            " --rounds 3 --metrics-out " + Path,
                        Out);
  ASSERT_EQ(Exit, 0) << Out;
  Json Metrics = parseOrFail(readFile(Path), Path);
  const Json *Counters = Metrics.find("counters");
  ASSERT_NE(Counters, nullptr);
  ASSERT_NE(Counters->find("fuzz_scenarios_total"), nullptr);
  // 4 generated + 7 litmus shapes.
  EXPECT_EQ(Counters->find("fuzz_scenarios_total")->asU64(), 11u);
  ASSERT_NE(Counters->find("fuzz_violations_total"), nullptr);
  EXPECT_GT(Counters->find("fuzz_violations_total")->asU64(), 0u);
  const Json *Gauges = Metrics.find("gauges");
  ASSERT_NE(Gauges, nullptr);
  ASSERT_NE(Gauges->find("fuzz_distinct_fingerprints"), nullptr);
  EXPECT_GT(Gauges->find("fuzz_distinct_fingerprints")->asDouble(), 0.0);
  std::remove(Path.c_str());
}

TEST(CliObsSmokeTest, WallClockFlagReportsTimeoutWithPartialSummary) {
  std::string Out;
  int Exit = runCommand(std::string(DFENCE_BIN) +
                            " bench \"MS2 Queue\" --wall-clock=1"
                            " --k 400",
                        Out);
  // Timeout degrades to the static fallback, which counts as success.
  EXPECT_EQ(Exit, 0);
  EXPECT_NE(Out.find("result: timeout"), std::string::npos) << Out;
  EXPECT_NE(Out.find("wall-clock deadline"), std::string::npos) << Out;
  EXPECT_NE(Out.find("static fallback"), std::string::npos) << Out;

  // The legacy --total-ms spelling keeps its historical wording.
  Exit = runCommand(std::string(DFENCE_BIN) +
                        " bench \"MS2 Queue\" --total-ms=1 --k 400",
                    Out);
  EXPECT_EQ(Exit, 0);
  EXPECT_NE(Out.find("result: degraded"), std::string::npos) << Out;
}

//===--- The CLI-serve contract: synth/bench resolve through -------------
//===--- serve::prepareJob, so their printed report equals the canonical --
//===--- result of the same knobs run in-process. -------------------------===//

namespace {

/// The publication sample (a null dereference through an unflushed
/// pointer publish under PSO).
const char *PubSource =
    "global int FLAG = 0;\n"
    "global int PTR = 0;\n"
    "int writer() { int p = malloc(2); *p = 5; PTR = p; FLAG = 1; "
    "return 0; }\n"
    "int reader() { int f = FLAG; if (f == 1) { int p = PTR; return *p; "
    "} return 0; }\n";
const char *PubClient = "writer()|reader();reader()";

/// The round and fence lines of a synth/bench report.
std::vector<std::string> reportLines(const std::string &Out) {
  std::vector<std::string> Lines;
  std::istringstream In(Out);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("round ", 0) == 0 || Line.rfind("  (", 0) == 0)
      Lines.push_back(Line);
  return Lines;
}

/// The same lines rendered from the canonical result of \p Req, resolved
/// by prepareJob and run in-process at one job.
std::vector<std::string> servedLines(const serve::ServeRequest &Req) {
  std::string Error;
  std::optional<serve::SynthJob> Job = serve::prepareJob(Req, Error);
  EXPECT_TRUE(Job.has_value()) << Error;
  if (!Job)
    return {};
  Job->Cfg.Jobs = 1;
  Json R = serve::resultToJson(
      synth::synthesize(Job->M, Job->Clients, Job->Cfg));
  std::vector<std::string> Lines;
  for (const Json &Round : R.find("roundLog")->items())
    Lines.push_back(strformat(
        "round %llu: %llu violating / %llu executions, %llu "
        "enforcement(s) in program",
        static_cast<unsigned long long>(Round.find("round")->asU64()),
        static_cast<unsigned long long>(Round.find("violations")->asU64()),
        static_cast<unsigned long long>(Round.find("executions")->asU64()),
        static_cast<unsigned long long>(Round.find("fences")->asU64())));
  for (const Json &F : R.find("fences")->items())
    Lines.push_back("  " + F.asString());
  return Lines;
}

/// Runs `dfence <Args>` and expects its report to equal the served
/// result of \p Req, with at least one fence so the comparison is not
/// vacuous.
void expectCliMatchesServed(const std::string &Args,
                            const serve::ServeRequest &Req) {
  std::string Out;
  ASSERT_EQ(runCommand(std::string(DFENCE_BIN) + " " + Args, Out), 0)
      << Out;
  std::vector<std::string> Served = servedLines(Req);
  EXPECT_EQ(reportLines(Out), Served) << Out;
  EXPECT_TRUE(std::any_of(Served.begin(), Served.end(),
                          [](const std::string &L) {
                            return L.rfind("  (", 0) == 0;
                          }))
      << Out;
}

/// Writes the publication sample where the CLI can read it, under a
/// per-test name: ctest runs the tests of this file concurrently in one
/// directory.
std::string writePubSample() {
  const std::string Path =
      std::string("cli_contract_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".mc";
  std::ofstream(Path) << PubSource;
  return Path;
}

/// A synth request on the publication sample, CLI defaults otherwise.
serve::ServeRequest pubRequest() {
  serve::ServeRequest Req;
  Req.Kind = serve::ServeRequest::Op::Synth;
  Req.Source = PubSource;
  Req.ClientDsl = PubClient;
  return Req;
}

} // namespace

TEST(CliServeContractTest, BenchPrintsTheServedCanonicalResult) {
  serve::ServeRequest Req;
  Req.Kind = serve::ServeRequest::Op::Bench;
  Req.BenchName = "Chase-Lev WSQ";
  Req.Model = "pso";
  Req.K = 300;
  Req.Rounds = 8;
  expectCliMatchesServed("bench \"Chase-Lev WSQ\" --model pso --k 300"
                         " --rounds 8 --jobs 1",
                         Req);
}

TEST(CliServeContractTest, SynthPrintsTheServedCanonicalResult) {
  const std::string Path = writePubSample();
  serve::ServeRequest Req = pubRequest();
  Req.Spec = "safety";
  Req.K = 300;
  expectCliMatchesServed("synth " + Path + " --client \"" + PubClient +
                             "\" --model pso --spec safety --k 300"
                             " --jobs 1",
                         Req);
  std::remove(Path.c_str());
}

TEST(CliServeContractTest, ConfigErrorsExitOneWithPrepareJobsReason) {
  const std::string Path = writePubSample();
  struct {
    const char *Flags;
    void (*Knob)(serve::ServeRequest &);
  } Cases[] = {
      {"--model sc", [](serve::ServeRequest &R) { R.Model = "sc"; }},
      {"--enforce bogus",
       [](serve::ServeRequest &R) { R.Enforce = "bogus"; }},
      {"--flush 7", [](serve::ServeRequest &R) { R.Flush = 7; }},
      {"--cache maybe", [](serve::ServeRequest &R) { R.Cache = "maybe"; }},
      {"--spec lin", [](serve::ServeRequest &R) { R.Spec = "lin"; }},
  };
  for (const auto &Case : Cases) {
    serve::ServeRequest Req = pubRequest();
    Case.Knob(Req);
    std::string Reason;
    ASSERT_FALSE(serve::prepareJob(Req, Reason).has_value()) << Case.Flags;
    ASSERT_FALSE(Reason.empty()) << Case.Flags;

    std::string Out;
    int Exit = runCommand(std::string(DFENCE_BIN) + " synth " + Path +
                              " --client \"" + PubClient + "\" " +
                              Case.Flags,
                          Out);
    EXPECT_EQ(Exit, 1) << Case.Flags << ": " << Out;
    EXPECT_NE(Out.find("error: " + Reason), std::string::npos)
        << Case.Flags << ": " << Out;
  }
  std::remove(Path.c_str());
}
