//===- ServeProtocolTest.cpp - serve request/response schema tests --------===//
//
// The wire layer in isolation: request parsing and validation, response
// builders, the canonical-result rule (cache statistics never appear in
// the canonical result object), and prepareJob's CLI-equivalent
// defaulting — including that unknown benchmarks are a structured error,
// never the abort the CLI-side lookup helper would produce.
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include "harness/ReproBundle.h"
#include "support/Json.h"

#include <gtest/gtest.h>

using namespace dfence;
using namespace dfence::serve;

namespace {

const char *PubSource = R"(global int FLAG = 0;
global int PTR = 0;
int writer() {
  int p = malloc(2);
  *p = 5;
  PTR = p;
  FLAG = 1;
  return 0;
}
int reader() {
  int f = FLAG;
  if (f == 1) {
    int p = PTR;
    return *p;
  }
  return 0;
}
)";

Json parseOrDie(const std::string &Text) {
  std::string Error;
  auto J = Json::parse(Text, Error);
  EXPECT_TRUE(J) << Error;
  return *J;
}

TEST(ServeProtocol, RejectsNonObjectAndMissingOp) {
  std::string Error;
  EXPECT_FALSE(parseRequest(parseOrDie("[1,2]"), Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_FALSE(parseRequest(parseOrDie("{\"id\":\"x\"}"), Error));
  EXPECT_NE(Error.find("op"), std::string::npos);
  EXPECT_FALSE(parseRequest(parseOrDie("{\"op\":\"launder\"}"), Error));
  EXPECT_NE(Error.find("unknown op"), std::string::npos);
}

TEST(ServeProtocol, SynthNeedsSourceAndClient) {
  std::string Error;
  EXPECT_FALSE(parseRequest(parseOrDie("{\"op\":\"synth\"}"), Error));
  EXPECT_NE(Error.find("source"), std::string::npos);
  EXPECT_FALSE(parseRequest(
      parseOrDie("{\"op\":\"synth\",\"source\":\"int f() {}\"}"), Error));
  EXPECT_NE(Error.find("client"), std::string::npos);
  EXPECT_FALSE(parseRequest(parseOrDie("{\"op\":\"bench\"}"), Error));
  EXPECT_NE(Error.find("bench"), std::string::npos);
}

TEST(ServeProtocol, DefaultsMatchTheOneShotCli) {
  std::string Error;
  auto R = parseRequest(
      parseOrDie("{\"op\":\"synth\",\"id\":\"r1\",\"source\":\"x\","
                 "\"client\":\"f()\"}"),
      Error);
  ASSERT_TRUE(R) << Error;
  EXPECT_EQ(R->Id, "r1");
  EXPECT_EQ(R->Model, "pso");
  EXPECT_EQ(R->K, 1000u);
  EXPECT_EQ(R->Rounds, 16u);
  EXPECT_LT(R->Flush, 0.0); // Per-model portfolio, like the CLI.
  EXPECT_EQ(R->Enforce, "fence");
  EXPECT_EQ(R->Cache, "on");
  EXPECT_FALSE(R->NoMerge);
  EXPECT_EQ(R->Retries, 2u);
  EXPECT_EQ(R->DeadlineMs, 0u);
  EXPECT_FALSE(R->HasFaults);
}

TEST(ServeProtocol, FaultPlanTravelsInBundleVocabulary) {
  std::string Error;
  auto R = parseRequest(
      parseOrDie("{\"op\":\"synth\",\"source\":\"x\",\"client\":\"f()\","
                 "\"faults\":{\"allocFailProb\":1.0,"
                 "\"bufferCapacity\":2}}"),
      Error);
  ASSERT_TRUE(R) << Error;
  EXPECT_TRUE(R->HasFaults);
  EXPECT_DOUBLE_EQ(R->Faults.AllocFailProb, 1.0);
  EXPECT_EQ(R->Faults.BufferCapacity, 2u);
  // Round-trip through the shared serializer.
  vm::FaultPlan Back =
      harness::faultPlanFromJson(harness::faultPlanToJson(R->Faults));
  EXPECT_DOUBLE_EQ(Back.AllocFailProb, 1.0);
  EXPECT_EQ(Back.BufferCapacity, 2u);
}

TEST(ServeProtocol, ResponseBuilders) {
  Json Rej = makeRejectedResponse("q1", "queue_full");
  EXPECT_EQ(Rej.find("status")->asString(), "rejected");
  EXPECT_EQ(Rej.find("reason")->asString(), "queue_full");
  EXPECT_EQ(Rej.find("id")->asString(), "q1");

  Json Err = makeErrorResponse("e1", "boom");
  EXPECT_EQ(Err.find("status")->asString(), "error");
  EXPECT_EQ(Err.find("reason")->asString(), "boom");

  Json Pong = makePongResponse("p1");
  EXPECT_EQ(Pong.find("status")->asString(), "ok");
  EXPECT_TRUE(Pong.find("pong")->asBool(false));
  EXPECT_EQ(Pong.find("proto")->asString(), ProtoName);

  Json Hello = makeHello();
  EXPECT_EQ(Hello.find("proto")->asString(), ProtoName);
}

TEST(ServeProtocol, CanonicalResultExcludesCacheStatistics) {
  synth::SynthResult R;
  R.Converged = true;
  R.Status = synth::SynthStatus::Converged;
  R.ExecCacheHits = 23;
  R.ExecCacheMisses = 5;
  std::string Canon = resultToJson(R).dump();
  // The canonical result must be warm/cold-invariant: no cache fields.
  EXPECT_EQ(Canon.find("execHits"), std::string::npos);
  EXPECT_EQ(Canon.find("CacheHits"), std::string::npos);
  // The sibling object carries them instead.
  Json CS = cacheStatsToJson(R);
  EXPECT_EQ(CS.members().size(), 2u);
  EXPECT_EQ(CS.find("execHits")->asU64(0), 23u);
  EXPECT_EQ(CS.find("execMisses")->asU64(0), 5u);
}

TEST(ServeProtocol, StatusOfResultMapping) {
  synth::SynthResult R;
  R.Converged = true;
  EXPECT_STREQ(statusOfResult(R), "ok");
  R.Degraded = true;
  EXPECT_STREQ(statusOfResult(R), "degraded");
  R.TimedOut = true; // Timeout wins over plain degradation.
  EXPECT_STREQ(statusOfResult(R), "timeout");
}

TEST(ServeProtocol, PrepareJobResolvesSynthLikeTheCli) {
  std::string Error;
  auto R = parseRequest(
      parseOrDie("{\"op\":\"synth\",\"id\":\"j1\",\"source\":" +
                 Json::string(PubSource).dump() +
                 ",\"client\":\"writer()|reader()\",\"spec\":\"safety\","
                 "\"k\":25,\"rounds\":3}"),
      Error);
  ASSERT_TRUE(R) << Error;
  auto Job = prepareJob(*R, Error);
  ASSERT_TRUE(Job) << Error;
  EXPECT_EQ(Job->Cfg.ExecsPerRound, 25u);
  EXPECT_EQ(Job->Cfg.MaxRounds, 3u);
  EXPECT_EQ(Job->Cfg.Model, vm::MemModel::PSO);
  EXPECT_EQ(Job->Cfg.Spec, synth::SpecKind::MemorySafety);
  EXPECT_EQ(Job->Cfg.RequestTag, "j1");
  EXPECT_EQ(Job->Clients.size(), 1u);
  // PSO with no explicit flush gets the CLI's two-regime portfolio.
  EXPECT_EQ(Job->Cfg.FlushProbs.size(), 2u);
}

TEST(ServeProtocol, PrepareJobErrorsAreStructuredNotFatal) {
  std::string Error;
  // Unknown benchmark: must be an error, not the CLI helper's abort.
  auto R = parseRequest(
      parseOrDie("{\"op\":\"bench\",\"bench\":\"No Such Queue\"}"),
      Error);
  ASSERT_TRUE(R) << Error;
  EXPECT_FALSE(prepareJob(*R, Error));
  EXPECT_NE(Error.find("unknown benchmark"), std::string::npos);

  // Compile errors surface with the compiler's message.
  R = parseRequest(parseOrDie("{\"op\":\"synth\",\"source\":\"int f( {\","
                              "\"client\":\"f()\"}"),
                   Error);
  ASSERT_TRUE(R) << Error;
  EXPECT_FALSE(prepareJob(*R, Error));
  EXPECT_NE(Error.find("compile"), std::string::npos);

  // sc/lin without a sequential spec is a config error.
  R = parseRequest(
      parseOrDie("{\"op\":\"synth\",\"source\":\"int f() { return 0; }\","
                 "\"client\":\"f()\",\"spec\":\"sc\"}"),
      Error);
  ASSERT_TRUE(R) << Error;
  EXPECT_FALSE(prepareJob(*R, Error));
  EXPECT_NE(Error.find("seqSpec"), std::string::npos);

  // SC is not a synthesis model (nothing to reorder).
  R = parseRequest(
      parseOrDie("{\"op\":\"synth\",\"source\":\"int f() { return 0; }\","
                 "\"client\":\"f()\",\"model\":\"sc\"}"),
      Error);
  ASSERT_TRUE(R) << Error;
  EXPECT_FALSE(prepareJob(*R, Error));
}

TEST(ServeProtocol, PrepareJobChecksFlushAndCacheKnobs) {
  auto Prepare = [](const std::string &Knobs, std::string &Error) {
    auto R = parseRequest(
        parseOrDie("{\"op\":\"bench\",\"bench\":\"MS2 Queue\"" + Knobs +
                   "}"),
        Error);
    EXPECT_TRUE(R) << Knobs << ": " << Error;
    return R ? prepareJob(*R, Error) : std::nullopt;
  };
  std::string Error;
  // flush is a probability; negative means the model default.
  for (const char *Bad : {",\"flush\":7", ",\"flush\":1.5"}) {
    EXPECT_FALSE(Prepare(Bad, Error)) << Bad;
    EXPECT_NE(Error.find("not a probability"), std::string::npos)
        << Bad << ": " << Error;
  }
  auto Job = Prepare(",\"flush\":1", Error);
  ASSERT_TRUE(Job) << Error;
  EXPECT_DOUBLE_EQ(Job->Cfg.FlushProb, 1.0);
  EXPECT_TRUE(Job->Cfg.FlushProbs.empty());
  Job = Prepare(",\"flush\":-1", Error);
  ASSERT_TRUE(Job) << Error;
  EXPECT_EQ(Job->Cfg.FlushProbs.size(), 2u); // The PSO portfolio.

  // cache is on|off, nothing else.
  EXPECT_FALSE(Prepare(",\"cache\":\"maybe\"", Error));
  EXPECT_EQ(Error, "unknown cache mode 'maybe' (on|off)");
  Job = Prepare(",\"cache\":\"off\"", Error);
  ASSERT_TRUE(Job) << Error;
  EXPECT_FALSE(Job->Cfg.CacheEnabled);
  Job = Prepare(",\"cache\":\"on\"", Error);
  ASSERT_TRUE(Job) << Error;
  EXPECT_TRUE(Job->Cfg.CacheEnabled);

  // The retired "dispatch" knob is an unknown key now: ignored.
  EXPECT_TRUE(Prepare(",\"dispatch\":\"generic\"", Error)) << Error;
}

TEST(ServeProtocol, BenchJobUsesTheBenchmarksOwnSpec) {
  std::string Error;
  auto R = parseRequest(
      parseOrDie("{\"op\":\"bench\",\"bench\":\"MS2 Queue\",\"k\":10,"
                 "\"rounds\":2}"),
      Error);
  ASSERT_TRUE(R) << Error;
  auto Job = prepareJob(*R, Error);
  ASSERT_TRUE(Job) << Error;
  EXPECT_FALSE(Job->Clients.empty());
  // MS2 Queue defaults to operation-level SC, like `dfence bench`.
  EXPECT_EQ(Job->Cfg.Spec, synth::SpecKind::SequentialConsistency);
}

} // namespace
