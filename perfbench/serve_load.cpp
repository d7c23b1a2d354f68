//===- serve_load.cpp - perfbench serve workload --------------------------===//
//
// Spawns a real `dfence serve --slots 4 --jobs-per-slot 1` daemon on a
// unix socket and drives it from this one process over one connection
// (tools/dfence_client), closed loop: one client with one request in
// flight, so the daemon's own CPU clock, read between a request's send
// and its response, is that request's CPU time.
//
// Traffic: `bench` requests over every (algorithm, model) pair except
// Michael Allocator on PSO, K=50, one seeded stream of EpisodeRequests
// requests. Every third request exactly repeats one of the last eight
// distinct requests. The mix is SAT-free by design (the allocator's PSO
// repair formulas belong to the table3 and fuzz workloads), and the
// stream's working set is far larger than the daemon's 32768-entry
// execution cache on purpose: the cache fills about halfway through, so
// the cache's behaviour when full is part of what is measured.
//
// The run is a series of episodes until --seconds have passed (at least
// MinEpisodes). Each episode spawns a fresh daemon (its set-up is timed
// as the daemon's CPU time until its hello), sends the whole stream, and
// stops the daemon. Every episode does the same work, so the readings
// are medians over episodes, and a request whose canonical result bytes
// differ between episodes fails the run. The daemon's `stats` op is
// scraped every ScrapeEvery requests for the cache fill point; its peak
// memory comes from /proc.
//
// Times are CPU times of the daemon process, not wall times: on a shared
// host the wall time of the same request moves with other tenants' load
// by far more than any change worth measuring. Wall latency is reported
// by the traced run.
//
//===----------------------------------------------------------------------===//

#include "Driver.h"

#include "dfence_client/Client.h"
#include "ir/Reader.h"
#include "programs/Benchmark.h"
#include "serve/Protocol.h"
#include "support/Rng.h"

#include <algorithm>
#include <csignal>
#include <ctime>
#include <fcntl.h>
#include <fstream>
#include <map>
#include <set>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace perfbench;

namespace {

constexpr unsigned Slots = 4;
constexpr unsigned K = 50;
constexpr unsigned EpisodeRequests = 600;
constexpr unsigned MinEpisodes = 3;
constexpr unsigned ReverifyExecs = 200;
/// The daemon's `stats` op is scraped after every this many requests.
constexpr unsigned ScrapeEvery = 20;

struct Req {
  std::string Bench, Model;
  uint64_t Seed = 0;
  std::string key() const {
    return Bench + "|" + Model + "|" + std::to_string(Seed);
  }
  /// A quarter of the distinct requests ask for the fenced program, which
  /// the oracle re-verifies; a repeat asks exactly as its original did.
  bool dump() const { return deriveSeed(Seed, Bench + Model) % 4 == 0; }
};

/// The seeded request stream: the mix's pairs in shuffled rounds, with
/// every third request a repeat of a recent one.
std::vector<Req> requestStream(uint64_t Seed, unsigned N) {
  std::vector<std::pair<std::string, std::string>> Pairs;
  for (const programs::Benchmark &B : programs::allBenchmarks())
    for (const char *M : {"tso", "pso"})
      if (!(B.Name == "Michael Allocator" && std::string(M) == "pso"))
        Pairs.push_back({B.Name, M});
  Rng R(Seed);
  std::vector<Req> Out, Recent;
  std::vector<size_t> Order;
  size_t Pos = 0;
  while (Out.size() != N) {
    if (Out.size() % 3 == 2 && !Recent.empty()) {
      Out.push_back(Recent[R.nextBelow(Recent.size())]);
      continue;
    }
    if (Pos == Order.size()) {
      Order.resize(Pairs.size());
      for (size_t I = 0; I != Order.size(); ++I)
        Order[I] = I;
      for (size_t I = Order.size(); I > 1; --I)
        std::swap(Order[I - 1], Order[R.nextBelow(I)]);
      Pos = 0;
    }
    Req Q{Pairs[Order[Pos]].first, Pairs[Order[Pos]].second, R.next() | 1};
    ++Pos;
    Out.push_back(Q);
    Recent.push_back(Q);
    if (Recent.size() > 8)
      Recent.erase(Recent.begin());
  }
  return Out;
}

Json requestJson(const std::string &Id, const Req &Q) {
  Json J = Json::object();
  J.set("op", Json::string("bench"));
  J.set("id", Json::string(Id));
  J.set("bench", Json::string(Q.Bench));
  J.set("model", Json::string(Q.Model));
  J.set("k", Json::number(static_cast<uint64_t>(K)));
  J.set("seed", Json::number(Q.Seed));
  J.set("dump", Json::boolean(Q.dump()));
  return J;
}

/// One spawned daemon; terminated and reaped on destruction.
class Daemon {
public:
  Daemon(const std::string &Bin, const std::string &Socket,
         const std::string &MetricsOut)
      : Socket(Socket) {
    ::unlink(Socket.c_str());
    std::vector<std::string> Args = {Bin,
                                     "serve",
                                     "--socket",
                                     Socket,
                                     "--no-stdio",
                                     "--slots",
                                     std::to_string(Slots),
                                     "--jobs-per-slot",
                                     "1"};
    if (!MetricsOut.empty()) {
      Args.push_back("--metrics-out");
      Args.push_back(MetricsOut);
    }
    Pid = ::fork();
    if (Pid == 0) {
      // If the driver is killed, the daemon must not outlive it.
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);
      int Null = ::open("/dev/null", O_RDWR);
      ::dup2(Null, 0);
      ::dup2(Null, 1);
      ::dup2(Null, 2);
      std::vector<char *> Argv;
      for (std::string &A : Args)
        Argv.push_back(A.data());
      Argv.push_back(nullptr);
      ::execv(Argv[0], Argv.data());
      _exit(127);
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Connects, retrying until the socket accepts and the hello arrives.
  std::optional<client::ServeClient> connect(std::string &Error) {
    auto Until = Clock::now() + std::chrono::seconds(30);
    while (Pid > 0 && Clock::now() < Until) {
      if (auto C = client::ServeClient::connectUnix(Socket, Error))
        return C;
      int Status = 0;
      if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        Error = "daemon exited during start-up";
        return std::nullopt;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (Error.empty())
      Error = "daemon did not answer";
    return std::nullopt;
  }

  int pid() const { return Pid; }

  /// CPU seconds the daemon process has used so far, all threads.
  double cpuSeconds() const {
    clockid_t Id;
    timespec T;
    if (Pid <= 0 || ::clock_getcpuclockid(Pid, &Id) != 0 ||
        ::clock_gettime(Id, &T) != 0)
      return 0;
    return T.tv_sec + T.tv_nsec * 1e-9;
  }

  /// SIGTERM (the daemon drains, writes --metrics-out, exits) and reap.
  void stop() {
    if (Pid <= 0)
      return;
    ::kill(Pid, SIGTERM);
    int Status = 0;
    ::waitpid(Pid, &Status, 0);
    Pid = -1;
    ::unlink(Socket.c_str());
  }

private:
  std::string Socket;
  pid_t Pid = -1;
};

/// What one episode measured.
struct Episode {
  double SetupCpuS = 0;
  double CpuS = 0;                 ///< Daemon CPU over the whole stream.
  std::vector<double> RequestCpuMs; ///< Per request, in stream order.
  std::vector<double> LatencyMs;    ///< Per request, wall, send to reply.
  uint64_t Failed = 0, Fences = 0, FillAt = 0;
  std::vector<std::string> FailedNames;
  double PeakRssMb = 0;
  Json Stats = Json::object();
};

/// The problem a bench request resolves to, for re-verification.
std::optional<Problem> problemOf(const Req &Q) {
  std::string Error;
  auto R = serve::parseRequest(requestJson("oracle", Q), Error);
  auto Job = R ? serve::prepareJob(*R, Error) : std::nullopt;
  if (!Job)
    return std::nullopt;
  return Problem{Q.Bench + "/" + Q.Model, std::move(Job->M),
                 std::move(Job->Clients), std::move(Job->Cfg)};
}

/// Converged results by request key: canonical bytes and fenced module.
using ResultMap = std::map<std::string, std::pair<std::string, std::string>>;

/// Spawns a daemon, sends \p Stream one request at a time and stops the
/// daemon. Results go to \p Results (a drift from an earlier episode is
/// an error); failures to start or talk to the daemon end the run.
Episode runEpisode(const RunOptions &O, const std::vector<Req> &Stream,
                   const std::string &Socket, const std::string &MetricsOut,
                   ResultMap &Results, std::vector<std::string> &Errors) {
  Episode E;
  Daemon D(O.DfenceBin, Socket, MetricsOut);
  std::string Error;
  auto C = D.connect(Error);
  if (!C) {
    std::fprintf(stderr, "serve: %s\n", Error.c_str());
    D.stop();
    std::exit(1);
  }
  E.SetupCpuS = D.cpuSeconds();
  auto Call = [&](const Json &J) {
    auto R = C->call(J, Error);
    if (!R) {
      std::fprintf(stderr, "serve: %s\n", Error.c_str());
      D.stop();
      std::exit(1);
    }
    return *R;
  };
  Json StatsReq = Json::object();
  StatsReq.set("op", Json::string("stats"));
  StatsReq.set("id", Json::string("stats"));

  double Cpu0 = D.cpuSeconds();
  for (size_t I = 0; I != Stream.size(); ++I) {
    const Req &Q = Stream[I];
    double C0 = D.cpuSeconds();
    auto T0 = Clock::now();
    Json J = Call(requestJson("r" + std::to_string(I), Q));
    E.LatencyMs.push_back(secondsSince(T0) * 1000);
    E.RequestCpuMs.push_back((D.cpuSeconds() - C0) * 1000);

    const Json *St = J.find("status");
    const Json *R = J.find("result");
    const Json *RS = R ? R->find("status") : nullptr;
    std::string Verdict = RS ? RS->asString() : "";
    if (!St || St->asString() != "ok" ||
        (Verdict != "converged" && Verdict != "cannot-fix")) {
      ++E.Failed;
      E.FailedNames.push_back(Q.key() + ": " + (St ? St->asString() : "?") +
                              "/" + Verdict);
    } else {
      if (const Json *F = R->find("fences"))
        E.Fences += F->items().size();
      std::string ModText;
      if (const Json *Mod = R->find("module"); Mod && Verdict == "converged")
        ModText = Mod->asString();
      auto [Prev, New] = Results.emplace(
          Q.key(), std::make_pair(R->dump(), std::move(ModText)));
      if (!New && Prev->second.first != R->dump())
        Errors.push_back("canonical result drifted for " + Q.key());
    }
    if ((I + 1) % ScrapeEvery == 0 && !E.FillAt) {
      Json S = Call(StatsReq);
      const Json *Stats = S.find("stats");
      const Json *Cache = Stats ? Stats->find("cache") : nullptr;
      const Json *Rej = Cache ? Cache->find("rejectedFull") : nullptr;
      if (Rej && Rej->asU64() > 0)
        E.FillAt = I + 1;
    }
  }
  E.CpuS = D.cpuSeconds() - Cpu0;
  Json S = Call(StatsReq);
  if (const Json *Stats = S.find("stats"))
    E.Stats = *Stats;
  E.PeakRssMb = peakRssMb(D.pid());
  D.stop();
  return E;
}

} // namespace

Json perfbench::runServeWorkload(const RunOptions &O) {
  Json Doc = Json::object();
  Doc.set("workload", Json::string("serve"));
  std::vector<std::string> Errors;
  std::string Base = O.RunDir + "/pb" + std::to_string(::getpid());
  std::string Socket = Base + ".sock";
  std::string MetricsOut = O.Trace ? Base + "-metrics.json" : "";

  std::vector<Req> Stream = requestStream(O.Seed, EpisodeRequests);
  ResultMap Results;
  std::vector<Episode> Episodes;
  auto Start = Clock::now();
  // The traced run times one episode; its daemon writes its registry.
  while (Episodes.empty() ||
         (!O.Trace && (Episodes.size() < MinEpisodes ||
                       secondsSince(Start) < O.Seconds)))
    Episodes.push_back(
        runEpisode(O, Stream, Socket, MetricsOut, Results, Errors));

  // Per request: its median over episodes.
  std::vector<double> RequestCpu, Latency, Cpu, Setup, Rss;
  for (size_t I = 0; I != Stream.size(); ++I) {
    std::vector<double> C, L;
    for (const Episode &E : Episodes) {
      C.push_back(E.RequestCpuMs[I]);
      L.push_back(E.LatencyMs[I]);
    }
    RequestCpu.push_back(median(C));
    Latency.push_back(median(L));
  }
  for (const Episode &E : Episodes) {
    Cpu.push_back(E.CpuS);
    Setup.push_back(E.SetupCpuS);
    Rss.push_back(E.PeakRssMb);
  }
  const Episode &First = Episodes.front();

  // Oracle: re-verify each distinct (pair, fenced module) on held-out
  // seeds in-process.
  std::map<std::pair<std::string, std::string>, Req> Distinct;
  for (const Req &Q : Stream) {
    auto It = Results.find(Q.key());
    if (It != Results.end() && !It->second.second.empty())
      Distinct.emplace(std::make_pair(Q.Bench + "|" + Q.Model,
                                      It->second.second),
                       Q);
  }
  std::vector<Problem> Ps;
  std::vector<ir::Module> Mods;
  for (const auto &[PM, Q] : Distinct) {
    auto P = problemOf(Q);
    std::string Error;
    auto M = ir::parseModule(PM.second, Error);
    if (!P || !M) {
      Errors.push_back("oracle cannot rebuild " + Q.key() + ": " + Error);
      continue;
    }
    Ps.push_back(std::move(*P));
    Mods.push_back(std::move(*M));
  }
  std::vector<const Problem *> PP;
  std::vector<const ir::Module *> MP;
  for (size_t I = 0; I != Ps.size(); ++I) {
    PP.push_back(&Ps[I]);
    MP.push_back(&Mods[I]);
  }
  uint64_t OracleFailed = 0;
  for (uint64_t V : reverifyAll(PP, MP, deriveSeed(O.Seed, "held-out"),
                                ReverifyExecs, O.Jobs))
    OracleFailed += V != 0;

  std::set<std::string> Seen;
  uint64_t Repeats = 0;
  for (const Req &Q : Stream)
    Repeats += !Seen.insert(Q.key()).second;

  Doc.set("attempted",
          Json::number(static_cast<uint64_t>(Stream.size() + Ps.size())));
  Doc.set("failed", Json::number(First.Failed + OracleFailed));
  Json FN = Json::array();
  for (const std::string &Name : First.FailedNames)
    FN.push(Json::string(Name));
  Doc.set("failed_names", std::move(FN));
  Doc.set("oracle_checked", Json::number(static_cast<uint64_t>(Ps.size())));
  Doc.set("oracle_failed", Json::number(OracleFailed));
  Doc.set("episodes", Json::number(static_cast<uint64_t>(Episodes.size())));
  Doc.set("setup_s", numbers(Setup));
  Doc.set("cpu_s", numbers(Cpu));
  Doc.set("verdict_ms", numbers(RequestCpu));
  Doc.set("latency_ms", numbers(Latency));
  Doc.set("fences_total", Json::number(First.Fences));
  Doc.set("peak_rss_mb", Json::number(median(Rss)));
  Doc.set("stats", First.Stats);
  Doc.set("repeat_share", Json::number(double(Repeats) / Stream.size()));
  Doc.set("cache_fill_requests", Json::number(First.FillAt));

  if (O.Trace) {
    // The daemon's registry, written when it drained on SIGTERM.
    std::ifstream In(MetricsOut);
    std::string Text((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
    std::string Error;
    auto M = Json::parse(Text, Error);
    if (!M)
      Errors.push_back("daemon metrics unreadable: " + Error);
    Doc.set("daemon_metrics", M ? *M : Json::object());
    ::unlink(MetricsOut.c_str());
    // SAT time never reaches a serve response, so the SAT share and the
    // per-call layer times come from running the mix in-process.
    std::vector<Problem> Mix;
    std::set<std::string> Pairs;
    for (const Req &Q : Stream)
      if (Pairs.insert(Q.Bench + "|" + Q.Model).second)
        if (auto P = problemOf(Q))
          Mix.push_back(std::move(*P));
    Doc.set("layers", traceProblems(Mix, 1, O.Seed));
  }

  Json Errs = Json::array();
  for (const std::string &E : Errors)
    Errs.push(Json::string(E));
  Doc.set("errors", std::move(Errs));
  return Doc;
}
