// The untraced run: every end-to-end metric of one workload.
//
// A run is `rounds` rounds. Each round sets up engines (setup_s), recovers
// the crash image on them (recover_s), runs one closed-loop window on the
// last of them (events_per_s, latency per sub-window), and repeats the
// lint + checker pass (verify_s). Each kind of sample is spread evenly over
// the rounds.
//
// The host this benchmark was written on runs at speeds that differ by up
// to 1.6x in phases lasting seconds, so a run's samples mix a few levels.
// The median of such a mix jumps from one level to another as their shares
// change between runs; a mean moves in proportion. So events_per_s is
// total events over total window time, and latency, verify_s and recover_s
// are means without the lowest and highest tenth of their samples (the cut
// keeps a rare stall out). setup_s stays the median of its samples.

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "analysis/analyzer.h"
#include "analysis/model_checker.h"
#include "bench.h"
#include "common/strings.h"
#include "spec/parser.h"

namespace perfbench {
namespace {

using cdes::StrCat;

/// What `cdes-lint --check` decides for the spec: ParseWorkflow +
/// AnalyzeWorkflow with the reachability checker. Must report exactly the
/// workload's expected findings (none, except fanin_promise's forced
/// chain events).
double TimeVerify(const Workload& w, Report* report) {
  Clock::time_point start = Clock::now();
  cdes::WorkflowContext ctx;
  auto parsed = cdes::ParseWorkflow(&ctx, w.spec_text, w.spec_file);
  std::vector<cdes::analysis::Diagnostic> diagnostics;
  if (parsed.ok()) {
    cdes::analysis::AnalyzeOptions options;
    options.check_reachability = true;
    diagnostics = cdes::analysis::AnalyzeWorkflow(&ctx, parsed.value(),
                                                  options);
  }
  double seconds = SecondsSince(start);
  if (!parsed.ok()) {
    report->Fail(StrCat("spec does not parse: ", parsed.status().ToString()));
  } else {
    CheckFindings(w, diagnostics, report);
  }
  return seconds;
}

/// The checker must finish unbounded; a bounded run proves no absence.
size_t CheckUnbounded(const Workload& w, Report* report) {
  cdes::WorkflowContext ctx;
  auto parsed = cdes::ParseWorkflow(&ctx, w.spec_text, w.spec_file);
  CDES_CHECK(parsed.ok()) << parsed.status();
  cdes::analysis::CheckResult result =
      cdes::analysis::CheckWorkflow(&ctx, parsed.value());
  if (result.stats.bounded) {
    report->Fail(StrCat("checker is bounded: ", result.stats.bound_reason));
  }
  return result.stats.states_explored;
}

/// Expected histories: each journey's reference run must be maximal,
/// consistent, and equal to the golden history pinned in the workload.
void CheckReferences(const Workload& w, SpecRuntime* rt, Report* report) {
  for (const Journey& j : w.journeys) {
    bool ok = false;
    std::string history = ReferenceHistory(rt, j.attempts, &ok);
    if (!ok || history != j.expected) {
      report->Fail(StrCat("journey ", j.kind, ": reference history '",
                          history, "' (", ok ? "maximal" : "NOT maximal",
                          ") != pinned '", j.expected, "'"));
    }
  }
}

/// Runs the verify_s passes in a child process forked before any engine
/// thread exists: the checker's memory (tens of MiB on fanin_promise) then
/// never counts toward this process's peak resident set, which measures the
/// engine, and the child's heap stays warm from round to round as it would
/// in-process. The child first checks that the exhaustive check is
/// unbounded, then serves requests: the parent writes a sample count, the
/// child answers with its ok flag, the explored state count, and that many
/// timings.
class VerifyWorker {
 public:
  explicit VerifyWorker(const Workload& w) {
    int request[2], reply[2];
    CDES_CHECK(pipe(request) == 0 && pipe(reply) == 0);
    std::fflush(stdout);
    std::fflush(stderr);
    pid_ = fork();
    CDES_CHECK(pid_ >= 0);
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      close(request[1]);
      close(reply[0]);
      Serve(w, request[0], reply[1]);
    }
    close(request[0]);
    close(reply[1]);
    to_child_ = request[1];
    from_child_ = reply[0];
  }

  ~VerifyWorker() {
    close(to_child_);  // EOF: the child exits
    close(from_child_);
    waitpid(pid_, nullptr, 0);
  }

  VerifyWorker(const VerifyWorker&) = delete;
  VerifyWorker& operator=(const VerifyWorker&) = delete;

  /// `samples` verify_s timings; fails the report if the child does.
  std::vector<double> Run(size_t samples, Report* report) {
    uint64_t count = samples;
    std::vector<double> reply(samples + 2);
    if (!WriteAll(to_child_, &count, sizeof(count)) ||
        !ReadAll(from_child_, reply.data(), reply.size() * sizeof(double))) {
      report->Fail("verification child died");
      return {};
    }
    if (reply[0] != 1) report->Fail("verification failed (see stderr)");
    states_ = static_cast<size_t>(reply[1]);
    return std::vector<double>(reply.begin() + 2, reply.end());
  }

  size_t states() const { return states_; }

 private:
  [[noreturn]] static void Serve(const Workload& w, int in, int out) {
    Report child;
    double states = static_cast<double>(CheckUnbounded(w, &child));
    size_t reported = 0;
    uint64_t count = 0;
    while (ReadAll(in, &count, sizeof(count))) {
      std::vector<double> reply = {0, states};
      for (uint64_t i = 0; i < count; ++i) {
        reply.push_back(TimeVerify(w, &child));
      }
      for (; reported < child.errors.size(); ++reported) {
        std::fprintf(stderr, "perfbench: FAILED: %s\n",
                     child.errors[reported].c_str());
      }
      reply[0] = child.correct ? 1 : 0;
      if (!WriteAll(out, reply.data(), reply.size() * sizeof(double))) break;
    }
    _exit(0);
  }

  static bool WriteAll(int fd, const void* data, size_t size) {
    const char* p = static_cast<const char*>(data);
    while (size > 0) {
      ssize_t n = write(fd, p, size);
      if (n <= 0) return false;
      p += n;
      size -= static_cast<size_t>(n);
    }
    return true;
  }

  static bool ReadAll(int fd, void* data, size_t size) {
    char* p = static_cast<char*>(data);
    while (size > 0) {
      ssize_t n = read(fd, p, size);
      if (n <= 0) return false;
      p += n;
      size -= static_cast<size_t>(n);
    }
    return true;
  }

  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  size_t states_ = 0;
};

/// Samples of a kind with `total` per run that fall into `round`.
size_t SamplesInRound(size_t total, size_t round, size_t rounds) {
  return (round + 1) * total / rounds - round * total / rounds;
}

}  // namespace

void RunEndToEnd(const Workload& w, const RunOptions& opts, Report* report) {
  VerifyWorker verifier(w);  // forked while this process is single-threaded
  SpecRuntime rt(w);
  CheckReferences(w, &rt, report);
  CrashImage image = BuildCrashImage(w, &rt, nullptr, report);

  // The process's first engine costs about twice what later ones do
  // (allocator and page-fault warm-up). It is reported as provenance and
  // kept out of setup_s, which is the set-up a restarted engine pays.
  double first_setup = 0;
  SetUpEngine(w, EngineOptionsFor(w), &first_setup)->Stop();

  JourneyStream journeys(w.journeys.size(), opts.seed);
  std::vector<double> setup_s, recover_s, verify_s;
  std::vector<double> p50, p90, host_ms;
  uint64_t window_events = 0;
  double window_seconds = 0;
  uint64_t window_instances = 0;
  const double window = opts.seconds / static_cast<double>(opts.rounds);
  for (size_t round = 0; round < opts.rounds; ++round) {
    host_ms.push_back(HostLoopMs());
    // Restarting engines recover the image; the last engine of the round
    // runs the closed loop. Every engine is a set-up sample.
    size_t recovers = SamplesInRound(w.recover_samples, round, opts.rounds);
    size_t engines = std::max<size_t>(
        recovers + 1, SamplesInRound(w.setup_samples, round, opts.rounds));
    for (size_t i = 0; i < engines; ++i) {
      bool closed_loop = i + 1 == engines;
      double seconds = 0;
      auto engine = SetUpEngine(
          w, closed_loop ? EngineOptionsFor(w) : RestartOptionsFor(w),
          &seconds);
      setup_s.push_back(seconds);
      if (i < recovers) {
        recover_s.push_back(RecoverImage(engine.get(), image, "", report));
      }
      if (closed_loop) {
        WindowStats ws = RunClosedLoop(engine.get(), w, &journeys, window,
                                       opts.sub_window, report);
        window_events += ws.events;
        window_seconds += ws.seconds;
        p50.insert(p50.end(), ws.p50_us.begin(), ws.p50_us.end());
        p90.insert(p90.end(), ws.p90_us.begin(), ws.p90_us.end());
        window_instances += ws.instances;
      }
      engine->Stop();
    }
    std::vector<double> verifies = verifier.Run(
        SamplesInRound(w.verify_samples, round, opts.rounds), report);
    verify_s.insert(verify_s.end(), verifies.begin(), verifies.end());
  }

  report->Set("events_per_s",
              static_cast<double>(window_events) / window_seconds, "1/s");
  report->Set("latency_p50_us", TrimmedMean(p50), "us");
  report->Set("latency_p90_us", TrimmedMean(p90), "us");
  report->Set("setup_s", Median(setup_s), "s");
  report->Set("verify_s", TrimmedMean(verify_s), "s");
  report->Set("recover_s", TrimmedMean(recover_s), "s");
  report->Set("peak_rss_mb", PeakRssMb(), "MiB");

  auto& p = report->provenance;
  p["setup_first_s"] = StrCat(first_setup);
  p["host_loop_ms"] = StrCat(Median(host_ms));
  p["setup_samples"] = StrCat(setup_s.size());
  p["recover_samples"] = StrCat(recover_s.size());
  p["verify_samples"] = StrCat(verify_s.size());
  p["window_instances"] = StrCat(window_instances);
  p["sub_windows"] = StrCat(p50.size());
  p["image_instances"] = StrCat(image.ids.size());
  p["image_checkpointed"] = StrCat(image.checkpointed);
  p["image_records"] = StrCat(image.size.records);
  p["image_bytes"] = StrCat(image.size.bytes);
  p["checker_states"] = StrCat(verifier.states());
}

}  // namespace perfbench
