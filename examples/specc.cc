// specc — the workflow spec compiler CLI.
//
// Reads a workflow specification (from argv[1], or a built-in demo spec),
// and prints: the parsed workflow, the synthesized guard for every literal,
// the Figure-2 residual machine per dependency, the schedule-space verdict
// of the exhaustive reachability checker (CL020–CL024, see
// analysis/model_checker.h), and the size of the precompiled automaton the
// centralized baseline [2] would need. With --dot, emits the residual
// machines as Graphviz instead.
//
// With --trace=<file>, compile phases (parse, guard synthesis, residual
// machines, verification, automata baseline) are recorded as wall-clock
// spans and written as Chrome-trace JSON (see docs/OBSERVABILITY.md).
//
// With --profile (or --profile=<file>), every per-(dependency, literal)
// guard synthesis is profiled — wall time, residuation steps, interned
// guard nodes — and a top-K hotspot table with file:line attribution is
// printed after compilation. The =<file> form additionally writes
// collapsed stacks for flamegraph.pl / speedscope.
//
// With --verify, the same checker gates compilation alongside the static
// analyzer: a reachable deadlock, unreachable event, guard⇔spec mismatch
// or ¬-race aborts before anything is synthesized, and per-workflow
// exploration stats are printed. Each workflow is explored once per run:
// the verdict reuses the gate's result.
//
// Usage:  ./build/examples/specc [file.wf] [--dot] [--verify]
//                                [--trace=<file>] [--profile[=<file>]]
//         ./build/examples/specc examples/specs/travel.wf

#include <chrono>
#include <cstdio>
#include <cstring>

#include "algebra/residuation.h"
#include "analysis/analyzer.h"
#include "common/file.h"
#include "guards/workflow.h"
#include "obs/chrome_trace.h"
#include "obs/profiler.h"
#include "obs/trace_recorder.h"
#include "sched/automata_scheduler.h"
#include "spec/parser.h"

namespace {

constexpr char kDefaultSpec[] = R"(
workflow demo {
  agent left  @ site(0);
  agent right @ site(1);
  event e agent(left);
  event f agent(right);
  event g agent(right) attrs(triggerable);
  dep ordered: e < f;
  dep implied: f -> g;
}
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace cdes;

  std::string text = kDefaultSpec;
  bool dot = false;
  bool verify = false;
  bool profile = false;
  const char* path = nullptr;
  const char* trace_path = nullptr;
  const char* profile_path = nullptr;  // collapsed-stack output
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--dot") {
      dot = true;
    } else if (std::string_view(argv[i]) == "--verify") {
      verify = true;
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else if (std::string_view(argv[i]) == "--profile") {
      profile = true;
    } else if (std::strncmp(argv[i], "--profile=", 10) == 0) {
      profile = true;
      if (argv[i][10] != '\0') profile_path = argv[i] + 10;
    } else {
      path = argv[i];
    }
  }

  // Compile-phase tracing: the recorder is time-source agnostic, so the
  // CLI records wall-clock microseconds where the runtime records SimTime.
  obs::TraceRecorder recorder;
  obs::TraceRecorder* tracer = trace_path != nullptr ? &recorder : nullptr;
  const auto t0 = std::chrono::steady_clock::now();
  auto now_us = [t0] {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  };
  auto phase = [&](const char* name, uint64_t started,
                   obs::TraceRecorder::Args args = {}) {
    if (tracer != nullptr) {
      tracer->Complete(obs::SpanCategory::kSim, name, started,
                       now_us() - started, 0, 0, std::move(args));
    }
  };
  if (tracer != nullptr) tracer->NameProcess(0, "specc");

  // Guard-synthesis profiling: compilation is one-shot, so sample every
  // evaluation (sample_every = 1) — there is no hot path to protect.
  obs::GuardProfiler profiler_storage(/*sample_every=*/1);
  obs::GuardProfiler* profiler = profile ? &profiler_storage : nullptr;
  if (profiler != nullptr && path != nullptr) profiler->set_source(path);
  if (path != nullptr) {
    Result<std::string> read = ReadFile(path);
    if (!read.ok()) {
      std::fprintf(stderr, "cannot open %s\n", path);
      return 1;
    }
    text = std::move(read).value();
  } else {
    std::printf("(no file given; compiling the built-in demo spec)\n");
  }

  WorkflowContext ctx;
  uint64_t parse_start = now_us();
  auto parsed_all =
      ParseWorkflows(&ctx, text, path != nullptr ? path : "");
  if (!parsed_all.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 parsed_all.status().ToString().c_str());
    return 1;
  }
  phase("parse", parse_start,
        {{"workflows", std::to_string(parsed_all.value().size())}});

  // Static analysis runs on every compile (it is purely symbolic — cheap
  // next to the schedule-space exploration below). Errors abort: an
  // unsatisfiable dependency or a statically dead event means the workflow
  // can never do what the spec says.
  uint64_t lint_start = now_us();
  bool lint_errors = false;
  for (const ParsedWorkflow& w : parsed_all.value()) {
    std::vector<analysis::Diagnostic> diagnostics =
        analysis::AnalyzeWorkflow(&ctx, w);
    for (analysis::Diagnostic& d : diagnostics) {
      if (path != nullptr) d.file = path;
      std::fprintf(stderr, "%s\n", analysis::FormatDiagnostic(d).c_str());
    }
    lint_errors |= analysis::HasFindings(diagnostics);
  }
  phase("static analysis", lint_start);
  if (lint_errors) {
    std::fprintf(stderr, "specc: workflow rejected by static analysis\n");
    return 1;
  }

  // --verify: the exhaustive checker gates compilation. Reachability
  // errors (CL020/CL021/CL023/CL024) abort with counterexample traces; a
  // bounded run proves nothing about absence and is reported but not fatal.
  std::vector<analysis::CheckResult> checked;
  if (verify) {
    uint64_t verify_gate_start = now_us();
    bool check_errors = false;
    for (const ParsedWorkflow& w : parsed_all.value()) {
      analysis::CheckResult& result =
          checked.emplace_back(analysis::CheckWorkflow(&ctx, w));
      for (analysis::Diagnostic& d : result.diagnostics) {
        if (path != nullptr) d.file = path;
      }
      std::fprintf(stderr, "%s",
                   analysis::FormatDiagnostics(result.diagnostics).c_str());
      std::printf("verify %s: %zu states, %zu transitions, %zu maximal, "
                  "%zu accepted%s%s\n",
                  w.name.c_str(), result.stats.states_explored,
                  result.stats.transitions, result.stats.maximal_states,
                  result.stats.accepted_states,
                  result.stats.bounded ? " (bounded: " : "",
                  result.stats.bounded
                      ? (result.stats.bound_reason + ")").c_str()
                      : "");
      check_errors |= analysis::HasFindings(result.diagnostics);
    }
    phase("verify reachability", verify_gate_start);
    if (check_errors) {
      std::fprintf(stderr,
                   "specc: workflow rejected by reachability check\n");
      return 1;
    }
  }

  auto write_trace = [&]() -> int {
    if (trace_path == nullptr) return 0;
    Status written = obs::WriteChromeTrace(recorder, trace_path);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("\ntrace: %zu events -> %s (load in ui.perfetto.dev)\n",
                recorder.events().size(), trace_path);
    return 0;
  };

  if (dot) {
    for (const ParsedWorkflow& w : parsed_all.value()) {
      for (const Dependency& dep : w.spec.dependencies()) {
        ResidualGraph graph = BuildResidualGraph(ctx.residuator(), dep.expr);
        std::printf("%s",
                    ResidualGraphToDot(graph, *ctx.alphabet(), dep.name)
                        .c_str());
      }
    }
    return write_trace();
  }

  for (size_t k = 0; k < parsed_all.value().size(); ++k) {
    const ParsedWorkflow& w = parsed_all.value()[k];
    std::printf("\n================ workflow %s ================\n",
                w.name.c_str());
    std::printf("%s", FormatWorkflow(w, *ctx.alphabet()).c_str());

    uint64_t compile_start = now_us();
    CompileOptions copts;
    copts.profiler = profiler;
    CompiledWorkflow compiled = CompileWorkflow(&ctx, w.spec, copts);
    phase("synthesize guards", compile_start, {{"workflow", w.name}});
    std::printf("\n-- guards (event-centric, localized) --\n");
    for (SymbolId s : compiled.symbols()) {
      for (EventLiteral l :
           {EventLiteral::Positive(s), EventLiteral::Complement(s)}) {
        std::printf("  G(%-10s) = %s\n",
                    ctx.alphabet()->LiteralName(l).c_str(),
                    GuardToString(compiled.GuardFor(l),
                                  *ctx.alphabet()).c_str());
      }
    }

    std::printf("\n-- residual machines (Figure 2) --\n");
    uint64_t residual_start = now_us();
    for (const Dependency& dep : w.spec.dependencies()) {
      ResidualGraph graph = BuildResidualGraph(ctx.residuator(), dep.expr);
      std::printf("  %s: %zu states, %zu transitions\n", dep.name.c_str(),
                  graph.states.size(), graph.edges.size());
      for (const auto& [key, to] : graph.edges) {
        std::printf("    [%s] --%s--> [%s]\n",
                    ExprToString(graph.states[key.first],
                                 *ctx.alphabet()).c_str(),
                    ctx.alphabet()->LiteralName(key.second).c_str(),
                    ExprToString(graph.states[to], *ctx.alphabet()).c_str());
      }
    }

    phase("residual machines", residual_start, {{"workflow", w.name}});

    std::printf("\n-- schedule-space verification --\n");
    uint64_t verify_start = now_us();
    analysis::CheckResult result;
    if (verify) {
      result = std::move(checked[k]);  // already explored and printed
    } else {
      result = analysis::CheckCompiled(&ctx, w, compiled);
      for (analysis::Diagnostic& d : result.diagnostics) {
        if (path != nullptr) d.file = path;
      }
      std::printf("%s",
                  analysis::FormatDiagnostics(result.diagnostics).c_str());
    }
    // A bounded run proves the errors it found, never their absence.
    const analysis::ModelCheckStats& stats = result.stats;
    std::printf("  %s: %zu states, %zu transitions, %zu maximal, "
                "%zu accepted%s%s\n",
                analysis::HasFindings(result.diagnostics) ? "rejected"
                : stats.bounded                           ? "inconclusive"
                                                          : "ok",
                stats.states_explored, stats.transitions,
                stats.maximal_states, stats.accepted_states,
                stats.bounded ? " (bounded: " : "",
                stats.bounded ? (stats.bound_reason + ")").c_str() : "");

    phase("verify schedule space", verify_start, {{"workflow", w.name}});

    std::printf("\n-- centralized automata baseline [2] --\n");
    uint64_t automata_start = now_us();
    size_t total_states = 0, total_transitions = 0;
    for (const Dependency& dep : w.spec.dependencies()) {
      DependencyAutomaton automaton =
          BuildDependencyAutomaton(ctx.residuator(), dep.expr);
      total_states += automaton.states.size();
      total_transitions += automaton.transitions.size();
    }
    phase("automata baseline", automata_start,
          {{"workflow", w.name}, {"states", std::to_string(total_states)}});
    std::printf("  %zu automaton states, %zu transitions precompiled\n",
                total_states, total_transitions);
  }

  if (profiler != nullptr) {
    obs::SymbolicCacheStats cache_stats;
    cache_stats.reduction_hits = ctx.reduction_cache()->hits();
    cache_stats.reduction_misses = ctx.reduction_cache()->misses();
    cache_stats.residuation_hits = ctx.residuator()->cache_hits();
    cache_stats.residuation_misses = ctx.residuator()->cache_misses();
    std::printf("\n-- guard synthesis profile --\n%s",
                profiler->TopKReport(10, &cache_stats).c_str());
    if (profile_path != nullptr) {
      std::string collapsed = profiler->CollapsedStacks();
      std::FILE* f = std::fopen(profile_path, "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n", profile_path);
        return 1;
      }
      std::fwrite(collapsed.data(), 1, collapsed.size(), f);
      std::fclose(f);
      std::printf("profile: %zu sites -> %s (collapsed stacks; feed to "
                  "flamegraph.pl or speedscope)\n",
                  profiler->site_count(), profile_path);
    }
  }

  return write_trace();
}
