// Workload definitions, seeded journey order, direct-driven instance
// worlds, and crash-image construction.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "common/strings.h"
#include "engine/engine_spec.h"
#include "runtime/checkpoint.h"
#include "spec/parser.h"

namespace perfbench {
namespace {

using cdes::StrCat;

/// The engine's fixed network seed. With zero jitter it does not change
/// any history; it is fixed so that nothing but the journey order depends
/// on the run's --seed.
constexpr uint64_t kEngineSeed = 1;

/// The per-instance seed a shard derives (splitmix64 over seed and id).
uint64_t MixSeed(uint64_t seed, uint64_t id) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (id + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<std::string> Seq(const std::string& prefix, int from, int to) {
  std::vector<std::string> out;
  int step = from <= to ? 1 : -1;
  for (int i = from;; i += step) {
    out.push_back(StrCat(prefix, i));
    if (i == to) break;
  }
  return out;
}

std::vector<std::string> Concat(std::vector<std::vector<std::string>> parts) {
  std::vector<std::string> out;
  for (auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

Workload TravelMix() {
  Workload w;
  w.name = "travel_mix";
  w.spec_file = "examples/specs/travel.wf";
  w.shards = 2;
  w.clients = 16;
  w.journeys = {
      {"commit", {"s_buy", "c_book", "c_buy"},
       "<s_book s_buy c_book c_buy ~s_cancel>"},
      // ~c_buy leaves the booking to compensate: s_cancel is triggered.
      {"compensate", {"s_buy", "c_book", "~c_buy"},
       "<s_book s_buy c_book s_cancel ~c_buy>"},
      {"abort", {"~s_buy"}, "<~s_buy ~s_book ~c_buy ~c_book ~s_cancel>"},
  };
  w.image_prefixes = {{{"s_buy"}}, {{"s_buy", "c_book"}}};
  w.image_instances = 4000;
  w.image_size = {10000, 430000};
  w.smoke_image_size = {500, 21500};
  w.setup_samples = 100;
  w.recover_samples = 30;
  w.verify_samples = 300;
  w.traced_instances = 6000;
  return w;
}

Workload FaninPromise() {
  Workload w;
  w.name = "fanin_promise";
  w.spec_file = "perfbench/specs/fanin_promise.wf";
  w.shards = 1;
  w.clients = 8;
  std::vector<std::string> chain_reversed = Seq("a", 5, 0);
  // The journeys differ in length (16, 10 and 7 attempts). With three
  // journeys of 16 attempts each, the eight residents of the shard's
  // round-robin fell into lockstep patterns that held for seconds, and the
  // p50 latency flipped between two levels about 50% apart.
  w.journeys = {
      // j parks first; the last u decision releases it.
      {"join_all", Concat({chain_reversed, {"j"}, Seq("u", 1, 9)}),
       "<a0 a1 a2 a3 a4 a5 u1 u2 u3 u4 u5 u6 u7 u8 u9 j>"},
      // j parks; closure refuses the undecided u's and then j itself.
      {"join_abandoned", Concat({chain_reversed, {"j", "u1", "~u2", "u3"}}),
       "<a0 a1 a2 a3 a4 a5 u1 ~u2 u3 ~u4 ~u5 ~u6 ~u7 ~u8 ~u9 ~j>"},
      {"refuse", Concat({chain_reversed, {"~u1"}}),
       "<a0 a1 a2 a3 a4 a5 ~u1 ~u2 ~u3 ~u4 ~u5 ~u6 ~u7 ~u8 ~u9 ~j>"},
  };
  for (int i = 0; i < 6; ++i) {
    w.expected_findings.push_back(StrCat("CL004 a", i));
  }
  // The chain's events are forced, so an instance can only close once the
  // chain has run: every in-flight prefix includes it.
  w.image_prefixes = {{Concat({chain_reversed, {"u1", "~u2"}})},
                      {Concat({chain_reversed, Seq("u", 1, 4)})}};
  w.image_instances = 1500;
  w.image_size = {13500, 459000};
  w.smoke_image_size = {674, 22920};
  w.setup_samples = 10;
  w.recover_samples = 20;
  w.verify_samples = 10;
  w.traced_instances = 1500;
  return w;
}

Workload ChainWal() {
  Workload w;
  w.name = "chain_wal";
  w.spec_file = "perfbench/specs/chain_wal.wf";
  w.shards = 1;
  w.clients = 8;
  w.journeys = {
      {"full", Seq("e_", 0, 11),
       "<e_0 e_1 e_2 e_3 e_4 e_5 e_6 e_7 e_8 e_9 e_10 e_11>"},
      {"half", Seq("e_", 0, 5),
       "<e_0 e_1 e_2 e_3 e_4 e_5 ~e_11 ~e_10 ~e_9 ~e_8 ~e_7 ~e_6>"},
      {"refuse", {"~e_0"},
       "<~e_11 ~e_10 ~e_9 ~e_8 ~e_7 ~e_6 ~e_5 ~e_4 ~e_3 ~e_2 ~e_1 ~e_0>"},
  };
  // All but the last stage, like bench_recovery's in-flight fleet.
  w.image_prefixes = {{Seq("e_", 0, 10)}};
  w.image_instances = 1000;
  w.image_checkpoints = true;
  w.image_size = {11000, 241500};
  w.smoke_image_size = {550, 12075};
  w.durable_logs = true;
  w.setup_samples = 50;
  w.recover_samples = 30;
  w.verify_samples = 50;
  w.traced_instances = 1500;
  return w;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "perfbench: cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"travel_mix", "fanin_promise", "chain_wal"};
}

Workload LoadWorkload(const std::string& name) {
  Workload w;
  if (name == "travel_mix") {
    w = TravelMix();
  } else if (name == "fanin_promise") {
    w = FaninPromise();
  } else if (name == "chain_wal") {
    w = ChainWal();
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", name.c_str());
    std::exit(2);
  }
  w.spec_text = ReadFileOrDie(w.spec_file);
  return w;
}

JourneyStream::JourneyStream(size_t kinds, uint64_t seed)
    : block_(kinds), pos_(kinds), state_(MixSeed(seed, 0)) {
  for (size_t i = 0; i < kinds; ++i) block_[i] = i;
}

uint64_t JourneyStream::Draw() {
  state_ = MixSeed(state_, 1);
  return state_;
}

size_t JourneyStream::Next() {
  if (pos_ == block_.size()) {
    // Fisher–Yates with the stream's own generator: the order is a function
    // of the seed alone, not of the standard library's shuffle.
    for (size_t i = block_.size(); i > 1; --i) {
      std::swap(block_[i - 1], block_[Draw() % i]);
    }
    pos_ = 0;
  }
  return block_[pos_++];
}

cdes::engine::EngineOptions EngineOptionsFor(const Workload& w) {
  cdes::engine::EngineOptions o;
  o.shards = w.shards;
  o.max_in_flight = w.clients;
  o.seed = kEngineSeed;
  o.durable_logs = w.durable_logs;
  return o;
}

cdes::engine::EngineOptions RestartOptionsFor(const Workload& w) {
  cdes::engine::EngineOptions o = EngineOptionsFor(w);
  o.max_in_flight = 0;
  return o;
}

cdes::engine::InstanceScript ScriptFor(const Workload& w, size_t kind) {
  cdes::engine::InstanceScript script;
  script.tag = kind;
  script.attempts = w.journeys[kind].attempts;
  return script;
}

SpecRuntime::SpecRuntime(const Workload& w) {
  auto parsed = cdes::ParseWorkflow(&ctx, w.spec_text, w.spec_file);
  CDES_CHECK(parsed.ok()) << parsed.status();
  workflow = std::move(parsed).value();
  compiled = cdes::CompileWorkflowShared(&ctx, workflow.spec);
  auto spec = cdes::engine::EngineSpec::FromText(w.spec_text);
  CDES_CHECK(spec.ok()) << spec.status();
  sites = spec.value()->site_count();
}

World::World(SpecRuntime* rt, uint64_t id, cdes::EventLog* durable_log) {
  // The network and scheduler options a shard uses (engine defaults).
  cdes::NetworkOptions nopts;
  nopts.base_latency = 1000;
  nopts.local_latency = 1;
  nopts.jitter = 0;
  nopts.seed = MixSeed(kEngineSeed, id);
  nopts.metrics = &rt->metrics;
  net = std::make_unique<cdes::Network>(&sim, rt->sites, nopts);
  cdes::GuardSchedulerOptions sopts;
  sopts.metrics = &rt->metrics;
  sopts.lifecycle_instrumentation = false;
  sopts.trace_id = id;
  sopts.durable_log = durable_log;
  sched = std::make_unique<cdes::GuardScheduler>(&rt->ctx, rt->compiled,
                                                 rt->workflow, net.get(),
                                                 sopts);
}

void AttemptAndRun(World* w, const cdes::Alphabet& alphabet,
                   const std::string& name, Tracer* tracer, uint64_t id) {
  Span span(tracer, "sched.attempt", id);
  auto literal = alphabet.ParseLiteral(name);
  CDES_CHECK(literal.ok()) << literal.status();
  w->sched->Attempt(literal.value(), {});
  Span run(tracer, "sim.run", id);
  w->sim.Run();
}

size_t CloseAndRun(World* w, Tracer* tracer, uint64_t id) {
  // A shard's closing phase: Close, run to quiescence, repeat while some
  // symbol is undecided, for at most max_close_rounds (16) rounds.
  Span span(tracer, "sched.close", id);
  size_t rounds = 0;
  while (!w->sched->Undecided().empty() && rounds < 16) {
    ++rounds;
    w->sched->Close();
    Span run(tracer, "sim.run", id);
    w->sim.Run();
  }
  return rounds;
}

std::string FinalHistory(World* w, const cdes::Alphabet& alphabet, bool* ok,
                         Tracer* tracer, uint64_t id) {
  Span span(tracer, "sched.result", id);
  bool maximal = w->sched->Undecided().empty();
  *ok = maximal && w->sched->HistoryConsistent(true);
  return cdes::TraceToString(w->sched->history(), alphabet);
}

std::string ReferenceHistory(SpecRuntime* rt,
                             const std::vector<std::string>& attempts,
                             bool* ok) {
  World world(rt, 0, nullptr);
  for (const std::string& name : attempts) {
    AttemptAndRun(&world, *rt->ctx.alphabet(), name, nullptr, 0);
  }
  CloseAndRun(&world, nullptr, 0);
  return FinalHistory(&world, *rt->ctx.alphabet(), ok, nullptr, 0);
}

CrashImage BuildCrashImage(const Workload& w, SpecRuntime* rt, Tracer* tracer,
                           Report* report) {
  CrashImage image;
  const cdes::Alphabet& alphabet = *rt->ctx.alphabet();
  std::vector<std::string> expected;
  for (const ImagePrefix& prefix : w.image_prefixes) {
    bool ok = false;
    expected.push_back(ReferenceHistory(rt, prefix.attempts, &ok));
    CDES_CHECK(ok) << "image prefix reference is not maximal/consistent";
  }
  for (size_t i = 0; i < w.image_instances; ++i) {
    uint64_t id = kImageBaseId + i;
    size_t kind = i % w.image_prefixes.size();
    cdes::EventLog log;
    log.set_instance(id);
    World world(rt, id, &log);
    for (const std::string& name : w.image_prefixes[kind].attempts) {
      AttemptAndRun(&world, alphabet, name, nullptr, id);
    }
    std::string payload =
        cdes::SerializeCheckpoint(world.sched->Snapshot(), alphabet);
    if (w.image_checkpoints && i % 2 == 1) {
      // Compaction as a shard does it at a quiescent turn.
      cdes::EventLog::CheckpointSection section;
      section.covered = log.total_records();
      section.last_stamp = log.last_stamp();
      section.payload = payload;
      log.InstallCheckpoint(std::move(section));
      ++image.checkpointed;
    }
    image.payloads.push_back(std::move(payload));
    image.size.records += log.total_records();
    {
      Span span(tracer, "runtime.log_serialize", id);
      image.logs.push_back(log.SerializeOpen(alphabet));
    }
    image.size.bytes += image.logs.back().size();
    image.ids.push_back(id);
    image.expected.push_back(expected[kind]);
  }
  if (image.size != w.image_size) {
    report->Fail(StrCat("crash image has ", image.size.records, " records and ",
                        image.size.bytes, " bytes, not the pinned ",
                        w.image_size.records, " and ", w.image_size.bytes));
  }
  return image;
}

}  // namespace perfbench
