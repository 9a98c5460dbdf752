#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "runtime/event_log.h"
#include "sched/guard_scheduler.h"
#include "spec/parser.h"

namespace cdes {
namespace {

constexpr char kTravelSpec[] = R"(
workflow travel {
  agent air @ site(0);
  agent car @ site(1);
  event s_buy    agent(air);
  event c_buy    agent(air);
  event s_book   agent(car) attrs(triggerable);
  event c_book   agent(car);
  event s_cancel agent(car) attrs(triggerable);
  dep d1: ~s_buy + s_book;
  dep d2: ~c_buy + c_book . c_buy;
  dep d3: ~c_book + c_buy + s_cancel;
}
)";

// ------------------------------------------------------------- EventLog

TEST(EventLogTest, AppendAndAccess) {
  EventLog log;
  EXPECT_TRUE(log.empty());
  log.Append({OccurrenceStamp{10, 0}, EventLiteral::Positive(0)});
  log.Append({OccurrenceStamp{10, 1}, EventLiteral::Complement(1)});
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.records()[1].literal, EventLiteral::Complement(1));
}

TEST(EventLogTest, SerializeRoundTrip) {
  Alphabet alphabet;
  alphabet.Intern("e");
  alphabet.Intern("f");
  EventLog log;
  log.Append({OccurrenceStamp{100, 0}, EventLiteral::Positive(0)});
  log.Append({OccurrenceStamp{250, 1}, EventLiteral::Complement(1)});
  std::string text = log.Serialize(alphabet);
  auto parsed = EventLog::Deserialize(alphabet, text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().records(), log.records());
}

TEST(EventLogTest, DetectsCorruption) {
  Alphabet alphabet;
  alphabet.Intern("e");
  EventLog log;
  log.Append({OccurrenceStamp{5, 0}, EventLiteral::Positive(0)});
  std::string text = log.Serialize(alphabet);
  // Flip a byte in the body.
  std::string corrupted = text;
  corrupted[text.find("e")] = 'x';
  EXPECT_FALSE(EventLog::Deserialize(alphabet, corrupted).ok());
  // Truncation drops the checksum trailer.
  std::string truncated = text.substr(0, text.size() / 2);
  EXPECT_FALSE(EventLog::Deserialize(alphabet, truncated).ok());
  // Wrong header.
  EXPECT_FALSE(EventLog::Deserialize(alphabet, "nope\nchecksum 0\n").ok());
}

TEST(EventLogTest, TornTailDroppedOnTolerantLoad) {
  // Crash mid-append: the file ends in a partial record line and never got
  // its checksum trailer. LoadTolerant must recover every complete record
  // and drop only the torn one; strict Deserialize must still refuse.
  Alphabet alphabet;
  alphabet.Intern("e");
  alphabet.Intern("f");
  EventLog log;
  log.set_instance(7);
  log.Append({OccurrenceStamp{100, 0}, EventLiteral::Positive(0)});
  log.Append({OccurrenceStamp{250, 1}, EventLiteral::Complement(1)});
  log.Append({OccurrenceStamp{300, 2}, EventLiteral::Positive(1)});
  std::string text = log.Serialize(alphabet);

  // Cut inside the final record line (drop trailer + half the last line).
  size_t trailer = text.rfind("checksum ");
  size_t last_record = text.rfind('\n', trailer - 2) + 1;
  std::string torn = text.substr(0, last_record + 5);

  EXPECT_FALSE(EventLog::Deserialize(alphabet, torn).ok());
  bool dropped = false;
  auto recovered = EventLog::LoadTolerant(alphabet, torn, &dropped);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(dropped);
  EXPECT_EQ(recovered.value().instance(), 7u);
  ASSERT_EQ(recovered.value().size(), 2u);
  EXPECT_EQ(recovered.value().records()[0], log.records()[0]);
  EXPECT_EQ(recovered.value().records()[1], log.records()[1]);

  // A torn *trailer* (records all complete, checksum line half-written)
  // recovers every record. The torn line is provably the trailer — it
  // cannot have been a record — so nothing counts as dropped.
  std::string torn_trailer = text.substr(0, trailer + 10);
  dropped = true;
  recovered = EventLog::LoadTolerant(alphabet, torn_trailer, &dropped);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_FALSE(dropped);
  EXPECT_EQ(recovered.value().records(), log.records());

  // An intact log loads tolerantly with nothing dropped.
  dropped = true;
  recovered = EventLog::LoadTolerant(alphabet, text, &dropped);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_FALSE(dropped);
  EXPECT_EQ(recovered.value().records(), log.records());
}

TEST(EventLogTest, TolerantLoadStillRejectsMidLogCorruption) {
  // Only the *final* record may be torn: a mangled record in the middle is
  // corruption and must fail even under LoadTolerant.
  Alphabet alphabet;
  alphabet.Intern("e");
  EventLog log;
  log.Append({OccurrenceStamp{10, 0}, EventLiteral::Positive(0)});
  log.Append({OccurrenceStamp{20, 1}, EventLiteral::Complement(0)});
  std::string text = log.Serialize(alphabet);
  size_t trailer = text.rfind("checksum ");
  std::string no_trailer = text.substr(0, trailer);
  std::string corrupted = no_trailer;
  corrupted[corrupted.find("e", corrupted.find('\n'))] = 'x';  // record 1
  EXPECT_FALSE(EventLog::LoadTolerant(alphabet, corrupted).ok());
}

TEST(EventLogTest, InstanceIdRoundTrips) {
  Alphabet alphabet;
  alphabet.Intern("e");
  EventLog log;
  log.set_instance(42);
  log.Append({OccurrenceStamp{5, 0}, EventLiteral::Positive(0)});
  auto parsed = EventLog::Deserialize(alphabet, log.Serialize(alphabet));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().instance(), 42u);
}

TEST(EventLogTest, UnknownEventFailsDeserialize) {
  Alphabet a1, a2;
  a1.Intern("e");
  EventLog log;
  log.Append({OccurrenceStamp{5, 0}, EventLiteral::Positive(0)});
  std::string text = log.Serialize(a1);
  EXPECT_FALSE(EventLog::Deserialize(a2, text).ok());  // "e" not interned
}

// --------------------------------------------------------- Crash/recover

struct LoggedWorld {
  explicit LoggedWorld(EventLog* log) {
    auto parsed = ParseWorkflow(&ctx, kTravelSpec);
    CDES_CHECK(parsed.ok());
    workflow = std::move(parsed).value();
    NetworkOptions nopts;
    nopts.base_latency = 100;
    network = std::make_unique<Network>(&sim, 4, nopts);
    GuardSchedulerOptions options;
    options.durable_log = log;
    sched = std::make_unique<GuardScheduler>(&ctx, workflow, network.get(),
                                             options);
  }

  Decision AttemptAndRun(const std::string& name) {
    auto lit = ctx.alphabet()->ParseLiteral(name);
    CDES_CHECK(lit.ok());
    Decision last = Decision::kParked;
    sched->Attempt(lit.value(), [&](Decision d) { last = d; });
    sim.Run();
    return last;
  }

  WorkflowContext ctx;
  Simulator sim;
  std::unique_ptr<Network> network;
  ParsedWorkflow workflow;
  std::unique_ptr<GuardScheduler> sched;
};

TEST(RecoveryTest, ResumesMidWorkflow) {
  EventLog log;
  std::string pre_crash_history;
  {
    LoggedWorld w(&log);
    EXPECT_EQ(w.AttemptAndRun("s_buy"), Decision::kAccepted);
    EXPECT_EQ(w.AttemptAndRun("c_book"), Decision::kAccepted);
    pre_crash_history = TraceToString(w.sched->history(), *w.ctx.alphabet());
    // Crash: scheduler, simulator, and context all destroyed here.
  }
  ASSERT_EQ(log.size(), 3u);  // s_book (triggered), s_buy, c_book

  LoggedWorld w(nullptr);
  ASSERT_TRUE(w.sched->Recover(log).ok());
  EXPECT_EQ(TraceToString(w.sched->history(), *w.ctx.alphabet()),
            pre_crash_history);
  // The workflow continues exactly where it stopped: c_buy's guard
  // (□c_book) is already discharged by the replayed announcements.
  EXPECT_EQ(w.AttemptAndRun("c_buy"), Decision::kAccepted);
  EXPECT_TRUE(w.sched->HistoryConsistent());
}

TEST(RecoveryTest, RecoveredGuardsMatchStraightThroughRun) {
  EventLog log;
  {
    LoggedWorld w(&log);
    w.AttemptAndRun("s_buy");
    w.AttemptAndRun("c_book");
  }
  LoggedWorld recovered(nullptr);
  ASSERT_TRUE(recovered.sched->Recover(log).ok());

  LoggedWorld straight(nullptr);
  straight.AttemptAndRun("s_buy");
  straight.AttemptAndRun("c_book");

  // Promises and trigger obligations are deliberately soft state: they are
  // not logged and are re-derived on demand after recovery (a parked
  // attempt re-emits its promise requests). Guards of *undecided* symbols
  // — the ones that can still gate occurrences — must match exactly.
  for (const char* name : {"c_buy", "~c_buy", "s_cancel", "~s_cancel"}) {
    auto lit_r = recovered.ctx.alphabet()->ParseLiteral(name);
    auto lit_s = straight.ctx.alphabet()->ParseLiteral(name);
    ASSERT_TRUE(lit_r.ok() && lit_s.ok());
    EXPECT_EQ(GuardToString(recovered.sched->CurrentGuardOf(lit_r.value()),
                            *recovered.ctx.alphabet()),
              GuardToString(straight.sched->CurrentGuardOf(lit_s.value()),
                            *straight.ctx.alphabet()))
        << name;
  }
}

TEST(RecoveryTest, RecoverAfterAttemptsFails) {
  EventLog log;
  {
    LoggedWorld w(&log);
    w.AttemptAndRun("s_buy");
  }
  LoggedWorld w(nullptr);
  w.AttemptAndRun("~s_buy");
  EXPECT_EQ(w.sched->Recover(log).code(), StatusCode::kFailedPrecondition);
}

TEST(RecoveryTest, LogFromForeignWorkflowRejected) {
  EventLog log;
  log.Append({OccurrenceStamp{1, 0}, EventLiteral::Positive(4242)});
  LoggedWorld w(nullptr);
  EXPECT_EQ(w.sched->Recover(log).code(), StatusCode::kInvalidArgument);
}

TEST(RecoveryTest, SerializeThenRecoverThroughText) {
  // Full "disk" cycle: run, serialize, reparse against a fresh context,
  // recover, finish.
  std::string on_disk;
  {
    EventLog log;
    LoggedWorld w(&log);
    w.AttemptAndRun("s_buy");
    w.AttemptAndRun("c_book");
    on_disk = log.Serialize(*w.ctx.alphabet());
  }
  LoggedWorld w(nullptr);
  auto parsed = EventLog::Deserialize(*w.ctx.alphabet(), on_disk);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_TRUE(w.sched->Recover(parsed.value()).ok());
  EXPECT_EQ(w.AttemptAndRun("c_buy"), Decision::kAccepted);
  EXPECT_TRUE(w.sched->HistoryConsistent());
}

// ------------------------------------------------------------- Closure

TEST(ClosureTest, CloseDrivesMaximality) {
  LoggedWorld w(nullptr);
  w.AttemptAndRun("s_buy");
  w.AttemptAndRun("c_book");
  w.AttemptAndRun("c_buy");
  EXPECT_FALSE(w.sched->Undecided().empty());  // s_cancel undecided
  w.sched->Close();
  w.sim.Run();
  EXPECT_TRUE(w.sched->Undecided().empty());
  // The maximal history satisfies every dependency outright.
  EXPECT_TRUE(w.sched->HistoryConsistent(/*require_satisfaction=*/true));
}

TEST(ClosureTest, CloseOnCompensationPath) {
  LoggedWorld w(nullptr);
  w.AttemptAndRun("s_buy");
  w.AttemptAndRun("c_book");
  w.AttemptAndRun("~c_buy");  // cancel triggered automatically
  w.sched->Close();
  w.sim.Run();
  EXPECT_TRUE(w.sched->Undecided().empty());
  EXPECT_TRUE(w.sched->HistoryConsistent(true));
}

TEST(RecoveryTest, RandomCrashPointsSweep) {
  // Crash after every prefix of the happy-path + closure run; the
  // recovered scheduler must always be able to finish to a consistent
  // maximal trace.
  const std::vector<std::string> script = {"s_buy", "c_book", "c_buy"};
  for (size_t crash_after = 0; crash_after <= script.size(); ++crash_after) {
    EventLog log;
    {
      LoggedWorld w(&log);
      for (size_t i = 0; i < crash_after; ++i) w.AttemptAndRun(script[i]);
    }
    LoggedWorld w(nullptr);
    ASSERT_TRUE(w.sched->Recover(log).ok()) << "crash point " << crash_after;
    for (size_t i = crash_after; i < script.size(); ++i) {
      EXPECT_EQ(w.AttemptAndRun(script[i]), Decision::kAccepted)
          << "crash point " << crash_after << " step " << i;
    }
    w.sched->Close();
    w.sim.Run();
    EXPECT_TRUE(w.sched->Undecided().empty()) << "crash " << crash_after;
    EXPECT_TRUE(w.sched->HistoryConsistent(true)) << "crash " << crash_after;
  }
}

TEST(ClosureTest, CloseFromScratchIsConsistent) {
  // Closing an untouched workflow decides every symbol negatively (no
  // task ever ran); all three dependencies hold vacuously.
  LoggedWorld w(nullptr);
  w.sched->Close();
  w.sim.Run();
  // One wave suffices: a complement that parks while another complement's
  // announcement is in flight resolves when that announcement lands.
  EXPECT_TRUE(w.sched->Undecided().empty());
  EXPECT_TRUE(w.sched->HistoryConsistent(true));
}

}  // namespace
}  // namespace cdes
