#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "engine/engine.h"
#include "runtime/checkpoint.h"
#include "runtime/event_log.h"
#include "runtime/reliable_transport.h"
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

// ------------------------------------------------------ v3 checkpoint logs

EventLog::CheckpointSection SectionFor(const EventLog& log,
                                       std::string payload) {
  EventLog::CheckpointSection section;
  section.covered = log.total_records();
  section.last_stamp = log.last_stamp();
  section.payload = std::move(payload);
  return section;
}

TEST(EventLogV3Test, CheckpointRoundTrips) {
  Alphabet alphabet;
  alphabet.Intern("e");
  alphabet.Intern("f");
  EventLog log;
  log.set_instance(9);
  log.Append({OccurrenceStamp{100, 0}, EventLiteral::Positive(0)});
  log.Append({OccurrenceStamp{250, 1}, EventLiteral::Complement(1)});
  log.InstallCheckpoint(SectionFor(log, "meta 2 250\nhist e ~f"));
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.total_records(), 2u);
  log.Append({OccurrenceStamp{300, 2}, EventLiteral::Positive(1)});

  for (bool sealed : {true, false}) {
    std::string text =
        sealed ? log.Serialize(alphabet) : log.SerializeOpen(alphabet);
    auto parsed = sealed ? EventLog::Deserialize(alphabet, text)
                         : EventLog::LoadTolerant(alphabet, text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(parsed.value().instance(), 9u);
    ASSERT_NE(parsed.value().checkpoint(), nullptr);
    EXPECT_EQ(*parsed.value().checkpoint(), *log.checkpoint());
    EXPECT_EQ(parsed.value().records(), log.records());
    EXPECT_EQ(parsed.value().total_records(), 3u);
  }
}

TEST(EventLogV3Test, PreCompactionFileParsesLikeCompacted) {
  // State B (crash between checkpoint append and truncation): covered
  // records still physically precede the checkpoint section. The parse
  // must land on exactly the state the compacted file (state C) gives.
  Alphabet alphabet;
  alphabet.Intern("e");
  EventLog::Record r1{OccurrenceStamp{10, 0}, EventLiteral::Positive(0)};
  EventLog::Record r2{OccurrenceStamp{20, 1}, EventLiteral::Complement(0)};
  EventLog::Record r3{OccurrenceStamp{30, 2}, EventLiteral::Positive(0)};
  EventLog::CheckpointSection section;
  section.covered = 2;
  section.last_stamp = r2.stamp;
  section.payload = "meta 2 20\nhist e ~e";

  std::string state_b = EventLog::HeaderLine(7) +
                        EventLog::RecordLine(r1, alphabet) +
                        EventLog::RecordLine(r2, alphabet) +
                        EventLog::SectionText(section) +
                        EventLog::RecordLine(r3, alphabet);
  std::string state_c = EventLog::HeaderLine(7) +
                        EventLog::SectionText(section) +
                        EventLog::RecordLine(r3, alphabet);

  bool dropped = true;
  auto b = EventLog::LoadTolerant(alphabet, state_b, &dropped);
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_FALSE(dropped);
  auto c = EventLog::LoadTolerant(alphabet, state_c);
  ASSERT_TRUE(c.ok()) << c.status();
  ASSERT_NE(b.value().checkpoint(), nullptr);
  EXPECT_EQ(*b.value().checkpoint(), *c.value().checkpoint());
  EXPECT_EQ(b.value().records(), c.value().records());
  ASSERT_EQ(b.value().size(), 1u);
  EXPECT_EQ(b.value().records()[0], r3);
  EXPECT_EQ(b.value().total_records(), 3u);
}

TEST(EventLogV3Test, TornCheckpointAtEofFallsBackToRecords) {
  // Crash mid-way through appending the checkpoint section (phase 1 torn):
  // the covered records are still intact above it and carry the state.
  Alphabet alphabet;
  alphabet.Intern("e");
  EventLog::Record r1{OccurrenceStamp{10, 0}, EventLiteral::Positive(0)};
  EventLog::Record r2{OccurrenceStamp{20, 1}, EventLiteral::Complement(0)};
  EventLog::CheckpointSection section;
  section.covered = 2;
  section.last_stamp = r2.stamp;
  section.payload = "meta 2 20\nhist e ~e";
  std::string full = EventLog::HeaderLine(3) +
                     EventLog::RecordLine(r1, alphabet) +
                     EventLog::RecordLine(r2, alphabet) +
                     EventLog::SectionText(section);
  size_t ckpt_at = full.find("ckpt ");
  for (size_t cut = ckpt_at; cut < full.size(); ++cut) {
    auto torn = EventLog::LoadTolerant(alphabet, full.substr(0, cut));
    ASSERT_TRUE(torn.ok()) << "cut " << cut << ": " << torn.status();
    if (torn.value().checkpoint() == nullptr) {
      EXPECT_EQ(torn.value().records(),
                (std::vector<EventLog::Record>{r1, r2}))
          << "cut " << cut;
    } else {
      EXPECT_EQ(*torn.value().checkpoint(), section) << "cut " << cut;
    }
    EXPECT_EQ(torn.value().total_records(), 2u) << "cut " << cut;
  }
}

TEST(EventLogV3Test, ByteTruncationSweepNeverFabricatesState) {
  // Chop a state-B file (records + checkpoint + suffix, no trailer — the
  // live WAL shape) at every byte. Tolerant load must either fail cleanly
  // or produce a prefix of the true history — never wrong records.
  Alphabet alphabet;
  alphabet.Intern("e");
  alphabet.Intern("f");
  std::vector<EventLog::Record> all = {
      {OccurrenceStamp{10, 0}, EventLiteral::Positive(0)},
      {OccurrenceStamp{20, 1}, EventLiteral::Complement(1)},
      {OccurrenceStamp{30, 2}, EventLiteral::Positive(1)},
      {OccurrenceStamp{40, 3}, EventLiteral::Complement(0)},
      {OccurrenceStamp{55, 4}, EventLiteral::Positive(0)},
  };
  EventLog::CheckpointSection section;
  section.covered = 3;
  section.last_stamp = all[2].stamp;
  section.payload = "meta 3 30\nhist e ~f f";

  std::string text = EventLog::HeaderLine(11);
  for (size_t i = 0; i < 3; ++i)
    text += EventLog::RecordLine(all[i], alphabet);
  text += EventLog::SectionText(section);
  for (size_t i = 3; i < all.size(); ++i)
    text += EventLog::RecordLine(all[i], alphabet);

  size_t ok_count = 0;
  for (size_t cut = 0; cut <= text.size(); ++cut) {
    auto got = EventLog::LoadTolerant(alphabet, text.substr(0, cut));
    if (!got.ok()) continue;  // clean failure (e.g. torn header) is fine
    ++ok_count;
    const EventLog& log = got.value();
    // Known prefix length: checkpoint coverage plus explicit records.
    ASSERT_LE(log.total_records(), all.size()) << "cut " << cut;
    size_t base = 0;
    if (log.checkpoint() != nullptr) {
      EXPECT_EQ(*log.checkpoint(), section) << "cut " << cut;
      base = section.covered;
    }
    for (size_t i = 0; i < log.records().size(); ++i) {
      EXPECT_EQ(log.records()[i], all[base + i]) << "cut " << cut;
    }
  }
  EXPECT_GT(ok_count, 0u);
  // The full file parses to the checkpointed form.
  auto full = EventLog::LoadTolerant(alphabet, text);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value().total_records(), all.size());
  ASSERT_NE(full.value().checkpoint(), nullptr);
}

TEST(EventLogV3Test, TornHeaderRejected) {
  // A header cut mid-write (no newline) could carry a truncated instance
  // id; both the parser and the router peek must refuse it.
  EXPECT_FALSE(EventLog::LoadTolerant(Alphabet(), "cdeslog v3 41").ok());
  EXPECT_FALSE(EventLog::PeekInstance("cdeslog v3 41").ok());
  auto ok = EventLog::PeekInstance("cdeslog v3 418\n");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 418u);
}

TEST(EventLogV3Test, InstanceIdOverflowRejected) {
  // Digits past UINT64_MAX used to wrap: "…617" named instance 1 and
  // routed the log to another instance's shard.
  Alphabet alphabet;
  alphabet.Intern("e");
  EventLog log;
  log.Append({OccurrenceStamp{5, 0}, EventLiteral::Positive(0)});
  log.set_instance(UINT64_MAX);
  std::string max_text = log.Serialize(alphabet);
  auto peeked = EventLog::PeekInstance(max_text);
  ASSERT_TRUE(peeked.ok()) << peeked.status();
  EXPECT_EQ(peeked.value(), UINT64_MAX);
  auto sealed = EventLog::Deserialize(alphabet, max_text);
  ASSERT_TRUE(sealed.ok()) << sealed.status();
  EXPECT_EQ(sealed.value().instance(), UINT64_MAX);
  ASSERT_TRUE(EventLog::LoadTolerant(alphabet, max_text).ok());

  for (const char* id : {"18446744073709551616", "18446744073709551617"}) {
    std::string header = StrCat("cdeslog v3 ", id, "\n");
    EXPECT_FALSE(EventLog::PeekInstance(header).ok()) << id;
    EXPECT_FALSE(EventLog::LoadTolerant(alphabet, header).ok()) << id;
    // The same overflow in an otherwise intact sealed log is refused at
    // the header, before the trailer checksum is consulted.
    std::string text = max_text;
    text.replace(text.find("18446744073709551615"), 20, id);
    for (bool sealed_load : {true, false}) {
      auto got = sealed_load ? EventLog::Deserialize(alphabet, text)
                             : EventLog::LoadTolerant(alphabet, text);
      ASSERT_FALSE(got.ok()) << id;
      EXPECT_EQ(got.status().message(), "not a cdes event log") << id;
    }
  }
}

TEST(EventLogV3Test, TornTrailerDropsNothing) {
  // A trailer line torn mid-write ("checksum 1a") proves every record
  // line above it was already flushed: tolerant load keeps them all and
  // must NOT report a dropped record.
  Alphabet alphabet;
  alphabet.Intern("e");
  EventLog log;
  log.Append({OccurrenceStamp{5, 0}, EventLiteral::Positive(0)});
  log.Append({OccurrenceStamp{6, 1}, EventLiteral::Complement(0)});
  std::string text = log.Serialize(alphabet);
  size_t trailer = text.rfind("checksum ");
  for (size_t keep : {size_t{9}, size_t{10}, size_t{11}}) {
    std::string torn = text.substr(0, trailer + keep);
    EXPECT_FALSE(EventLog::Deserialize(alphabet, torn).ok());
    bool dropped = true;
    auto got = EventLog::LoadTolerant(alphabet, torn, &dropped);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_FALSE(dropped) << "keep " << keep;
    EXPECT_EQ(got.value().records(), log.records());
  }
}

TEST(EventLogV3Test, DecreasingStampsRejectedOnParse) {
  // Untrusted serialized input with regressing stamps is a Status, not a
  // crash: both loaders refuse it.
  Alphabet alphabet;
  alphabet.Intern("e");
  std::string text =
      EventLog::HeaderLine(1) +
      EventLog::RecordLine({OccurrenceStamp{50, 1}, EventLiteral::Positive(0)},
                           alphabet) +
      EventLog::RecordLine({OccurrenceStamp{40, 0}, EventLiteral::Positive(0)},
                           alphabet);
  auto got = EventLog::LoadTolerant(alphabet, text);
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("decrease"), std::string::npos)
      << got.status();
}

TEST(EventLogV3DeathTest, AppendChecksStampMonotonicity) {
  EventLog log;
  log.Append({OccurrenceStamp{50, 1}, EventLiteral::Positive(0)});
  EXPECT_DEATH(
      log.Append({OccurrenceStamp{40, 0}, EventLiteral::Positive(0)}), "");
}

TEST(EventLogV3DeathTest, CheckpointMustCoverWholeLog) {
  EventLog log;
  log.Append({OccurrenceStamp{10, 0}, EventLiteral::Positive(0)});
  EventLog::CheckpointSection section;
  section.covered = 5;  // log only has 1 record
  section.last_stamp = OccurrenceStamp{10, 0};
  EXPECT_DEATH(log.InstallCheckpoint(section), "");
}

// ------------------------------------------- event-log codec: golden bytes

// Byte-exact images of a log with a checkpoint section and complemented
// literals. The line builders feed the WAL too, so any rendering change
// shows here first.
TEST(EventLogCodecTest, GoldenBytes) {
  Alphabet alphabet;
  alphabet.Intern("s_book");
  alphabet.Intern("c_buy");
  alphabet.Intern("x");
  EventLog log;
  log.set_instance(42);
  log.Append({OccurrenceStamp{10, 0}, EventLiteral::Positive(0)});
  log.Append({OccurrenceStamp{25, 1}, EventLiteral::Complement(1)});
  EventLog::CheckpointSection section;
  section.covered = 2;
  section.last_stamp = OccurrenceStamp{25, 1};
  section.payload = "meta 2 25 3 99\nhist 0 ~1";
  log.InstallCheckpoint(section);
  log.Append({OccurrenceStamp{40, 2}, EventLiteral::Complement(2)});
  log.Append({OccurrenceStamp{40, 3}, EventLiteral::Positive(1)});

  const std::string open =
      "cdeslog v3 42\n"
      "ckpt 2 25 1 2 13435425115147936297\n"
      "meta 2 25 3 99\n"
      "hist 0 ~1\n"
      "2 40 ~x 9263860179409731783\n"
      "3 40 c_buy 15147511235391290272\n";
  EXPECT_EQ(log.SerializeOpen(alphabet), open);
  EXPECT_EQ(log.Serialize(alphabet),
            open + "checksum 15167138183118260439\n");
  EXPECT_EQ(EventLog::HeaderLine(42), "cdeslog v3 42\n");
  EXPECT_EQ(EventLog::HeaderLine(UINT64_MAX),
            "cdeslog v3 18446744073709551615\n");
  EXPECT_EQ(EventLog::RecordLine(log.records()[0], alphabet),
            "2 40 ~x 9263860179409731783\n");
  EXPECT_EQ(EventLog::RecordLine(log.records()[1], alphabet),
            "3 40 c_buy 15147511235391290272\n");
  EXPECT_EQ(EventLog::SectionText(section),
            "ckpt 2 25 1 2 13435425115147936297\n"
            "meta 2 25 3 99\n"
            "hist 0 ~1\n");
  EXPECT_EQ(EventLog::SectionText(EventLog::CheckpointSection{}),
            "ckpt 0 0 0 0 3751417716364412183\n");
  EventLog bare;
  bare.set_instance(7);
  EXPECT_EQ(bare.Serialize(alphabet),
            "cdeslog v3 7\nchecksum 854127834627815032\n");

  auto parsed = EventLog::Deserialize(alphabet, log.Serialize(alphabet));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().instance(), 42u);
  ASSERT_NE(parsed.value().checkpoint(), nullptr);
  EXPECT_EQ(*parsed.value().checkpoint(), section);
  EXPECT_EQ(parsed.value().records(), log.records());
}

// ----------------------------------- event-log codec: mutation reference

// The split-into-strings parser the string_view codec replaced, kept as
// the reference the codec must agree with on every input: accept or reject
// (with the same message), instance, checkpoint, records, and
// dropped_torn_tail.
namespace reference {

struct Parsed {
  uint64_t instance = 0;
  std::optional<EventLog::CheckpointSection> checkpoint;
  std::vector<EventLog::Record> records;
};

constexpr char kHeaderV2[] = "cdeslog v2";
constexpr char kHeaderV3[] = "cdeslog v3";
constexpr char kTrailerPrefix[] = "checksum ";
constexpr char kSectionPrefix[] = "ckpt ";

uint64_t Fnv1a(std::string_view text) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::string RecordPayload(uint64_t seq, uint64_t time,
                          const std::string& literal) {
  return StrCat(seq, " ", time, " ", literal);
}

std::string SectionChecksumInput(const EventLog::CheckpointSection& section,
                                 uint64_t nlines) {
  return StrCat(section.covered, " ", section.last_stamp.time, " ",
                section.last_stamp.seq, " ", nlines, "\n", section.payload);
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

std::vector<std::string> StrSplit(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

Result<Parsed> Parse(const Alphabet& alphabet, std::string_view text,
                     bool tolerant, bool* dropped_torn_tail) {
  if (dropped_torn_tail != nullptr) *dropped_torn_tail = false;
  std::vector<std::string> lines = StrSplit(text, '\n');
  bool ends_with_newline = !lines.empty() && lines.back().empty();
  if (ends_with_newline) lines.pop_back();
  if (lines.empty()) return Status::InvalidArgument("not a cdes event log");
  if (lines.size() == 1 && !ends_with_newline) {
    return Status::InvalidArgument("event log header torn (no newline)");
  }

  std::vector<std::string> header = StrSplit(lines.front(), ' ');
  uint64_t instance = 0;
  if (header.size() != 3 ||
      (StrCat(header[0], " ", header[1]) != kHeaderV2 &&
       StrCat(header[0], " ", header[1]) != kHeaderV3) ||
      !ParseU64(header[2], &instance)) {
    return Status::InvalidArgument("not a cdes event log");
  }

  bool has_trailer = false;
  bool torn_trailer = false;
  if (lines.size() >= 2 && lines.back().rfind(kTrailerPrefix, 0) == 0) {
    std::string body;
    for (size_t i = 0; i + 1 < lines.size(); ++i) body += lines[i] + "\n";
    if (lines.back() == StrCat(kTrailerPrefix, Fnv1a(body))) {
      has_trailer = true;
    } else if (!tolerant) {
      return Status::InvalidArgument("event log checksum mismatch");
    } else {
      torn_trailer = true;
    }
    lines.pop_back();
  } else if (!tolerant) {
    return Status::InvalidArgument("event log checksum trailer missing");
  }
  const bool tail_open = tolerant && !has_trailer && !torn_trailer;

  Parsed log;
  log.instance = instance;
  OccurrenceStamp prev_stamp;
  bool have_prev = false;
  for (size_t i = 1; i < lines.size(); ++i) {
    bool final_line = i + 1 == lines.size();
    if (lines[i].rfind(kSectionPrefix, 0) == 0) {
      std::vector<std::string> fields = StrSplit(lines[i], ' ');
      EventLog::CheckpointSection section;
      uint64_t nlines = 0, crc = 0;
      bool well_formed = fields.size() == 6 &&
                         ParseU64(fields[1], &section.covered) &&
                         ParseU64(fields[2], &section.last_stamp.time) &&
                         ParseU64(fields[3], &section.last_stamp.seq) &&
                         ParseU64(fields[4], &nlines) &&
                         ParseU64(fields[5], &crc);
      if (!well_formed) {
        if (tail_open && final_line) break;
        return Status::InvalidArgument(
            StrCat("malformed checkpoint section at line ", i + 1));
      }
      size_t payload_end = i + 1 + nlines;
      bool extends_to_eof = payload_end >= lines.size();
      if (payload_end > lines.size()) {
        if (tail_open) break;
        return Status::InvalidArgument(
            StrCat("truncated checkpoint section at line ", i + 1));
      }
      std::string payload;
      for (size_t j = i + 1; j < payload_end; ++j) {
        if (j > i + 1) payload += "\n";
        payload += lines[j];
      }
      section.payload = std::move(payload);
      if (crc != Fnv1a(SectionChecksumInput(section, nlines))) {
        if (tail_open && extends_to_eof) break;
        return Status::InvalidArgument(
            StrCat("checkpoint checksum mismatch at line ", i + 1));
      }
      uint64_t held =
          (log.checkpoint ? log.checkpoint->covered : 0) + log.records.size();
      bool opens_file = !log.checkpoint && log.records.empty();
      if (!opens_file && section.covered != held) {
        return Status::InvalidArgument(
            StrCat("checkpoint at line ", i + 1, " covers ", section.covered,
                   " records but the log holds ", held));
      }
      if (have_prev && section.covered > 0 &&
          section.last_stamp < prev_stamp) {
        return Status::InvalidArgument(
            StrCat("checkpoint stamp decreases at line ", i + 1));
      }
      if (section.covered > 0) {
        prev_stamp = section.last_stamp;
        have_prev = true;
      }
      log.checkpoint = std::move(section);
      log.records.clear();
      i = payload_end - 1;
      continue;
    }
    std::vector<std::string> fields = StrSplit(lines[i], ' ');
    uint64_t seq = 0, time = 0, crc = 0;
    bool well_formed = fields.size() == 4 && ParseU64(fields[0], &seq) &&
                       ParseU64(fields[1], &time) && ParseU64(fields[3], &crc);
    if (well_formed) {
      well_formed = crc == Fnv1a(RecordPayload(seq, time, fields[2]));
    }
    if (!well_formed) {
      if (tail_open && final_line) {
        if (dropped_torn_tail != nullptr && !lines[i].empty() &&
            IsDigit(lines[i][0])) {
          *dropped_torn_tail = true;
        }
        break;
      }
      return Status::InvalidArgument(
          StrCat("malformed log record at line ", i + 1));
    }
    EventLog::Record record;
    record.stamp.seq = seq;
    record.stamp.time = time;
    if (have_prev && record.stamp < prev_stamp) {
      return Status::InvalidArgument(
          StrCat("log stamps decrease at line ", i + 1));
    }
    prev_stamp = record.stamp;
    have_prev = true;
    auto literal = alphabet.ParseLiteral(fields[2]);
    if (!literal.ok()) return literal.status();
    record.literal = literal.value();
    log.records.push_back(record);
  }
  return log;
}

}  // namespace reference

// A record's checksum covers its canonically re-rendered `seq time
// literal`, not the bytes as written: `007` verifies as `7` does, and a
// checksum over the padded bytes does not verify.
TEST(EventLogCodecTest, RecordChecksumCoversCanonicalStamp) {
  Alphabet alphabet;
  alphabet.Intern("x");
  std::string canonical = EventLog::RecordLine(
      {OccurrenceStamp{40, 7}, EventLiteral::Complement(0)}, alphabet);
  ASSERT_EQ(canonical.compare(0, 8, "7 40 ~x "), 0) << canonical;
  auto sealed = [](std::string body) {
    return StrCat(body, "checksum ", reference::Fnv1a(body), "\n");
  };
  std::string header = EventLog::HeaderLine(1);
  auto padded =
      EventLog::Deserialize(alphabet, sealed(header + "00" + canonical));
  ASSERT_TRUE(padded.ok()) << padded.status();
  ASSERT_EQ(padded.value().size(), 1u);
  EXPECT_EQ(padded.value().records()[0].stamp, (OccurrenceStamp{40, 7}));
  auto raw = EventLog::Deserialize(
      alphabet, sealed(StrCat(header, "007 40 ~x ",
                              reference::Fnv1a("007 40 ~x"), "\n")));
  ASSERT_FALSE(raw.ok());
  EXPECT_EQ(raw.status().message(), "malformed log record at line 2");
}

// A checkpoint opening the file may claim any coverage (compaction dropped
// the prefix it covers), but not one that the records after it carry past
// 2^64 - 1: total_records() would wrap to 0 and last_stamp() would fail
// its CHECK. Both loaders refuse such a log; the section alone still loads.
TEST(EventLogV3Test, RecordCountOverflowRejected) {
  Alphabet alphabet;
  alphabet.Intern("e");
  EventLog::CheckpointSection section;
  section.covered = std::numeric_limits<uint64_t>::max();
  section.last_stamp = OccurrenceStamp{10, 0};
  section.payload = "meta";
  const std::string opening =
      EventLog::HeaderLine(4) + EventLog::SectionText(section);
  const std::string suffix = EventLog::RecordLine(
      {OccurrenceStamp{20, 1}, EventLiteral::Positive(0)}, alphabet);
  auto sealed = [](const std::string& body) {
    return StrCat(body, "checksum ", reference::Fnv1a(body), "\n");
  };

  auto alone = EventLog::Deserialize(alphabet, sealed(opening));
  ASSERT_TRUE(alone.ok()) << alone.status();
  EXPECT_EQ(alone.value().total_records(), section.covered);
  EXPECT_EQ(alone.value().last_stamp(), section.last_stamp);

  auto expect_overflow = [](const Result<EventLog>& got) {
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(got.status().message(),
              "log record at line 4 overflows the record count of the "
              "checkpoint above it");
  };
  const std::string sealed_log = sealed(opening + suffix);
  expect_overflow(EventLog::Deserialize(alphabet, sealed_log));
  expect_overflow(EventLog::LoadTolerant(alphabet, sealed_log));
  expect_overflow(EventLog::LoadTolerant(alphabet, opening + suffix));
}

/// Where the codec and the reference first disagree on `text` (strict and
/// tolerant), or "" when they agree. Tallies the verdicts in `accepted`
/// and `rejected` ([0] strict, [1] tolerant).
std::string CodecDisagreement(const Alphabet& alphabet,
                              const std::string& text, size_t accepted[2],
                              size_t rejected[2]) {
  for (bool tolerant : {false, true}) {
    bool dropped = false, ref_dropped = false;
    Result<EventLog> got =
        tolerant ? EventLog::LoadTolerant(alphabet, text, &dropped)
                 : EventLog::Deserialize(alphabet, text);
    Result<reference::Parsed> want =
        reference::Parse(alphabet, text, tolerant, &ref_dropped);
    std::string mode = tolerant ? "tolerant: " : "strict: ";
    if (got.ok() != want.ok()) {
      return mode + "accept/reject differs: codec " +
             (got.ok() ? "OK" : got.status().ToString()) + ", reference " +
             (want.ok() ? "OK" : want.status().ToString());
    }
    if (!got.ok()) {
      ++rejected[tolerant];
      if (got.status() != want.status()) {
        return mode + "codec " + got.status().ToString() + ", reference " +
               want.status().ToString();
      }
      continue;
    }
    ++accepted[tolerant];
    const EventLog& log = got.value();
    const reference::Parsed& ref = want.value();
    if (log.instance() != ref.instance) return mode + "instance differs";
    if ((log.checkpoint() != nullptr) != ref.checkpoint.has_value() ||
        (ref.checkpoint && !(*log.checkpoint() == *ref.checkpoint))) {
      return mode + "checkpoint differs";
    }
    if (log.records() != ref.records) return mode + "records differ";
    if (tolerant && dropped != ref_dropped) {
      return mode + "dropped_torn_tail differs";
    }
  }
  return "";
}

/// The logs the mutations start from: sealed and open images, with and
/// without checkpoint sections (one with an empty payload), compacted and
/// pre-compaction shapes, and a v2 header.
std::vector<std::string> CodecCorpus(const Alphabet& alphabet) {
  std::vector<EventLog::Record> all = {
      {OccurrenceStamp{10, 0}, EventLiteral::Positive(0)},
      {OccurrenceStamp{25, 1}, EventLiteral::Complement(1)},
      {OccurrenceStamp{25, 2}, EventLiteral::Positive(2)},
      {OccurrenceStamp{40, 3}, EventLiteral::Complement(0)},
      {OccurrenceStamp{107, 4}, EventLiteral::Positive(1)},
  };
  std::vector<std::string> corpus;
  auto add_sealed_and_open = [&](const EventLog& log) {
    corpus.push_back(log.Serialize(alphabet));
    corpus.push_back(log.SerializeOpen(alphabet));
  };

  EventLog plain;
  plain.set_instance(3);
  for (const EventLog::Record& r : all) plain.Append(r);
  add_sealed_and_open(plain);

  EventLog::CheckpointSection section;
  section.covered = 3;
  section.last_stamp = all[2].stamp;
  section.payload = "meta 3 25 3 77\nhist 0 ~1 2\nactor 0";
  EventLog compacted;
  compacted.set_instance(12);
  for (size_t i = 0; i < 3; ++i) compacted.Append(all[i]);
  compacted.InstallCheckpoint(section);
  for (size_t i = 3; i < all.size(); ++i) compacted.Append(all[i]);
  add_sealed_and_open(compacted);

  // Phase 1 of a compaction: the covered records still precede the
  // section, with and without a trailer behind the suffix.
  std::string pre = EventLog::HeaderLine(12);
  for (size_t i = 0; i < 3; ++i) pre += EventLog::RecordLine(all[i], alphabet);
  pre += EventLog::SectionText(section);
  for (size_t i = 3; i < all.size(); ++i) {
    pre += EventLog::RecordLine(all[i], alphabet);
  }
  corpus.push_back(pre);
  corpus.push_back(StrCat(pre, "checksum ", reference::Fnv1a(pre), "\n"));

  EventLog::CheckpointSection empty_payload;
  empty_payload.covered = 1;
  empty_payload.last_stamp = all[0].stamp;
  EventLog bare_section;
  bare_section.set_instance(5);
  bare_section.Append(all[0]);
  bare_section.InstallCheckpoint(empty_payload);
  bare_section.Append(all[1]);
  add_sealed_and_open(bare_section);

  std::string v2 = plain.SerializeOpen(alphabet);
  v2.replace(0, 10, "cdeslog v2");
  corpus.push_back(v2);
  corpus.push_back(StrCat(v2, "checksum ", reference::Fnv1a(v2), "\n"));

  EventLog empty;
  add_sealed_and_open(empty);
  return corpus;
}

/// Offsets in `text` where a line begins.
std::vector<size_t> LineStarts(const std::string& text) {
  std::vector<size_t> starts = {0};
  for (size_t i = 0; i + 1 < text.size(); ++i) {
    if (text[i] == '\n') starts.push_back(i + 1);
  }
  return starts;
}

/// One random mutation of `text`: a byte flip, an inserted or deleted
/// line, a leading zero in a numeric field, a doubled space, `\r\n` line
/// ends, two lines joined by a space or a trailing space, or a
/// truncation.
std::string Mutate(std::string text, Rng* rng) {
  if (text.empty()) return text;
  std::vector<size_t> starts = LineStarts(text);
  auto line_end = [&text](size_t start) {
    size_t nl = text.find('\n', start);
    return nl == std::string::npos ? text.size() : nl + 1;
  };
  switch (rng->Uniform(8)) {
    case 0: {  // flip one bit, or write a byte the grammar cares about
      size_t at = rng->Uniform(text.size());
      static constexpr char kBytes[] = " \n0123456789~ckptsum";
      if (rng->Bernoulli(0.5)) {
        text[at] = static_cast<char>(text[at] ^ (1 << rng->Uniform(8)));
      } else {
        text[at] = kBytes[rng->Uniform(sizeof(kBytes) - 1)];
      }
      break;
    }
    case 1: {  // insert a copy of some line, or a short stray one
      size_t from = starts[rng->Uniform(starts.size())];
      std::string line = text.substr(from, line_end(from) - from);
      if (line.empty() || line.back() != '\n') line += '\n';
      if (rng->Bernoulli(0.3)) line = rng->Bernoulli(0.5) ? "\n" : "ckpt 1\n";
      text.insert(starts[rng->Uniform(starts.size())], line);
      break;
    }
    case 2: {  // delete a line
      size_t from = starts[rng->Uniform(starts.size())];
      text.erase(from, line_end(from) - from);
      break;
    }
    case 3: {  // a leading zero in front of a digit run
      std::vector<size_t> runs;
      for (size_t i = 0; i < text.size(); ++i) {
        bool starts_run = reference::IsDigit(text[i]) &&
                          (i == 0 || !reference::IsDigit(text[i - 1]));
        if (starts_run) runs.push_back(i);
      }
      if (!runs.empty()) text.insert(runs[rng->Uniform(runs.size())], "0");
      break;
    }
    case 4: {  // a doubled space
      std::vector<size_t> spaces;
      for (size_t i = 0; i < text.size(); ++i) {
        if (text[i] == ' ') spaces.push_back(i);
      }
      if (!spaces.empty()) {
        text.insert(spaces[rng->Uniform(spaces.size())], " ");
      }
      break;
    }
    case 5: {  // \r\n line ends: one line's, or every line's
      bool every = rng->Bernoulli(0.5);
      size_t pick = rng->Uniform(starts.size());
      std::string out;
      size_t line = 0;
      for (char c : text) {
        if (c == '\n' && (every || line++ == pick)) out += '\r';
        out += c;
      }
      text = std::move(out);
      break;
    }
    case 6: {  // a space in place of a line end, or in front of one
      std::vector<size_t> ends;
      for (size_t i = 0; i < text.size(); ++i) {
        if (text[i] == '\n') ends.push_back(i);
      }
      if (ends.empty()) break;
      size_t at = ends[rng->Uniform(ends.size())];
      if (rng->Bernoulli(0.5)) {
        text[at] = ' ';
      } else {
        text.insert(at, " ");
      }
      break;
    }
    default:  // a truncation
      text.resize(rng->Uniform(text.size() + 1));
      break;
  }
  return text;
}

// The string_view codec against the StrSplit reference on thousands of
// deterministic mutants of real logs: every truncation of every corpus
// log, and seeded single and double mutations (byte flips, inserted and
// deleted lines, leading zeros, doubled, joining and trailing spaces,
// \r\n line ends).
TEST(EventLogCodecTest, MutatedLogsParseLikeTheReference) {
  Alphabet alphabet;
  alphabet.Intern("s_book");
  alphabet.Intern("c_buy");
  alphabet.Intern("x");
  std::vector<std::string> corpus = CodecCorpus(alphabet);
  size_t accepted[2] = {0, 0}, rejected[2] = {0, 0};
  size_t cases = 0;
  for (size_t li = 0; li < corpus.size(); ++li) {
    const std::string& base = corpus[li];
    for (size_t cut = 0; cut <= base.size(); ++cut) {
      std::string text = base.substr(0, cut);
      std::string why = CodecDisagreement(alphabet, text, accepted, rejected);
      ASSERT_EQ(why, "") << "log " << li << " cut at " << cut << ":\n" << text;
      ++cases;
    }
  }
  Rng rng(20261019);
  for (size_t round = 0; round < 8000; ++round) {
    size_t li = rng.Uniform(corpus.size());
    std::string text = Mutate(corpus[li], &rng);
    if (rng.Bernoulli(0.3)) text = Mutate(std::move(text), &rng);
    // A valid trailer over the mutant puts its body before the strict
    // parser too.
    if (rng.Bernoulli(0.4)) {
      text = StrCat(text, "checksum ", reference::Fnv1a(text), "\n");
    }
    std::string why = CodecDisagreement(alphabet, text, accepted, rejected);
    ASSERT_EQ(why, "") << "round " << round << " from log " << li << ":\n"
                       << text;
    ++cases;
  }
  EXPECT_GT(cases, 9000u);
  // Both verdicts occur in both modes, so the agreement is not vacuous.
  for (int mode : {0, 1}) {
    EXPECT_GT(accepted[mode], 200u) << mode;
    EXPECT_GT(rejected[mode], 1000u) << mode;
  }
}

// --------------------------------------------------------- guard sexprs

struct SexprWorld {
  SexprWorld() {
    auto parsed = ParseWorkflow(&ctx, kTravelSpec);
    CDES_CHECK(parsed.ok());
    workflow = std::move(parsed).value();
  }
  EventLiteral Lit(const std::string& name) {
    auto lit = ctx.alphabet()->ParseLiteral(name);
    CDES_CHECK(lit.ok());
    return lit.value();
  }
  WorkflowContext ctx;
  ParsedWorkflow workflow;
};

TEST(SexprTest, GuardRoundTripIsPointerExact) {
  SexprWorld w;
  GuardArena* g = w.ctx.guards();
  ExprArena* x = w.ctx.exprs();
  const Expr* seq = x->Seq(x->Atom(w.Lit("c_buy")), x->Atom(w.Lit("c_book")));
  const Guard* cases[] = {
      g->True(),
      g->False(),
      g->Box(w.Lit("s_buy")),
      g->Neg(w.Lit("~c_buy")),
      g->Diamond(seq),
      g->And(g->Box(w.Lit("s_buy")), g->Diamond(seq)),
      g->Or(g->Neg(w.Lit("c_book")),
            g->And(g->Box(w.Lit("~s_cancel")), g->Diamond(x->Atom(w.Lit("c_buy"))))),
  };
  for (const Guard* guard : cases) {
    std::string sexpr = GuardToSexpr(guard, *w.ctx.alphabet());
    auto back = GuardFromSexpr(g, *w.ctx.alphabet(), sexpr);
    ASSERT_TRUE(back.ok()) << sexpr << ": " << back.status();
    // Hash-consing: re-parsing a canonical node re-interns the identical
    // pointer, which is what lets recovery compare baselines by address.
    EXPECT_EQ(back.value(), guard) << sexpr;
  }
}

TEST(SexprTest, ExprRoundTripIsPointerExact) {
  SexprWorld w;
  ExprArena* x = w.ctx.exprs();
  const Expr* cases[] = {
      x->Zero(),
      x->Top(),
      x->Atom(w.Lit("s_buy")),
      x->Seq(x->Atom(w.Lit("c_buy")), x->Atom(w.Lit("c_book"))),
      x->Or(x->Atom(w.Lit("~c_buy")),
            x->And(x->Atom(w.Lit("s_book")), x->Atom(w.Lit("s_buy")))),
  };
  for (const Expr* expr : cases) {
    std::string sexpr = ExprToSexpr(expr, *w.ctx.alphabet());
    auto back = ExprFromSexpr(x, *w.ctx.alphabet(), sexpr);
    ASSERT_TRUE(back.ok()) << sexpr << ": " << back.status();
    EXPECT_EQ(back.value(), expr) << sexpr;
  }
}

TEST(SexprTest, MalformedSexprsRejected) {
  SexprWorld w;
  for (const char* bad :
       {"", "(", ")", "(and (box s_buy)", "(box nope)", "(box)",
        "(frob s_buy)", "(and (box s_buy)))", "s_buy extra"}) {
    EXPECT_FALSE(
        GuardFromSexpr(w.ctx.guards(), *w.ctx.alphabet(), bad).ok())
        << "guard sexpr: " << bad;
  }
  for (const char* bad : {"", "(seq", "(seq nope)", "(frob s_buy)"}) {
    EXPECT_FALSE(ExprFromSexpr(w.ctx.exprs(), *w.ctx.alphabet(), bad).ok())
        << "expr sexpr: " << bad;
  }
}

// --------------------------------------------------- checkpoint payloads

TEST(CheckpointPayloadTest, RoundTrips) {
  SexprWorld w;
  GuardArena* g = w.ctx.guards();
  CheckpointState state;
  state.next_seq = 7;
  state.clock = 4200;
  state.history = {w.Lit("s_book"), w.Lit("s_buy"), w.Lit("~c_book")};
  ActorCheckpoint actor;
  actor.symbol = w.Lit("c_buy").symbol();
  actor.positive = g->And(g->Box(w.Lit("c_book")), g->Neg(w.Lit("~c_buy")));
  actor.negative = g->Diamond(w.ctx.exprs()->Atom(w.Lit("s_cancel")));
  state.actors.push_back(actor);
  TransportChannelState chan;
  chan.src = 0;
  chan.dst = 1;
  chan.send_next = 4;
  chan.recv_contiguous = 3;
  chan.recv_gapped = {5, 8};
  state.channels.push_back(chan);

  std::string payload = SerializeCheckpoint(state, *w.ctx.alphabet());
  auto back = ParseCheckpoint(g, *w.ctx.alphabet(), payload);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back.value().next_seq, state.next_seq);
  EXPECT_EQ(back.value().clock, state.clock);
  EXPECT_EQ(back.value().history, state.history);
  ASSERT_EQ(back.value().actors.size(), 1u);
  EXPECT_EQ(back.value().actors[0].symbol, actor.symbol);
  EXPECT_EQ(back.value().actors[0].positive, actor.positive);
  EXPECT_EQ(back.value().actors[0].negative, actor.negative);
  EXPECT_EQ(back.value().channels, state.channels);
  // Determinism: serializing the parsed state reproduces the payload.
  EXPECT_EQ(SerializeCheckpoint(back.value(), *w.ctx.alphabet()), payload);
}

TEST(CheckpointPayloadTest, MalformedPayloadsRejected) {
  SexprWorld w;
  GuardArena* g = w.ctx.guards();
  const Alphabet& a = *w.ctx.alphabet();
  // A valid meta prefix for this world's alphabet, to isolate later lines.
  const std::string meta = StrCat("meta 1 10 ", a.size(), " ",
                                  AlphabetFingerprint(a, a.size()));
  EXPECT_FALSE(ParseCheckpoint(g, a, "").ok());
  EXPECT_FALSE(ParseCheckpoint(g, a, "hist 0").ok());    // no meta first
  EXPECT_FALSE(ParseCheckpoint(g, a, "meta 1 10").ok());  // pre-v3 meta arity
  EXPECT_FALSE(ParseCheckpoint(g, a, meta).ok());         // no hist
  EXPECT_FALSE(ParseCheckpoint(g, a, StrCat(meta, "\nhist nope")).ok());
  // Out-of-range symbol ids, in hist and actor position.
  EXPECT_FALSE(
      ParseCheckpoint(g, a, StrCat(meta, "\nhist ", a.size())).ok());
  EXPECT_FALSE(ParseCheckpoint(g, a, StrCat(meta, "\nhist\nactor ", a.size(),
                                            "\npos ^GT\nneg ^GT"))
                   .ok());
  // Truncated actor block.
  EXPECT_FALSE(
      ParseCheckpoint(g, a, StrCat(meta, "\nhist\nactor 0\npos ^GT")).ok());
  EXPECT_FALSE(ParseCheckpoint(g, a, StrCat(meta, "\nhist\nwhat 3")).ok());
  // Fingerprint or symbol-count mismatch: same grammar, different alphabet.
  EXPECT_FALSE(ParseCheckpoint(
                   g, a, StrCat("meta 1 10 ", a.size(), " 12345\nhist"))
                   .ok());
  EXPECT_FALSE(ParseCheckpoint(g, a, StrCat("meta 1 10 ", a.size() + 1, " ",
                                            AlphabetFingerprint(a, a.size()),
                                            "\nhist"))
                   .ok());
}

TEST(CheckpointPayloadTest, NumericOverflowRejected) {
  SexprWorld w;
  GuardArena* g = w.ctx.guards();
  const Alphabet& a = *w.ctx.alphabet();
  const std::string tail = StrCat(" 10 ", a.size(), " ",
                                  AlphabetFingerprint(a, a.size()), "\nhist");
  auto max_seq = ParseCheckpoint(g, a, StrCat("meta 18446744073709551615",
                                              tail));
  ASSERT_TRUE(max_seq.ok()) << max_seq.status();
  EXPECT_EQ(max_seq.value().next_seq, UINT64_MAX);
  // 2^64 + 2 used to read as next_seq 2.
  for (const char* seq : {"18446744073709551616", "18446744073709551618"}) {
    auto got = ParseCheckpoint(g, a, StrCat("meta ", seq, tail));
    ASSERT_FALSE(got.ok()) << seq;
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  }
  // Transport channel site ids must fit the int the transport keys on.
  const std::string meta = StrCat("meta 1", tail);
  auto max_site =
      ParseCheckpoint(g, a, StrCat(meta, "\nchan 2147483647 0 1 1"));
  ASSERT_TRUE(max_site.ok()) << max_site.status();
  EXPECT_EQ(max_site.value().channels[0].src, 2147483647);
  for (const char* chan : {"chan 2147483648 0 1 1", "chan 0 4294967297 1 1",
                           "chan 0 1 18446744073709551616 1"}) {
    EXPECT_FALSE(ParseCheckpoint(g, a, StrCat(meta, "\n", chan)).ok())
        << chan;
  }
}

TEST(CheckpointPayloadTest, DeepNestingIsAnErrorNotACrash) {
  // A crafted WAL file reaches ParseCheckpoint through RecoverDir (the
  // section checksum is not a MAC), so nesting depth is attacker-chosen:
  // 100,000 levels must come back as a Status naming the payload line.
  SexprWorld w;
  GuardArena* g = w.ctx.guards();
  const Alphabet& a = *w.ctx.alphabet();
  const std::string meta = StrCat("meta 1 10 ", a.size(), " ",
                                  AlphabetFingerprint(a, a.size()), "\nhist");
  auto nested = [](const std::string& open, size_t depth,
                   const std::string& core) {
    std::string out;
    for (size_t i = 0; i < depth; ++i) out += open;
    return out + core + std::string(depth, ')');
  };
  for (const std::string& guard :
       {nested("(and ", 100000, "^GT"),
        StrCat("(dia ", nested("(or ", 100000, "s_buy"), ")")}) {
    std::string payload = StrCat(meta, "\nactor 0\npos ^GT\nneg ", guard);
    auto got = ParseCheckpoint(g, a, payload);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(got.status().message().find(StrCat(
                  "checkpoint payload line 5: s-expression nested deeper "
                  "than ",
                  kMaxNestingDepth)),
              std::string::npos)
        << got.status();
  }
  // Nesting within the limit still parses (and collapses: single-child
  // conjunctions are the child).
  auto fine = GuardFromSexpr(g, a, nested("(and ", 200, "(box s_buy)"));
  ASSERT_TRUE(fine.ok()) << fine.status();
  EXPECT_EQ(fine.value(), g->Box(w.Lit("s_buy")));
}

// ------------------------------------------------- transport watermarks

TEST(TransportSnapshotTest, RestoreThenSnapshotRoundTrips) {
  Simulator sim;
  NetworkOptions nopts;
  nopts.drop_probability = 0.2;  // arm fault injection: reliable path on
  Network net(&sim, 3, nopts);
  ReliableTransport fresh(&net);

  std::vector<TransportChannelState> channels;
  TransportChannelState c01;
  c01.src = 0;
  c01.dst = 1;
  c01.send_next = 6;
  c01.recv_contiguous = 4;
  c01.recv_gapped = {6, 9};
  channels.push_back(c01);
  TransportChannelState c21;
  c21.src = 2;
  c21.dst = 1;
  c21.send_next = 2;
  channels.push_back(c21);

  fresh.RestoreChannels(channels);
  EXPECT_EQ(fresh.SnapshotChannels(), channels);
}

TEST(TransportSnapshotTest, LiveTrafficSnapshotSurvivesRestore) {
  Simulator sim;
  NetworkOptions nopts;
  nopts.drop_probability = 0.3;
  nopts.seed = 7;
  Network net(&sim, 2, nopts);
  ReliableTransport transport(&net);
  int delivered = 0;
  for (int i = 0; i < 5; ++i) {
    transport.Send(0, 1, 64, [&] { ++delivered; });
  }
  sim.Run();
  ASSERT_EQ(transport.in_flight(), 0u);  // quiescent
  EXPECT_EQ(delivered, 5);

  auto snapshot = transport.SnapshotChannels();
  ASSERT_FALSE(snapshot.empty());
  Simulator sim2;
  Network net2(&sim2, 2, nopts);
  ReliableTransport restored(&net2);
  restored.RestoreChannels(snapshot);
  EXPECT_EQ(restored.SnapshotChannels(), snapshot);
}

// ------------------------------------- scheduler checkpoints, end to end

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

  void CloseToMaximal() {
    sched->Close();
    sim.Run();
  }

  std::string History() {
    return TraceToString(sched->history(), *ctx.alphabet());
  }

  WorkflowContext ctx;
  Simulator sim;
  std::unique_ptr<Network> network;
  ParsedWorkflow workflow;
  std::unique_ptr<GuardScheduler> sched;
};

TEST(SchedulerCheckpointTest, SnapshotRecoverMatchesGenesisReplay) {
  // Run half the workflow, checkpoint + compact the live log, run the
  // rest. Recovery through the checkpointed log must agree — history and
  // every undecided guard — with recovery through full genesis replay.
  EventLog checkpointed;
  std::string full_history;
  std::string genesis_text;
  {
    LoggedWorld w(&checkpointed);
    EXPECT_EQ(w.AttemptAndRun("s_buy"), Decision::kAccepted);
    EXPECT_EQ(w.AttemptAndRun("c_book"), Decision::kAccepted);

    genesis_text = checkpointed.SerializeOpen(*w.ctx.alphabet());
    CheckpointState state = w.sched->Snapshot();
    EXPECT_EQ(state.history.size(), checkpointed.size());
    checkpointed.InstallCheckpoint(SectionFor(
        checkpointed, SerializeCheckpoint(state, *w.ctx.alphabet())));

    EXPECT_EQ(w.AttemptAndRun("c_buy"), Decision::kAccepted);
    full_history = w.History();
    // Suffix records landed after the checkpoint; genesis text gets the
    // same suffix for the comparison run.
    for (const auto& record : checkpointed.records()) {
      genesis_text += EventLog::RecordLine(record, *w.ctx.alphabet());
    }
  }
  ASSERT_NE(checkpointed.checkpoint(), nullptr);
  ASSERT_GT(checkpointed.size(), 0u);

  LoggedWorld from_ckpt(nullptr);
  ASSERT_TRUE(from_ckpt.sched->Recover(checkpointed).ok());
  EXPECT_EQ(from_ckpt.History(), full_history);

  LoggedWorld from_genesis(nullptr);
  auto genesis_log =
      EventLog::LoadTolerant(*from_genesis.ctx.alphabet(), genesis_text);
  ASSERT_TRUE(genesis_log.ok()) << genesis_log.status();
  EXPECT_EQ(genesis_log.value().checkpoint(), nullptr);
  ASSERT_TRUE(from_genesis.sched->Recover(genesis_log.value()).ok());
  EXPECT_EQ(from_genesis.History(), full_history);

  for (const char* name : {"s_cancel", "~s_cancel"}) {
    auto lit_c = from_ckpt.ctx.alphabet()->ParseLiteral(name);
    auto lit_g = from_genesis.ctx.alphabet()->ParseLiteral(name);
    ASSERT_TRUE(lit_c.ok() && lit_g.ok());
    EXPECT_EQ(GuardToString(from_ckpt.sched->CurrentGuardOf(lit_c.value()),
                            *from_ckpt.ctx.alphabet()),
              GuardToString(from_genesis.sched->CurrentGuardOf(lit_g.value()),
                            *from_genesis.ctx.alphabet()))
        << name;
  }

  // Both recovered worlds finish to the same consistent maximal trace.
  from_ckpt.CloseToMaximal();
  from_genesis.CloseToMaximal();
  EXPECT_TRUE(from_ckpt.sched->Undecided().empty());
  EXPECT_TRUE(from_ckpt.sched->HistoryConsistent(true));
  EXPECT_EQ(from_ckpt.History(), from_genesis.History());
}

TEST(SchedulerCheckpointTest, CrashPointSweepOverCheckpointWrite) {
  // Simulate kill -9 at every byte between "checkpoint appended" (state B)
  // and "prefix truncated" (state C): chop the state-B image everywhere.
  // Whatever tolerant load recovers, a fresh scheduler must accept it and
  // close to a maximal trace whose prefix matches the uninterrupted run.
  EventLog log;
  std::string reference_history;
  std::string state_b;
  {
    LoggedWorld w(&log);
    EXPECT_EQ(w.AttemptAndRun("s_buy"), Decision::kAccepted);
    state_b = log.SerializeOpen(*w.ctx.alphabet());  // records so far
    CheckpointState state = w.sched->Snapshot();
    EventLog::CheckpointSection section =
        SectionFor(log, SerializeCheckpoint(state, *w.ctx.alphabet()));
    state_b += EventLog::SectionText(section);  // phase-1 append
    EXPECT_EQ(w.AttemptAndRun("c_book"), Decision::kAccepted);
    reference_history = w.History();
  }

  LoggedWorld uninterrupted(nullptr);
  ASSERT_TRUE(uninterrupted.sched->Recover(log).ok());
  uninterrupted.CloseToMaximal();
  std::string maximal = uninterrupted.History();

  for (size_t cut = 0; cut <= state_b.size(); ++cut) {
    auto got = EventLog::LoadTolerant(*uninterrupted.ctx.alphabet(),
                                      state_b.substr(0, cut));
    if (!got.ok()) continue;  // torn header region: cleanly refused
    LoggedWorld w(nullptr);
    auto parsed = EventLog::LoadTolerant(*w.ctx.alphabet(),
                                         state_b.substr(0, cut));
    ASSERT_TRUE(parsed.ok());
    ASSERT_TRUE(w.sched->Recover(parsed.value()).ok()) << "cut " << cut;
    // Replay what the crash interrupted, then close: the outcome must be
    // byte-identical to the uninterrupted world's maximal trace.
    w.AttemptAndRun("s_buy");
    w.AttemptAndRun("c_book");
    EXPECT_EQ(w.History(), reference_history) << "cut " << cut;
    w.AttemptAndRun("c_buy");
    uninterrupted.AttemptAndRun("c_buy");
    w.CloseToMaximal();
    EXPECT_TRUE(w.sched->HistoryConsistent(true)) << "cut " << cut;
  }
}

TEST(SchedulerCheckpointTest, RecoverRejectsDoubleDecidedLog) {
  // A log (or checkpoint) that decides the same symbol twice is corrupt
  // input: Recover must return a Status, not crash the process.
  LoggedWorld probe(nullptr);
  auto lit = probe.ctx.alphabet()->ParseLiteral("s_buy");
  ASSERT_TRUE(lit.ok());
  EventLog log;
  log.Append({OccurrenceStamp{10, 0}, lit.value()});
  log.Append({OccurrenceStamp{20, 1}, lit.value()});
  LoggedWorld w(nullptr);
  Status status = w.sched->Recover(log);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("twice"), std::string::npos) << status;
}

// ------------------------------------ untrusted logs through the engine

/// A log's fields before they are rendered: the records its checkpoint
/// section covers, the section, and the suffix behind it.
struct LogParts {
  std::vector<EventLog::Record> covered;
  std::optional<EventLog::CheckpointSection> section;
  std::vector<EventLog::Record> suffix;
  /// Renders the covered records before the section (a file between the
  /// two compaction phases) rather than dropping them.
  bool precompaction = false;
  bool sealed = true;
};

/// Renders `parts` as instance `instance`'s log through the codec's line
/// builders: every record, section and trailer checksum is valid, so the
/// parsers behind them see every mutation.
std::string RenderLog(const LogParts& parts, uint64_t instance,
                      const Alphabet& alphabet) {
  std::string text = EventLog::HeaderLine(instance);
  if (parts.precompaction || !parts.section) {
    for (const EventLog::Record& r : parts.covered) {
      text += EventLog::RecordLine(r, alphabet);
    }
  }
  if (parts.section) text += EventLog::SectionText(*parts.section);
  for (const EventLog::Record& r : parts.suffix) {
    text += EventLog::RecordLine(r, alphabet);
  }
  if (parts.sealed) StrAppend(&text, "checksum ", reference::Fnv1a(text), "\n");
  return text;
}

/// A real log of `spec` to mutate: `before` attempted over a Network (so
/// the checkpoint payload carries transport `chan` lines) with a durable
/// log, checkpointed, then `after` attempted as the suffix.
LogParts CheckpointedRun(const char* spec, const std::vector<std::string>& before,
                         const std::vector<std::string>& after) {
  WorkflowContext ctx;
  auto parsed = ParseWorkflow(&ctx, spec);
  CDES_CHECK(parsed.ok()) << parsed.status();
  Simulator sim;
  NetworkOptions nopts;
  nopts.base_latency = 100;
  nopts.duplicate_probability = 0.2;  // arms the reliable transport
  Network network(&sim, 3, nopts);
  EventLog log;
  GuardSchedulerOptions options;
  options.durable_log = &log;
  GuardScheduler sched(&ctx, parsed.value(), &network, options);
  auto attempt = [&](const std::string& name) {
    sched.Attempt(ctx.alphabet()->ParseLiteral(name).value(), {});
    sim.Run();
  };
  for (const std::string& name : before) attempt(name);
  LogParts parts;
  parts.covered = log.records();
  EventLog::CheckpointSection section = SectionFor(
      log, SerializeCheckpoint(sched.Snapshot(), *ctx.alphabet()));
  log.InstallCheckpoint(section);
  parts.section = std::move(section);
  for (const std::string& name : after) attempt(name);
  parts.suffix = log.records();
  return parts;
}

constexpr char kStampSpec[] = R"(
workflow stamps {
  event e0;
  event e1;
  event e2;
  dep d0: ~e1 + e0 . e1;
  dep d1: ~e2 + e1 . e2;
}
)";

/// The two stamp logs an engine used to abort on (EngineTest has them as
/// regression tests): a checkpoint whose payload resumes the stamp sequence
/// below its last covered stamp, and an open log whose one record carries
/// the largest sequence number.
std::vector<LogParts> StampLogs(const Alphabet& alphabet) {
  EventLiteral e0 = alphabet.ParseLiteral("e0").value();
  EventLiteral e1 = alphabet.ParseLiteral("e1").value();
  LogParts behind;
  behind.covered = {{OccurrenceStamp{0, 0}, e0}, {OccurrenceStamp{0, 1}, e1}};
  CheckpointState state;
  state.history = {e0, e1};
  behind.section = EventLog::CheckpointSection{
      2, OccurrenceStamp{0, 1}, SerializeCheckpoint(state, alphabet)};
  LogParts exhausted;
  exhausted.suffix = {
      {OccurrenceStamp{0, std::numeric_limits<uint64_t>::max()}, e0}};
  exhausted.sealed = false;
  return {behind, exhausted};
}

/// `v` or a value near it or near the ends of the range.
uint64_t EdgeValue(uint64_t v, Rng* rng) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  const uint64_t values[] = {0,        1,        v - 1,    v + 1, v + 1000,
                             1ull << 63, kMax - 1, kMax};
  return values[rng->Uniform(std::size(values))];
}

/// One random mutation of a checkpoint payload: a byte flip, a deleted or
/// duplicated line or token, a number near the ends of the range, a `~`
/// added or dropped, or deep nesting.
std::string MutatePayload(std::string text, Rng* rng) {
  if (text.empty()) return "meta";
  size_t at = rng->Uniform(text.size());
  auto line_at = [&text](size_t pos, size_t* begin, size_t* end) {
    size_t b = text.rfind('\n', pos);
    *begin = b == std::string::npos ? 0 : b + 1;
    size_t e = text.find('\n', pos);
    *end = e == std::string::npos ? text.size() : e;
  };
  switch (rng->Uniform(6)) {
    case 0: {  // flip one bit, or write a byte the grammar cares about
      static constexpr char kBytes[] = " \n()~^0123456789abcdehmnopqrst";
      if (rng->Bernoulli(0.5)) {
        text[at] = static_cast<char>(text[at] ^ (1 << rng->Uniform(8)));
      } else {
        text[at] = kBytes[rng->Uniform(sizeof(kBytes) - 1)];
      }
      break;
    }
    case 1: {  // delete or duplicate a line
      size_t begin, end;
      line_at(at, &begin, &end);
      std::string line = text.substr(begin, end - begin);
      if (rng->Bernoulli(0.5)) {
        text.erase(begin, std::min(text.size(), end + 1) - begin);
      } else {
        text.insert(begin, line + "\n");
      }
      break;
    }
    case 2: {  // delete or duplicate a token
      size_t begin = text.find_last_of(" \n()", at);
      begin = begin == std::string::npos ? 0 : begin + 1;
      size_t end = text.find_first_of(" \n()", at);
      if (end == std::string::npos) end = text.size();
      if (rng->Bernoulli(0.5)) {
        text.erase(begin, end - begin);
      } else {
        text.insert(begin, text.substr(begin, end - begin) + " ");
      }
      break;
    }
    case 3: {  // a number near the ends of the range
      size_t digit = text.find_first_of("0123456789", at);
      if (digit == std::string::npos) digit = text.find_first_of("0123456789");
      if (digit == std::string::npos) break;
      size_t end = text.find_first_not_of("0123456789", digit);
      if (end == std::string::npos) end = text.size();
      uint64_t v = std::strtoull(text.substr(digit, end - digit).c_str(),
                                 nullptr, 10);
      std::string edge = rng->Bernoulli(0.1)
                             ? std::string("18446744073709551616")
                             : StrCat(EdgeValue(v, rng));
      text.replace(digit, end - digit, edge);
      break;
    }
    case 4: {  // complement a literal, or drop a complement
      size_t tilde = text.find('~', at);
      if (tilde != std::string::npos && rng->Bernoulli(0.5)) {
        text.erase(tilde, 1);
      } else {
        size_t token = text.find_first_of(" (", at);
        if (token != std::string::npos) text.insert(token + 1, "~");
      }
      break;
    }
    default: {  // deep nesting inside an s-expression
      size_t depth = 1 + rng->Uniform(rng->Bernoulli(0.5) ? 16 : 5000);
      std::string open;
      for (size_t i = 0; i < depth; ++i) {
        open += rng->Bernoulli(0.5) ? "(and " : "(dia ";
      }
      text.insert(at, open);
      break;
    }
  }
  return text;
}

/// One random mutation of a log's fields: its checkpoint payload, a record's
/// stamp or literal, which records there are, the section's framing, or its
/// shape (pre-compaction or compacted, sealed or open).
void MutateLog(LogParts* parts, const std::vector<EventLiteral>& literals,
               Rng* rng) {
  std::vector<EventLog::Record>* records =
      rng->Bernoulli(0.5) ? &parts->covered : &parts->suffix;
  switch (rng->Uniform(6)) {
    case 0:
    case 1:
      if (parts->section) {
        parts->section->payload =
            MutatePayload(std::move(parts->section->payload), rng);
      }
      return;
    case 2: {  // a record's stamp or literal
      if (records->empty()) return;
      EventLog::Record& r = (*records)[rng->Uniform(records->size())];
      switch (rng->Uniform(3)) {
        case 0:
          r.stamp.seq = EdgeValue(r.stamp.seq, rng);
          return;
        case 1:
          r.stamp.time = EdgeValue(r.stamp.time, rng);
          return;
        default:
          r.literal = rng->Bernoulli(0.5)
                          ? r.literal.Complemented()
                          : literals[rng->Uniform(literals.size())];
          return;
      }
    }
    case 3: {  // drop, duplicate or swap records
      if (records->empty()) return;
      size_t i = rng->Uniform(records->size());
      size_t j = rng->Uniform(records->size());
      switch (rng->Uniform(3)) {
        case 0:
          records->erase(records->begin() + i);
          return;
        case 1:
          records->insert(records->begin() + i, (*records)[j]);
          return;
        default:
          std::swap((*records)[i], (*records)[j]);
          return;
      }
    }
    case 4:  // the section's framing
      if (!parts->section) return;
      if (rng->Bernoulli(0.5)) {
        parts->section->covered = EdgeValue(parts->section->covered, rng);
      } else if (rng->Bernoulli(0.5)) {
        parts->section->last_stamp.seq =
            EdgeValue(parts->section->last_stamp.seq, rng);
      } else {
        parts->section->last_stamp.time =
            EdgeValue(parts->section->last_stamp.time, rng);
      }
      return;
    default:  // the log's shape
      if (rng->Bernoulli(0.3)) {
        parts->section.reset();
      } else if (rng->Bernoulli(0.5)) {
        parts->precompaction = !parts->precompaction;
      } else {
        parts->sealed = !parts->sealed;
      }
      return;
  }
}

/// Recovers `count` mutants of `corpus` (and the corpus itself) on one
/// engine running `spec` with durable logs, each under its own instance
/// id: every log must recover or fail as its instance's error, and the
/// process must survive. Returns {recovered, failed}.
std::pair<size_t, size_t> RecoverMutants(const char* spec,
                                         const std::vector<LogParts>& corpus,
                                         size_t count, uint64_t seed) {
  WorkflowContext ctx;
  CDES_CHECK(ParseWorkflow(&ctx, spec).ok());
  const Alphabet& alphabet = *ctx.alphabet();
  std::vector<EventLiteral> literals;
  for (SymbolId s = 0; s < alphabet.size(); ++s) {
    literals.push_back(EventLiteral::Positive(s));
    literals.push_back(EventLiteral::Complement(s));
  }
  Rng rng(seed);
  std::vector<std::string> logs;
  for (size_t i = 0; i < corpus.size() + count; ++i) {
    LogParts parts = corpus[i % corpus.size()];
    if (i >= corpus.size()) {
      do {
        MutateLog(&parts, literals, &rng);
      } while (rng.Bernoulli(0.4));
    }
    logs.push_back(RenderLog(parts, i, alphabet));
  }
  engine::EngineOptions opts;
  opts.shards = 2;
  opts.durable_logs = true;
  engine::Engine eng(engine::EngineSpec::FromText(spec).value(), opts);
  EXPECT_TRUE(eng.Recover(logs).ok());
  eng.Drain();
  std::vector<engine::InstanceResult> results = eng.TakeResults();
  EXPECT_EQ(results.size(), logs.size());
  size_t recovered = 0, failed = 0;
  for (const engine::InstanceResult& r : results) {
    if (r.error.empty()) {
      ++recovered;
    } else {
      EXPECT_TRUE(StartsWith(r.error, "recovery ")) << r.error;
      ++failed;
    }
  }
  return {recovered, failed};
}

// Checkpoint payloads and record fields from untrusted logs, through the
// engine's whole recovery path (tolerant load, Recover, closure, the
// recovered instance's durable log): mutants of real checkpointed logs
// (with baselines, `chan` lines and complemented literals), re-sealed with
// valid checksums, each recover or fail as their instance's error; none
// may take the process down.
TEST(RecoveryFuzzTest, MutatedLogsRecoverOrFailAsInstanceErrors) {
  std::vector<LogParts> travel = {
      CheckpointedRun(kTravelSpec, {"s_buy", "c_book"}, {"c_buy"}),
      CheckpointedRun(kTravelSpec, {"s_buy"}, {"~c_buy", "c_book"}),
      CheckpointedRun(kTravelSpec, {"~s_buy", "c_book"}, {"~c_buy"}),
  };
  std::vector<LogParts> stamps = {
      CheckpointedRun(kStampSpec, {"e0"}, {"e1"}),
      CheckpointedRun(kStampSpec, {"e0", "~e2"}, {"e1"}),
  };
  {
    WorkflowContext ctx;
    ASSERT_TRUE(ParseWorkflow(&ctx, kStampSpec).ok());
    for (LogParts& parts : StampLogs(*ctx.alphabet())) {
      stamps.push_back(std::move(parts));
    }
  }
  // The corpus itself exercises what the mutants mutate.
  std::string payloads;
  for (const LogParts& parts : travel) payloads += parts.section->payload;
  ASSERT_NE(payloads.find("\nchan "), std::string::npos);
  ASSERT_NE(payloads.find("\nactor "), std::string::npos);
  ASSERT_NE(payloads.find("~"), std::string::npos);
  size_t recovered = 0, failed = 0;
  for (uint64_t round = 0; round < 8; ++round) {
    auto [r1, f1] = RecoverMutants(kTravelSpec, travel, 2000, 20261020 + round);
    auto [r2, f2] = RecoverMutants(kStampSpec, stamps, 1000, 4099 + round);
    recovered += r1 + r2;
    failed += f1 + f2;
    if (HasFailure()) return;
  }
  // Both outcomes are common, so the property is not vacuous.
  EXPECT_GT(recovered, 5000u);
  EXPECT_GT(failed, 5000u);
}

}  // namespace
}  // namespace cdes
