#include "runtime/event_log.h"

#include <utility>

#include "common/strings.h"

namespace cdes {
namespace {

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

/// The checksummed payload of one record line.
std::string RecordPayload(uint64_t seq, uint64_t time,
                          const std::string& literal) {
  return StrCat(seq, " ", time, " ", literal);
}

/// The checksummed content of a checkpoint section: its own framing fields
/// plus the payload, so neither can be tampered with independently.
std::string SectionChecksumInput(const EventLog::CheckpointSection& section,
                                 uint64_t nlines) {
  return StrCat(section.covered, " ", section.last_stamp.time, " ",
                section.last_stamp.seq, " ", nlines, "\n", section.payload);
}

uint64_t PayloadLineCount(const std::string& payload) {
  if (payload.empty()) return 0;
  uint64_t n = 1;
  for (char c : payload) {
    if (c == '\n') ++n;
  }
  return n;
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

}  // namespace

void EventLog::Append(const Record& record) {
  if (!records_.empty()) {
    CDES_CHECK(!(record.stamp < records_.back().stamp))
        << "log stamps must be non-decreasing";
  } else if (checkpoint_ && checkpoint_->covered > 0) {
    CDES_CHECK(!(record.stamp < checkpoint_->last_stamp))
        << "log stamps must be non-decreasing across the checkpoint";
  }
  records_.push_back(record);
}

void EventLog::InstallCheckpoint(CheckpointSection section) {
  CDES_CHECK(section.covered == total_records())
      << "checkpoint covers " << section.covered << " records but the log has "
      << total_records();
  checkpoint_ = std::move(section);
  records_.clear();
}

OccurrenceStamp EventLog::last_stamp() const {
  CDES_CHECK(total_records() > 0) << "empty log has no last stamp";
  return records_.empty() ? checkpoint_->last_stamp : records_.back().stamp;
}

std::string EventLog::HeaderLine(uint64_t instance) {
  return StrCat(kHeaderV3, " ", instance, "\n");
}

std::string EventLog::RecordLine(const Record& record,
                                 const Alphabet& alphabet) {
  std::string payload = RecordPayload(record.stamp.seq, record.stamp.time,
                                      alphabet.LiteralName(record.literal));
  return StrCat(payload, " ", Fnv1a(payload), "\n");
}

std::string EventLog::SectionText(const CheckpointSection& section) {
  uint64_t nlines = PayloadLineCount(section.payload);
  std::string text =
      StrCat(kSectionPrefix, section.covered, " ", section.last_stamp.time, " ",
             section.last_stamp.seq, " ", nlines, " ",
             Fnv1a(SectionChecksumInput(section, nlines)), "\n");
  if (nlines > 0) text += StrCat(section.payload, "\n");
  return text;
}

std::string EventLog::SerializeOpen(const Alphabet& alphabet) const {
  std::string body = HeaderLine(instance_);
  if (checkpoint_) body += SectionText(*checkpoint_);
  for (const Record& r : records_) body += RecordLine(r, alphabet);
  return body;
}

std::string EventLog::Serialize(const Alphabet& alphabet) const {
  std::string body = SerializeOpen(alphabet);
  return StrCat(body, kTrailerPrefix, Fnv1a(body), "\n");
}

Result<EventLog> EventLog::Deserialize(const Alphabet& alphabet,
                                       std::string_view text) {
  return Parse(alphabet, text, /*tolerant=*/false, nullptr);
}

Result<uint64_t> EventLog::PeekInstance(std::string_view text) {
  size_t eol = text.find('\n');
  // An unterminated first line may be a header caught mid-write; its
  // instance digits could be truncated, which would route the log to the
  // wrong instance. Refuse rather than guess.
  if (eol == std::string_view::npos) {
    return Status::InvalidArgument("event log header torn (no newline)");
  }
  std::vector<std::string> fields = StrSplit(text.substr(0, eol), ' ');
  uint64_t instance = 0;
  if (fields.size() != 3 ||
      (StrCat(fields[0], " ", fields[1]) != kHeaderV2 &&
       StrCat(fields[0], " ", fields[1]) != kHeaderV3) ||
      !ParseU64(fields[2], &instance)) {
    return Status::InvalidArgument("not a cdes event log");
  }
  return instance;
}

Result<EventLog> EventLog::LoadTolerant(const Alphabet& alphabet,
                                        std::string_view text,
                                        bool* dropped_torn_tail) {
  return Parse(alphabet, text, /*tolerant=*/true, dropped_torn_tail);
}

Result<EventLog> EventLog::Parse(const Alphabet& alphabet,
                                 std::string_view text, bool tolerant,
                                 bool* dropped_torn_tail) {
  if (dropped_torn_tail != nullptr) *dropped_torn_tail = false;
  std::vector<std::string> lines = StrSplit(text, '\n');
  // A complete file ends in '\n', leaving one empty trailing split. A
  // missing final newline is itself evidence of a torn tail.
  bool ends_with_newline = !lines.empty() && lines.back().empty();
  if (ends_with_newline) lines.pop_back();
  if (lines.empty()) return Status::InvalidArgument("not a cdes event log");
  // A lone unterminated line may be a header whose instance digits were cut
  // mid-write — "cdeslog v3 12" torn to "cdeslog v3 1" parses fine but
  // names the wrong instance. Only a newline proves the header complete.
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

  // Strip the trailer when present and intact. A crashed writer either
  // never started it (absent) or was killed mid-line (a `checksum ` line
  // that mismatches); both mean the same thing — the log was live — and the
  // per-record checksums vouch for every record line on their own. The one
  // thing a trailer line *does* prove, torn or not, is that every record
  // before it was already flushed: after popping one, nothing below may be
  // dropped as a torn record.
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
  // Only a trailer-less tolerant load may discard torn tail lines.
  const bool tail_open = tolerant && !has_trailer && !torn_trailer;

  EventLog log;
  log.set_instance(instance);
  OccurrenceStamp prev_stamp;
  bool have_prev = false;
  for (size_t i = 1; i < lines.size(); ++i) {
    bool final_line = i + 1 == lines.size();
    if (lines[i].rfind(kSectionPrefix, 0) == 0) {
      // Checkpoint section: `ckpt <covered> <time> <seq> <nlines> <crc>`
      // followed by <nlines> opaque payload lines.
      std::vector<std::string> fields = StrSplit(lines[i], ' ');
      CheckpointSection section;
      uint64_t nlines = 0, crc = 0;
      bool well_formed = fields.size() == 6 &&
                         ParseU64(fields[1], &section.covered) &&
                         ParseU64(fields[2], &section.last_stamp.time) &&
                         ParseU64(fields[3], &section.last_stamp.seq) &&
                         ParseU64(fields[4], &nlines) &&
                         ParseU64(fields[5], &crc);
      if (!well_formed) {
        // The line starts with `ckpt ` but does not frame a section; only a
        // write torn at end-of-file excuses that, and the records parsed
        // above already carry everything a torn section would have covered.
        if (tail_open && final_line) break;
        return Status::InvalidArgument(
            StrCat("malformed checkpoint section at line ", i + 1));
      }
      size_t payload_end = i + 1 + nlines;  // one past the last payload line
      bool extends_to_eof = payload_end >= lines.size();
      if (payload_end > lines.size()) {
        // Fewer payload lines than the framing promises: torn at EOF.
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
        // A final payload line torn mid-write mimics a complete block with a
        // bad checksum; at EOF that is a crash shape, anywhere else it is
        // corruption.
        if (tail_open && extends_to_eof) break;
        return Status::InvalidArgument(
            StrCat("checkpoint checksum mismatch at line ", i + 1));
      }
      // A checkpoint taken in this file covers exactly the records above
      // it. The exception is a checkpoint opening the file (no records, no
      // prior checkpoint): compaction physically discarded the prefix it
      // covers, so any coverage is legitimate there.
      bool opens_file = !log.checkpoint_ && log.records_.empty();
      if (!opens_file &&
          section.covered != (log.checkpoint_ ? log.checkpoint_->covered : 0) +
                                 log.records_.size()) {
        return Status::InvalidArgument(
            StrCat("checkpoint at line ", i + 1, " covers ", section.covered,
                   " records but the log holds ",
                   (log.checkpoint_ ? log.checkpoint_->covered : 0) +
                       log.records_.size()));
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
      // Last intact checkpoint wins: it covers every record parsed so far,
      // exactly as the compaction rewrite would have discarded them.
      log.checkpoint_ = std::move(section);
      log.records_.clear();
      i = payload_end - 1;  // loop ++ lands on the line after the payload
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
        // Report a possibly-lost record only when the torn bytes could have
        // been one: record lines start with stamp digits, so a torn `ckpt`
        // or `checksum` line (or a stray fragment) is provably not a record.
        if (dropped_torn_tail != nullptr && !lines[i].empty() &&
            IsDigit(lines[i][0])) {
          *dropped_torn_tail = true;
        }
        break;
      }
      return Status::InvalidArgument(
          StrCat("malformed log record at line ", i + 1));
    }
    Record record;
    record.stamp.seq = seq;
    record.stamp.time = time;
    // A record whose checksum verifies was fully written, so a stamp going
    // backwards is never a torn tail — it means the file does not describe
    // one monotone history. Reject it here with a Status: Append's CHECK
    // guards programmer error, not untrusted input.
    if (have_prev && record.stamp < prev_stamp) {
      return Status::InvalidArgument(
          StrCat("log stamps decrease at line ", i + 1));
    }
    prev_stamp = record.stamp;
    have_prev = true;
    // A checksum-valid record naming an unknown event is corruption (or a
    // foreign workflow's log), never a torn tail: stay strict even when
    // tolerant.
    auto literal = alphabet.ParseLiteral(fields[2]);
    if (!literal.ok()) return literal.status();
    record.literal = literal.value();
    log.records_.push_back(record);
  }
  return log;
}

}  // namespace cdes
