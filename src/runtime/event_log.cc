#include "runtime/event_log.h"

#include <charconv>
#include <utility>

#include "common/strings.h"

namespace cdes {
namespace {

constexpr char kHeaderV3[] = "cdeslog v3";
constexpr char kTrailerPrefix[] = "checksum ";
constexpr char kSectionPrefix[] = "ckpt ";
/// Decimal digits of the widest uint64_t.
constexpr size_t kMaxU64Digits = 20;
/// The trailer line at its widest.
constexpr size_t kTrailerBound = sizeof(kTrailerPrefix) - 1 + kMaxU64Digits + 1;

constexpr uint64_t kFnvOffsetBasis = 0xCBF29CE484222325ULL;

/// FNV-1a of `text`, continuing from `h`: hashing a text piece by piece,
/// each piece from the previous result, equals hashing it whole.
uint64_t Fnv1a(std::string_view text, uint64_t h = kFnvOffsetBasis) {
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

size_t DecimalWidth(uint64_t value) {
  size_t n = 1;
  for (; value >= 10; value /= 10) ++n;
  return n;
}

/// Writes `value` in decimal and then `sep` to `dst`, which has room for
/// kMaxU64Digits + 1 bytes; returns one past the end.
char* PutField(char* dst, uint64_t value, char sep) {
  char* end = std::to_chars(dst, dst + kMaxU64Digits, value).ptr;
  *end = sep;
  return end + 1;
}

/// The checksum of a record line: FNV-1a of its payload `<seq> <time>
/// <literal>`, with the stamp rendered canonically, so a parsed `007`
/// checks as `7`.
uint64_t RecordChecksum(uint64_t seq, uint64_t time,
                        std::string_view literal) {
  char stamp[2 * (kMaxU64Digits + 1)];
  char* end = PutField(PutField(stamp, seq, ' '), time, ' ');
  size_t stamp_size = static_cast<size_t>(end - stamp);
  return Fnv1a(literal, Fnv1a(std::string_view(stamp, stamp_size)));
}

/// The checksum of a checkpoint section: FNV-1a of its own framing fields
/// plus the payload, `<covered> <time> <seq> <nlines>\n<payload>`, so
/// neither can be tampered with independently.
uint64_t SectionChecksum(const EventLog::CheckpointSection& section,
                         uint64_t nlines) {
  char framing[4 * (kMaxU64Digits + 1)];
  char* end = PutField(framing, section.covered, ' ');
  end = PutField(end, section.last_stamp.time, ' ');
  end = PutField(end, section.last_stamp.seq, ' ');
  end = PutField(end, nlines, '\n');
  size_t framing_size = static_cast<size_t>(end - framing);
  return Fnv1a(section.payload,
               Fnv1a(std::string_view(framing, framing_size)));
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

// ---- Rendering: every builder appends to the caller's buffer, and each
// ---- *Bound is an upper bound on what it appends (exact but for
// ---- checksums, counted at full width), so a buffer is sized once.

size_t HeaderBound(uint64_t instance) {
  return sizeof(kHeaderV3) + DecimalWidth(instance) + 1;
}

void AppendHeader(uint64_t instance, std::string* out) {
  StrAppend(out, kHeaderV3, " ", instance, "\n");
}

size_t RecordLineBound(const EventLog::Record& record,
                       const Alphabet& alphabet) {
  return DecimalWidth(record.stamp.seq) + DecimalWidth(record.stamp.time) +
         (record.literal.complemented() ? 1 : 0) +
         alphabet.Name(record.literal.symbol()).size() + kMaxU64Digits + 4;
}

void AppendRecordLine(const EventLog::Record& record, const Alphabet& alphabet,
                      std::string* out) {
  StrAppend(out, record.stamp.seq, " ", record.stamp.time, " ");
  size_t literal_begin = out->size();
  alphabet.AppendLiteralName(record.literal, out);
  uint64_t crc =
      RecordChecksum(record.stamp.seq, record.stamp.time,
                     std::string_view(*out).substr(literal_begin));
  StrAppend(out, " ", crc, "\n");
}

size_t SectionBound(const EventLog::CheckpointSection& section) {
  return sizeof(kSectionPrefix) - 1 + 5 * (kMaxU64Digits + 1) +
         section.payload.size() + 1;
}

void AppendSection(const EventLog::CheckpointSection& section,
                   std::string* out) {
  uint64_t nlines = PayloadLineCount(section.payload);
  StrAppend(out, kSectionPrefix, section.covered, " ",
            section.last_stamp.time, " ", section.last_stamp.seq, " ", nlines,
            " ", SectionChecksum(section, nlines), "\n");
  if (nlines > 0) StrAppend(out, section.payload, "\n");
}

size_t OpenImageBound(const EventLog& log, const Alphabet& alphabet) {
  size_t bound = HeaderBound(log.instance());
  if (log.checkpoint() != nullptr) bound += SectionBound(*log.checkpoint());
  for (const EventLog::Record& r : log.records()) {
    bound += RecordLineBound(r, alphabet);
  }
  return bound;
}

void AppendOpenImage(const EventLog& log, const Alphabet& alphabet,
                     std::string* out) {
  AppendHeader(log.instance(), out);
  if (log.checkpoint() != nullptr) AppendSection(*log.checkpoint(), out);
  for (const EventLog::Record& r : log.records()) {
    AppendRecordLine(r, alphabet, out);
  }
}

// ---- Parsing: lines and fields are views into the text.

/// Parses a header line, `cdeslog v2|v3 <instance>`.
bool ParseHeader(std::string_view line, uint64_t* instance) {
  SplitCursor fields(line, ' ');
  std::string_view magic, version, id, extra;
  return fields.Next(&magic) && magic == "cdeslog" && fields.Next(&version) &&
         (version == "v2" || version == "v3") && fields.Next(&id) &&
         !fields.Next(&extra) && ParseU64(id, instance);
}

/// Whether `line`, which starts with the trailer prefix, is the trailer for
/// a body whose checksum is `crc` (rendered canonically).
bool IsTrailerFor(std::string_view line, uint64_t crc) {
  char digits[kMaxU64Digits];
  char* end = std::to_chars(digits, digits + kMaxU64Digits, crc).ptr;
  return line.substr(sizeof(kTrailerPrefix) - 1) ==
         std::string_view(digits, static_cast<size_t>(end - digits));
}

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
  std::string line;
  line.reserve(HeaderBound(instance));
  AppendHeader(instance, &line);
  return line;
}

std::string EventLog::RecordLine(const Record& record,
                                 const Alphabet& alphabet) {
  std::string line;
  line.reserve(RecordLineBound(record, alphabet));
  AppendRecordLine(record, alphabet, &line);
  return line;
}

std::string EventLog::SectionText(const CheckpointSection& section) {
  std::string text;
  text.reserve(SectionBound(section));
  AppendSection(section, &text);
  return text;
}

std::string EventLog::SerializeOpen(const Alphabet& alphabet) const {
  std::string image;
  image.reserve(OpenImageBound(*this, alphabet));
  AppendOpenImage(*this, alphabet, &image);
  return image;
}

std::string EventLog::Serialize(const Alphabet& alphabet) const {
  std::string image;
  image.reserve(OpenImageBound(*this, alphabet) + kTrailerBound);
  AppendOpenImage(*this, alphabet, &image);
  // The trailer checksums the body as it stands in the buffer.
  StrAppend(&image, kTrailerPrefix, Fnv1a(image), "\n");
  return image;
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
  uint64_t instance = 0;
  if (!ParseHeader(text.substr(0, eol), &instance)) {
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
  if (text.empty()) return Status::InvalidArgument("not a cdes event log");
  // A complete file ends in '\n'. A missing final newline is itself
  // evidence of a torn tail.
  const bool ends_with_newline = text.back() == '\n';
  // The file's lines, '\n'-separated, without the last one's terminator.
  const std::string_view lines =
      ends_with_newline ? text.substr(0, text.size() - 1) : text;
  const size_t header_end = lines.find('\n');
  // A lone unterminated line may be a header whose instance digits were cut
  // mid-write — "cdeslog v3 12" torn to "cdeslog v3 1" parses fine but
  // names the wrong instance. Only a newline proves the header complete.
  if (header_end == std::string_view::npos && !ends_with_newline) {
    return Status::InvalidArgument("event log header torn (no newline)");
  }
  uint64_t instance = 0;
  if (!ParseHeader(lines.substr(0, header_end), &instance)) {
    return Status::InvalidArgument("not a cdes event log");
  }
  // The lines after the header, as one span. `has_body` tells an empty
  // span (one empty line) from no lines at all.
  bool has_body = header_end != std::string_view::npos;
  std::string_view body;
  if (has_body) body = lines.substr(header_end + 1);

  // Strip the trailer when present and intact. A crashed writer either
  // never started it (absent) or was killed mid-line (a `checksum ` line
  // that mismatches); both mean the same thing — the log was live — and the
  // per-record checksums vouch for every record line on their own. The one
  // thing a trailer line *does* prove, torn or not, is that every record
  // before it was already flushed: after popping one, nothing below may be
  // dropped as a torn record.
  bool has_trailer = false;
  bool torn_trailer = false;
  const size_t last_begin = has_body ? lines.rfind('\n') + 1 : 0;
  if (has_body && StartsWith(lines.substr(last_begin), kTrailerPrefix)) {
    // The trailer covers every byte before it, hashed in place.
    if (IsTrailerFor(lines.substr(last_begin),
                     Fnv1a(text.substr(0, last_begin)))) {
      has_trailer = true;
    } else if (!tolerant) {
      return Status::InvalidArgument("event log checksum mismatch");
    } else {
      torn_trailer = true;
    }
    has_body = last_begin - 1 > header_end;
    if (has_body) {
      body = lines.substr(header_end + 1, last_begin - header_end - 2);
    }
  } else if (!tolerant) {
    return Status::InvalidArgument("event log checksum trailer missing");
  }
  // Only a trailer-less tolerant load may discard torn tail lines.
  const bool tail_open = tolerant && !has_trailer && !torn_trailer;

  EventLog log;
  log.set_instance(instance);
  OccurrenceStamp prev_stamp;
  bool have_prev = false;
  SplitCursor cursor(body, '\n');
  std::string_view line;
  while (has_body && cursor.Next(&line)) {
    const size_t lineno = cursor.count() + 1;  // the header is line 1
    const bool final_line = cursor.AtEnd();
    if (StartsWith(line, kSectionPrefix)) {
      // Checkpoint section: `ckpt <covered> <time> <seq> <nlines> <crc>`
      // followed by <nlines> opaque payload lines.
      SplitCursor fields(line, ' ');
      std::string_view tag, covered, time, seq, count, checksum, extra;
      CheckpointSection section;
      uint64_t nlines = 0, crc = 0;
      bool well_formed =
          fields.Next(&tag) && fields.Next(&covered) && fields.Next(&time) &&
          fields.Next(&seq) && fields.Next(&count) &&
          fields.Next(&checksum) && !fields.Next(&extra) &&
          ParseU64(covered, &section.covered) &&
          ParseU64(time, &section.last_stamp.time) &&
          ParseU64(seq, &section.last_stamp.seq) &&
          ParseU64(count, &nlines) && ParseU64(checksum, &crc);
      if (!well_formed) {
        // The line starts with `ckpt ` but does not frame a section; only a
        // write torn at end-of-file excuses that, and the records parsed
        // above already carry everything a torn section would have covered.
        if (tail_open && final_line) break;
        return Status::InvalidArgument(
            StrCat("malformed checkpoint section at line ", lineno));
      }
      // The payload is the next <nlines> lines, one span of the text.
      const char* payload_begin = nullptr;
      const char* payload_end = nullptr;
      uint64_t taken = 0;
      std::string_view payload_line;
      while (taken < nlines && cursor.Next(&payload_line)) {
        if (taken++ == 0) payload_begin = payload_line.data();
        payload_end = payload_line.data() + payload_line.size();
      }
      if (taken < nlines) {
        // Fewer payload lines than the framing promises: torn at EOF.
        if (tail_open) break;
        return Status::InvalidArgument(
            StrCat("truncated checkpoint section at line ", lineno));
      }
      const bool extends_to_eof = cursor.AtEnd();
      if (nlines > 0) section.payload.assign(payload_begin, payload_end);
      if (crc != SectionChecksum(section, nlines)) {
        // A final payload line torn mid-write mimics a complete block with a
        // bad checksum; at EOF that is a crash shape, anywhere else it is
        // corruption.
        if (tail_open && extends_to_eof) break;
        return Status::InvalidArgument(
            StrCat("checkpoint checksum mismatch at line ", lineno));
      }
      // A checkpoint taken in this file covers exactly the records above
      // it. The exception is a checkpoint opening the file (no records, no
      // prior checkpoint): compaction physically discarded the prefix it
      // covers, so any coverage is legitimate there.
      bool opens_file = !log.checkpoint_ && log.records_.empty();
      if (!opens_file && section.covered != log.total_records()) {
        return Status::InvalidArgument(
            StrCat("checkpoint at line ", lineno, " covers ", section.covered,
                   " records but the log holds ", log.total_records()));
      }
      if (have_prev && section.covered > 0 &&
          section.last_stamp < prev_stamp) {
        return Status::InvalidArgument(
            StrCat("checkpoint stamp decreases at line ", lineno));
      }
      if (section.covered > 0) {
        prev_stamp = section.last_stamp;
        have_prev = true;
      }
      // Last intact checkpoint wins: it covers every record parsed so far,
      // exactly as the compaction rewrite would have discarded them.
      log.checkpoint_ = std::move(section);
      log.records_.clear();
      continue;
    }
    SplitCursor fields(line, ' ');
    std::string_view seq_field, time_field, literal_field, crc_field, extra;
    uint64_t seq = 0, time = 0, crc = 0;
    bool well_formed =
        fields.Next(&seq_field) && fields.Next(&time_field) &&
        fields.Next(&literal_field) && fields.Next(&crc_field) &&
        !fields.Next(&extra) && ParseU64(seq_field, &seq) &&
        ParseU64(time_field, &time) && ParseU64(crc_field, &crc) &&
        crc == RecordChecksum(seq, time, literal_field);
    if (!well_formed) {
      if (tail_open && final_line) {
        // Report a possibly-lost record only when the torn bytes could have
        // been one: record lines start with stamp digits, so a torn `ckpt`
        // or `checksum` line (or a stray fragment) is provably not a record.
        if (dropped_torn_tail != nullptr && !line.empty() &&
            IsDigit(line[0])) {
          *dropped_torn_tail = true;
        }
        break;
      }
      return Status::InvalidArgument(
          StrCat("malformed log record at line ", lineno));
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
          StrCat("log stamps decrease at line ", lineno));
    }
    prev_stamp = record.stamp;
    have_prev = true;
    // A checksum-valid record naming an unknown event is corruption (or a
    // foreign workflow's log), never a torn tail: stay strict even when
    // tolerant.
    auto literal = alphabet.ParseLiteral(literal_field);
    if (!literal.ok()) return literal.status();
    record.literal = literal.value();
    log.records_.push_back(record);
  }
  return log;
}

}  // namespace cdes
