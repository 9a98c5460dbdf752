#ifndef CDES_ENGINE_WAL_H_
#define CDES_ENGINE_WAL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace cdes::engine {

/// The durable face of one shard: per-instance write-ahead log files with
/// group commit. Appends buffer in memory across all resident instances
/// and reach the filesystem in batches, so durability is no longer one
/// write per occurrence; the trade is the WAL's whole crash story — a kill
/// between flushes loses exactly the buffered tail of each file, which the
/// v3 log format absorbs (EventLog::LoadTolerant drops a torn final line;
/// fully flushed lines carry their own checksums).
///
/// Writing discipline:
///  - Create / Rewrite produce a complete file via tmp + atomic rename, so
///    a file is never half-initialized and compaction (rewriting a log as
///    header + checkpoint) can never be caught half-done — rename(2) either
///    happened or it did not.
///  - Append + Flush add complete lines at the end of an existing file
///    (open-append-close; no descriptors held across calls), so a crash
///    tears at most the final line.
///
/// Worker-thread-confined, like everything else a shard owns; one ShardWal
/// serves all residents of its shard.
class ShardWal {
 public:
  /// `dir` holds one `<instance-id>.log` file per in-flight instance.
  /// Group commit: buffered appends (across all resident instances of the
  /// shard) are written out once `group_commit_records` have accumulated,
  /// or at a barrier (checkpoint, instance completion, shard idle/stop) —
  /// whichever comes first. 1 = write through on every append.
  ShardWal(std::string dir, size_t group_commit_records);

  ShardWal(const ShardWal&) = delete;
  ShardWal& operator=(const ShardWal&) = delete;

  /// `<dir>/<id>.log`.
  std::string PathFor(uint64_t id) const;

  /// Atomically creates (or replaces) the instance's file with `content`.
  Status Create(uint64_t id, const std::string& content);

  /// Buffers `text` (one or more complete lines) for the instance's file.
  void Append(uint64_t id, const std::string& text);

  /// Whether the group-commit policy calls for a flush now.
  bool ShouldFlush() const {
    return pending_appends_ >= group_commit_records_;
  }

  /// Writes one instance's buffered appends to its file.
  Status Flush(uint64_t id);
  /// Writes every buffered append out (group commit / barrier).
  Status FlushAll();

  /// Atomically replaces the instance's file with `content`, discarding any
  /// buffered appends for it (they are part of `content` already).
  Status Rewrite(uint64_t id, const std::string& content);

  /// Drops the instance's file and buffers (instance completed; its sealed
  /// log lives in the InstanceResult).
  Status Remove(uint64_t id);

  /// Buffered appends not yet on disk (across all instances).
  size_t pending_appends() const { return pending_appends_; }

 private:
  const std::string dir_;
  const size_t group_commit_records_;
  /// instance id → concatenated buffered append text.
  std::map<uint64_t, std::string> buffers_;
  size_t pending_appends_ = 0;
};

}  // namespace cdes::engine

#endif  // CDES_ENGINE_WAL_H_
