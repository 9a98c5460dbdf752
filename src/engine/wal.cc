#include "engine/wal.h"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/strings.h"

namespace cdes::engine {
namespace {

Status WriteWhole(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal(StrCat("cannot open '", path, "' for writing"));
  }
  size_t written = std::fwrite(content.data(), 1, content.size(), f);
  int closed = std::fclose(f);
  if (written != content.size() || closed != 0) {
    return Status::Internal(StrCat("short write to '", path, "'"));
  }
  return Status::OK();
}

}  // namespace

ShardWal::ShardWal(std::string dir, size_t group_commit_records)
    : dir_(std::move(dir)), group_commit_records_(group_commit_records) {
  CDES_CHECK(!dir_.empty()) << "ShardWal needs a directory";
  CDES_CHECK(group_commit_records_ > 0);
}

std::string ShardWal::PathFor(uint64_t id) const {
  return StrCat(dir_, "/", id, ".log");
}

Status ShardWal::Create(uint64_t id, const std::string& content) {
  buffers_.erase(id);
  return Rewrite(id, content);
}

void ShardWal::Append(uint64_t id, const std::string& text) {
  buffers_[id] += text;
  // Count lines, not calls: a checkpoint section appends several lines at
  // once and each is one durable record for group-commit accounting.
  pending_appends_ += static_cast<size_t>(
      std::count(text.begin(), text.end(), '\n'));
}

Status ShardWal::Flush(uint64_t id) {
  auto it = buffers_.find(id);
  if (it == buffers_.end() || it->second.empty()) return Status::OK();
  std::FILE* f = std::fopen(PathFor(id).c_str(), "ab");
  if (f == nullptr) {
    return Status::Internal(
        StrCat("cannot open '", PathFor(id), "' for append"));
  }
  size_t written = std::fwrite(it->second.data(), 1, it->second.size(), f);
  int closed = std::fclose(f);
  if (written != it->second.size() || closed != 0) {
    return Status::Internal(StrCat("short append to '", PathFor(id), "'"));
  }
  // Conservative: a partially flushed buffer would double lines on retry,
  // so the count drops only after the whole buffer landed.
  pending_appends_ -= std::count(it->second.begin(), it->second.end(), '\n');
  buffers_.erase(it);
  return Status::OK();
}

Status ShardWal::FlushAll() {
  // Collect ids first: Flush erases its buffer entry.
  std::vector<uint64_t> ids;
  ids.reserve(buffers_.size());
  for (const auto& [id, text] : buffers_) ids.push_back(id);
  for (uint64_t id : ids) {
    Status s = Flush(id);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status ShardWal::Rewrite(uint64_t id, const std::string& content) {
  // tmp + rename: the visible file is always a complete image. A crash
  // before the rename leaves the old file intact; after it, the new one.
  std::string path = PathFor(id);
  std::string tmp = StrCat(path, ".tmp");
  Status s = WriteWhole(tmp, content);
  if (!s.ok()) return s;
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal(StrCat("cannot rename '", tmp, "'"));
  }
  auto it = buffers_.find(id);
  if (it != buffers_.end()) {
    pending_appends_ -=
        std::count(it->second.begin(), it->second.end(), '\n');
    buffers_.erase(it);
  }
  return Status::OK();
}

Status ShardWal::Remove(uint64_t id) {
  auto it = buffers_.find(id);
  if (it != buffers_.end()) {
    pending_appends_ -=
        std::count(it->second.begin(), it->second.end(), '\n');
    buffers_.erase(it);
  }
  std::remove(PathFor(id).c_str());  // absent file is fine
  return Status::OK();
}

}  // namespace cdes::engine
