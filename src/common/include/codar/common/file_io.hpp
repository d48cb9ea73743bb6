#pragma once

// Thin POSIX file-I/O helpers for the persistent store (store::LogStore).
// Everything here goes through raw file descriptors on purpose: stdio's
// user-space buffering would make a SIGKILL lose records the caller
// believed written, while a returned ::write reaches the kernel page cache
// — visible to every subsequent open() even if the process dies an instant
// later. (Surviving a *machine* crash additionally needs sync(); the store
// decides when to pay for that.)
//
// Concurrency: AppendFile and RandomReadFile are NOT internally
// synchronized — each instance must be externally serialized, which the
// store does under its own annotated mutex (CODAR_GUARDED_BY in
// log_store.hpp). DirLock IS safe to hold from any thread: it is a kernel
// flock(2) on a lock file, acquired in the constructor and released by
// close/crash, so two processes can never append to the same store
// directory concurrently.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace codar::common {

/// Append-only writer over a POSIX fd (O_CREAT | O_APPEND). Throws
/// std::runtime_error when the file cannot be opened.
class AppendFile {
 public:
  explicit AppendFile(const std::string& path);
  ~AppendFile();

  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;

  /// Writes all of `data` (retrying short writes / EINTR). Returns false
  /// on a write error, after which the file may end in part of `data` —
  /// the store cuts it back to its last whole record.
  bool append(const void* data, std::size_t size);

  /// fsync(2): force appended bytes to stable storage (machine-crash
  /// durability; process-crash durability needs only append()).
  bool sync();

  /// Current file size in bytes (append offset).
  std::uint64_t size() const;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  int fd_ = -1;
};

/// Positional reader over a POSIX fd (pread, so no seek state and no
/// interference with a concurrent AppendFile on the same path). Throws
/// std::runtime_error when the file cannot be opened.
class RandomReadFile {
 public:
  explicit RandomReadFile(const std::string& path);
  ~RandomReadFile();

  RandomReadFile(const RandomReadFile&) = delete;
  RandomReadFile& operator=(const RandomReadFile&) = delete;

  /// Reads exactly `size` bytes at `offset` into `out`. Returns false on
  /// a short read (EOF inside the span) or an I/O error.
  bool read_at(std::uint64_t offset, std::size_t size, void* out) const;

  std::uint64_t size() const;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  int fd_ = -1;
};

/// Exclusive advisory lock on `dir/name`, held for the object's lifetime.
/// flock(2)-based: released automatically on close — including abnormal
/// process death — so a crashed server never wedges its store directory.
/// Throws std::runtime_error if the lock is already held elsewhere.
class DirLock {
 public:
  DirLock(const std::string& dir, const std::string& name);
  ~DirLock();

  DirLock(const DirLock&) = delete;
  DirLock& operator=(const DirLock&) = delete;

 private:
  int fd_ = -1;
};

/// Creates `dir` (and parents) if absent. Throws std::runtime_error when
/// the path exists as a non-directory or cannot be created.
void ensure_directory(const std::string& dir);

/// Names (not paths) of regular files in `dir` whose name starts with
/// `prefix`, sorted lexicographically. A missing directory yields {}.
std::vector<std::string> list_files_with_prefix(const std::string& dir,
                                                const std::string& prefix);

/// Truncates the file at `path` to `size` bytes. Returns false on error.
bool truncate_file(const std::string& path, std::uint64_t size);

/// Removes the file at `path`. Returns false on error (ENOENT included).
bool remove_file(const std::string& path);

/// Size of the file at `path`, or 0 when it cannot be stat'd.
std::uint64_t file_size(const std::string& path);

}  // namespace codar::common
