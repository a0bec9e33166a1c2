#ifndef AURORA_STORAGE_STORAGE_FS_H_
#define AURORA_STORAGE_STORAGE_FS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"

namespace aurora {

/// \brief Injectable file-system boundary under the tiered store.
///
/// Every byte the storage subsystem persists goes through this interface,
/// which is what makes the store testable and deterministic: production runs
/// use PosixStorageFs against a real directory, while simcheck/tests use
/// MemStorageFs — a pure in-memory model whose durability semantics (synced
/// prefix survives a crash, unsynced suffix is lost or torn) are driven
/// explicitly by the test instead of by the kernel's page cache.
///
/// Paths are relative, '/'-separated names ("aof/000001.log"); backends own
/// the mapping to real locations. Append-only writing plus whole-file
/// atomic replace is the entire write surface — the same narrow contract
/// LSM-style stores rely on, and small enough that the two backends cannot
/// drift apart semantically.
class StorageFs {
 public:
  virtual ~StorageFs() = default;

  /// Appends `n` bytes to `path`, creating it if absent. Appended data is
  /// readable immediately but only durable (crash-survivable) after Sync.
  virtual Status Append(const std::string& path, const uint8_t* data,
                        size_t n) = 0;

  /// Makes all appended bytes of `path` durable (fsync).
  virtual Status Sync(const std::string& path) = 0;

  /// Atomically replaces `path` with `data`, durable on return (write to a
  /// temporary, fsync, rename). Readers never observe a partial file.
  virtual Status WriteFileAtomic(const std::string& path,
                                 const std::vector<uint8_t>& data) = 0;

  virtual Result<std::vector<uint8_t>> ReadFile(const std::string& path) = 0;
  virtual Result<uint64_t> FileSize(const std::string& path) = 0;
  virtual bool Exists(const std::string& path) = 0;
  /// All file paths starting with `prefix`, lexicographically sorted (the
  /// store's segment/page names are zero-padded so this is creation order).
  virtual std::vector<std::string> List(const std::string& prefix) = 0;
  virtual Status Remove(const std::string& path) = 0;

  /// Fault hook: models a machine/process failure. In-memory backends drop
  /// every unsynced byte (optionally leaving a torn partial append, see
  /// MemStorageFs); the POSIX backend is a no-op — a real crash is outside
  /// the process.
  virtual void Crash() {}
};

/// \brief Deterministic in-memory StorageFs for tests and simcheck.
///
/// Each file tracks its synced prefix separately from unsynced appends, so
/// Crash() models exactly what a kernel loses: synced bytes survive, the
/// unsynced suffix vanishes. With set_torn_writes(true), Crash() instead
/// keeps the first half (rounded down) of each file's unsynced suffix — a
/// torn final write, the input the AOF recovery path's checksum scan must
/// tolerate. Both behaviours are pure functions of the append history, so
/// two same-seed runs crash into byte-identical states.
class MemStorageFs final : public StorageFs {
 public:
  Status Append(const std::string& path, const uint8_t* data,
                size_t n) override;
  Status Sync(const std::string& path) override;
  Status WriteFileAtomic(const std::string& path,
                         const std::vector<uint8_t>& data) override;
  Result<std::vector<uint8_t>> ReadFile(const std::string& path) override;
  Result<uint64_t> FileSize(const std::string& path) override;
  bool Exists(const std::string& path) override;
  std::vector<std::string> List(const std::string& prefix) override;
  Status Remove(const std::string& path) override;
  void Crash() override;

  /// When set, Crash() leaves a deterministic torn tail (half the unsynced
  /// suffix) instead of dropping it cleanly.
  void set_torn_writes(bool torn) { torn_writes_ = torn; }

  /// When set, every Sync returns this status (fsync-loss fault hook) and
  /// leaves the file's unsynced suffix volatile.
  void set_sync_error(Status st) { sync_error_ = std::move(st); }

  // Introspection for tests and determinism diffs.
  uint64_t appends() const { return appends_; }
  uint64_t syncs() const { return syncs_; }
  uint64_t bytes_appended() const { return bytes_appended_; }
  uint64_t crashes() const { return crashes_; }
  /// Bytes of `path` not yet durable; 0 when absent.
  uint64_t UnsyncedBytes(const std::string& path) const;
  /// FNV-1a digest over every (name, content) pair in sorted order — one
  /// number that proves two runs produced byte-identical storage state.
  uint64_t ContentDigest() const;

 private:
  struct FileRep {
    std::vector<uint8_t> data;
    size_t synced = 0;  // prefix length that survives Crash()
  };
  std::map<std::string, FileRep> files_;
  bool torn_writes_ = false;
  Status sync_error_;  // OK = syncs succeed
  uint64_t appends_ = 0;
  uint64_t syncs_ = 0;
  uint64_t bytes_appended_ = 0;
  uint64_t crashes_ = 0;
};

/// \brief Real-directory StorageFs (POSIX appends + fsync + atomic rename).
///
/// Maps relative paths under `root`, creating subdirectories on demand.
/// Used when the store must outlive the process; everything the simulation
/// and CI exercise runs on MemStorageFs.
class PosixStorageFs final : public StorageFs {
 public:
  explicit PosixStorageFs(std::string root);

  Status Append(const std::string& path, const uint8_t* data,
                size_t n) override;
  Status Sync(const std::string& path) override;
  Status WriteFileAtomic(const std::string& path,
                         const std::vector<uint8_t>& data) override;
  Result<std::vector<uint8_t>> ReadFile(const std::string& path) override;
  Result<uint64_t> FileSize(const std::string& path) override;
  bool Exists(const std::string& path) override;
  std::vector<std::string> List(const std::string& prefix) override;
  Status Remove(const std::string& path) override;

  const std::string& root() const { return root_; }

 private:
  std::string Abs(const std::string& path) const { return root_ + "/" + path; }
  Status EnsureParentDirs(const std::string& path);

  std::string root_;
};

}  // namespace aurora

#endif  // AURORA_STORAGE_STORAGE_FS_H_
