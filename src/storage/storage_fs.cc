#include "storage/storage_fs.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace aurora {

// ---------------------------------------------------------------------------
// MemStorageFs
// ---------------------------------------------------------------------------

Status MemStorageFs::Append(const std::string& path, const uint8_t* data,
                            size_t n) {
  FileRep& f = files_[path];
  f.data.insert(f.data.end(), data, data + n);
  appends_++;
  bytes_appended_ += n;
  return Status::OK();
}

Status MemStorageFs::Sync(const std::string& path) {
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::NotFound("sync: no such file '" + path + "'");
  }
  if (!sync_error_.ok()) return sync_error_;
  it->second.synced = it->second.data.size();
  syncs_++;
  return Status::OK();
}

Status MemStorageFs::WriteFileAtomic(const std::string& path,
                                     const std::vector<uint8_t>& data) {
  FileRep& f = files_[path];
  f.data = data;
  f.synced = data.size();
  return Status::OK();
}

Result<std::vector<uint8_t>> MemStorageFs::ReadFile(const std::string& path) {
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::NotFound("read: no such file '" + path + "'");
  }
  return it->second.data;
}

Result<uint64_t> MemStorageFs::FileSize(const std::string& path) {
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::NotFound("size: no such file '" + path + "'");
  }
  return static_cast<uint64_t>(it->second.data.size());
}

bool MemStorageFs::Exists(const std::string& path) {
  return files_.count(path) > 0;
}

std::vector<std::string> MemStorageFs::List(const std::string& prefix) {
  std::vector<std::string> out;
  for (const auto& [name, f] : files_) {
    if (name.rfind(prefix, 0) == 0) out.push_back(name);
  }
  return out;  // map iteration is already sorted
}

Status MemStorageFs::Remove(const std::string& path) {
  if (files_.erase(path) == 0) {
    return Status::NotFound("remove: no such file '" + path + "'");
  }
  return Status::OK();
}

void MemStorageFs::Crash() {
  crashes_++;
  for (auto it = files_.begin(); it != files_.end();) {
    FileRep& f = it->second;
    size_t keep = f.synced;
    if (torn_writes_ && f.data.size() > f.synced) {
      keep = f.synced + (f.data.size() - f.synced) / 2;
    }
    if (keep == 0) {
      // Nothing durable: the directory entry itself was never fsynced, so
      // the file does not exist after the crash.
      it = files_.erase(it);
      continue;
    }
    f.data.resize(keep);
    f.synced = f.data.size();
    ++it;
  }
}

uint64_t MemStorageFs::UnsyncedBytes(const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) return 0;
  return it->second.data.size() - it->second.synced;
}

uint64_t MemStorageFs::ContentDigest() const {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  auto mix = [&h](const uint8_t* p, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  };
  for (const auto& [name, f] : files_) {
    mix(reinterpret_cast<const uint8_t*>(name.data()), name.size());
    mix(f.data.data(), f.data.size());
  }
  return h;
}

// ---------------------------------------------------------------------------
// PosixStorageFs
// ---------------------------------------------------------------------------

namespace {

Status ErrnoStatus(const std::string& op, const std::string& path) {
  return Status::Internal(op + " '" + path + "': " + std::strerror(errno));
}

void ListRecursive(const std::string& abs_dir, const std::string& rel_dir,
                   std::vector<std::string>* out) {
  DIR* d = ::opendir(abs_dir.c_str());
  if (d == nullptr) return;
  while (struct dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    std::string abs = abs_dir + "/" + name;
    std::string rel = rel_dir.empty() ? name : rel_dir + "/" + name;
    struct stat st;
    if (::stat(abs.c_str(), &st) != 0) continue;
    if (S_ISDIR(st.st_mode)) {
      ListRecursive(abs, rel, out);
    } else {
      out->push_back(rel);
    }
  }
  ::closedir(d);
}

}  // namespace

PosixStorageFs::PosixStorageFs(std::string root) : root_(std::move(root)) {
  ::mkdir(root_.c_str(), 0755);  // best effort; surfaced on first write
}

Status PosixStorageFs::EnsureParentDirs(const std::string& path) {
  std::string abs = Abs(path);
  for (size_t i = root_.size() + 1; i < abs.size(); ++i) {
    if (abs[i] != '/') continue;
    std::string dir = abs.substr(0, i);
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
      return ErrnoStatus("mkdir", dir);
    }
  }
  return Status::OK();
}

Status PosixStorageFs::Append(const std::string& path, const uint8_t* data,
                              size_t n) {
  Status st = EnsureParentDirs(path);
  if (!st.ok()) return st;
  int fd = ::open(Abs(path).c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return ErrnoStatus("open", path);
  size_t off = 0;
  while (off < n) {
    ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      ::close(fd);
      return ErrnoStatus("write", path);
    }
    off += static_cast<size_t>(w);
  }
  ::close(fd);
  return Status::OK();
}

Status PosixStorageFs::Sync(const std::string& path) {
  int fd = ::open(Abs(path).c_str(), O_WRONLY);
  if (fd < 0) return ErrnoStatus("open", path);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return ErrnoStatus("fsync", path);
  return Status::OK();
}

Status PosixStorageFs::WriteFileAtomic(const std::string& path,
                                       const std::vector<uint8_t>& data) {
  Status st = EnsureParentDirs(path);
  if (!st.ok()) return st;
  std::string tmp = Abs(path) + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("open", tmp);
  size_t off = 0;
  while (off < data.size()) {
    ssize_t w = ::write(fd, data.data() + off, data.size() - off);
    if (w < 0) {
      ::close(fd);
      return ErrnoStatus("write", tmp);
    }
    off += static_cast<size_t>(w);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return ErrnoStatus("fsync", tmp);
  }
  ::close(fd);
  if (::rename(tmp.c_str(), Abs(path).c_str()) != 0) {
    return ErrnoStatus("rename", path);
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> PosixStorageFs::ReadFile(const std::string& path) {
  int fd = ::open(Abs(path).c_str(), O_RDONLY);
  if (fd < 0) return ErrnoStatus("open", path);
  std::vector<uint8_t> out;
  uint8_t buf[1 << 16];
  while (true) {
    ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r < 0) {
      ::close(fd);
      return ErrnoStatus("read", path);
    }
    if (r == 0) break;
    out.insert(out.end(), buf, buf + r);
  }
  ::close(fd);
  return out;
}

Result<uint64_t> PosixStorageFs::FileSize(const std::string& path) {
  struct stat st;
  if (::stat(Abs(path).c_str(), &st) != 0) return ErrnoStatus("stat", path);
  return static_cast<uint64_t>(st.st_size);
}

bool PosixStorageFs::Exists(const std::string& path) {
  struct stat st;
  return ::stat(Abs(path).c_str(), &st) == 0;
}

std::vector<std::string> PosixStorageFs::List(const std::string& prefix) {
  std::vector<std::string> all;
  ListRecursive(root_, "", &all);
  std::vector<std::string> out;
  for (auto& name : all) {
    if (name.rfind(prefix, 0) == 0) out.push_back(std::move(name));
  }
  std::sort(out.begin(), out.end());
  return out;
}

Status PosixStorageFs::Remove(const std::string& path) {
  if (::unlink(Abs(path).c_str()) != 0) return ErrnoStatus("unlink", path);
  return Status::OK();
}

}  // namespace aurora
