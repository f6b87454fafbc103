// PseudoFs — a generic in-memory pseudo-filesystem (the sysfs/procfs
// substrate). Files are backed by content providers evaluated on every read,
// so a read always reflects the state behind the file, and optionally by
// write handlers (cgroup knob files write through to the cgroup tree,
// exactly like echoing into /sys/fs/cgroup/...).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace arv::vfs {

using FileProvider = std::function<std::string()>;
/// Returns false when the written value is rejected (EINVAL analogue).
using WriteHandler = std::function<bool(std::string_view)>;

class PseudoFs {
 public:
  /// Register/replace a read-only file.
  void register_file(const std::string& path, FileProvider provider);

  /// Register/replace a writable file.
  void register_writable(const std::string& path, FileProvider provider,
                         WriteHandler on_write);

  /// Remove a file or (with a trailing '/')-free prefix removal of a subtree.
  void remove(const std::string& path);
  void remove_subtree(const std::string& prefix);

  bool exists(const std::string& path) const;

  /// Read the file's current content; nullopt if absent (ENOENT).
  std::optional<std::string> read(const std::string& path) const;

  /// Write to a file; false if absent, read-only, or the value is rejected.
  bool write(const std::string& path, std::string_view value);

  /// All registered paths under a prefix (sorted) — readdir analogue.
  std::vector<std::string> list(const std::string& prefix) const;

  std::size_t file_count() const { return files_.size(); }

  /// Always 0: every read renders. Kept because the repository benchmark
  /// (perfbench) still reports it as vfs.render_cache_hit_ratio.
  std::uint64_t render_cache_hits() const { return 0; }

 private:
  struct Entry {
    FileProvider provider;
    WriteHandler on_write;  // null => read-only
  };
  std::map<std::string, Entry> files_;
};

}  // namespace arv::vfs
