#include "src/vfs/pseudo_fs.h"

#include "src/util/assert.h"

namespace arv::vfs {

void PseudoFs::register_file(const std::string& path, FileProvider provider) {
  ARV_ASSERT(!path.empty() && path.front() == '/');
  ARV_ASSERT(provider != nullptr);
  files_[path] = Entry{std::move(provider), nullptr};
}

void PseudoFs::register_writable(const std::string& path, FileProvider provider,
                                 WriteHandler on_write) {
  ARV_ASSERT(!path.empty() && path.front() == '/');
  ARV_ASSERT(provider != nullptr && on_write != nullptr);
  files_[path] = Entry{std::move(provider), std::move(on_write)};
}

void PseudoFs::remove(const std::string& path) { files_.erase(path); }

void PseudoFs::remove_subtree(const std::string& prefix) {
  const auto first = files_.lower_bound(prefix);
  auto last = first;
  while (last != files_.end() && last->first.compare(0, prefix.size(), prefix) == 0) {
    ++last;
  }
  files_.erase(first, last);
}

bool PseudoFs::exists(const std::string& path) const {
  return files_.find(path) != files_.end();
}

std::optional<std::string> PseudoFs::read(const std::string& path) const {
  const auto it = files_.find(path);
  if (it == files_.end()) {
    return std::nullopt;
  }
  return it->second.provider();
}

bool PseudoFs::write(const std::string& path, std::string_view value) {
  const auto it = files_.find(path);
  if (it == files_.end() || it->second.on_write == nullptr) {
    return false;
  }
  return it->second.on_write(value);
}

std::vector<std::string> PseudoFs::list(const std::string& prefix) const {
  std::vector<std::string> out;
  for (auto it = files_.lower_bound(prefix);
       it != files_.end() && it->first.compare(0, prefix.size(), prefix) == 0; ++it) {
    out.push_back(it->first);
  }
  return out;
}

}  // namespace arv::vfs
