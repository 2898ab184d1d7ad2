#include "support/publish.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "support/errors.hpp"
#include "support/faultpoint.hpp"

namespace st {

namespace {

/// True when `path` names something other than a regular file.
bool exists_as_non_regular(const std::string& path) {
  struct stat st{};
  return ::lstat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode);
}

/// Creates a fresh sibling of `path` and returns its name; "" on failure.
std::string create_sibling_tmp(const std::string& path) {
  static std::atomic<unsigned> counter{0};
  const std::filesystem::path p(path);
  for (int attempt = 0; attempt < 100; ++attempt) {
    std::filesystem::path tmp = p.parent_path();
    tmp /= "." + p.filename().string() + "." + std::to_string(::getpid()) + "." +
           std::to_string(counter.fetch_add(1, std::memory_order_relaxed)) + ".tmp";
    // O_EXCL: never reuse a name another writer holds; 0666 lets the
    // umask decide the mode, as for any truncating open.
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
    if (fd >= 0) {
      ::close(fd);
      return tmp.string();
    }
    if (errno != EEXIST) break;
  }
  return {};
}

}  // namespace

PublishedFile::PublishedFile(std::string path) : path_(std::move(path)) {
  if (!exists_as_non_regular(path_)) {
    tmp_ = create_sibling_tmp(path_);
    if (tmp_.empty()) throw IoError("cannot create file: " + path_);
  }
  out_.open(tmp_.empty() ? path_ : tmp_, std::ios::binary | std::ios::trunc);
  if (!out_) {
    if (!tmp_.empty()) ::unlink(tmp_.c_str());
    throw IoError("cannot create file: " + path_);
  }
}

PublishedFile::~PublishedFile() {
  if (published_ || tmp_.empty()) return;
  out_.close();
  ::unlink(tmp_.c_str());
}

void PublishedFile::publish() {
  if (published_) return;
  out_.flush();
  const bool written = static_cast<bool>(out_);
  out_.close();
  if (!written || out_.fail()) throw IoError("cannot write file: " + path_);
  if (!tmp_.empty()) {
    FAULT_POINT("publish");
    if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
      throw IoError("cannot publish file: " + path_ + ": " + std::strerror(errno));
    }
  }
  published_ = true;
}

void publish_file(const std::string& path, std::string_view bytes) {
  PublishedFile file(path);
  file.stream().write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  file.publish();
}

}  // namespace st
