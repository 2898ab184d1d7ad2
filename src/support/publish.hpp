// Atomic publication of output files.
//
// Every file a CLI writes (containers, HTML reports, partial blobs)
// goes through here: the bytes go to a sibling temporary file, and
// only a complete output is renamed over the destination. A run that
// fails, throws or is killed before publish() leaves the previous file
// byte-identical (or no file at all), never a truncated one.
//
// The temporary lives next to the destination (`.<name>.<pid>.<n>.tmp`
// in the same directory), so the rename never crosses a file system.
// It is created with mode 0666 & ~umask, as a plain truncating open
// would create the destination. A destination that exists and is not
// a regular file (a FIFO, a device such as /dev/null, a symlink) is
// written in place instead: renaming over it would replace the node
// rather than feed it.
#pragma once

#include <fstream>
#include <ostream>
#include <string>
#include <string_view>

namespace st {

/// One output file under construction. Write through stream(), then
/// publish(); destroying it unpublished removes the temporary.
class PublishedFile {
 public:
  /// Creates the temporary (or opens a non-regular destination).
  /// Throws IoError("cannot create file: <path>").
  explicit PublishedFile(std::string path);
  PublishedFile(const PublishedFile&) = delete;
  PublishedFile& operator=(const PublishedFile&) = delete;
  /// Unlinks the temporary unless publish() succeeded.
  ~PublishedFile();

  [[nodiscard]] std::ostream& stream() { return out_; }

  /// Flushes and closes the temporary, then renames it over the
  /// destination (fault site "publish" fires before the rename).
  /// Throws IoError on a failed write, close or rename; the
  /// destination is then untouched.
  void publish();

 private:
  std::string path_;
  std::string tmp_;  ///< empty when writing in place
  std::ofstream out_;
  bool published_ = false;
};

/// Writes `bytes` to `path` through a PublishedFile.
void publish_file(const std::string& path, std::string_view bytes);

}  // namespace st
