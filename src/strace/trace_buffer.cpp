#include "strace/trace_buffer.hpp"

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "support/errors.hpp"
#include "support/faultpoint.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define ST_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace st::strace {

TraceBuffer::~TraceBuffer() {
#ifdef ST_HAVE_MMAP
  if (map_ != nullptr) ::munmap(map_, map_size_);
#endif
}

std::shared_ptr<TraceBuffer> TraceBuffer::from_file(const std::string& path) {
  FAULT_POINT("reader.open");
  // A directory opens as a stream on some platforms, then reports a
  // nonsense size; it is never a trace.
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) throw IoError("trace file is a directory: " + path);
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open trace file: " + path);
  // Read to the end rather than sizing by seek: pipes and devices have
  // no size.
  std::string text;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  if (in.bad()) throw IoError("cannot read trace file: " + path);
  return std::make_shared<TraceBuffer>(std::move(text));
}

std::shared_ptr<TraceBuffer> TraceBuffer::from_file_mmap(const std::string& path) {
  return from_file_read_small(path, 0);
}

std::shared_ptr<TraceBuffer> TraceBuffer::from_file_read_small(const std::string& path,
                                                               std::size_t read_at_most) {
#ifdef ST_HAVE_MMAP
  // Hits twice on the rare mmap-failure fallback into from_file — nth
  // targeting in tests should use the common one-hit-per-open case.
  FAULT_POINT("reader.open");
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw IoError("cannot open trace file: " + path);
  // The mapping keeps its own reference to the file.
  const struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};
  struct stat st{};
  if (::fstat(fd, &st) != 0) throw IoError("cannot stat trace file: " + path);
  if (S_ISDIR(st.st_mode)) throw IoError("trace file is a directory: " + path);
  if (!S_ISREG(st.st_mode)) {
    // Pipes and devices cannot be mapped or sized, and a pipe's bytes
    // are gone once read: take them from this descriptor, to the end.
    std::string text;
    char chunk[1 << 16];
    for (;;) {
      const ssize_t got = ::read(fd, chunk, sizeof chunk);
      if (got == 0) break;
      if (got < 0) {
        if (errno == EINTR) continue;
        throw IoError("cannot read trace file: " + path);
      }
      text.append(chunk, static_cast<std::size_t>(got));
    }
    return std::make_shared<TraceBuffer>(std::move(text));
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size <= read_at_most) {
    std::string text(size, '\0');
    std::size_t got = 0;
    while (got < size) {
      const ssize_t n = ::pread(fd, text.data() + got, size - got, static_cast<off_t>(got));
      if (n == 0) break;  // the file shrank since the stat
      if (n < 0) {
        if (errno == EINTR) continue;
        throw IoError("cannot read trace file: " + path);
      }
      got += static_cast<std::size_t>(n);
    }
    text.resize(got);
    return std::make_shared<TraceBuffer>(std::move(text));
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  if (map == MAP_FAILED) return from_file(path);
#ifdef MADV_SEQUENTIAL
  ::madvise(map, size, MADV_SEQUENTIAL);  // parse is one forward pass
#endif
  auto buffer = std::make_shared<TraceBuffer>();
  buffer->map_ = map;
  buffer->map_size_ = size;
  buffer->view_ = std::string_view(static_cast<const char*>(map), size);
  return buffer;
#else
  (void)read_at_most;
  return from_file(path);
#endif
}

}  // namespace st::strace
