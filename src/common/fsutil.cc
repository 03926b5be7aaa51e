#include "common/fsutil.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/codec.h"
#include "common/crc32c.h"

namespace clog {
namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

}  // namespace

Status AtomicWriteFile(const std::string& path, const std::string& blob) {
  std::string tmp = path + ".tmp";
  {
    int tfd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (tfd < 0) return Status::IOError(Errno("open " + tmp));
    if (::pwrite(tfd, blob.data(), blob.size(), 0) !=
        static_cast<ssize_t>(blob.size())) {
      Status st = Status::IOError(Errno("write " + tmp));
      ::close(tfd);
      return st;
    }
    if (::fsync(tfd) != 0) {
      Status st = Status::IOError(Errno("fsync " + tmp));
      ::close(tfd);
      return st;
    }
    ::close(tfd);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError(Errno("rename " + path));
  }
  std::string dir = ".";
  if (std::size_t slash = path.find_last_of('/'); slash != std::string::npos) {
    dir = path.substr(0, slash);
  }
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) return Status::IOError(Errno("open dir " + dir));
  if (::fsync(dfd) != 0) {
    Status st = Status::IOError(Errno("fsync dir " + dir));
    ::close(dfd);
    return st;
  }
  ::close(dfd);
  return Status::OK();
}

Status ReadFileToString(const std::string& path, std::string* out) {
  out->clear();
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return errno == ENOENT ? Status::NotFound("no such file: " + path)
                           : Status::IOError(Errno("open " + path));
  }
  char buf[8192];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    out->append(buf, static_cast<std::size_t>(n));
  }
  Status st = n < 0 ? Status::IOError(Errno("read " + path)) : Status::OK();
  ::close(fd);
  return st;
}

Status RemoveFileIfExists(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Status::IOError(Errno("unlink " + path));
  }
  return Status::OK();
}

Status WriteRecordFile(const std::string& path, std::uint32_t magic,
                       Slice body) {
  std::string blob;
  blob.reserve(body.size() + 8);
  Encoder enc(&blob);
  enc.PutU32(magic);
  enc.PutRaw(body);
  enc.PutU32(crc32c::Value(blob.data(), blob.size()));
  return AtomicWriteFile(path, blob);
}

Status ReadRecordFile(const std::string& path, std::uint32_t magic,
                      std::string* body) {
  std::string blob;
  CLOG_RETURN_IF_ERROR(ReadFileToString(path, &blob));
  if (blob.size() < 8) return Status::Corruption("truncated: " + path);
  Decoder dec(blob);
  std::uint32_t got_magic = 0, crc = 0;
  CLOG_RETURN_IF_ERROR(dec.GetU32(&got_magic));
  CLOG_RETURN_IF_ERROR(dec.GetRaw(blob.size() - 8, body));
  CLOG_RETURN_IF_ERROR(dec.GetU32(&crc));
  if (got_magic != magic) return Status::Corruption("bad magic: " + path);
  if (crc32c::Value(blob.data(), blob.size() - 4) != crc) {
    return Status::Corruption("checksum mismatch: " + path);
  }
  return Status::OK();
}

}  // namespace clog
