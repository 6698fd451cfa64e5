#include "store/segment.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/hash.h"
#include "common/logging.h"
#include "common/wire.h"
#include "store/crc32c.h"

namespace prompt {

namespace {

constexpr std::string_view kSegmentPrefix = "seg-";
constexpr std::string_view kSegmentSuffix = ".log";

Status WriteAll(int fd, const char* data, size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("segment write: ") +
                             std::strerror(errno));
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Parses the record frame at the front of `bytes` — length in bounds,
/// payload complete, CRC matching — and returns its payload. False on a
/// partial or corrupt frame.
bool ParseFrame(std::string_view bytes, std::string_view* payload) {
  wire::Reader r(bytes);
  uint32_t len = 0, stored = 0;
  if (!r.U32(&len) || !r.U32(&stored)) return false;
  if (len > kMaxRecordBytes || !r.Bytes(len, payload)) return false;
  return MaskCrc32c(Crc32c(payload->data(), payload->size())) == stored;
}

uint64_t BlobChecksum(std::string_view payload) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : payload) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return Mix64(h);
}

}  // namespace

// ---- Segment directories ----

std::string SegmentFileName(uint64_t id) {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%06llu.log",
                static_cast<unsigned long long>(id));
  return name;
}

bool ParseSegmentFileName(std::string_view name, uint64_t* id) {
  if (name.size() < kSegmentPrefix.size() + 1 + kSegmentSuffix.size() ||
      !name.starts_with(kSegmentPrefix) || !name.ends_with(kSegmentSuffix)) {
    return false;
  }
  const std::string_view digits = name.substr(
      kSegmentPrefix.size(),
      name.size() - kSegmentPrefix.size() - kSegmentSuffix.size());
  uint64_t value = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;  // overflow
    value = value * 10 + digit;
  }
  *id = value;
  return true;
}

Result<std::vector<SegmentFile>> ListSegments(const std::string& dir,
                                              const char* who) {
  struct Found {
    uint64_t id;
    bool canonical;
    std::string path;
  };
  std::vector<Found> found;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    uint64_t id = 0;
    std::error_code type_ec;
    if (!it->is_regular_file(type_ec) || !ParseSegmentFileName(name, &id)) {
      continue;
    }
    found.push_back(
        Found{id, name == SegmentFileName(id), it->path().string()});
  }
  if (ec) {
    return Status::IOError(std::string(who) + ": cannot list " + dir + ": " +
                           ec.message());
  }
  std::sort(found.begin(), found.end(), [](const Found& a, const Found& b) {
    if (a.id != b.id) return a.id < b.id;
    if (a.canonical != b.canonical) return a.canonical;
    return a.path < b.path;
  });
  std::vector<SegmentFile> segments;
  segments.reserve(found.size());
  for (Found& f : found) {
    if (!segments.empty() && segments.back().id == f.id) {
      PROMPT_LOG(kWarn) << who << ": duplicate segment id " << f.id << " at "
                        << f.path << "; ignoring the file";
      continue;
    }
    segments.push_back(SegmentFile{f.id, std::move(f.path)});
  }
  return segments;
}

// ---- Record payload header ----

std::string MakePayload(uint8_t kind, uint32_t owner, uint64_t batch_id,
                        std::string_view body) {
  std::string payload;
  payload.reserve(kPayloadHeaderBytes + body.size());
  wire::Writer w(&payload);
  w.U8(kind);
  w.U32(owner);
  w.U64(batch_id);
  w.Bytes(body);
  return payload;
}

bool ParsePayload(std::string_view payload, RecordPayload* out) {
  wire::Reader r(payload);
  if (!r.U8(&out->kind) || !r.U32(&out->owner) || !r.U64(&out->batch_id)) {
    return false;
  }
  out->body = r.Rest();
  return true;
}

// ---- Checksummed blobs ----

std::string SealBlob(uint32_t magic, std::string_view payload) {
  std::string blob;
  blob.reserve(kBlobHeaderBytes + payload.size());
  wire::Writer w(&blob);
  w.U32(magic);
  w.U64(BlobChecksum(payload));
  w.Bytes(payload);
  return blob;
}

Status CheckBlob(uint32_t magic, std::string_view blob, const char* what) {
  wire::Reader r(blob);
  uint32_t stored_magic = 0;
  uint64_t checksum = 0;
  if (!r.U32(&stored_magic) || stored_magic != magic) {
    return Status::Invalid(std::string("bad ") + what + " magic");
  }
  if (!r.U64(&checksum)) {
    return Status::Invalid(std::string("truncated ") + what + " checksum");
  }
  if (BlobChecksum(r.Rest()) != checksum) {
    return Status::Invalid(std::string(what) + " checksum mismatch");
  }
  return Status::OK();
}

// ---- Segment files ----

Result<SegmentScan> ScanSegmentFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open segment " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IOError("cannot read segment " + path);

  SegmentScan scan;
  scan.file_bytes = bytes.size();
  wire::Reader header(bytes);
  uint32_t magic = 0, version = 0;
  if (!header.U32(&magic) || !header.U32(&version) || magic != kSegmentMagic ||
      version != kSegmentVersion) {
    // No trustworthy header: nothing in the file can be believed.
    scan.header_ok = false;
    scan.valid_bytes = 0;
    scan.torn_bytes = bytes.size();
    scan.torn_records = bytes.empty() ? 0 : 1;
    return scan;
  }
  scan.header_ok = true;

  const std::string_view view(bytes);
  uint64_t off = kSegmentHeaderBytes;
  std::string_view payload;
  // Stop at the first partial, insane or CRC-failing frame — a torn write
  // or bit rot; nothing after it is trusted.
  while (off < bytes.size() && ParseFrame(view.substr(off), &payload)) {
    SegmentRecord record;
    record.offset = off;
    record.payload.assign(payload);
    scan.records.push_back(std::move(record));
    off += kRecordHeaderBytes + payload.size();
  }
  scan.valid_bytes = off;
  scan.torn_bytes = bytes.size() - off;
  scan.torn_records = scan.torn_bytes > 0 ? 1 : 0;
  return scan;
}

Result<SegmentScan> RecoverSegmentFile(const std::string& path,
                                       const char* who) {
  PROMPT_ASSIGN_OR_RETURN(SegmentScan scan, ScanSegmentFile(path));
  if (scan.header_ok && scan.torn_bytes > 0) {
    PROMPT_LOG(kWarn) << who << ": truncating torn tail of " << path << " ("
                      << scan.torn_bytes << " bytes past offset "
                      << scan.valid_bytes << ")";
    PROMPT_RETURN_NOT_OK(TruncateFile(path, scan.valid_bytes));
  }
  return scan;
}

std::string FrameRecord(std::string_view payload) {
  std::string frame;
  frame.reserve(kRecordHeaderBytes + payload.size());
  wire::Writer w(&frame);
  w.U32(static_cast<uint32_t>(payload.size()));
  w.U32(MaskCrc32c(Crc32c(payload.data(), payload.size())));
  w.Bytes(payload);
  return frame;
}

Result<std::string> ReadSegmentRecord(const std::string& path,
                                      uint64_t offset, uint64_t payload_bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  in.seekg(static_cast<std::streamoff>(offset));
  std::string frame(kRecordHeaderBytes + payload_bytes, '\0');
  in.read(frame.data(), static_cast<std::streamsize>(frame.size()));
  if (in.gcount() != static_cast<std::streamsize>(frame.size())) {
    return Status::IOError("short read from " + path);
  }
  std::string_view payload;
  if (!ParseFrame(frame, &payload) || payload.size() != payload_bytes) {
    return Status::IOError("record checksum mismatch in " + path);
  }
  frame.erase(0, kRecordHeaderBytes);
  return frame;
}

Status TruncateFile(const std::string& path, uint64_t size) {
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    return Status::IOError("truncate " + path + ": " + std::strerror(errno));
  }
  // The repair must itself be durable: a machine crash right after recovery
  // must not bring the torn tail back behind a reopened writer's back.
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) {
    return Status::IOError("reopen for fsync " + path + ": " +
                           std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::IOError("fsync " + path + ": " + std::strerror(errno));
  }
  return Status::OK();
}

Status SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IOError("open dir " + dir + ": " + std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::IOError("fsync dir " + dir + ": " + std::strerror(errno));
  }
  return Status::OK();
}

SegmentWriter::SegmentWriter(std::string path, int fd, uint64_t size,
                             uint64_t synced)
    : path_(std::move(path)), fd_(fd), size_(size), synced_bytes_(synced) {}

SegmentWriter::~SegmentWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<SegmentWriter>> SegmentWriter::Create(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    return Status::IOError("create segment " + path + ": " +
                           std::strerror(errno));
  }
  std::string header;
  wire::Writer w(&header);
  w.U32(kSegmentMagic);
  w.U32(kSegmentVersion);
  if (Status st = WriteAll(fd, header.data(), header.size()); !st.ok()) {
    ::close(fd);
    return st;
  }
  if (::fsync(fd) != 0) {
    Status st = Status::IOError("fsync segment header " + path + ": " +
                                std::strerror(errno));
    ::close(fd);
    return st;
  }
  return std::unique_ptr<SegmentWriter>(new SegmentWriter(
      path, fd, kSegmentHeaderBytes, kSegmentHeaderBytes));
}

Result<std::unique_ptr<SegmentWriter>> SegmentWriter::OpenExisting(
    const std::string& path, uint64_t size) {
  const int fd = ::open(path.c_str(), O_WRONLY, 0644);
  if (fd < 0) {
    return Status::IOError("open segment " + path + ": " +
                           std::strerror(errno));
  }
  if (::lseek(fd, static_cast<off_t>(size), SEEK_SET) < 0) {
    Status st = Status::IOError("seek segment " + path + ": " +
                                std::strerror(errno));
    ::close(fd);
    return st;
  }
  return std::unique_ptr<SegmentWriter>(
      new SegmentWriter(path, fd, size, size));
}

Result<uint64_t> SegmentWriter::Append(const std::string& payload) {
  if (payload.size() > kMaxRecordBytes) {
    return Status::Invalid("segment record exceeds the size bound");
  }
  const std::string frame = FrameRecord(payload);
  PROMPT_RETURN_NOT_OK(WriteAll(fd_, frame.data(), frame.size()));
  const uint64_t offset = size_;
  size_ += frame.size();
  return offset;
}

Status SegmentWriter::Sync() {
  if (synced_bytes_ == size_) return Status::OK();
  if (::fsync(fd_) != 0) {
    return Status::IOError("fsync " + path_ + ": " + std::strerror(errno));
  }
  synced_bytes_ = size_;
  return Status::OK();
}

Status SegmentWriter::TruncateTo(uint64_t size) {
  if (size > size_) return Status::Invalid("segment truncate cannot extend");
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return Status::IOError("ftruncate " + path_ + ": " + std::strerror(errno));
  }
  if (::lseek(fd_, static_cast<off_t>(size), SEEK_SET) < 0) {
    return Status::IOError("seek " + path_ + ": " + std::strerror(errno));
  }
  size_ = size;
  synced_bytes_ = std::min(synced_bytes_, size);
  return Status::OK();
}

}  // namespace prompt
