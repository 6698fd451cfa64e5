// Append-only segment files: a fixed header followed by length-prefixed,
// CRC32C-checksummed records (the log format of LevelDB/Kafka-style stores).
// The durable block store and the flight-recorder journal both keep their
// data in directories of these files, so every on-disk format decision the
// two share lives here and only here: segment naming and directory listing,
// record framing and CRC verification, the record payload header, and the
// checksummed-blob framing of encoded batches and window checkpoints.
//
// A torn tail — the partial record a crash leaves behind — is detected by
// the length/CRC check and truncated away on open; everything before the
// first bad byte is trusted, nothing after it is.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace prompt {

// ---- Segment directories ----

/// \brief The canonical file name of segment `id`: `seg-NNNNNN.log`
/// (zero-padded to six digits, wider ids print in full).
std::string SegmentFileName(uint64_t id);

/// \brief Strictly parses `seg-<digits>.log` — the full name, any digit
/// count — so strays (`seg-000001.log.bak`, editor droppings) are never
/// taken for segments. Ids that overflow 64 bits are rejected, not wrapped.
bool ParseSegmentFileName(std::string_view name, uint64_t* id);

/// \brief One segment file found in a directory.
struct SegmentFile {
  uint64_t id = 0;
  /// The entry's own path (never re-derived from the id: a hand-renamed
  /// but well-formed `seg-1.log` is read from where it actually is).
  std::string path;
};

/// \brief Every regular file in `dir` named like a segment, ascending by
/// id. Two names for one id (`seg-0.log` beside `seg-000000.log`) keep the
/// canonical name, else the first path, and skip the rest with a warning:
/// a duplicate must never have its records read twice. `who` prefixes the
/// warning ("store", "journal").
Result<std::vector<SegmentFile>> ListSegments(const std::string& dir,
                                              const char* who);

// ---- Record payload header ----

/// Record payloads of both the store and the journal start with
///   [kind u8][owner u32][batch_id u64]
/// then a kind-specific body. The store uses kinds 1-2 (put, tombstone),
/// the journal 16-22, so a mixed-up directory fails loudly.
inline constexpr size_t kPayloadHeaderBytes = 13;

/// \brief A record payload split into its header fields and body.
struct RecordPayload {
  uint8_t kind = 0;
  uint32_t owner = 0;
  uint64_t batch_id = 0;
  std::string_view body;  ///< view into the parsed payload
};

/// \brief Builds `[kind][owner][batch_id][body]`.
std::string MakePayload(uint8_t kind, uint32_t owner, uint64_t batch_id,
                        std::string_view body);

/// \brief Splits a payload; false when it is shorter than the header.
bool ParsePayload(std::string_view payload, RecordPayload* out);

// ---- Checksummed blobs ----

/// Encoded batches and window checkpoints are framed as
///   [magic u32][checksum u64][payload]
/// with an FNV-1a/Mix64 checksum over the payload. Its offset basis is
/// 1469598103934665603, *not* the standard one HashBytes uses — the bytes
/// on disk depend on it, so the two are deliberately separate.
inline constexpr size_t kBlobHeaderBytes = 12;

/// \brief Frames `payload` as `[magic][checksum][payload]`.
std::string SealBlob(uint32_t magic, std::string_view payload);

/// \brief Verifies a blob's magic and checksum; on success the payload
/// starts at kBlobHeaderBytes. `what` names the blob in the error.
Status CheckBlob(uint32_t magic, std::string_view blob, const char* what);

// ---- Segment files ----

/// File header: magic + format version, fsynced at creation.
inline constexpr uint32_t kSegmentMagic = 0x50534731;  // "PSG1"
inline constexpr uint32_t kSegmentVersion = 1;
inline constexpr uint64_t kSegmentHeaderBytes = 8;

/// Record framing: [payload length u32][masked crc32c(payload) u32][payload].
inline constexpr uint64_t kRecordHeaderBytes = 8;

/// Records larger than this fail the sanity check during a scan (a corrupt
/// length prefix must not drive a multi-gigabyte read).
inline constexpr uint64_t kMaxRecordBytes = 1ull << 30;

/// \brief One valid record found by ScanSegmentFile.
struct SegmentRecord {
  uint64_t offset = 0;  ///< file offset of the record header
  std::string payload;
};

/// \brief Result of scanning one segment file.
struct SegmentScan {
  std::vector<SegmentRecord> records;
  /// Offset of the first byte that is NOT part of a valid record — the
  /// truncation point a recovery applies. Equals the file size when the
  /// segment is clean.
  uint64_t valid_bytes = 0;
  uint64_t file_bytes = 0;
  /// Bytes past valid_bytes (a torn or corrupt tail; 0 when clean).
  uint64_t torn_bytes = 0;
  /// 1 when a partial/corrupt record was found and dropped, else 0. (All
  /// records after the first bad one are unreachable, so at most one
  /// *detected* drop per segment.)
  uint32_t torn_records = 0;
  bool header_ok = false;
};

/// \brief Reads a segment file and validates every record in order,
/// stopping at the first bad length or CRC. Never fabricates: a record is
/// returned only when its checksum verifies. IO errors (unreadable file)
/// fail the Result; corruption does not — it is reported in the scan.
Result<SegmentScan> ScanSegmentFile(const std::string& path);

/// \brief Frames one record: `[len u32][masked crc32c u32][payload]`.
std::string FrameRecord(std::string_view payload);

/// \brief ScanSegmentFile plus the torn-tail repair rule shared by every
/// writer that resumes a segment directory: when the header is valid and a
/// torn tail follows the last good record, the file is truncated (and
/// fsynced) at `valid_bytes`, with a warning prefixed by `who`. A corrupt
/// header is left for the caller to handle.
Result<SegmentScan> RecoverSegmentFile(const std::string& path,
                                       const char* who);

/// \brief Reads the record at `offset` of the segment at `path` and
/// re-verifies its length and CRC; returns the `payload_bytes`-byte payload.
Result<std::string> ReadSegmentRecord(const std::string& path,
                                      uint64_t offset, uint64_t payload_bytes);

/// \brief Truncates `path` to `size` bytes and fsyncs the result (torn-tail
/// repair and crash simulation both reduce files, never extend them; the
/// fsync keeps the repair durable across a machine crash).
Status TruncateFile(const std::string& path, uint64_t size);

/// \brief fsyncs a directory, making recent file creations/deletions inside
/// it durable (a synced record in an unlinked-by-crash file is still lost).
Status SyncDir(const std::string& dir);

/// \brief Appender over one segment file with an explicit fsync watermark.
///
/// Append() buffers nothing — every record is write()n to the file — but
/// only Sync() advances the *durability* watermark. SimulateCrash() on the
/// owning store truncates to that watermark: the worst-case machine-crash
/// outcome where nothing unsynced survived.
class SegmentWriter {
 public:
  /// Creates the file, writes the header and fsyncs it (one fsync per
  /// segment lifetime regardless of policy; creation is a metadata event).
  static Result<std::unique_ptr<SegmentWriter>> Create(const std::string& path);

  /// Reopens an existing (scanned) segment for further appends. The first
  /// `size` bytes are assumed valid AND durable — recovery fsyncs any
  /// tail repair (TruncateFile), and bytes that survived the crash are by
  /// definition on disk — so reopened content counts as synced.
  static Result<std::unique_ptr<SegmentWriter>> OpenExisting(
      const std::string& path, uint64_t size);

  ~SegmentWriter();
  PROMPT_DISALLOW_COPY_AND_ASSIGN(SegmentWriter);

  /// Appends one framed record; returns the record's file offset.
  Result<uint64_t> Append(const std::string& payload);

  /// fsyncs the file and advances the durability watermark to size().
  Status Sync();

  /// Truncates the file to `size` and clamps the watermark (crash
  /// simulation only; normal operation is append-only).
  Status TruncateTo(uint64_t size);

  uint64_t size() const { return size_; }
  uint64_t synced_bytes() const { return synced_bytes_; }
  const std::string& path() const { return path_; }

 private:
  SegmentWriter(std::string path, int fd, uint64_t size, uint64_t synced);

  std::string path_;
  int fd_ = -1;
  uint64_t size_ = 0;
  uint64_t synced_bytes_ = 0;
};

}  // namespace prompt
