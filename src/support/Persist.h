//===- support/Persist.h - Crash-safe durable-state layer -------*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The durable-state layer under the GP solution cache and the shardable
/// network sweeps (docs/PERSISTENCE.md). Two file formats share one
/// versioned magic (`thistle-snapshot/1`) and one integrity discipline:
/// every payload is CRC32-checksummed and length-framed, so a torn,
/// truncated or bit-flipped file is *detected and reported* — never a
/// crash, never a silently wrong answer.
///
///  - *Snapshot* files hold one whole-state payload and are written
///    atomically: the bytes go to a temporary sibling which is renamed
///    over the target, so a reader never observes a half-written
///    snapshot (POSIX rename atomicity).
///  - *Journal* files are append-only sequences of framed records, one
///    fflush per append, so state persists at record granularity across
///    SIGKILL. A torn or corrupt tail is dropped and the intact prefix
///    kept (readJournalFile reports what was lost).
///
/// Load errors use the Expected<T>/Status taxonomy: NotFound for a
/// missing file, ParseError for an unrecognized header, DataLoss for a
/// truncated payload or CRC mismatch. Callers degrade to a cold start
/// and surface the diagnostic (run report + stderr), per the robustness
/// contract in docs/ROBUSTNESS.md.
///
/// Fault-injection sites (THISTLE_FAULT, docs/ROBUSTNESS.md), keyed by
/// artifact so tests can target one path:
///   persist.write-fail   key 0: snapshot write fails; key 1: journal
///                        append fails (simulated full disk)
///   persist.torn-write   the payload is truncated mid-write (simulated
///                        crash without the atomic rename protecting it)
///   persist.corrupt-crc  one payload byte is flipped after the CRC was
///                        computed (simulated media corruption)
///   persist.kill         keyed by journal record count: the process
///                        SIGKILLs itself right after that record of the
///                        open journal is flushed (simulated crash)
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_SUPPORT_PERSIST_H
#define THISTLE_SUPPORT_PERSIST_H

#include "support/Status.h"

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace thistle {
namespace persist {

/// Version magic shared by both file formats; bumped on any
/// incompatible layout change (a reader rejects unknown versions as
/// ParseError rather than guessing).
inline constexpr const char *SnapshotMagic = "thistle-snapshot/1";

/// CRC-32 (IEEE 802.3, reflected), eight bytes per step (slice-by-8).
/// crc32("123456789") == 0xCBF43926.
std::uint32_t crc32(const void *Data, std::size_t Size,
                    std::uint32_t Seed = 0);

/// Append-only binary payload builder. Integers are little-endian
/// fixed-width; doubles are serialized as their IEEE-754 bit pattern so
/// a round trip is bit-exact (including negative zero, infinities and
/// NaN payloads); strings are u64-length-prefixed.
class Encoder {
public:
  void putU32(std::uint32_t V);
  void putU64(std::uint64_t V);
  void putI64(std::int64_t V);
  void putBool(bool V) { putU32(V ? 1 : 0); }
  void putDouble(double V);
  void putString(std::string_view S);

  const std::string &bytes() const { return Buf; }
  std::string takeBytes() { return std::move(Buf); }

private:
  std::string Buf;
};

/// Bounds-checked reader over an Encoder payload. Any underrun or
/// malformed field latches failed(); subsequent gets return false
/// without touching their output, so decode loops can bail once at the
/// end instead of checking every field.
class Decoder {
public:
  explicit Decoder(std::string_view Bytes) : Data(Bytes) {}

  bool getU32(std::uint32_t &Out);
  bool getU64(std::uint64_t &Out);
  bool getI64(std::int64_t &Out);
  bool getBool(bool &Out);
  bool getDouble(double &Out);
  bool getString(std::string &Out);

  bool failed() const { return Failed; }
  bool atEnd() const { return Pos == Data.size(); }
  std::size_t remaining() const { return Data.size() - Pos; }

private:
  bool take(std::size_t N, const char *&Out);

  std::string_view Data;
  std::size_t Pos = 0;
  bool Failed = false;
};

/// Writes `<magic> snap <kind> <size> <crc>\n<payload>` to \p Path via
/// a write-temp-then-rename so the target is replaced atomically.
/// DataLoss on I/O failure (the temporary is cleaned up; the previous
/// snapshot, if any, is left untouched).
Status writeSnapshotFile(const std::string &Path, const std::string &Kind,
                         const std::string &Payload);

/// Reads and verifies a snapshot written by writeSnapshotFile. NotFound
/// when the file does not exist; ParseError on an unrecognized header
/// or mismatched \p Kind; DataLoss on a truncated payload or CRC
/// mismatch. On success the payload bytes are returned verbatim.
Expected<std::string> readSnapshotFile(const std::string &Path,
                                       const std::string &Kind);

/// Append-only record journal: `<magic> journal <kind>\n` followed by
/// `rec <size> <crc>\n<payload>\n` frames. Each append is flushed to
/// the kernel before returning, so a record survives SIGKILL of the
/// writer (full power-loss durability would need fsync; the crash
/// model here is process death).
class JournalWriter {
public:
  JournalWriter() = default;
  ~JournalWriter() { close(); }
  JournalWriter(const JournalWriter &) = delete;
  JournalWriter &operator=(const JournalWriter &) = delete;

  /// Opens \p Path for appending where readJournalFile will find the
  /// new records: right after the last intact record of a journal it
  /// reads (a torn or corrupt tail is cut off first), or behind a fresh
  /// header when the file is missing, empty or refused (another kind or
  /// version, no header), whose content is lost to the loader anyway.
  /// DataLoss when the file cannot be opened, cut or headed.
  Status open(const std::string &Path, const std::string &Kind);

  /// Appends one framed record and flushes. DataLoss on a short or
  /// failed write (the journal stays open; a torn frame is detected
  /// and dropped by the reader).
  Status append(const std::string &Payload);

  void close();
  bool isOpen() const { return File != nullptr; }

private:
  std::FILE *File = nullptr;
  std::uint64_t Appended = 0; ///< Records appended since open().
};

/// What readJournalFile recovered.
struct JournalContents {
  std::vector<std::string> Records; ///< Intact records, append order.
  /// True when a torn or corrupt tail was dropped; Problem then
  /// describes the damage and where the intact prefix ends.
  bool Truncated = false;
  std::string Problem;
  /// Bytes of the header and the intact records: where the intact
  /// prefix ends and an appender continues.
  std::uint64_t IntactBytes = 0;
};

/// Reads every intact record of a journal. A torn/corrupt tail is not
/// an error — the prefix is returned with Truncated set — because a
/// journal interrupted by SIGKILL is the format working as designed.
/// NotFound / ParseError follow readSnapshotFile's conventions.
Expected<JournalContents> readJournalFile(const std::string &Path,
                                          const std::string &Kind);

/// Small filesystem helpers shared by the persistence callers.
bool fileExists(const std::string &Path);
Status createDirectories(const std::string &Path);
Status removeFile(const std::string &Path);
/// Regular files in \p Dir whose name starts with \p Prefix and ends
/// with \p Suffix, sorted by name; empty on a missing directory.
std::vector<std::string> listFiles(const std::string &Dir,
                                   const std::string &Prefix,
                                   const std::string &Suffix);

} // namespace persist
} // namespace thistle

#endif // THISTLE_SUPPORT_PERSIST_H
