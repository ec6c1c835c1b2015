//===- support/Persist.cpp - Crash-safe durable-state layer ---------------===//

#include "support/Persist.h"

#include "support/FaultInjection.h"

#include <algorithm>
#include <array>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <system_error>

using namespace thistle;
using namespace thistle::persist;

namespace {

/// Fault-site keys (see the header comment): one per durable artifact,
/// so a test can corrupt the snapshot without touching the journal.
constexpr std::int64_t FaultKeySnapshot = 0;
constexpr std::int64_t FaultKeyJournal = 1;

/// Slice-by-8 tables: T[0][I] is the CRC register after byte I alone
/// (the classic bytewise table), and T[K][I] is T[K-1][I] run through
/// one more zero byte, i.e. byte I's contribution once K more bytes have
/// followed it. Eight lookups then fold eight input bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

const CrcTables &crcTables() {
  static const CrcTables Tables = [] {
    CrcTables T{};
    for (std::uint32_t I = 0; I < 256; ++I) {
      std::uint32_t C = I;
      for (int K = 0; K < 8; ++K)
        C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
      T[0][I] = C;
    }
    for (std::size_t K = 1; K < 8; ++K)
      for (std::uint32_t I = 0; I < 256; ++I)
        T[K][I] = (T[K - 1][I] >> 8) ^ T[0][T[K - 1][I] & 0xFFu];
    return T;
  }();
  return Tables;
}

std::string crcHex(std::uint32_t Crc) {
  char Buf[16];
  std::snprintf(Buf, sizeof(Buf), "%08x", Crc);
  return Buf;
}

/// RAII stdio handle so every early return closes the file.
struct FileHandle {
  std::FILE *F = nullptr;
  explicit FileHandle(std::FILE *F) : F(F) {}
  ~FileHandle() {
    if (F)
      std::fclose(F);
  }
  FileHandle(const FileHandle &) = delete;
  FileHandle &operator=(const FileHandle &) = delete;
};

/// Reads one header-style text line (up to \n, which is consumed).
/// False on EOF before any byte or on an unreasonably long line.
bool readLine(std::FILE *F, std::string &Out) {
  Out.clear();
  constexpr std::size_t MaxLine = 256;
  int C;
  while ((C = std::fgetc(F)) != EOF) {
    if (C == '\n')
      return true;
    Out += static_cast<char>(C);
    if (Out.size() > MaxLine)
      return false;
  }
  return false;
}

/// Splits a header line on single spaces.
std::vector<std::string> splitFields(const std::string &Line) {
  std::vector<std::string> Out;
  std::size_t Start = 0;
  while (Start <= Line.size()) {
    std::size_t End = Line.find(' ', Start);
    if (End == std::string::npos)
      End = Line.size();
    Out.push_back(Line.substr(Start, End - Start));
    Start = End + 1;
  }
  return Out;
}

bool parseSize(const std::string &Text, std::uint64_t &Out) {
  if (Text.empty() || Text.size() > 19)
    return false;
  Out = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return false;
    Out = Out * 10 + static_cast<std::uint64_t>(C - '0');
  }
  return true;
}

bool parseCrc(const std::string &Text, std::uint32_t &Out) {
  if (Text.size() != 8)
    return false;
  Out = 0;
  for (char C : Text) {
    std::uint32_t Digit;
    if (C >= '0' && C <= '9')
      Digit = static_cast<std::uint32_t>(C - '0');
    else if (C >= 'a' && C <= 'f')
      Digit = static_cast<std::uint32_t>(C - 'a') + 10;
    else
      return false;
    Out = Out * 16 + Digit;
  }
  return true;
}

/// Applies the torn-write / corrupt-crc fault sites to a payload about
/// to be written. The CRC in the frame header is computed from the
/// *intact* payload, so the damage is detectable on load.
std::string maimPayload(std::string Payload, std::int64_t FaultKey) {
  if (fault::shouldFail("persist.torn-write", FaultKey))
    Payload.resize(Payload.size() / 2);
  if (fault::shouldFail("persist.corrupt-crc", FaultKey) &&
      !Payload.empty())
    Payload[Payload.size() / 2] ^= 0x40;
  return Payload;
}

} // namespace

std::uint32_t persist::crc32(const void *Data, std::size_t Size,
                             std::uint32_t Seed) {
  const CrcTables &T = crcTables();
  std::uint32_t C = Seed ^ 0xFFFFFFFFu;
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  // Eight bytes per step. Each byte is read on its own and the register's
  // low byte meets the first one, as in the bytewise step, so the result
  // does not depend on the host's byte order.
  for (; Size >= 8; P += 8, Size -= 8)
    C = T[7][(C ^ P[0]) & 0xFFu] ^ T[6][((C >> 8) ^ P[1]) & 0xFFu] ^
        T[5][((C >> 16) ^ P[2]) & 0xFFu] ^ T[4][(C >> 24) ^ P[3]] ^
        T[3][P[4]] ^ T[2][P[5]] ^ T[1][P[6]] ^ T[0][P[7]];
  for (; Size > 0; ++P, --Size)
    C = T[0][(C ^ *P) & 0xFFu] ^ (C >> 8);
  return C ^ 0xFFFFFFFFu;
}

//===----------------------------------------------------------------------===//
// Encoder / Decoder
//===----------------------------------------------------------------------===//

void Encoder::putU32(std::uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Buf += static_cast<char>((V >> (8 * I)) & 0xFFu);
}

void Encoder::putU64(std::uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Buf += static_cast<char>((V >> (8 * I)) & 0xFFu);
}

void Encoder::putI64(std::int64_t V) {
  putU64(static_cast<std::uint64_t>(V));
}

void Encoder::putDouble(double V) {
  std::uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(V), "IEEE-754 double expected");
  std::memcpy(&Bits, &V, sizeof(Bits));
  putU64(Bits);
}

void Encoder::putString(std::string_view S) {
  putU64(S.size());
  Buf.append(S.data(), S.size());
}

bool Decoder::take(std::size_t N, const char *&Out) {
  if (Failed || Data.size() - Pos < N) {
    Failed = true;
    return false;
  }
  Out = Data.data() + Pos;
  Pos += N;
  return true;
}

bool Decoder::getU32(std::uint32_t &Out) {
  const char *P;
  if (!take(4, P))
    return false;
  Out = 0;
  for (int I = 3; I >= 0; --I)
    Out = (Out << 8) | static_cast<unsigned char>(P[I]);
  return true;
}

bool Decoder::getU64(std::uint64_t &Out) {
  const char *P;
  if (!take(8, P))
    return false;
  Out = 0;
  for (int I = 7; I >= 0; --I)
    Out = (Out << 8) | static_cast<unsigned char>(P[I]);
  return true;
}

bool Decoder::getI64(std::int64_t &Out) {
  std::uint64_t U;
  if (!getU64(U))
    return false;
  Out = static_cast<std::int64_t>(U);
  return true;
}

bool Decoder::getBool(bool &Out) {
  std::uint32_t U;
  if (!getU32(U))
    return false;
  if (U > 1) {
    Failed = true;
    return false;
  }
  Out = U == 1;
  return true;
}

bool Decoder::getDouble(double &Out) {
  std::uint64_t Bits;
  if (!getU64(Bits))
    return false;
  std::memcpy(&Out, &Bits, sizeof(Out));
  return true;
}

bool Decoder::getString(std::string &Out) {
  std::uint64_t Size;
  if (!getU64(Size))
    return false;
  // Checked against the raw u64 before the size_t cast, so a huge
  // length prefix cannot truncate on 32-bit size_t and pass take().
  if (Size > remaining()) {
    Failed = true;
    return false;
  }
  const char *P;
  if (!take(static_cast<std::size_t>(Size), P))
    return false;
  Out.assign(P, static_cast<std::size_t>(Size));
  return true;
}

//===----------------------------------------------------------------------===//
// Snapshot files
//===----------------------------------------------------------------------===//

Status persist::writeSnapshotFile(const std::string &Path,
                                  const std::string &Kind,
                                  const std::string &Payload) {
  if (fault::shouldFail("persist.write-fail", FaultKeySnapshot))
    return Status::error(StatusCode::DataLoss,
                         "injected fault at site persist.write-fail");
  const std::string Header = std::string(SnapshotMagic) + " snap " + Kind +
                             " " + std::to_string(Payload.size()) + " " +
                             crcHex(crc32(Payload.data(), Payload.size())) +
                             "\n";
  // The header advertises the intact payload; injected damage below is
  // exactly what the CRC/size check on load exists to catch.
  const std::string Body = maimPayload(Payload, FaultKeySnapshot);

  const std::string Temp = Path + ".tmp";
  {
    std::FILE *Raw = std::fopen(Temp.c_str(), "wb");
    if (!Raw)
      return Status::error(StatusCode::DataLoss,
                           "cannot create temporary '" + Temp + "'");
    FileHandle F(Raw);
    if (std::fwrite(Header.data(), 1, Header.size(), Raw) !=
            Header.size() ||
        std::fwrite(Body.data(), 1, Body.size(), Raw) != Body.size() ||
        std::fflush(Raw) != 0) {
      std::remove(Temp.c_str());
      return Status::error(StatusCode::DataLoss,
                           "short write to '" + Temp + "'");
    }
  }
  // The atomic-replace step: a reader sees either the old snapshot or
  // the complete new one, never a mixture.
  if (std::rename(Temp.c_str(), Path.c_str()) != 0) {
    std::remove(Temp.c_str());
    return Status::error(StatusCode::DataLoss,
                         "cannot rename '" + Temp + "' over '" + Path +
                             "'");
  }
  return Status::ok();
}

Expected<std::string> persist::readSnapshotFile(const std::string &Path,
                                                const std::string &Kind) {
  std::FILE *Raw = std::fopen(Path.c_str(), "rb");
  if (!Raw)
    return Status::error(StatusCode::NotFound,
                         "no snapshot at '" + Path + "'");
  FileHandle F(Raw);

  std::string Line;
  if (!readLine(Raw, Line))
    return Status::error(StatusCode::DataLoss,
                         "'" + Path + "': empty or headerless file");
  std::vector<std::string> Fields = splitFields(Line);
  std::uint64_t Size;
  std::uint32_t WantCrc;
  if (Fields.size() != 5 || Fields[1] != "snap" ||
      !parseSize(Fields[3], Size) || !parseCrc(Fields[4], WantCrc))
    return Status::parseError("'" + Path + "': unrecognized header '" +
                              Line + "'");
  if (Fields[0] != SnapshotMagic)
    return Status::parseError("'" + Path + "': version '" + Fields[0] +
                              "' is not '" + SnapshotMagic + "'");
  if (Fields[2] != Kind)
    return Status::parseError("'" + Path + "': holds '" + Fields[2] +
                              "' state, wanted '" + Kind + "'");

  std::string Payload(static_cast<std::size_t>(Size), '\0');
  const std::size_t Got =
      Payload.empty() ? 0
                      : std::fread(Payload.data(), 1, Payload.size(), Raw);
  if (Got != Payload.size())
    return Status::error(StatusCode::DataLoss,
                         "'" + Path + "': truncated payload (" +
                             std::to_string(Got) + " of " +
                             std::to_string(Size) + " bytes)");
  const std::uint32_t GotCrc = crc32(Payload.data(), Payload.size());
  if (GotCrc != WantCrc)
    return Status::error(StatusCode::DataLoss,
                         "'" + Path + "': CRC mismatch (stored " +
                             crcHex(WantCrc) + ", computed " +
                             crcHex(GotCrc) + ")");
  return Payload;
}

//===----------------------------------------------------------------------===//
// Journal files
//===----------------------------------------------------------------------===//

Status JournalWriter::open(const std::string &Path,
                           const std::string &Kind) {
  close();
  Appended = 0;
  // Keep the existing records (the self-resume case) only when the
  // loader reads them; records appended behind a refused header or a
  // torn tail could never be read back.
  Expected<JournalContents> Existing = readJournalFile(Path, Kind);
  const bool Continue = Existing.hasValue();
  if (Continue && Existing.value().Truncated) {
    std::error_code Ec;
    std::filesystem::resize_file(Path, Existing.value().IntactBytes, Ec);
    if (Ec)
      return Status::error(StatusCode::DataLoss,
                           "cannot cut the damaged tail of journal '" +
                               Path + "': " + Ec.message());
  }
  std::FILE *Raw = std::fopen(Path.c_str(), Continue ? "ab" : "wb");
  if (!Raw)
    return Status::error(StatusCode::DataLoss,
                         "cannot open journal '" + Path + "'");
  if (!Continue) {
    const std::string Header =
        std::string(SnapshotMagic) + " journal " + Kind + "\n";
    if (std::fwrite(Header.data(), 1, Header.size(), Raw) !=
            Header.size() ||
        std::fflush(Raw) != 0) {
      std::fclose(Raw);
      return Status::error(StatusCode::DataLoss,
                           "cannot write journal header to '" + Path +
                               "'");
    }
  }
  File = Raw;
  return Status::ok();
}

Status JournalWriter::append(const std::string &Payload) {
  if (!File)
    return Status::error(StatusCode::DataLoss, "journal is not open");
  if (fault::shouldFail("persist.write-fail", FaultKeyJournal))
    return Status::error(StatusCode::DataLoss,
                         "injected fault at site persist.write-fail");
  const std::string Frame =
      "rec " + std::to_string(Payload.size()) + " " +
      crcHex(crc32(Payload.data(), Payload.size())) + "\n";
  const std::string Body = maimPayload(Payload, FaultKeyJournal);
  if (std::fwrite(Frame.data(), 1, Frame.size(), File) != Frame.size() ||
      std::fwrite(Body.data(), 1, Body.size(), File) != Body.size() ||
      std::fwrite("\n", 1, 1, File) != 1 || std::fflush(File) != 0)
    return Status::error(StatusCode::DataLoss, "short journal append");
  // The crash the journal exists for, at a point fixed by the record
  // count rather than by wall-clock timing.
  if (fault::shouldFail("persist.kill", static_cast<std::int64_t>(++Appended)))
    std::raise(SIGKILL);
  return Status::ok();
}

void JournalWriter::close() {
  if (File) {
    std::fclose(File);
    File = nullptr;
  }
}

Expected<JournalContents> persist::readJournalFile(const std::string &Path,
                                                   const std::string &Kind) {
  std::FILE *Raw = std::fopen(Path.c_str(), "rb");
  if (!Raw)
    return Status::error(StatusCode::NotFound,
                         "no journal at '" + Path + "'");
  FileHandle F(Raw);

  std::string Line;
  if (!readLine(Raw, Line))
    return Status::error(StatusCode::DataLoss,
                         "'" + Path + "': empty or headerless file");
  std::vector<std::string> Fields = splitFields(Line);
  if (Fields.size() != 3 || Fields[1] != "journal")
    return Status::parseError("'" + Path + "': unrecognized header '" +
                              Line + "'");
  if (Fields[0] != SnapshotMagic)
    return Status::parseError("'" + Path + "': version '" + Fields[0] +
                              "' is not '" + SnapshotMagic + "'");
  if (Fields[2] != Kind)
    return Status::parseError("'" + Path + "': holds '" + Fields[2] +
                              "' state, wanted '" + Kind + "'");

  JournalContents Out;
  Out.IntactBytes = static_cast<std::uint64_t>(std::ftell(Raw));
  // Anything wrong from here on is a torn or corrupt tail: keep the
  // intact prefix, describe the damage, and stop. A journal cut short
  // by SIGKILL is the expected shape of a crash, not a load error.
  auto tear = [&](const std::string &Why) {
    Out.Truncated = true;
    Out.Problem = "'" + Path + "': " + Why + " after " +
                  std::to_string(Out.Records.size()) +
                  " intact record(s); dropping the damaged tail";
    return Out;
  };
  for (;;) {
    std::string Frame;
    if (!readLine(Raw, Frame)) {
      if (Frame.empty())
        return Out; // Clean EOF on a frame boundary.
      return tear("torn record frame");
    }
    std::vector<std::string> Rec = splitFields(Frame);
    std::uint64_t Size;
    std::uint32_t WantCrc;
    if (Rec.size() != 3 || Rec[0] != "rec" || !parseSize(Rec[1], Size) ||
        !parseCrc(Rec[2], WantCrc))
      return tear("unrecognized record frame '" + Frame + "'");
    std::string Payload(static_cast<std::size_t>(Size), '\0');
    const std::size_t Got =
        Payload.empty() ? 0
                        : std::fread(Payload.data(), 1, Payload.size(), Raw);
    if (Got != Payload.size())
      return tear("torn record payload (" + std::to_string(Got) + " of " +
                  std::to_string(Size) + " bytes)");
    if (crc32(Payload.data(), Payload.size()) != WantCrc)
      return tear("record CRC mismatch");
    int Sep = std::fgetc(Raw);
    if (Sep != '\n')
      return tear("missing record separator");
    Out.Records.push_back(std::move(Payload));
    Out.IntactBytes = static_cast<std::uint64_t>(std::ftell(Raw));
  }
}

//===----------------------------------------------------------------------===//
// Filesystem helpers
//===----------------------------------------------------------------------===//

bool persist::fileExists(const std::string &Path) {
  std::error_code Ec;
  return std::filesystem::is_regular_file(Path, Ec);
}

Status persist::createDirectories(const std::string &Path) {
  std::error_code Ec;
  std::filesystem::create_directories(Path, Ec);
  if (Ec)
    return Status::invalidArgument("cannot create directory '" + Path +
                                   "': " + Ec.message());
  if (!std::filesystem::is_directory(Path, Ec))
    return Status::invalidArgument("'" + Path + "' is not a directory");
  return Status::ok();
}

Status persist::removeFile(const std::string &Path) {
  std::error_code Ec;
  std::filesystem::remove(Path, Ec);
  if (Ec)
    return Status::error(StatusCode::DataLoss,
                         "cannot remove '" + Path + "': " + Ec.message());
  return Status::ok();
}

std::vector<std::string> persist::listFiles(const std::string &Dir,
                                            const std::string &Prefix,
                                            const std::string &Suffix) {
  std::vector<std::string> Out;
  std::error_code Ec;
  std::filesystem::directory_iterator It(Dir, Ec), End;
  if (Ec)
    return Out;
  for (; It != End; It.increment(Ec)) {
    if (Ec)
      break;
    if (!It->is_regular_file(Ec))
      continue;
    const std::string Name = It->path().filename().string();
    if (Name.size() < Prefix.size() + Suffix.size() ||
        Name.compare(0, Prefix.size(), Prefix) != 0 ||
        Name.compare(Name.size() - Suffix.size(), Suffix.size(), Suffix) !=
            0)
      continue;
    Out.push_back((std::filesystem::path(Dir) / Name).string());
  }
  std::sort(Out.begin(), Out.end());
  return Out;
}
