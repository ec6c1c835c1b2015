//===- tests/SupportTest.cpp - support/ unit tests ------------------------===//

#include "support/MathUtil.h"
#include "support/Rng.h"
#include "support/TablePrinter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

using namespace thistle;

TEST(MathUtil, CeilDiv) {
  EXPECT_EQ(ceilDiv(10, 5), 2);
  EXPECT_EQ(ceilDiv(11, 5), 3);
  EXPECT_EQ(ceilDiv(1, 5), 1);
  EXPECT_EQ(ceilDiv(5, 1), 5);
}

TEST(MathUtil, IsPowerOfTwo) {
  EXPECT_TRUE(isPowerOfTwo(1));
  EXPECT_TRUE(isPowerOfTwo(2));
  EXPECT_TRUE(isPowerOfTwo(1024));
  EXPECT_FALSE(isPowerOfTwo(0));
  EXPECT_FALSE(isPowerOfTwo(3));
  EXPECT_FALSE(isPowerOfTwo(-4));
  EXPECT_FALSE(isPowerOfTwo(168));
}

TEST(MathUtil, NextPowerOfTwo) {
  EXPECT_EQ(nextPowerOfTwo(1), 1);
  EXPECT_EQ(nextPowerOfTwo(2), 2);
  EXPECT_EQ(nextPowerOfTwo(3), 4);
  EXPECT_EQ(nextPowerOfTwo(513), 1024);
}

TEST(MathUtil, DivisorsOfSmall) {
  EXPECT_EQ(divisorsOf(1), (std::vector<std::int64_t>{1}));
  EXPECT_EQ(divisorsOf(12), (std::vector<std::int64_t>{1, 2, 3, 4, 6, 12}));
  EXPECT_EQ(divisorsOf(17), (std::vector<std::int64_t>{1, 17}));
  EXPECT_EQ(divisorsOf(36), (std::vector<std::int64_t>{1, 2, 3, 4, 6, 9, 12,
                                                       18, 36}));
}

TEST(MathUtil, DivisorsAreSortedAndDivide) {
  for (std::int64_t N : {30, 64, 97, 224, 28269}) {
    std::vector<std::int64_t> Divs = divisorsOf(N);
    EXPECT_TRUE(std::is_sorted(Divs.begin(), Divs.end()));
    for (std::int64_t D : Divs)
      EXPECT_EQ(N % D, 0) << "divisor " << D << " of " << N;
    EXPECT_EQ(Divs.front(), 1);
    EXPECT_EQ(Divs.back(), N);
  }
}

TEST(MathUtil, ClosestDivisorsPicksNearest) {
  // Divisors of 24: 1 2 3 4 6 8 12 24. Nearest to 7 are 6 and 8.
  EXPECT_EQ(closestDivisors(24, 7.0, 2), (std::vector<std::int64_t>{6, 8}));
  // Ties break toward the smaller divisor: target 5 -> 4 then 6.
  EXPECT_EQ(closestDivisors(24, 5.0, 1), (std::vector<std::int64_t>{4}));
  // Count larger than divisor count returns everything.
  EXPECT_EQ(closestDivisors(4, 2.0, 10),
            (std::vector<std::int64_t>{1, 2, 4}));
}

TEST(MathUtil, ClosestPowersOfTwoWindow) {
  // Example from the paper: real solution 12, N = 2 -> {8, 16}.
  EXPECT_EQ(closestPowersOfTwo(12.0, 2),
            (std::vector<std::int64_t>{8, 16}));
  EXPECT_EQ(closestPowersOfTwo(1.0, 1), (std::vector<std::int64_t>{1}));
  // MinValue clamps the window from below.
  std::vector<std::int64_t> R = closestPowersOfTwo(2.0, 3, 16);
  for (std::int64_t V : R)
    EXPECT_GE(V, 16);
  EXPECT_EQ(R.size(), 3u);
}

TEST(MathUtil, ProductOf) {
  EXPECT_EQ(productOf({}), 1);
  EXPECT_EQ(productOf({2, 3, 7}), 42);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.nextU64(), B.nextU64());
}

TEST(Rng, NextIndexInRange) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.nextIndex(13), 13u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng R(9);
  for (int I = 0; I < 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng R(3);
  std::vector<int> V{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> Orig = V;
  R.shuffle(V);
  std::sort(V.begin(), V.end());
  EXPECT_EQ(V, Orig);
}

TEST(Rng, PickCoversAllElements) {
  Rng R(11);
  std::vector<int> V{10, 20, 30};
  std::set<int> Seen;
  for (int I = 0; I < 200; ++I)
    Seen.insert(R.pick(V));
  EXPECT_EQ(Seen.size(), 3u);
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter T({"layer", "pJ/MAC"});
  T.addRow({"resnet-1", "23.4"});
  T.addRow({"r2", "5"});
  std::ostringstream OS;
  T.print(OS);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("| layer    | pJ/MAC |"), std::string::npos);
  EXPECT_NE(Out.find("| resnet-1 | 23.4   |"), std::string::npos);
  EXPECT_NE(Out.find("| r2       | 5      |"), std::string::npos);
}

TEST(TablePrinter, FormatHelpers) {
  EXPECT_EQ(TablePrinter::formatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::formatDouble(2.0, 0), "2");
  EXPECT_EQ(TablePrinter::formatInt(168), "168");
}

// ---- Status / Expected ----------------------------------------------------

#include "support/FaultInjection.h"
#include "support/Status.h"
#include "support/SweepReport.h"

TEST(Status, OkByDefault) {
  Status S;
  EXPECT_TRUE(S.isOk());
  EXPECT_EQ(S.code(), StatusCode::Ok);
  EXPECT_EQ(S.toString(), "ok");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status S = Status::invalidArgument("negative budget");
  EXPECT_FALSE(S.isOk());
  EXPECT_EQ(S.code(), StatusCode::InvalidArgument);
  EXPECT_EQ(S.toString(), "invalid-argument: negative budget");
}

TEST(Status, ContextChainsOuterFirst) {
  Status S = Status::parseError("'pes' wants an integer");
  S.withContext("line 3").withContext("loading machine.txt");
  EXPECT_EQ(S.toString(),
            "parse-error: loading machine.txt: line 3: "
            "'pes' wants an integer");
}

TEST(Status, ContextIsNoOpOnOk) {
  Status S = Status::ok();
  S.withContext("should vanish");
  EXPECT_EQ(S.toString(), "ok");
}

TEST(Expected, HoldsValue) {
  Expected<int> E(42);
  ASSERT_TRUE(E.hasValue());
  EXPECT_EQ(E.value(), 42);
  EXPECT_TRUE(E.status().isOk());
}

TEST(Expected, HoldsError) {
  Expected<int> E(Status::parseError("bad token"));
  EXPECT_FALSE(E.hasValue());
  EXPECT_EQ(E.status().code(), StatusCode::ParseError);
  E.withContext("parsing input");
  EXPECT_EQ(E.status().toString(), "parse-error: parsing input: bad token");
}

// ---- SweepReport ----------------------------------------------------------

TEST(SweepReport, CountsAndCleanliness) {
  SweepReport R;
  EXPECT_TRUE(R.clean());
  R.record(TaskOutcome::Solved, 0, 0, 0, 1, "");
  R.record(TaskOutcome::Solved, 1, 0, 1, 3, ""); // Needed retries.
  R.record(TaskOutcome::Infeasible, 2, 1, 0, 1, "no interior");
  EXPECT_TRUE(R.clean()); // Infeasible pairs are a model property.
  R.record(TaskOutcome::Failed, 3, 1, 1, 3, "breakdown");
  EXPECT_FALSE(R.clean());
  EXPECT_EQ(R.Solved, 2u);
  // Retried counts every task that burned more than one attempt,
  // whether or not it ultimately succeeded.
  EXPECT_EQ(R.Retried, 2u);
  EXPECT_EQ(R.Infeasible, 1u);
  EXPECT_EQ(R.Failed, 1u);
  EXPECT_EQ(R.total(), 4u);
  // Incidents list every non-Solved task, in order.
  ASSERT_EQ(R.Incidents.size(), 2u);
  EXPECT_EQ(R.Incidents[0].Index, 2u);
  EXPECT_EQ(R.Incidents[1].Index, 3u);
}

TEST(SweepReport, MergePreservesShardOrder) {
  SweepReport A, B;
  A.record(TaskOutcome::Failed, 1, 0, 1, 1, "x");
  B.record(TaskOutcome::Skipped, 5, 2, 1, 0, "deadline");
  B.DeadlineExpired = true;
  A.merge(std::move(B));
  EXPECT_EQ(A.Failed, 1u);
  EXPECT_EQ(A.Skipped, 1u);
  EXPECT_TRUE(A.DeadlineExpired);
  ASSERT_EQ(A.Incidents.size(), 2u);
  EXPECT_EQ(A.Incidents[0].Index, 1u);
  EXPECT_EQ(A.Incidents[1].Index, 5u);
}

TEST(SweepReport, PolicySkipsStayClean) {
  SweepReport R;
  R.record(TaskOutcome::Solved, 0, 0, 0, 1, "");
  R.recordPolicySkip(1, 0, 1, "dropped by the pair cap");
  // A policy skip is a caller-requested truncation: counted, listed as
  // an incident, but not a loss.
  EXPECT_TRUE(R.clean());
  EXPECT_EQ(R.Skipped, 1u);
  EXPECT_EQ(R.SkippedByPolicy, 1u);
  EXPECT_EQ(R.total(), 2u);
  ASSERT_EQ(R.Incidents.size(), 1u);
  EXPECT_EQ(R.Incidents[0].Outcome, TaskOutcome::Skipped);
  std::string S = R.toString("pair");
  EXPECT_NE(S.find("1 skipped (1 by policy)"), std::string::npos);

  // A deadline skip on top is a real loss and flips cleanliness.
  R.record(TaskOutcome::Skipped, 2, 1, 0, 0, "deadline expired");
  EXPECT_FALSE(R.clean());
}

TEST(SweepReport, ZeroTasksSayNothingAttempted) {
  SweepReport R;
  EXPECT_EQ(R.toString("pair"), "0 pairs: nothing attempted");
}

TEST(SweepReport, ToStringNamesIncidents) {
  SweepReport R;
  R.record(TaskOutcome::Solved, 0, 0, 0, 1, "");
  R.record(TaskOutcome::Failed, 7, 2, 1, 3, "numerical breakdown");
  std::string S = R.toString("pair");
  EXPECT_NE(S.find("failed"), std::string::npos);
  EXPECT_NE(S.find("numerical breakdown"), std::string::npos);
  EXPECT_NE(S.find("7"), std::string::npos);
}

// ---- Fault injection ------------------------------------------------------

#if THISTLE_FAULT_INJECTION_ENABLED

namespace {

/// Disarms every site on scope exit so tests cannot leak armed faults.
struct FaultGuard {
  ~FaultGuard() { fault::disarmAll(); }
};

} // namespace

TEST(FaultInjection, DisarmedByDefault) {
  FaultGuard G;
  EXPECT_FALSE(fault::shouldFail("unit.some-site"));
}

TEST(FaultInjection, ArmedSiteFires) {
  FaultGuard G;
  fault::arm("unit.site-a");
  EXPECT_TRUE(fault::shouldFail("unit.site-a"));
  EXPECT_FALSE(fault::shouldFail("unit.site-b"));
  fault::disarm("unit.site-a");
  EXPECT_FALSE(fault::shouldFail("unit.site-a"));
}

TEST(FaultInjection, KeyedInjectionMatchesOnlyItsKey) {
  FaultGuard G;
  fault::arm("unit.keyed", /*Key=*/3);
  EXPECT_FALSE(fault::shouldFail("unit.keyed", 2));
  EXPECT_TRUE(fault::shouldFail("unit.keyed", 3));
  EXPECT_FALSE(fault::shouldFail("unit.keyed", 4));
}

TEST(FaultInjection, HitBudgetExpires) {
  FaultGuard G;
  fault::arm("unit.budget", fault::AnyKey, /*MaxHits=*/2);
  EXPECT_TRUE(fault::shouldFail("unit.budget"));
  EXPECT_TRUE(fault::shouldFail("unit.budget"));
  EXPECT_FALSE(fault::shouldFail("unit.budget"));
  EXPECT_EQ(fault::hitCount("unit.budget"), 2u);
}

TEST(FaultInjection, SpecParsing) {
  FaultGuard G;
  EXPECT_EQ(fault::armFromSpec("unit.spec-a,unit.spec-b:5:1"),
            std::string());
  EXPECT_TRUE(fault::shouldFail("unit.spec-a"));
  EXPECT_FALSE(fault::shouldFail("unit.spec-b", 4));
  EXPECT_TRUE(fault::shouldFail("unit.spec-b", 5));
  EXPECT_FALSE(fault::shouldFail("unit.spec-b", 5)); // Budget spent.
  EXPECT_EQ(fault::armFromSpec(""), std::string()); // Empty = no-op.
  EXPECT_NE(fault::armFromSpec("site:notanumber"), std::string());
}

#endif // THISTLE_FAULT_INJECTION_ENABLED

//===----------------------------------------------------------------------===//
// Persist: the crash-safe durable-state layer (docs/PERSISTENCE.md).
//===----------------------------------------------------------------------===//

#include "support/Persist.h"

#include <cmath>
#include <fstream>
#include <limits>

namespace {

std::string tmpPath(const std::string &Name) {
  return ::testing::TempDir() + "/" + Name;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

} // namespace

TEST(Persist, Crc32KnownVectorAndChaining) {
  // The IEEE 802.3 check value.
  EXPECT_EQ(persist::crc32("123456789", 9), 0xCBF43926u);
  // Seed chaining composes: crc(ab) == crc(b, crc(a)).
  std::uint32_t Part = persist::crc32("12345", 5);
  EXPECT_EQ(persist::crc32("6789", 4, Part), 0xCBF43926u);
  EXPECT_EQ(persist::crc32("", 0), 0u);
}

namespace {

/// The oracle for the sliced CRC: one byte per step, each byte shifted
/// through the reflected IEEE polynomial bit by bit, with no table.
std::uint32_t bytewiseCrc32(const unsigned char *P, std::size_t Size) {
  std::uint32_t C = 0xFFFFFFFFu;
  for (std::size_t I = 0; I < Size; ++I) {
    C ^= P[I];
    for (int K = 0; K < 8; ++K)
      C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
  }
  return C ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> seededBytes(std::size_t Size, std::uint64_t Seed) {
  Rng R(Seed);
  std::vector<unsigned char> Out(Size);
  for (unsigned char &B : Out)
    B = static_cast<unsigned char>(R.nextU64() >> 56);
  return Out;
}

} // namespace

TEST(Persist, Crc32MatchesBytewiseReference) {
  // Every length up to 1,100 at every start offset modulo 8: each split
  // into eight-byte steps and a tail, at every alignment.
  constexpr std::size_t MaxLen = 1100;
  const std::vector<unsigned char> Buf = seededBytes(MaxLen + 8, 19);
  for (std::size_t Offset = 0; Offset < 8; ++Offset)
    for (std::size_t Len = 0; Len <= MaxLen; ++Len)
      ASSERT_EQ(persist::crc32(Buf.data() + Offset, Len),
                bytewiseCrc32(Buf.data() + Offset, Len))
          << "offset " << Offset << ", length " << Len;

  // Chaining the first part's CRC as the seed of the rest gives the
  // whole buffer's CRC at every split point.
  const std::uint32_t Whole = bytewiseCrc32(Buf.data(), MaxLen);
  for (std::size_t Split = 0; Split <= MaxLen; ++Split)
    ASSERT_EQ(persist::crc32(Buf.data() + Split, MaxLen - Split,
                             persist::crc32(Buf.data(), Split)),
              Whole)
        << "split " << Split;

  // One buffer over 1 MiB: long runs of eight-byte steps.
  const std::vector<unsigned char> Big = seededBytes((1u << 20) + 5, 20);
  EXPECT_EQ(persist::crc32(Big.data(), Big.size()),
            bytewiseCrc32(Big.data(), Big.size()));
}

TEST(Persist, EncoderDecoderRoundTripIsBitExact) {
  persist::Encoder E;
  E.putU32(0xDEADBEEFu);
  E.putU64(~0ull);
  E.putI64(-42);
  E.putBool(true);
  E.putDouble(0.1);
  E.putDouble(-0.0);
  E.putDouble(std::numeric_limits<double>::infinity());
  E.putDouble(std::numeric_limits<double>::quiet_NaN());
  E.putString(std::string("nul\0newline\n", 12));

  persist::Decoder D(E.bytes());
  std::uint32_t U32 = 0;
  std::uint64_t U64 = 0;
  std::int64_t I64 = 0;
  bool B = false;
  double Tenth = 0, NegZero = 0, Inf = 0, Nan = 0;
  std::string S;
  EXPECT_TRUE(D.getU32(U32));
  EXPECT_TRUE(D.getU64(U64));
  EXPECT_TRUE(D.getI64(I64));
  EXPECT_TRUE(D.getBool(B));
  EXPECT_TRUE(D.getDouble(Tenth));
  EXPECT_TRUE(D.getDouble(NegZero));
  EXPECT_TRUE(D.getDouble(Inf));
  EXPECT_TRUE(D.getDouble(Nan));
  EXPECT_TRUE(D.getString(S));
  EXPECT_EQ(U32, 0xDEADBEEFu);
  EXPECT_EQ(U64, ~0ull);
  EXPECT_EQ(I64, -42);
  EXPECT_TRUE(B);
  EXPECT_EQ(Tenth, 0.1);
  EXPECT_EQ(NegZero, 0.0);
  EXPECT_TRUE(std::signbit(NegZero)); // -0.0 survives, not just ==.
  EXPECT_TRUE(std::isinf(Inf));
  EXPECT_TRUE(std::isnan(Nan));
  EXPECT_EQ(S, std::string("nul\0newline\n", 12));
  EXPECT_TRUE(D.atEnd());
  EXPECT_FALSE(D.failed());
}

TEST(Persist, DecoderUnderrunLatchesFailure) {
  persist::Encoder E;
  E.putU32(7);
  persist::Decoder D(E.bytes());
  std::uint64_t U64 = 99;
  EXPECT_FALSE(D.getU64(U64)); // Only 4 bytes available.
  EXPECT_EQ(U64, 99u);         // Output untouched on failure.
  EXPECT_TRUE(D.failed());
  std::uint32_t U32 = 0;
  EXPECT_FALSE(D.getU32(U32)); // Latched: even a fitting read fails.

  // A string whose length prefix exceeds the remaining bytes fails too.
  persist::Encoder E2;
  E2.putU64(1000);
  persist::Decoder D2(E2.bytes());
  std::string S;
  EXPECT_FALSE(D2.getString(S));
  EXPECT_TRUE(D2.failed());
}

TEST(Persist, SnapshotRoundTripAndAtomicReplace) {
  std::string Path = tmpPath("persist-roundtrip.snap");
  std::string Payload("binary\0payload\n\xff", 16);
  ASSERT_TRUE(persist::writeSnapshotFile(Path, "unit", Payload).isOk());
  Expected<std::string> Back = persist::readSnapshotFile(Path, "unit");
  ASSERT_TRUE(Back.hasValue());
  EXPECT_EQ(Back.value(), Payload);

  // Rewriting replaces the snapshot in place (rename atomicity).
  ASSERT_TRUE(persist::writeSnapshotFile(Path, "unit", "v2").isOk());
  Back = persist::readSnapshotFile(Path, "unit");
  ASSERT_TRUE(Back.hasValue());
  EXPECT_EQ(Back.value(), "v2");
  persist::removeFile(Path);
}

TEST(Persist, SnapshotErrorTaxonomy) {
  // Missing file: NotFound (callers stay silent and start cold).
  Expected<std::string> Missing =
      persist::readSnapshotFile(tmpPath("persist-nonexistent.snap"), "unit");
  ASSERT_FALSE(Missing.hasValue());
  EXPECT_EQ(Missing.status().code(), StatusCode::NotFound);

  // Unknown version magic: ParseError, never a guess.
  std::string Path = tmpPath("persist-badmagic.snap");
  spit(Path, "bogus-format/9 snap unit 2 00000000\nhi");
  Expected<std::string> BadMagic = persist::readSnapshotFile(Path, "unit");
  ASSERT_FALSE(BadMagic.hasValue());
  EXPECT_EQ(BadMagic.status().code(), StatusCode::ParseError);

  // Wrong kind: a gpcache snapshot is not a sweep snapshot.
  ASSERT_TRUE(persist::writeSnapshotFile(Path, "unit", "hi").isOk());
  Expected<std::string> WrongKind = persist::readSnapshotFile(Path, "other");
  ASSERT_FALSE(WrongKind.hasValue());
  EXPECT_EQ(WrongKind.status().code(), StatusCode::ParseError);

  // Truncated payload: DataLoss naming the byte counts.
  std::string Good = slurp(Path);
  spit(Path, Good.substr(0, Good.size() - 1));
  Expected<std::string> Torn = persist::readSnapshotFile(Path, "unit");
  ASSERT_FALSE(Torn.hasValue());
  EXPECT_EQ(Torn.status().code(), StatusCode::DataLoss);

  // Flipped payload byte: CRC mismatch, DataLoss.
  std::string Flipped = Good;
  Flipped.back() ^= 0x40;
  spit(Path, Flipped);
  Expected<std::string> Corrupt = persist::readSnapshotFile(Path, "unit");
  ASSERT_FALSE(Corrupt.hasValue());
  EXPECT_EQ(Corrupt.status().code(), StatusCode::DataLoss);
  EXPECT_NE(Corrupt.status().toString().find("CRC"), std::string::npos);
  persist::removeFile(Path);
}

TEST(Persist, JournalAppendsSurviveReopen) {
  std::string Path = tmpPath("persist-journal.log");
  persist::removeFile(Path);
  {
    persist::JournalWriter W;
    ASSERT_TRUE(W.open(Path, "unit").isOk());
    EXPECT_TRUE(W.isOpen());
    ASSERT_TRUE(W.append("first").isOk());
    ASSERT_TRUE(W.append(std::string("bin\0rec", 7)).isOk());
  } // Destructor closes.
  {
    // Reopening appends without duplicating the header.
    persist::JournalWriter W;
    ASSERT_TRUE(W.open(Path, "unit").isOk());
    ASSERT_TRUE(W.append("third").isOk());
  }
  Expected<persist::JournalContents> Back =
      persist::readJournalFile(Path, "unit");
  ASSERT_TRUE(Back.hasValue());
  EXPECT_FALSE(Back.value().Truncated);
  ASSERT_EQ(Back.value().Records.size(), 3u);
  EXPECT_EQ(Back.value().Records[0], "first");
  EXPECT_EQ(Back.value().Records[1], std::string("bin\0rec", 7));
  EXPECT_EQ(Back.value().Records[2], "third");
  persist::removeFile(Path);
}

TEST(Persist, JournalTornTailKeepsIntactPrefix) {
  std::string Path = tmpPath("persist-torn.log");
  persist::removeFile(Path);
  {
    persist::JournalWriter W;
    ASSERT_TRUE(W.open(Path, "unit").isOk());
    ASSERT_TRUE(W.append("alpha").isOk());
    ASSERT_TRUE(W.append("beta").isOk());
  }
  // A SIGKILL mid-append leaves a half-written frame at the tail.
  std::string Bytes = slurp(Path);
  spit(Path, Bytes + "rec 50 0123abcd\nhalf");
  Expected<persist::JournalContents> Back =
      persist::readJournalFile(Path, "unit");
  ASSERT_TRUE(Back.hasValue());
  ASSERT_EQ(Back.value().Records.size(), 2u);
  EXPECT_EQ(Back.value().Records[0], "alpha");
  EXPECT_EQ(Back.value().Records[1], "beta");
  EXPECT_TRUE(Back.value().Truncated);
  EXPECT_NE(Back.value().Problem.find("2 intact"), std::string::npos);

  // A corrupt (bit-flipped) tail record is dropped the same way.
  std::string Corrupt = Bytes;
  Corrupt.back() ^= 0x40; // "beta"'s record separator.
  spit(Path, Corrupt);
  Back = persist::readJournalFile(Path, "unit");
  ASSERT_TRUE(Back.hasValue());
  ASSERT_EQ(Back.value().Records.size(), 1u);
  EXPECT_EQ(Back.value().Records[0], "alpha");
  EXPECT_TRUE(Back.value().Truncated);
  persist::removeFile(Path);
}

TEST(Persist, ReopenedJournalAppendsWhereTheReaderFindsIt) {
  std::string Path = tmpPath("persist-reopen.log");
  persist::removeFile(Path);
  {
    persist::JournalWriter W;
    ASSERT_TRUE(W.open(Path, "unit").isOk());
    ASSERT_TRUE(W.append("alpha").isOk());
  }
  // A torn tail is cut off, so the next record follows the intact one.
  const std::string Intact = slurp(Path);
  spit(Path, Intact + "rec 50 0123abcd\nhalf");
  {
    persist::JournalWriter W;
    ASSERT_TRUE(W.open(Path, "unit").isOk());
    ASSERT_TRUE(W.append("beta").isOk());
  }
  Expected<persist::JournalContents> Back =
      persist::readJournalFile(Path, "unit");
  ASSERT_TRUE(Back.hasValue());
  EXPECT_FALSE(Back.value().Truncated) << Back.value().Problem;
  ASSERT_EQ(Back.value().Records.size(), 2u);
  EXPECT_EQ(Back.value().Records[0], "alpha");
  EXPECT_EQ(Back.value().Records[1], "beta");
  EXPECT_EQ(Back.value().IntactBytes, slurp(Path).size());

  // A journal of another kind is refused by the reader, so the writer
  // starts over with its own header instead of appending behind it.
  {
    persist::JournalWriter W;
    ASSERT_TRUE(W.open(Path, "other").isOk());
    ASSERT_TRUE(W.append("gamma").isOk());
  }
  Back = persist::readJournalFile(Path, "other");
  ASSERT_TRUE(Back.hasValue());
  EXPECT_FALSE(Back.value().Truncated);
  ASSERT_EQ(Back.value().Records.size(), 1u);
  EXPECT_EQ(Back.value().Records[0], "gamma");
  persist::removeFile(Path);
}

#if THISTLE_FAULT_INJECTION_ENABLED

TEST(Persist, FaultSitesCoverBothArtifacts) {
  FaultGuard G;
  std::string Path = tmpPath("persist-fault.snap");
  persist::removeFile(Path);

  // Key 0 is the snapshot path: the write fails outright and leaves no
  // file behind.
  fault::arm("persist.write-fail", /*Key=*/0);
  Status St = persist::writeSnapshotFile(Path, "unit", "payload");
  EXPECT_EQ(St.code(), StatusCode::DataLoss);
  EXPECT_FALSE(persist::fileExists(Path));
  fault::disarmAll();

  // A torn snapshot write "succeeds" but the reader detects the loss.
  fault::arm("persist.torn-write", /*Key=*/0);
  ASSERT_TRUE(persist::writeSnapshotFile(Path, "unit", "payload").isOk());
  fault::disarmAll();
  Expected<std::string> Torn = persist::readSnapshotFile(Path, "unit");
  ASSERT_FALSE(Torn.hasValue());
  EXPECT_EQ(Torn.status().code(), StatusCode::DataLoss);

  // Same for a bit flip after the CRC was computed.
  fault::arm("persist.corrupt-crc", /*Key=*/0);
  ASSERT_TRUE(persist::writeSnapshotFile(Path, "unit", "payload").isOk());
  fault::disarmAll();
  Expected<std::string> Corrupt = persist::readSnapshotFile(Path, "unit");
  ASSERT_FALSE(Corrupt.hasValue());
  EXPECT_EQ(Corrupt.status().code(), StatusCode::DataLoss);
  persist::removeFile(Path);

  // Key 1 is the journal path: appends fail, the writer stays open, and
  // records appended around the failure still land.
  std::string JPath = tmpPath("persist-fault.log");
  persist::removeFile(JPath);
  persist::JournalWriter W;
  ASSERT_TRUE(W.open(JPath, "unit").isOk());
  ASSERT_TRUE(W.append("before").isOk());
  fault::arm("persist.write-fail", /*Key=*/1);
  EXPECT_EQ(W.append("dropped").code(), StatusCode::DataLoss);
  fault::disarmAll();
  ASSERT_TRUE(W.append("after").isOk());
  W.close();
  Expected<persist::JournalContents> Back =
      persist::readJournalFile(JPath, "unit");
  ASSERT_TRUE(Back.hasValue());
  ASSERT_EQ(Back.value().Records.size(), 2u);
  EXPECT_EQ(Back.value().Records[0], "before");
  EXPECT_EQ(Back.value().Records[1], "after");
  persist::removeFile(JPath);
}

#endif // THISTLE_FAULT_INJECTION_ENABLED
