// The crash-safe snapshot layer (io/snapshot.h + io/atomic_file.h): header
// verification, CRC integrity, precise failure statuses, atomic writes under
// injected crashes, and the model-fidelity property that a snapshot round
// trip changes nothing an EagerStream can observe.
#include "io/snapshot.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>

#include "io/atomic_file.h"
#include "io/serialize.h"
#include "robust/crash_point.h"
#include "synth/generator.h"
#include "synth/sets.h"

namespace grandma::io {
namespace {

classify::GestureTrainingSet MakeTrainingSet(std::uint64_t seed = 42) {
  synth::NoiseModel noise;
  return synth::ToTrainingSet(synth::GenerateSet(synth::MakeUpDownSpecs(), noise, 8, seed));
}

eager::EagerRecognizer MakeRecognizer(std::uint64_t seed = 42) {
  eager::EagerRecognizer r;
  r.Train(MakeTrainingSet(seed));
  return r;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Crc32Test, KnownVectors) {
  // IEEE 802.3 reference values.
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"), 0x414FA339u);
}

TEST(SnapshotTest, ClassifierRoundTrip) {
  classify::GestureClassifier classifier;
  classifier.Train(MakeTrainingSet());
  std::stringstream buf;
  ASSERT_TRUE(SaveClassifierSnapshot(classifier, buf));
  auto loaded = LoadClassifierSnapshot(buf);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_classes(), classifier.num_classes());
  EXPECT_EQ(loaded->ClassName(0), classifier.ClassName(0));
}

TEST(SnapshotTest, EagerRoundTrip) {
  const eager::EagerRecognizer recognizer = MakeRecognizer();
  std::stringstream buf;
  ASSERT_TRUE(SaveEagerSnapshot(recognizer, buf));
  auto loaded = LoadEagerSnapshot(buf);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_classes(), recognizer.num_classes());
  EXPECT_EQ(loaded->min_prefix_points(), recognizer.min_prefix_points());
}

TEST(SnapshotTest, BundleRoundTrip) {
  const eager::EagerRecognizer recognizer = MakeRecognizer();
  std::stringstream buf;
  ASSERT_TRUE(SaveBundleSnapshot(recognizer, buf));
  auto loaded = LoadBundleSnapshot(buf);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->classifier.num_classes(), recognizer.num_classes());
  EXPECT_EQ(loaded->recognizer.num_classes(), recognizer.num_classes());
}

TEST(SnapshotTest, WrongKindIsCorrupt) {
  const eager::EagerRecognizer recognizer = MakeRecognizer();
  std::stringstream buf;
  ASSERT_TRUE(SaveEagerSnapshot(recognizer, buf));
  auto loaded = LoadBundleSnapshot(buf);  // eager snapshot read as bundle
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), robust::StatusCode::kCorruptSnapshot);
}

TEST(SnapshotTest, FutureVersionIsVersionMismatch) {
  const eager::EagerRecognizer recognizer = MakeRecognizer();
  std::stringstream buf;
  ASSERT_TRUE(SaveEagerSnapshot(recognizer, buf));
  std::string text = buf.str();
  const auto pos = text.find("grandma-snapshot v1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 19, "grandma-snapshot v9");
  std::stringstream bumped(text);
  auto loaded = LoadEagerSnapshot(bumped);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), robust::StatusCode::kVersionMismatch);
}

TEST(SnapshotTest, FlippedPayloadByteIsCorrupt) {
  const eager::EagerRecognizer recognizer = MakeRecognizer();
  std::stringstream buf;
  ASSERT_TRUE(SaveEagerSnapshot(recognizer, buf));
  std::string text = buf.str();
  // Flip one bit near the end — deep inside the payload, past the header.
  text[text.size() - 8] = static_cast<char>(text[text.size() - 8] ^ 0x01);
  std::stringstream corrupted(text);
  auto loaded = LoadEagerSnapshot(corrupted);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), robust::StatusCode::kCorruptSnapshot);
}

TEST(SnapshotTest, FlippedCrcFieldIsCorrupt) {
  const eager::EagerRecognizer recognizer = MakeRecognizer();
  std::stringstream buf;
  ASSERT_TRUE(SaveEagerSnapshot(recognizer, buf));
  std::string text = buf.str();
  const auto pos = text.find("crc32 ");
  ASSERT_NE(pos, std::string::npos);
  char& digit = text[pos + 6];
  digit = digit == '0' ? '1' : '0';
  std::stringstream corrupted(text);
  auto loaded = LoadEagerSnapshot(corrupted);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), robust::StatusCode::kCorruptSnapshot);
}

// A CRC-valid container whose payload does not parse reports kCorruptSnapshot
// with the serializer's own reason appended, not just "failed to parse".
TEST(SnapshotTest, UnparseablePayloadKeepsTheParseReason) {
  classify::GestureClassifier classifier;
  classifier.Train(MakeTrainingSet());
  std::ostringstream text;
  ASSERT_TRUE(SaveClassifier(classifier, text));
  const std::string payload = text.str().substr(0, text.str().size() / 2);
  std::istringstream direct(payload);
  const robust::Status reason = LoadClassifierOr(direct).status();
  ASSERT_FALSE(reason.ok());

  std::stringstream buf;
  ASSERT_TRUE(WriteSnapshotContainer(buf, "classifier", payload));
  auto loaded = LoadClassifierSnapshot(buf);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), robust::StatusCode::kCorruptSnapshot);
  EXPECT_NE(loaded.status().message().find(reason.message()), std::string::npos)
      << loaded.status().ToString();
}

TEST(SnapshotTest, EveryPrefixYieldsTypedStatusNeverCrashes) {
  const eager::EagerRecognizer recognizer = MakeRecognizer();
  std::stringstream buf;
  ASSERT_TRUE(SaveBundleSnapshot(recognizer, buf));
  const std::string text = buf.str();
  for (std::size_t len = 0; len < text.size(); ++len) {
    std::stringstream truncated(text.substr(0, len));
    robust::StatusOr<BundleSnapshot> loaded = robust::Status::Internal("unset");
    ASSERT_NO_THROW(loaded = LoadBundleSnapshot(truncated)) << "prefix " << len;
    ASSERT_FALSE(loaded.ok()) << "prefix " << len << " accepted";
    const auto code = loaded.status().code();
    EXPECT_TRUE(code == robust::StatusCode::kTruncated ||
                code == robust::StatusCode::kCorruptSnapshot)
        << "prefix " << len << ": " << loaded.status().ToString();
  }
}

TEST(SnapshotTest, SeededMutationsNeverCrashNeverMisparse) {
  const eager::EagerRecognizer recognizer = MakeRecognizer();
  std::stringstream buf;
  ASSERT_TRUE(SaveEagerSnapshot(recognizer, buf));
  const std::string text = buf.str();
  std::mt19937_64 rng(404);
  for (int round = 0; round < 100; ++round) {
    std::string mutated = text;
    const std::size_t flips = 1 + rng() % 4;
    bool changed = false;
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t at = rng() % mutated.size();
      const char before = mutated[at];
      mutated[at] = static_cast<char>(rng() % 256);
      changed |= mutated[at] != before;
    }
    std::stringstream in(mutated);
    robust::StatusOr<eager::EagerRecognizer> loaded = robust::Status::Internal("unset");
    ASSERT_NO_THROW(loaded = LoadEagerSnapshot(in)) << "round " << round;
    if (changed) {
      // Any actual byte change lands in the header (parse/CRC-field error)
      // or the payload (CRC mismatch) — either way it must be rejected.
      EXPECT_FALSE(loaded.ok()) << "round " << round << " accepted a mutated snapshot";
    }
  }
}

TEST(SnapshotFileTest, FileRoundTripAndPreciseFileErrors) {
  const eager::EagerRecognizer recognizer = MakeRecognizer();
  const std::string path = "/tmp/grandma_snapshot_test.snap";
  ASSERT_TRUE(SaveBundleSnapshotFile(recognizer, path).ok());
  EXPECT_EQ(ReadFile(AtomicTempPath(path)), "");  // no stray temp after success
  auto loaded = LoadBundleSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->recognizer.num_classes(), recognizer.num_classes());
  std::remove(path.c_str());
  auto missing = LoadBundleSnapshotFile(path);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), robust::StatusCode::kFailedPrecondition);
  EXPECT_EQ(SaveBundleSnapshotFile(recognizer, "/nonexistent-dir/x").code(),
            robust::StatusCode::kFailedPrecondition);
}

TEST(SnapshotFileTest, UntrainedModelDeclinesToSnapshot) {
  const std::string path = "/tmp/grandma_snapshot_untrained.snap";
  std::remove(path.c_str());
  eager::EagerRecognizer untrained;
  EXPECT_EQ(SaveEagerSnapshotFile(untrained, path).code(),
            robust::StatusCode::kFailedPrecondition);
  EXPECT_EQ(ReadFile(path), "");  // nothing was created
}

// --- Atomic write + crash injection ---

TEST(AtomicWriteTest, CrashMidWriteLeavesOldFileIntact) {
  const std::string path = "/tmp/grandma_atomic_crash.txt";
  WriteFile(path, "old content\n");
  robust::CrashPoint::ArmAfterBytes(3);
  bool crashed = false;
  try {
    (void)AtomicWriteFile(path, [](std::ostream& out) {
      out << "new content that is longer than the budget\n";
      return static_cast<bool>(out);
    });
  } catch (const robust::CrashPointTriggered&) {
    crashed = true;
  }
  robust::CrashPoint::Disarm();
  ASSERT_TRUE(crashed);
  EXPECT_EQ(ReadFile(path), "old content\n");
  // The stranded temp holds exactly the allowed prefix — byte-exact kill.
  EXPECT_EQ(ReadFile(AtomicTempPath(path)), "new");
  std::remove(path.c_str());
  std::remove(AtomicTempPath(path).c_str());
}

TEST(AtomicWriteTest, CrashBeforeRenameLeavesOldCrashAfterLeavesNew) {
  const std::string path = "/tmp/grandma_atomic_rename.txt";
  WriteFile(path, "old\n");
  robust::CrashPoint::ArmAtSite(kCrashBeforeRename);
  EXPECT_THROW((void)AtomicWriteFile(path,
                                     [](std::ostream& out) {
                                       out << "new\n";
                                       return true;
                                     }),
               robust::CrashPointTriggered);
  robust::CrashPoint::Disarm();
  EXPECT_EQ(ReadFile(path), "old\n");

  robust::CrashPoint::ArmAtSite(kCrashAfterRename);
  EXPECT_THROW((void)AtomicWriteFile(path,
                                     [](std::ostream& out) {
                                       out << "new\n";
                                       return true;
                                     }),
               robust::CrashPointTriggered);
  robust::CrashPoint::Disarm();
  EXPECT_EQ(ReadFile(path), "new\n");  // rename happened before the "crash"
  std::remove(path.c_str());
}

TEST(AtomicWriteTest, SuccessLeavesNoTemp) {
  const std::string path = "/tmp/grandma_atomic_ok.txt";
  ASSERT_TRUE(AtomicWriteFile(path, [](std::ostream& out) {
                out << "content\n";
                return true;
              }).ok());
  EXPECT_EQ(ReadFile(path), "content\n");
  std::ifstream temp(AtomicTempPath(path));
  EXPECT_FALSE(temp.good());
  std::remove(path.c_str());
}

// --- Property: a snapshot round trip is invisible to recognition ---

TEST(SnapshotPropertyTest, RoundTripIsBitIdenticalAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const eager::EagerRecognizer original = MakeRecognizer(seed);
    std::stringstream buf;
    ASSERT_TRUE(SaveBundleSnapshot(original, buf));
    auto loaded = LoadBundleSnapshot(buf);
    ASSERT_TRUE(loaded.ok()) << "seed " << seed << ": " << loaded.status().ToString();

    synth::NoiseModel noise;
    const auto strokes =
        synth::GenerateSet(synth::MakeUpDownSpecs(), noise, /*per_class=*/6, /*seed=*/seed + 77);
    for (const auto& batch : strokes) {
      for (const auto& sample : batch.samples) {
        eager::EagerStream a(original);
        eager::EagerStream b(loaded->recognizer);
        for (const auto& p : sample.gesture) {
          ASSERT_EQ(a.AddPoint(p), b.AddPoint(p)) << "seed " << seed;
        }
        const auto ca = a.ClassifyNow();
        const auto cb = b.ClassifyNow();
        EXPECT_EQ(ca.class_id, cb.class_id) << "seed " << seed;
        EXPECT_EQ(ca.score, cb.score) << "seed " << seed;  // bit-identical, not near
        EXPECT_EQ(ca.probability, cb.probability) << "seed " << seed;
        EXPECT_EQ(a.fired_at(), b.fired_at()) << "seed " << seed;
      }
    }
  }
}

// --- The Or loaders of the legacy text formats report precise reasons ---

TEST(SerializeOrTest, PreciseStatusesOnLegacyFormats) {
  std::stringstream wrong_family("some-other-format v1\n");
  EXPECT_EQ(LoadGestureSetOr(wrong_family).status().code(),
            robust::StatusCode::kCorruptSnapshot);

  std::stringstream future("grandma-gestureset v7\n");
  EXPECT_EQ(LoadGestureSetOr(future).status().code(), robust::StatusCode::kVersionMismatch);

  std::stringstream empty("");
  EXPECT_EQ(LoadClassifierOr(empty).status().code(), robust::StatusCode::kTruncated);

  const eager::EagerRecognizer recognizer = MakeRecognizer();
  std::stringstream buf;
  ASSERT_TRUE(SaveEagerRecognizer(recognizer, buf));
  std::string text = buf.str();
  text.resize(text.size() / 2);
  std::stringstream truncated(text);
  EXPECT_EQ(LoadEagerRecognizerOr(truncated).status().code(), robust::StatusCode::kTruncated);

  EXPECT_EQ(LoadEagerRecognizerFileOr("/nonexistent-dir/x").status().code(),
            robust::StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace grandma::io
