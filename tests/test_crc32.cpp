#include "support/crc32.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "support/rng.hpp"

namespace st {
namespace {

// Reference values of the zlib CRC-32.
TEST(Crc32, KnownVectorAbc) {
  EXPECT_EQ(Crc32::of("abc", 3), 0x352441C2u);
}

TEST(Crc32, KnownVector123456789) {
  EXPECT_EQ(Crc32::of("123456789", 9), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(Crc32::of("", 0), 0x00000000u); }

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  Crc32 inc;
  inc.update(data.substr(0, 10));
  inc.update(data.substr(10));
  EXPECT_EQ(inc.value(), Crc32::of(data.data(), data.size()));
}

TEST(Crc32, SingleBitFlipChangesValue) {
  std::string data = "payload-payload-payload";
  const auto original = Crc32::of(data.data(), data.size());
  data[5] = static_cast<char>(data[5] ^ 0x01);
  EXPECT_NE(Crc32::of(data.data(), data.size()), original);
}

TEST(Crc32, AllByteValues) {
  std::string data;
  for (int i = 0; i < 256; ++i) data.push_back(static_cast<char>(i));
  // Stable regression value (self-consistency across refactors).
  EXPECT_EQ(Crc32::of(data.data(), data.size()), 0x29058C73u);
}

/// Bytewise reference: the textbook one-bit-at-a-time zlib CRC-32,
/// independent of Crc32's tables.
std::uint32_t reference_crc(const unsigned char* p, std::size_t len) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<unsigned char> out(n);
  for (unsigned char& b : out) b = static_cast<unsigned char>(rng.next() >> 56);
  return out;
}

TEST(Crc32, EveryLengthAtEveryOffsetMatchesReference) {
  // Covers every 16-byte block count, every tail length and every
  // start misalignment.
  const auto buf = random_bytes(300 + 16, 1);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      ASSERT_EQ(Crc32::of(buf.data() + offset, len), reference_crc(buf.data() + offset, len))
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32, UpdateSplitAtEveryPointMatchesReference) {
  const auto buf = random_bytes(200, 2);
  const std::uint32_t want = reference_crc(buf.data(), buf.size());
  for (std::size_t cut = 0; cut <= buf.size(); ++cut) {
    Crc32 c;
    c.update(buf.data(), cut);
    c.update(buf.data() + cut, buf.size() - cut);
    ASSERT_EQ(c.value(), want) << "cut " << cut;
  }
}

TEST(Crc32, OneMebibyteMatchesReference) {
  const auto buf = random_bytes(std::size_t{1} << 20, 3);
  EXPECT_EQ(Crc32::of(buf.data(), buf.size()), reference_crc(buf.data(), buf.size()));
}

}  // namespace
}  // namespace st
