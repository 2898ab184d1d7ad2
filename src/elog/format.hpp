// elog: the little-endian byte primitives shared by the v2 container
// (v2_format.hpp) and the shard partial codec (pipeline/partial_codec).
//
// Stores append to a std::string; loads assemble bytes (the compiler
// folds them to a single mov on little-endian hardware), never a
// pointer cast, so they are free of alignment/strict-aliasing UB and
// byte-order independent. The caller guarantees a load's range is in
// bounds.
#pragma once

#include <cstdint>
#include <string>

namespace st::elog {

void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
void put_i64(std::string& out, std::int64_t v);

[[nodiscard]] std::uint32_t load_u32(const char* p);
[[nodiscard]] std::uint64_t load_u64(const char* p);
[[nodiscard]] std::int64_t load_i64(const char* p);
void store_u32(char* p, std::uint32_t v);

}  // namespace st::elog
