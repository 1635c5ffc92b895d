/**
 * @file
 * CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) used to integrity-
 * check frames on the bxtd wire protocol. The work is the `crc32Update`
 * primitive of the SIMD kernel table (core/simd/simd.h), so it follows
 * the dispatch level like the codec kernels: a bytewise table loop at
 * Scalar, slicing-by-8 at Word and Neon, 128-bit PCLMULQDQ folding at
 * Avx2 and Avx512. Every level computes the same CRC, so frame bytes do
 * not depend on the level either end runs.
 */

#ifndef BXT_COMMON_CHECKSUM_H
#define BXT_COMMON_CHECKSUM_H

#include <cstdint>
#include <span>

#include "core/simd/simd.h"

namespace bxt {

/**
 * Update a running CRC32 with @p bytes. Start from crc32Init, finish with
 * crc32Final; `crc32Final(crc32Update(crc32Init, data))` is the standard
 * zlib/PNG CRC-32 of `data`.
 */
constexpr std::uint32_t crc32Init = 0xffffffffu;

inline std::uint32_t
crc32Update(std::uint32_t crc, std::span<const std::uint8_t> bytes)
{
    return simd::ops().crc32Update(crc, bytes.data(), bytes.size());
}

constexpr std::uint32_t
crc32Final(std::uint32_t crc)
{
    return crc ^ 0xffffffffu;
}

/** One-shot CRC32 of @p bytes. */
inline std::uint32_t
crc32(std::span<const std::uint8_t> bytes)
{
    return crc32Final(crc32Update(crc32Init, bytes));
}

} // namespace bxt

#endif // BXT_COMMON_CHECKSUM_H
