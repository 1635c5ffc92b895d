/**
 * @file
 * Internal: per-tier kernel table accessors for the dispatcher.
 *
 * The vector translation units are always part of the build; when the
 * toolchain or target architecture cannot produce a tier (no -mavx2
 * support, non-x86 target), the TU compiles to a stub whose accessor
 * returns nullptr. The dispatcher combines these link-time nulls with
 * runtime CPUID checks to decide what is actually installable.
 */

#ifndef BXT_CORE_SIMD_KERNELS_H
#define BXT_CORE_SIMD_KERNELS_H

#include "core/simd/simd.h"

namespace bxt::simd::detail {

/** Always available. */
const KernelTable &scalarTable();
const KernelTable &wordTable();

/** Null when the binary was built without the tier's instructions. */
const KernelTable *avx2TableOrNull();
const KernelTable *avx512TableOrNull();
const KernelTable *neonTableOrNull();

/** Runtime CPU support for the x86 tiers (always false off-x86). Both
 *  include PCLMULQDQ, which their shared CRC-32 entry needs. */
bool cpuHasAvx2();
bool cpuHasAvx512();

/**
 * CRC-32 register update by 128-bit PCLMULQDQ folding (crc32_pclmul.cpp):
 * the crc32Update entry of both x86 vector tiers. Defined only when that
 * TU is built with -msse4.1 -mpclmul, which the build arranges whenever
 * it builds either vector tier.
 */
std::uint32_t crc32UpdatePclmul(std::uint32_t crc, const std::uint8_t *src,
                                std::size_t n);

} // namespace bxt::simd::detail

#endif // BXT_CORE_SIMD_KERNELS_H
