/**
 * @file
 * CRC-32 by carry-less multiplication: the crc32Update entry shared by
 * the Avx2 and Avx512 tiers. Compiled with -msse4.1 -mpclmul via a
 * per-file flag (see src/core/CMakeLists.txt); the dispatcher installs
 * those tiers only on CPUs that report PCLMULQDQ.
 *
 * The method is Gopal et al., "Fast CRC Computation for Generic
 * Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in the
 * bit-reflected domain of polynomial 0xEDB88320: four 128-bit
 * accumulators fold 64 bytes per step, fold into one, take the remaining
 * 16-byte blocks, reduce 128 -> 64 -> 32 bits and finish with a Barrett
 * reduction. The constants are x^k mod P(x) for the fold distances
 * (k1..k5) and the Barrett pair (P(x), floor(x^64 / P(x))), all
 * bit-reflected. Inputs under 64 bytes and the last n mod 16 bytes take
 * the bytewise table loop.
 */

#include "core/simd/kernels.h"

#if defined(__PCLMUL__) && defined(__SSE4_1__) && defined(__x86_64__)

#include <immintrin.h>

#include "core/simd/kernel_common.h"

namespace bxt::simd::detail {

namespace {

inline __m128i
load128(const std::uint8_t *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

/** Fold @p acc forward over 128 bits by the distance @p k encodes and
 *  add @p next: acc.lo * k.lo ^ acc.hi * k.hi ^ next. */
inline __m128i
fold(__m128i acc, __m128i k, __m128i next)
{
    const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
    const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
    return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

/** The register update over @p n bytes; n >= 64 and n % 16 == 0. */
std::uint32_t
foldBlocks(std::uint32_t crc, const std::uint8_t *src, std::size_t n)
{
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
    const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);

    __m128i x1 = _mm_xor_si128(load128(src),
                               _mm_cvtsi32_si128(static_cast<int>(crc)));
    __m128i x2 = load128(src + 16);
    __m128i x3 = load128(src + 32);
    __m128i x4 = load128(src + 48);
    src += 64;
    n -= 64;

    // Four independent 128-bit lanes, 64 bytes per step.
    for (; n >= 64; src += 64, n -= 64) {
        x1 = fold(x1, k1k2, load128(src));
        x2 = fold(x2, k1k2, load128(src + 16));
        x3 = fold(x3, k1k2, load128(src + 32));
        x4 = fold(x4, k1k2, load128(src + 48));
    }

    // Fold the four lanes into one, then the remaining 16-byte blocks.
    x1 = fold(x1, k3k4, x2);
    x1 = fold(x1, k3k4, x3);
    x1 = fold(x1, k3k4, x4);
    for (; n >= 16; src += 16, n -= 16)
        x1 = fold(x1, k3k4, load128(src));

    // 128 -> 64 bits.
    __m128i t = _mm_clmulepi64_si128(x1, k3k4, 0x10);
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t);
    // 64 -> 32 bits (plus the carry into bits 32..63).
    t = _mm_srli_si128(x1, 4);
    x1 = _mm_and_si128(x1, mask32);
    x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k5, 0x00), t);
    // Barrett reduction to the 32-bit remainder.
    t = _mm_and_si128(x1, mask32);
    t = _mm_clmulepi64_si128(t, poly, 0x10);
    t = _mm_and_si128(t, mask32);
    t = _mm_clmulepi64_si128(t, poly, 0x00);
    x1 = _mm_xor_si128(x1, t);
    return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

} // namespace

std::uint32_t
crc32UpdatePclmul(std::uint32_t crc, const std::uint8_t *src, std::size_t n)
{
    if (n < 64)
        return crc32BytewiseRange(crc, src, n);
    const std::size_t folded = n & ~std::size_t{15};
    crc = foldBlocks(crc, src, folded);
    return crc32BytewiseRange(crc, src + folded, n - folded);
}

} // namespace bxt::simd::detail

#endif
