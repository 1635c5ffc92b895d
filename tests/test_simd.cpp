/**
 * @file
 * SIMD dispatch-layer suite: level parsing and BXT_SIMD resolution
 * semantics (invalid names fall back to scalar with a warning, never an
 * abort), per-primitive differential checks of every available kernel
 * table against the strict byte-loop scalar reference (CRC-32 also
 * against known answers), and the golden corpus plus the differential
 * campaign replayed at every dispatch level the host supports.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/rng.h"
#include "core/simd/kernels.h"
#include "core/simd/simd.h"
#include "verify/differential.h"
#include "verify/golden.h"

namespace bxt {
namespace {

using simd::Level;

/** Restores the entry dispatch level when a test scope ends. */
class ScopedLevel
{
  public:
    ScopedLevel() : saved_(simd::activeLevel()) {}
    ~ScopedLevel() { simd::setActiveLevel(saved_); }

  private:
    Level saved_;
};

TEST(SimdDispatch, ParseLevelRecognizesEveryNameCaseInsensitively)
{
    for (Level level : {Level::Scalar, Level::Word, Level::Neon,
                        Level::Avx2, Level::Avx512}) {
        const std::string name = simd::levelName(level);
        EXPECT_EQ(simd::parseLevel(name), level);
        std::string upper = name;
        for (char &ch : upper)
            if (ch >= 'a' && ch <= 'z')
                ch = static_cast<char>(ch - 'a' + 'A');
        EXPECT_EQ(simd::parseLevel(upper), level) << upper;
    }
    EXPECT_FALSE(simd::parseLevel("").has_value());
    EXPECT_FALSE(simd::parseLevel("avx1024").has_value());
    EXPECT_FALSE(simd::parseLevel("sse").has_value());
}

TEST(SimdDispatch, UnrecognizedEnvValueFallsBackToScalarWithWarning)
{
    // The BXT_SIMD contract: garbage must not abort the process — it
    // resolves to the scalar reference and says so on stderr.
    ASSERT_EQ(setenv("BXT_SIMD", "definitely-not-a-level", 1), 0);
    std::string warning;
    const Level level = simd::resolveRequestedLevel(
        std::getenv("BXT_SIMD"), &warning);
    EXPECT_EQ(level, Level::Scalar);
    EXPECT_FALSE(warning.empty());
    EXPECT_NE(warning.find("definitely-not-a-level"), std::string::npos);
    // And it is not treated as a forced level elsewhere (the bench sweep
    // keys off envForcedLevel to pin its level list).
    EXPECT_FALSE(simd::envForcedLevel().has_value());
    ASSERT_EQ(unsetenv("BXT_SIMD"), 0);
}

TEST(SimdDispatch, EmptyEnvPicksBestLevelWithoutWarning)
{
    std::string warning;
    EXPECT_EQ(simd::resolveRequestedLevel(nullptr, &warning),
              simd::bestLevel());
    EXPECT_TRUE(warning.empty());
    EXPECT_EQ(simd::resolveRequestedLevel("", &warning),
              simd::bestLevel());
    EXPECT_TRUE(warning.empty());
}

TEST(SimdDispatch, UnsupportedRequestClampsDownWithWarning)
{
    // Scalar and word are always installable, so a supported request
    // resolves verbatim and silently.
    std::string warning;
    EXPECT_EQ(simd::resolveRequestedLevel("scalar", &warning),
              Level::Scalar);
    EXPECT_TRUE(warning.empty());
    EXPECT_EQ(simd::resolveRequestedLevel("word", &warning), Level::Word);
    EXPECT_TRUE(warning.empty());

    // A valid name the host cannot run clamps to the best level at or
    // below it and warns. On hosts that support everything there is
    // nothing to clamp; the contract still holds vacuously.
    for (Level level : {Level::Neon, Level::Avx2, Level::Avx512}) {
        if (simd::levelSupported(level))
            continue;
        const Level got = simd::resolveRequestedLevel(
            simd::levelName(level), &warning);
        EXPECT_TRUE(simd::levelSupported(got));
        EXPECT_LT(static_cast<int>(got), static_cast<int>(level));
        EXPECT_FALSE(warning.empty());
    }
}

TEST(SimdDispatch, SetActiveLevelInstallsEverySupportedLevel)
{
    ScopedLevel guard;
    for (Level level : simd::supportedLevels()) {
        EXPECT_EQ(simd::setActiveLevel(level), level);
        EXPECT_EQ(simd::activeLevel(), level);
    }
    EXPECT_TRUE(simd::levelSupported(Level::Scalar));
    EXPECT_TRUE(simd::levelSupported(Level::Word));
}

/**
 * Byte plane whose lanes hit every ZDR case: zero lanes (encode's
 * highest-precedence rule), lanes equal to base^C and to base (the
 * decode collision corners), plus dense random filler.
 */
std::vector<std::uint8_t>
makeZdrPlane(std::size_t bytes, std::size_t lane,
             const std::vector<std::uint8_t> &base, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> plane(bytes);
    for (std::size_t off = 0; off < bytes; off += lane) {
        const std::uint64_t pick = rng.nextBounded(5);
        for (std::size_t b = 0; b < lane; ++b) {
            const std::uint8_t base_byte = base[off + b];
            // C has 0x40 in the lane's most-significant byte only.
            const std::uint8_t c_byte = b + 1 == lane ? 0x40 : 0x00;
            switch (pick) {
            case 0: plane[off + b] = 0; break;
            case 1: plane[off + b] = base_byte ^ c_byte; break;
            case 2: plane[off + b] = base_byte; break;
            case 3: plane[off + b] = c_byte; break;
            default:
                plane[off + b] = static_cast<std::uint8_t>(rng.next64());
            }
        }
    }
    return plane;
}

std::vector<std::uint8_t>
randomBytes(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> out(n);
    for (std::uint8_t &byte : out)
        byte = static_cast<std::uint8_t>(rng.next64());
    return out;
}

/** Sizes the range primitives are diffed at: vector-width multiples,
 *  sub-vector runs, and ragged tails for every register width. */
const std::vector<std::size_t> rangeSizes = {8,   16,  24,  32,  40,
                                             64,  72,  96,  128, 136,
                                             192, 256, 264, 512, 1024};

TEST(SimdKernels, RangePrimitivesMatchScalarAtEveryLevel)
{
    const simd::KernelTable &ref = simd::detail::scalarTable();
    for (Level level : simd::supportedLevels()) {
        SCOPED_TRACE(simd::levelName(level));
        ASSERT_EQ(simd::setActiveLevel(level), level);
        const simd::KernelTable &ops = simd::ops();
        EXPECT_EQ(ops.level, level);

        std::uint64_t seed = 0x51D0 + static_cast<std::uint64_t>(level);
        for (std::size_t n : rangeSizes) {
            const std::vector<std::uint8_t> base = randomBytes(n, seed++);
            const std::vector<std::uint8_t> in = randomBytes(n, seed++);

            std::vector<std::uint8_t> got(n), want(n);
            ops.xorRange(got.data(), in.data(), base.data(), n);
            ref.xorRange(want.data(), in.data(), base.data(), n);
            EXPECT_EQ(got, want) << "xorRange n=" << n;

            EXPECT_EQ(ops.popcountRange(in.data(), n),
                      ref.popcountRange(in.data(), n))
                << "popcountRange n=" << n;
            EXPECT_EQ(ops.popcountXorRange(in.data(), base.data(), n),
                      ref.popcountXorRange(in.data(), base.data(), n))
                << "popcountXorRange n=" << n;

            struct ZdrCase
            {
                std::size_t lane;
                void (*enc)(std::uint8_t *, const std::uint8_t *,
                            const std::uint8_t *, std::size_t);
                void (*dec)(std::uint8_t *, const std::uint8_t *,
                            const std::uint8_t *, std::size_t);
                void (*ref_enc)(std::uint8_t *, const std::uint8_t *,
                                const std::uint8_t *, std::size_t);
                void (*ref_dec)(std::uint8_t *, const std::uint8_t *,
                                const std::uint8_t *, std::size_t);
            };
            const ZdrCase cases[] = {
                {2, ops.zdrEncode16, ops.zdrDecode16, ref.zdrEncode16,
                 ref.zdrDecode16},
                {4, ops.zdrEncode32, ops.zdrDecode32, ref.zdrEncode32,
                 ref.zdrDecode32},
                {8, ops.zdrEncode64, ops.zdrDecode64, ref.zdrEncode64,
                 ref.zdrDecode64},
            };
            for (const ZdrCase &zc : cases) {
                if (n % zc.lane != 0)
                    continue;
                const std::vector<std::uint8_t> lanes =
                    makeZdrPlane(n, zc.lane, base, seed++);
                zc.enc(got.data(), lanes.data(), base.data(), n);
                zc.ref_enc(want.data(), lanes.data(), base.data(), n);
                EXPECT_EQ(got, want)
                    << "zdrEncode lane=" << zc.lane << " n=" << n;

                std::vector<std::uint8_t> back(n), ref_back(n);
                zc.dec(back.data(), got.data(), base.data(), n);
                zc.ref_dec(ref_back.data(), want.data(), base.data(), n);
                EXPECT_EQ(back, ref_back)
                    << "zdrDecode lane=" << zc.lane << " n=" << n;
                EXPECT_EQ(back, lanes)
                    << "zdr round-trip lane=" << zc.lane << " n=" << n;
            }
        }
    }
}

TEST(SimdKernels, DbiPlanePrimitivesMatchScalarAtEveryLevel)
{
    const simd::KernelTable &ref = simd::detail::scalarTable();
    for (Level level : simd::supportedLevels()) {
        SCOPED_TRACE(simd::levelName(level));
        ASSERT_EQ(simd::setActiveLevel(level), level);
        const simd::KernelTable &ops = simd::ops();

        std::uint64_t seed = 0xDB1 + static_cast<std::uint64_t>(level);
        for (std::size_t group_bytes : {std::size_t{1}, std::size_t{2},
                                        std::size_t{4}, std::size_t{8}}) {
            for (std::size_t groups :
                 {std::size_t{1}, std::size_t{3}, std::size_t{8},
                  std::size_t{31}, std::size_t{64}, std::size_t{129},
                  std::size_t{512}}) {
                const std::size_t n = groups * group_bytes;
                const std::vector<std::uint8_t> plane =
                    randomBytes(n, seed++);

                std::vector<std::uint8_t> got = plane, want = plane;
                std::vector<std::uint8_t> got_meta(groups, 0xcc);
                std::vector<std::uint8_t> want_meta(groups, 0xcc);
                ops.dbiEncodePlane(got.data(), got_meta.data(), groups,
                                   group_bytes);
                ref.dbiEncodePlane(want.data(), want_meta.data(), groups,
                                   group_bytes);
                EXPECT_EQ(got, want) << "dbiEncodePlane gb=" << group_bytes
                                     << " groups=" << groups;
                EXPECT_EQ(got_meta, want_meta)
                    << "dbi meta gb=" << group_bytes
                    << " groups=" << groups;

                ops.dbiDecodePlane(got.data(), got_meta.data(), groups,
                                   group_bytes);
                EXPECT_EQ(got, plane)
                    << "dbi round-trip gb=" << group_bytes
                    << " groups=" << groups;
            }
        }
    }
}

/** Pattern bytes whose CRCs were computed independently (zlib). */
std::vector<std::uint8_t>
crcPattern(std::size_t n)
{
    std::vector<std::uint8_t> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<std::uint8_t>(i * 131 + 7);
    return out;
}

TEST(SimdKernels, Crc32KnownAnswersAtEveryLevel)
{
    ScopedLevel guard;
    const std::string check = "123456789";
    const std::vector<std::uint8_t> check_bytes(check.begin(), check.end());
    for (Level level : simd::supportedLevels()) {
        SCOPED_TRACE(simd::levelName(level));
        ASSERT_EQ(simd::setActiveLevel(level), level);
        EXPECT_EQ(crc32(check_bytes), 0xcbf43926u);
        EXPECT_EQ(crc32({}), 0u);
        // Long enough for every level's wide path, with a ragged tail.
        EXPECT_EQ(crc32(crcPattern(5200)), 0xac07e0bau);
    }
}

TEST(SimdKernels, Crc32MatchesScalarForEveryLengthAndOffset)
{
    ScopedLevel guard;
    constexpr std::size_t maxLen = 4096;
    constexpr std::size_t maxOffset = 15;
    const simd::KernelTable &ref = simd::detail::scalarTable();
    const std::vector<std::uint8_t> buf =
        randomBytes(maxLen + maxOffset, 0xC4C32);
    for (Level level : simd::supportedLevels()) {
        SCOPED_TRACE(simd::levelName(level));
        ASSERT_EQ(simd::setActiveLevel(level), level);
        const simd::KernelTable &ops = simd::ops();
        std::size_t mismatches = 0;
        for (std::size_t off = 0; off <= maxOffset; ++off) {
            const std::uint8_t *src = buf.data() + off;
            // The Scalar reference for length len, extended one byte
            // per step.
            std::uint32_t want = crc32Init;
            for (std::size_t len = 0; len <= maxLen; ++len) {
                if (len > 0)
                    want = ref.crc32Update(want, src + len - 1, 1);
                const std::uint32_t got =
                    ops.crc32Update(crc32Init, src, len);
                if (got != want && mismatches++ < 8)
                    ADD_FAILURE() << "crc32Update off=" << off
                                  << " len=" << len;
            }
        }
        EXPECT_EQ(mismatches, 0u);
    }
}

TEST(SimdKernels, Crc32ChainedUpdatesMatchOneShotAtEveryLevel)
{
    ScopedLevel guard;
    const simd::KernelTable &ref = simd::detail::scalarTable();
    const std::vector<std::uint8_t> buf = randomBytes(3 * 4096, 0xC4A1);
    const std::span<const std::uint8_t> all(buf);
    for (Level level : simd::supportedLevels()) {
        SCOPED_TRACE(simd::levelName(level));
        ASSERT_EQ(simd::setActiveLevel(level), level);
        Rng rng(0x5B117 + static_cast<std::uint64_t>(level));
        for (int trial = 0; trial < 200; ++trial) {
            const std::size_t n = rng.nextBounded(buf.size() + 1);
            const std::uint32_t want =
                ref.crc32Update(crc32Init, buf.data(), n);
            // Split [0, n) at up to 8 random points.
            std::uint32_t crc = crc32Init;
            std::size_t at = 0;
            const std::size_t pieces = 1 + rng.nextBounded(8);
            for (std::size_t p = 1; p < pieces && at < n; ++p) {
                const std::size_t len = rng.nextBounded(n - at + 1);
                crc = crc32Update(crc, all.subspan(at, len));
                at += len;
            }
            crc = crc32Update(crc, all.subspan(at, n - at));
            EXPECT_EQ(crc, want) << "n=" << n << " pieces=" << pieces;
            EXPECT_EQ(crc32(all.first(n)), crc32Final(want));
        }
    }
}

TEST(SimdGolden, CorpusIsBitIdenticalAtEveryLevel)
{
    ScopedLevel guard;
    for (Level level : simd::supportedLevels()) {
        SCOPED_TRACE(simd::levelName(level));
        ASSERT_EQ(simd::setActiveLevel(level), level);
        for (unsigned wires : {32u, 64u}) {
            for (const std::string &spec : verify::goldenSpecs(wires)) {
                const std::string path =
                    std::string(BXT_GOLDEN_DIR) + "/" +
                    verify::goldenFileName(spec, wires);
                for (const std::string &diff : verify::checkGoldenFile(path))
                    ADD_FAILURE() << simd::levelName(level) << ": "
                                  << diff;
            }
        }
    }
}

TEST(SimdFuzz, BatchDifferentialHoldsAtEveryLevel)
{
    ScopedLevel guard;
    for (Level level : simd::supportedLevels()) {
        SCOPED_TRACE(simd::levelName(level));
        ASSERT_EQ(simd::setActiveLevel(level), level);

        // One stream per unit, its batch size drawn from the unit seed:
        // the sweep multiplies by the level count, and the per-primitive
        // diffs above already cover the lane algebra densely.
        verify::FuzzOptions options;
        options.iterationsPerSpec = verify::kFuzzStreamTx;
        options.seed = 0x51D0F00D + static_cast<std::uint64_t>(level);

        const verify::FuzzReport report = verify::runDifferentialFuzz(options);
        EXPECT_GT(report.transactionsChecked, 0u);
        for (const verify::FuzzFailure &failure : report.failures)
            ADD_FAILURE() << simd::levelName(level) << ": " << failure.spec
                          << " wires=" << failure.dataWires
                          << " batch=" << failure.batchTx
                          << " seed=" << failure.seed << ": "
                          << failure.violation.invariant << " "
                          << failure.violation.detail;
    }
}

} // namespace
} // namespace bxt
