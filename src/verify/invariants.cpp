#include "verify/invariants.h"

#include <algorithm>

#include "common/error.h"
#include "core/codec_factory.h"
#include "verify/reference_bus.h"
#include "verify/reference_codecs.h"

namespace bxt::verify {
namespace {

/** Naive per-bit popcount, independent of common/bitops.h. */
std::size_t
naiveOnes(const std::uint8_t *data, std::size_t n)
{
    std::size_t count = 0;
    for (std::size_t i = 0; i < n; ++i) {
        for (int bit = 0; bit < 8; ++bit)
            count += (data[i] >> bit) & 1;
    }
    return count;
}

} // namespace

std::size_t
trailingDbiGroupBytes(const std::string &spec)
{
    const std::size_t bar = spec.rfind('|');
    const std::string tail =
        bar == std::string::npos ? spec : spec.substr(bar + 1);
    if (tail.rfind("dbi", 0) != 0 || tail.rfind("dbi-ac", 0) == 0)
        return 0;
    std::size_t group = 0;
    for (std::size_t i = 3; i < tail.size(); ++i) {
        if (tail[i] < '0' || tail[i] > '9')
            return 0;
        group = group * 10 + static_cast<std::size_t>(tail[i] - '0');
    }
    return group;
}

std::string
hexString(std::span<const std::uint8_t> bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(bytes.size() * 2);
    for (std::uint8_t b : bytes) {
        out += digits[b >> 4];
        out += digits[b & 0xf];
    }
    return out;
}

std::string
bitsString(std::span<const std::uint8_t> bits)
{
    if (bits.empty())
        return "-";
    std::string out;
    out.reserve(bits.size());
    for (std::uint8_t b : bits)
        out += b ? '1' : '0';
    return out;
}

std::string
statsString(const BusStats &s)
{
    return "tx=" + std::to_string(s.transactions) +
           " beats=" + std::to_string(s.beats) +
           " bits=" + std::to_string(s.dataBits) +
           " ones=" + std::to_string(s.dataOnes) +
           " toggles=" + std::to_string(s.dataToggles) +
           " metaBits=" + std::to_string(s.metaBits) +
           " metaOnes=" + std::to_string(s.metaOnes) +
           " metaToggles=" + std::to_string(s.metaToggles);
}

std::optional<Violation>
checkStream(const std::string &spec, const std::vector<Transaction> &stream,
            unsigned data_wires, std::size_t batch_tx, double idle_fraction,
            const CodecFactory &make_core)
{
    BXT_ASSERT(batch_tx > 0);
    const std::size_t bus_bytes = data_wires / 8;
    CodecPtr core = make_core ? make_core(spec, bus_bytes)
                              : makeCodec(spec, bus_bytes);
    // Expected encodings: the naive reference codec where one exists,
    // otherwise a fresh core instance run one transaction per batch.
    // Stateful codecs advance per transaction in stream order on both
    // sides, so slice j of the chunk at i must equal expectation i + j.
    RefCodecPtr ref = makeRefCodec(spec, bus_bytes);
    CodecPtr single = ref ? nullptr : makeCodec(spec, bus_bytes);
    const std::size_t dbi_group = trailingDbiGroupBytes(spec);
    const std::size_t half_bits = dbi_group * 8 / 2;
    const std::string unit = "spec " + spec + " wires " +
                             std::to_string(data_wires) + " batch " +
                             std::to_string(batch_tx) + " tx ";
    const auto context = [&](std::size_t k) {
        return unit + std::to_string(k) + " " + hexString(stream[k].bytes());
    };

    // Wire state and the idle accumulator advance across the whole stream
    // on both bus models, so batch boundaries must change no counter.
    Bus bus(data_wires, core->metaWiresPerBeat(), idle_fraction);
    RefBus ref_bus(data_wires, core->metaWiresPerBeat(), idle_fraction);
    const bool single_tx = batch_tx == 1;
    TxBatch batch;
    EncodedBatch enc;
    TxBatch decoded;
    Encoded one;
    Encoded single_enc;
    Transaction back(Transaction::minBytes);
    for (std::size_t i = 0; i < stream.size(); i += batch_tx) {
        const std::size_t chunk = std::min(batch_tx, stream.size() - i);
        BusStats delta;
        try {
            if (single_tx) {
                core->encodeInto(stream[i], one);
                delta = bus.transmit(one);
                core->decodeInto(one, back);
            } else {
                batch.reset(stream[i].size());
                for (std::size_t j = 0; j < chunk; ++j)
                    batch.push(stream[i + j]);
                core->encodeBatch(batch, enc);
                delta = bus.transmitBatch(enc);
                core->decodeBatch(enc, decoded);
            }
        } catch (const CodecSizeError &e) {
            return Violation{"codec-size-error", context(i) + ": " + e.what(),
                             i};
        }

        BusStats ref_delta;
        for (std::size_t j = 0; j < chunk; ++j) {
            const std::size_t k = i + j;
            const Transaction &tx = stream[k];
            const std::span<const std::uint8_t> payload =
                single_tx ? one.payload.bytes() : enc.payload(j);
            const std::span<const std::uint8_t> meta =
                single_tx ? std::span<const std::uint8_t>(one.meta)
                          : enc.meta(j);
            const unsigned meta_wires =
                single_tx ? one.metaWiresPerBeat : enc.metaWiresPerBeat();
            const std::span<const std::uint8_t> restored =
                single_tx ? back.bytes() : decoded.tx(j);

            const std::vector<std::uint8_t> input(tx.bytes().begin(),
                                                  tx.bytes().end());
            RefEncoded want;
            if (ref != nullptr) {
                want = ref->encode(input);
            } else {
                single->encodeInto(tx, single_enc);
                want = {{single_enc.payload.bytes().begin(),
                         single_enc.payload.bytes().end()},
                        single_enc.meta,
                        single_enc.metaWiresPerBeat};
            }

            // 2. Core vs expected equality of the full encoding.
            if (!std::ranges::equal(payload, want.payload)) {
                return Violation{"core-vs-ref-payload",
                                 context(k) + " core " + hexString(payload) +
                                     " ref " + hexString(want.payload),
                                 k};
            }
            if (!std::ranges::equal(meta, want.meta) ||
                meta_wires != want.metaWiresPerBeat) {
                return Violation{"core-vs-ref-meta",
                                 context(k) + " core " + bitsString(meta) +
                                     "/" + std::to_string(meta_wires) +
                                     " ref " + bitsString(want.meta) + "/" +
                                     std::to_string(want.metaWiresPerBeat),
                                 k};
            }
            // 3. The reference model is itself a bijection.
            if (ref != nullptr && ref->decode(want) != input) {
                return Violation{"ref-roundtrip",
                                 context(k) + " (reference model is not a "
                                              "bijection on this input)",
                                 k};
            }
            // 1. Core bijectivity: decode must restore the exact input.
            if (!std::ranges::equal(restored, tx.bytes())) {
                return Violation{"core-roundtrip",
                                 context(k) + " decoded " +
                                     hexString(restored),
                                 k};
            }
            // 5. DBI-DC weight bound on the transmitted payload.
            for (std::size_t off = 0;
                 dbi_group > 0 && off + dbi_group <= payload.size();
                 off += dbi_group) {
                const std::size_t ones =
                    naiveOnes(payload.data() + off, dbi_group);
                if (ones > half_bits) {
                    return Violation{"dbi-weight-bound",
                                     context(k) + " group at byte " +
                                         std::to_string(off) + " carries " +
                                         std::to_string(ones) + " ones > " +
                                         std::to_string(half_bits),
                                     k};
                }
            }
            ref_delta += ref_bus.transmit(want.payload, want.meta,
                                          want.metaWiresPerBeat);
        }

        // 6. Word-wide Bus vs bit-level RefBus, per chunk and cumulative.
        if (!(delta == ref_delta)) {
            return Violation{"bus-vs-ref-delta",
                             context(i) + " chunk of " +
                                 std::to_string(chunk) + ": core [" +
                                 statsString(delta) + "] ref [" +
                                 statsString(ref_delta) + "]",
                             i};
        }
        if (!(bus.stats() == ref_bus.stats())) {
            return Violation{"bus-vs-ref-cumulative",
                             context(i) + ": core [" +
                                 statsString(bus.stats()) + "] ref [" +
                                 statsString(ref_bus.stats()) + "]",
                             i};
        }
    }
    return std::nullopt;
}

std::optional<Violation>
checkZdrLaneInvolution(const std::vector<std::uint8_t> &in,
                       const std::vector<std::uint8_t> &base)
{
    const std::vector<std::uint8_t> constant = refZdrConstant(in.size());
    const auto swap_symbols =
        [&](const std::vector<std::uint8_t> &y) -> std::vector<std::uint8_t> {
        if (y == base)
            return constant;
        if (y == constant)
            return base;
        return y;
    };
    const std::string context =
        "lane " + hexString(in) + " base " + hexString(base);

    const std::vector<std::uint8_t> plain = refXorLane(in, base);
    if (swap_symbols(swap_symbols(plain)) != plain) {
        return Violation{"zdr-swap-involution",
                         context + " σ∘σ != id on " + hexString(plain)};
    }
    const std::vector<std::uint8_t> zdr = refZdrLaneEncode(in, base);
    if (zdr != swap_symbols(plain)) {
        return Violation{"zdr-equals-swapped-xor",
                         context + " zdr " + hexString(zdr) + " σ(xor) " +
                             hexString(swap_symbols(plain))};
    }
    if (refZdrLaneDecode(zdr, base) != in) {
        return Violation{"zdr-lane-roundtrip",
                         context + " decode gives " +
                             hexString(refZdrLaneDecode(zdr, base))};
    }
    return std::nullopt;
}

} // namespace bxt::verify
