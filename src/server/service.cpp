#include "server/service.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <exception>
#include <map>
#include <mutex>
#include <span>

#include "common/error.h"
#include "common/json.h"
#include "core/codec_factory.h"
#include "core/simd/simd.h"
#include "telemetry/metrics.h"
#include "telemetry/snapshot.h"
#include "telemetry/trace.h"

namespace bxt::server {
namespace {

/** Fraction of zero 32-bit words in @p data (1.0 for an empty plane). */
double
zeroWordFraction(const std::uint8_t *data, std::size_t bytes)
{
    const std::size_t words = bytes / 4;
    if (words == 0)
        return 1.0;
    std::size_t zeros = 0;
    for (std::size_t i = 0; i < words; ++i) {
        std::uint32_t word;
        std::memcpy(&word, data + i * 4, 4);
        zeros += word == 0 ? 1 : 0;
    }
    return static_cast<double>(zeros) / static_cast<double>(words);
}

/**
 * Mean fraction of bits toggling between adjacent transactions of the
 * request (popcount(tx_i XOR tx_{i-1}) / bits). 0 when the request
 * carries fewer than two transactions.
 */
double
xorToggleWeight(const std::uint8_t *data, std::size_t count,
                std::size_t tx_bytes)
{
    if (count < 2 || tx_bytes == 0)
        return 0.0;
    // Transaction i XOR transaction i-1, for every i >= 1, is the plane
    // from transaction 1 onward XORed with the plane shifted back by one.
    const std::uint64_t toggled = simd::ops().popcountXorRange(
        data + tx_bytes, data, (count - 1) * tx_bytes);
    return static_cast<double>(toggled) /
           static_cast<double>((count - 1) * tx_bytes * 8);
}

/** Bits of metadata one transaction carries for this geometry. */
std::size_t
metaBitsPerTx(std::uint32_t tx_bytes, std::uint32_t bus_bits,
              unsigned meta_wires_per_beat)
{
    const std::size_t beats = tx_bytes * 8u / bus_bits;
    return beats * meta_wires_per_beat;
}

/** Pack beat-major 0/1 metadata values LSB-first into @p writer. */
void
packMeta(wire::BodyWriter &writer, std::span<const std::uint8_t> meta,
         std::size_t packed_bytes)
{
    std::vector<std::uint8_t> packed(packed_bytes, 0);
    for (std::size_t j = 0; j < meta.size(); ++j) {
        if (meta[j] != 0)
            packed[j / 8] |= static_cast<std::uint8_t>(1u << (j % 8));
    }
    writer.bytes(packed.data(), packed.size());
}

/** Unpack LSB-first packed metadata into @p bits 0/1 values. */
void
unpackMeta(const std::uint8_t *packed, std::span<std::uint8_t> bits)
{
    for (std::size_t j = 0; j < bits.size(); ++j)
        bits[j] = (packed[j / 8] >> (j % 8)) & 1u;
}

} // namespace

Service::Service(telemetry::Registry *registry)
    : reg_(registry != nullptr ? *registry : telemetry::currentRegistry()),
      requests_(reg_.counter("bxt.server.requests")),
      errors_(reg_.counter("bxt.server.errors")),
      txEncoded_(reg_.counter("bxt.server.tx_encoded")),
      txDecoded_(reg_.counter("bxt.server.tx_decoded"))
{
}

Service::StreamCounters::StreamCounters(telemetry::Registry &reg,
                                        const std::string &base)
    : requests(reg.counter(base + ".requests")),
      txEncoded(reg.counter(base + ".tx_encoded")),
      onesIn(reg.counter(base + ".ones_in")),
      onesOut(reg.counter(base + ".ones_out")),
      windowZeroFrac(reg.gauge(base + ".window_zero_frac")),
      windowXorWeight(reg.gauge(base + ".window_xor_weight"))
{
}

void
Service::StreamCounters::observe(double zero_frac, double xor_weight)
{
    zeroFrac[windowNext] = zero_frac;
    xorWeight[windowNext] = xor_weight;
    windowNext = (windowNext + 1) % windowSize;
    windowCount = std::min(windowCount + 1, windowSize);
    double zero_sum = 0.0;
    double xor_sum = 0.0;
    for (std::size_t i = 0; i < windowCount; ++i) {
        zero_sum += zeroFrac[i];
        xor_sum += xorWeight[i];
    }
    const double n = static_cast<double>(windowCount);
    windowZeroFrac.set(zero_sum / n);
    windowXorWeight.set(xor_sum / n);
}

Service::StreamCounters &
Service::streamCounters(std::uint16_t stream_id)
{
    auto it = streams_.find(stream_id);
    if (it == streams_.end()) {
        const std::string base =
            "bxt.server.stream." + std::to_string(stream_id);
        it = streams_
                 .emplace(stream_id,
                          std::make_unique<StreamCounters>(reg_, base))
                 .first;
    }
    return *it->second;
}

wire::Frame
Service::errorResponse(wire::ErrorCode code, const std::string &detail)
{
    errors_.add(1);
    return wire::makeErrorFrame(code, detail);
}

std::string
validateGeometry(std::uint32_t tx_bytes, std::uint32_t bus_bits)
{
    if (tx_bytes < Transaction::minBytes ||
        tx_bytes > Transaction::maxBytes ||
        (tx_bytes & (tx_bytes - 1)) != 0) {
        return "txBytes " + std::to_string(tx_bytes) +
               " is not a power of two in [" +
               std::to_string(Transaction::minBytes) + ", " +
               std::to_string(Transaction::maxBytes) + "]";
    }
    if (bus_bits != 32 && bus_bits != 64)
        return "busBits " + std::to_string(bus_bits) + " is not 32 or 64";
    if (tx_bytes * 8u % bus_bits != 0) {
        return "txBytes " + std::to_string(tx_bytes) +
               " is not a whole number of " + std::to_string(bus_bits) +
               "-bit beats";
    }
    return {};
}

Service::Entry *
Service::entryFor(const std::string &spec, std::uint32_t tx_bytes,
                  std::uint32_t bus_bits, std::uint16_t stream_id,
                  std::string &err)
{
    // Concrete codecs are shared across streams; adaptive entries are
    // keyed per stream so each stream runs its own controller.
    const bool is_adaptive = adaptive::isAdaptiveSpec(spec);
    const Key key{spec, tx_bytes, bus_bits,
                  is_adaptive ? stream_id : std::uint16_t{0}};
    auto it = codecs_.find(key);
    if (it != codecs_.end())
        return &it->second;

    CodecPtr codec = tryMakeCodec(spec, bus_bits / 8u, err);
    if (!codec)
        return nullptr;
    Entry entry;
    entry.codec = std::move(codec);
    if (is_adaptive)
        entry.adaptive =
            dynamic_cast<adaptive::AdaptiveCodec *>(entry.codec.get());
    return &codecs_.emplace(key, std::move(entry)).first->second;
}

void
Service::announceAdaptive(Entry &entry, std::uint16_t stream_id,
                          wire::Frame &response)
{
    const adaptive::Controller &controller = entry.adaptive->controller();
    // The reply's spec field doubles as stream metadata: the concrete
    // spec currently chosen plus the switch epoch, so clients can decode
    // cross-epoch payloads with the right codec and watch the choice
    // migrate. ';' cannot appear in the spec grammar, so old clients
    // that echo the field verbatim stay unambiguous.
    response.spec = controller.activeSpec() + ";epoch=" +
                    std::to_string(controller.epoch());

    if (!telemetry::metricsEnabled() || stream_id == 0)
        return;
    const std::string base = "bxt.server.stream." +
                             std::to_string(stream_id) + ".adaptive";
    reg_.gauge(base + ".epoch")
        .set(static_cast<double>(controller.epoch()));
    if (controller.epoch() > entry.lastEpoch) {
        reg_.counter(base + ".switches")
            .add(controller.epoch() - entry.lastEpoch);
        entry.lastEpoch = controller.epoch();
    }
    const std::string choice =
        base + ".choice." +
        telemetry::sanitizeMetricName(controller.activeSpec());
    if (choice != entry.lastChoiceMetric) {
        if (!entry.lastChoiceMetric.empty())
            reg_.gauge(entry.lastChoiceMetric).set(0.0);
        reg_.gauge(choice).set(1.0);
        entry.lastChoiceMetric = choice;
    }
}

wire::Frame
Service::handleEncode(const wire::Frame &request)
{
    wire::BodyReader reader(request.body);
    std::uint32_t tx_bytes = 0;
    std::uint32_t bus_bits = 0;
    std::uint64_t count = 0;
    if (!reader.u32(tx_bytes) || !reader.u32(bus_bits) ||
        !reader.u64(count)) {
        return errorResponse(wire::ErrorCode::Malformed,
                             "encode: truncated request header");
    }
    const std::string geometry = validateGeometry(tx_bytes, bus_bits);
    if (!geometry.empty())
        return errorResponse(wire::ErrorCode::Malformed, "encode: " + geometry);
    if (count > wire::maxTxPerRequest) {
        return errorResponse(wire::ErrorCode::Malformed,
                             "encode: count " + std::to_string(count) +
                                 " exceeds " +
                                 std::to_string(wire::maxTxPerRequest));
    }
    if (reader.remaining() != count * tx_bytes) {
        return errorResponse(wire::ErrorCode::Malformed,
                             "encode: body size does not match count");
    }

    std::string err;
    Entry *entry =
        entryFor(request.spec, tx_bytes, bus_bits, request.streamId, err);
    if (entry == nullptr)
        return errorResponse(wire::ErrorCode::BadSpec, err);

    const unsigned meta_wires = entry->codec->metaWiresPerBeat();
    const std::size_t meta_bits =
        metaBitsPerTx(tx_bytes, bus_bits, meta_wires);
    const std::size_t meta_bytes = (meta_bits + 7) / 8;

    wire::Frame response;
    response.opcode = wire::Opcode::Encode;
    response.spec = request.spec;
    wire::BodyWriter writer;
    writer.u32(tx_bytes);
    writer.u32(bus_bits);
    writer.u32(meta_wires);
    writer.u32(static_cast<std::uint32_t>(meta_bytes));
    writer.u64(count);

    // The whole request body becomes one TxBatch (a single plane copy)
    // and one encodeBatch call — the codec's batch kernel does the rest.
    const std::uint8_t *raw = nullptr;
    reader.view(raw, count * tx_bytes); // Size pre-validated above.
    TxBatch &batch = entry->scratchIn;
    batch.reset(tx_bytes);
    batch.append(raw, count);
    EncodedBatch &enc = entry->scratchEnc;
    entry->codec->encodeBatch(batch, enc);
    if (count != 0 && enc.metaBitsPerTx() != meta_bits) {
        return errorResponse(
            wire::ErrorCode::Internal,
            "encode: codec produced " +
                std::to_string(enc.metaBitsPerTx()) +
                " metadata bits/tx, geometry expects " +
                std::to_string(meta_bits));
    }

    // The ones tallies travel in the response so clients can print
    // ones-on-bus deltas without re-popcounting payloads.
    const std::uint64_t input_ones = batch.ones();
    const std::uint64_t payload_ones = enc.payloadOnes();
    const std::uint64_t meta_ones = enc.metaOnes();
    const std::uint64_t out_ones = payload_ones + meta_ones;
    writer.u64(input_ones);
    writer.u64(payload_ones);
    writer.u64(meta_ones);
    writer.bytes(enc.payloadData(), enc.payloadBytes());
    wire::BodyWriter meta_writer;
    for (std::uint64_t i = 0; i < count; ++i)
        packMeta(meta_writer, enc.meta(i), meta_bytes);
    const std::vector<std::uint8_t> meta_packed = meta_writer.take();
    writer.bytes(meta_packed.data(), meta_packed.size());
    response.body = writer.take();

    if (telemetry::metricsEnabled()) {
        txEncoded_.add(count);
        if (entry->specOnesIn == nullptr) {
            const std::string base =
                "bxt.server." + telemetry::sanitizeMetricName(request.spec);
            entry->specOnesIn = &reg_.counter(base + ".ones_in");
            entry->specOnesOut = &reg_.counter(base + ".ones_out");
            entry->specOnesRemoved = &reg_.counter(base + ".ones_removed");
        }
        entry->specOnesIn->add(input_ones);
        entry->specOnesOut->add(out_ones);
        entry->specOnesRemoved->add(
            input_ones > out_ones ? input_ones - out_ones : 0);
        // Per-tenant accounting: stream-tagged encodes telescope to the
        // aggregate counters (sum over streams == bxt.server.tx_encoded
        // when every request carries a tag).
        if (request.streamId != 0) {
            StreamCounters &stream = streamCounters(request.streamId);
            stream.txEncoded.add(count);
            stream.onesIn.add(input_ones);
            stream.onesOut.add(out_ones);
            // Windowed value statistics over the raw input plane (see
            // StreamCounters).
            stream.observe(
                zeroWordFraction(raw, count * tx_bytes),
                xorToggleWeight(raw, count, tx_bytes));
        }
    }
    entry->onesIn += input_ones;
    entry->onesOut += out_ones;
    if (entry->adaptive != nullptr)
        announceAdaptive(*entry, request.streamId, response);
    return response;
}

wire::Frame
Service::handleDecode(const wire::Frame &request)
{
    wire::BodyReader reader(request.body);
    std::uint32_t tx_bytes = 0;
    std::uint32_t bus_bits = 0;
    std::uint32_t meta_wires = 0;
    std::uint32_t meta_bytes = 0;
    std::uint64_t count = 0;
    if (!reader.u32(tx_bytes) || !reader.u32(bus_bits) ||
        !reader.u32(meta_wires) || !reader.u32(meta_bytes) ||
        !reader.u64(count)) {
        return errorResponse(wire::ErrorCode::Malformed,
                             "decode: truncated request header");
    }
    const std::string geometry = validateGeometry(tx_bytes, bus_bits);
    if (!geometry.empty())
        return errorResponse(wire::ErrorCode::Malformed, "decode: " + geometry);
    if (count > wire::maxTxPerRequest) {
        return errorResponse(wire::ErrorCode::Malformed,
                             "decode: count " + std::to_string(count) +
                                 " exceeds " +
                                 std::to_string(wire::maxTxPerRequest));
    }

    std::string err;
    Entry *entry =
        entryFor(request.spec, tx_bytes, bus_bits, request.streamId, err);
    if (entry == nullptr)
        return errorResponse(wire::ErrorCode::BadSpec, err);

    const unsigned codec_meta_wires = entry->codec->metaWiresPerBeat();
    const std::size_t meta_bits =
        metaBitsPerTx(tx_bytes, bus_bits, codec_meta_wires);
    const std::size_t expected_meta_bytes = (meta_bits + 7) / 8;
    if (meta_wires != codec_meta_wires ||
        meta_bytes != expected_meta_bytes) {
        return errorResponse(
            wire::ErrorCode::Malformed,
            "decode: metadata geometry does not match codec '" +
                request.spec + "' (expects " +
                std::to_string(codec_meta_wires) + " wires/beat)");
    }
    if (reader.remaining() !=
        count * (static_cast<std::uint64_t>(tx_bytes) + meta_bytes)) {
        return errorResponse(wire::ErrorCode::Malformed,
                             "decode: body size does not match count");
    }

    wire::Frame response;
    response.opcode = wire::Opcode::Decode;
    response.spec = request.spec;
    wire::BodyWriter writer;
    writer.u32(tx_bytes);
    writer.u64(count);

    const std::uint8_t *payloads = nullptr;
    const std::uint8_t *metas = nullptr;
    reader.view(payloads, count * tx_bytes); // Sizes pre-validated above.
    reader.view(metas, count * meta_bytes);

    // Rebuild the encoded batch (payload plane copy + per-transaction
    // metadata unpack) and decode it with one decodeBatch call.
    EncodedBatch &enc = entry->scratchEnc;
    enc.configure(tx_bytes, codec_meta_wires, meta_bits);
    enc.resize(count);
    if (count != 0)
        std::memcpy(enc.payloadData(), payloads, count * tx_bytes);
    for (std::uint64_t i = 0; i < count; ++i)
        unpackMeta(metas + i * meta_bytes, enc.meta(i));
    TxBatch &decoded = entry->scratchOut;
    entry->codec->decodeBatch(enc, decoded);
    writer.bytes(decoded.data(), decoded.planeBytes());
    response.body = writer.take();

    if (telemetry::metricsEnabled())
        txDecoded_.add(count);
    if (entry->adaptive != nullptr)
        announceAdaptive(*entry, request.streamId, response);
    return response;
}

wire::Frame
Service::handleStats()
{
    wire::Frame response;
    response.opcode = wire::Opcode::Stats;
    // The provider is the fleet-wide merged view when sharded; a bare
    // Service answers from its own registry.
    const std::string snapshot = stats_provider_
                                     ? stats_provider_()
                                     : telemetry::snapshotJson(reg_, false);
    response.body.assign(snapshot.begin(), snapshot.end());
    return response;
}

wire::Frame
Service::handleSnapshot()
{
    // The live-introspection op (bxt_top): the full schema-2 telemetry
    // document plus the server clock, so pollers can compute rates from
    // counter deltas without trusting their own timestamps.
    wire::Frame response;
    response.opcode = wire::Opcode::Snapshot;
    JsonWriter w(false);
    w.beginObject();
    w.kv("uptime_us", telemetry::nowMicros());
    w.kvRaw("metrics", stats_provider_
                           ? stats_provider_()
                           : telemetry::snapshotJson(reg_, false));
    w.endObject();
    const std::string body = w.str();
    response.body.assign(body.begin(), body.end());
    return response;
}

wire::Frame
Service::handle(const wire::Frame &request)
{
    requests_.add(1);
    const bool metrics_on = telemetry::metricsEnabled();
    if (metrics_on && request.streamId != 0)
        streamCounters(request.streamId).requests.add(1);

    wire::Frame response;
    try {
        switch (request.opcode) {
        case wire::Opcode::Ping:
            response.opcode = wire::Opcode::Ping;
            break;
        case wire::Opcode::Encode:
            response = handleEncode(request);
            break;
        case wire::Opcode::Decode:
            response = handleDecode(request);
            break;
        case wire::Opcode::Stats:
            response = handleStats();
            break;
        case wire::Opcode::Snapshot:
            response = handleSnapshot();
            break;
        case wire::Opcode::Error:
            response = errorResponse(wire::ErrorCode::Malformed,
                                     "error frames are response-only");
            break;
        default:
            response = errorResponse(
                wire::ErrorCode::UnknownOpcode,
                "unknown opcode " +
                    std::to_string(static_cast<unsigned>(request.opcode)));
            break;
        }
    } catch (const CodecSizeError &e) {
        // Geometry or metadata the codec rejects (e.g. xor8 on an 8-byte
        // transaction, a BD repository entry the decoder never filled) is
        // a client mistake, not a server fault.
        response = errorResponse(wire::ErrorCode::Malformed, e.what());
    } catch (const std::exception &e) {
        response = errorResponse(wire::ErrorCode::Internal, e.what());
    } catch (...) {
        response = errorResponse(wire::ErrorCode::Internal,
                                 "unknown exception");
    }

    // Echo the stream tag so pipelining clients can demux responses,
    // and the trace context so traced clients can stitch client-side
    // spans onto the same trace.
    response.streamId = request.streamId;
    response.traceId = request.traceId;
    response.spanId = request.spanId;
    response.traceSampled = request.traceSampled;
    return response;
}

std::uint32_t
requestTxCount(const wire::Frame &request)
{
    // Encode bodies lead with u32 txBytes, u32 busBits; Decode bodies
    // add u32 metaWires, u32 metaBytes. Both are followed by the u64
    // count this reads (wire.h body tables).
    std::size_t lead_u32s = 0;
    switch (request.opcode) {
    case wire::Opcode::Encode:
        lead_u32s = 2;
        break;
    case wire::Opcode::Decode:
        lead_u32s = 4;
        break;
    default:
        return 0;
    }
    wire::BodyReader reader(request.body);
    std::uint32_t skipped = 0;
    for (std::size_t i = 0; i < lead_u32s; ++i) {
        if (!reader.u32(skipped))
            return 0;
    }
    std::uint64_t count = 0;
    if (!reader.u64(count))
        return 0;
    return static_cast<std::uint32_t>(
        std::min<std::uint64_t>(count, wire::maxTxPerRequest));
}

} // namespace bxt::server
