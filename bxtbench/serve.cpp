/**
 * @file
 * The serving workloads, serve-hot and serve-mixed-rw. Each spawns the
 * built bxtd (one shard, pinned to its own CPU), drives it with
 * closed-loop connections from loader threads pinned to other CPUs, and
 * checks every reply against expected bytes computed at set-up with the
 * verify module's reference codecs. The traced run replays the same
 * serialized frames through the wire and service layers in-process and
 * times each call.
 */
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <thread>

#include "adaptive/controller.h"
#include "bench_workloads.h"
#include "channel/bus.h"
#include "client/client.h"
#include "common/checksum.h"
#include "core/batch.h"
#include "core/codec_factory.h"
#include "energy/dram_power.h"
#include "server/service.h"
#include "server/wire.h"
#include "telemetry/metrics.h"
#include "verify/reference_codecs.h"
#include "workloads/scenario.h"

namespace bxtbench {
namespace {

using bxt::wire::Frame;
using bxt::wire::Opcode;

/** Set-ups per run; setup_s is their median. */
constexpr int kSetupReps = 5;
/** Load before the measured window, so codec caches and buffers settle. */
constexpr double kWarmupSeconds = 0.5;
/**
 * The window is cut into intervals of this length, each closed by a
 * Snapshot. Per interval the run also reads how long the rig lost its
 * CPUs to others: hypervisor steal on the rig's CPUs plus run-queue wait
 * of bxtd's and the loader's threads. Neither moves when bxtd itself
 * blocks or idles.
 */
constexpr double kIntervalSeconds = 0.1;
/**
 * The end-to-end figures pool everything measured in this share of the
 * intervals, those with the least CPU time lost to others.
 */
constexpr double kKeptShare = 0.5;
/** serve-hot: hot-flood requests in the replayed pool (~20 MB raw). */
constexpr std::uint32_t kHotRequests = 4096;
constexpr unsigned kHotConnections = 2;
/** serve-mixed-rw: Encode requests in the pool; Decodes are added. */
constexpr std::uint32_t kMixedEncodes = 12000;
/**
 * Fewest closed-loop connections at which shard.cpu_util shows the
 * shard saturated on serve-mixed-rw (measured; see README.md).
 */
constexpr unsigned kMixedConnections = 2;
/** The default scenario spec mix, assigned to tenants by rank. */
const std::vector<std::string> kMixedSpecs = {
    "xor4+zdr", "universal3+zdr", "dbi4", "universal3+zdr|dbi4",
    "baseline"};
/** Tenants whose rank is 7 mod 8 use the adaptive meta-codec. */
constexpr std::uint32_t kAdaptiveEvery = 8;

/** A reference encoding of one request body. */
struct RefEncoding
{
    std::uint32_t metaWires = 0;
    std::uint32_t metaBytes = 0; ///< Packed metadata bytes per tx.
    std::size_t metaBitsPerTx = 0;
    std::vector<std::uint8_t> payload;
    std::vector<std::uint8_t> metaBits;   ///< One 0/1 byte per bit.
    std::vector<std::uint8_t> metaPacked; ///< LSB-first, per tx.
    std::uint64_t inputOnes = 0;
    std::uint64_t payloadOnes = 0;
    std::uint64_t metaOnes = 0;
    bool roundTrips = true;
    bxt::BusStats bus; ///< The encoding sent alone over an idle bus.
};

std::uint64_t
popcountBytes(const std::uint8_t *data, std::size_t n)
{
    std::uint64_t ones = 0;
    for (std::size_t i = 0; i < n; ++i)
        ones += static_cast<std::uint64_t>(std::popcount(data[i]));
    return ones;
}

RefEncoding
refEncode(bxt::verify::RefCodec &ref, std::uint32_t tx_bytes,
          std::uint32_t bus_bits, const std::uint8_t *raw,
          std::uint32_t count)
{
    RefEncoding out;
    out.metaWires = ref.metaWiresPerBeat();
    out.metaBitsPerTx =
        static_cast<std::size_t>(tx_bytes) * 8u / bus_bits * out.metaWires;
    out.metaBytes = static_cast<std::uint32_t>((out.metaBitsPerTx + 7) / 8);
    out.inputOnes = popcountBytes(raw, std::size_t{count} * tx_bytes);
    std::vector<std::uint8_t> packed(out.metaBytes);
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::vector<std::uint8_t> in(raw + std::size_t{i} * tx_bytes,
                                           raw + std::size_t{i + 1} *
                                                     tx_bytes);
        const bxt::verify::RefEncoded enc = ref.encode(in);
        out.payload.insert(out.payload.end(), enc.payload.begin(),
                           enc.payload.end());
        out.metaBits.insert(out.metaBits.end(), enc.meta.begin(),
                            enc.meta.end());
        std::fill(packed.begin(), packed.end(), 0);
        for (std::size_t j = 0; j < enc.meta.size(); ++j) {
            if (enc.meta[j] != 0) {
                packed[j / 8] |= static_cast<std::uint8_t>(1u << (j % 8));
                ++out.metaOnes;
            }
        }
        out.metaPacked.insert(out.metaPacked.end(), packed.begin(),
                              packed.end());
        if (ref.decode(enc) != in)
            out.roundTrips = false;
    }
    out.payloadOnes = popcountBytes(out.payload.data(), out.payload.size());
    bxt::EncodedBatch batch;
    batch.configure(tx_bytes, out.metaWires, out.metaBitsPerTx);
    batch.resize(count);
    std::memcpy(batch.payloadData(), out.payload.data(), out.payload.size());
    if (!out.metaBits.empty())
        std::memcpy(batch.metaData(), out.metaBits.data(),
                    out.metaBits.size());
    bxt::Bus bus(bus_bits, out.metaWires, 0.3);
    out.bus = bus.transmitBatch(batch);
    return out;
}

/** The Encode reply body the server must send for @p enc. */
std::vector<std::uint8_t>
encodeReplyBody(const RefEncoding &enc, std::uint32_t tx_bytes,
                std::uint32_t bus_bits, std::uint32_t count)
{
    bxt::wire::BodyWriter w;
    w.u32(tx_bytes);
    w.u32(bus_bits);
    w.u32(enc.metaWires);
    w.u32(enc.metaBytes);
    w.u64(count);
    w.u64(enc.inputOnes);
    w.u64(enc.payloadOnes);
    w.u64(enc.metaOnes);
    w.bytes(enc.payload.data(), enc.payload.size());
    w.bytes(enc.metaPacked.data(), enc.metaPacked.size());
    return w.take();
}

std::vector<std::uint8_t>
serialize(Opcode op, std::uint16_t stream, const std::string &spec,
          std::vector<std::uint8_t> body)
{
    Frame frame;
    frame.opcode = op;
    frame.streamId = stream;
    frame.spec = spec;
    frame.body = std::move(body);
    return bxt::wire::serializeFrame(frame);
}

/** One request of the replayed pool with its expected reply. */
struct Entry
{
    Opcode op = Opcode::Encode;
    std::uint16_t stream = 0;
    std::string spec;
    std::uint32_t txBytes = 0;
    std::uint32_t busBits = 0;
    std::uint32_t count = 0;
    bool adaptive = false;
    std::vector<std::uint8_t> raw;     ///< Encode input / Decode output.
    std::vector<std::uint8_t> request; ///< Serialized request frame.
    /** Serialized expected reply; empty for adaptive Encodes, which are
     *  checked under the spec the reply announces. */
    std::vector<std::uint8_t> expected;
    RefEncoding enc; ///< Concrete specs: the reference encoding.
};

std::vector<std::uint8_t>
encodeRequestBody(std::uint32_t tx_bytes, std::uint32_t bus_bits,
                  std::uint32_t count, const std::vector<std::uint8_t> &raw)
{
    bxt::wire::BodyWriter w;
    w.u32(tx_bytes);
    w.u32(bus_bits);
    w.u64(count);
    w.bytes(raw.data(), raw.size());
    return w.take();
}

/** An Encode entry for one generated request (the program's input). */
Entry
encodeEntry(std::uint16_t stream, const std::string &spec,
            const bxt::scenario::Request &r)
{
    Entry e;
    e.stream = stream;
    e.spec = spec;
    e.txBytes = r.txBytes;
    e.busBits = r.busBits;
    e.count = r.count;
    e.adaptive = bxt::adaptive::isAdaptiveSpec(spec);
    e.raw = r.payload;
    e.request = serialize(Opcode::Encode, stream, spec,
                          encodeRequestBody(e.txBytes, e.busBits, e.count,
                                            e.raw));
    return e;
}

/** hot-flood: 90 % of requests on tenant 0 / xor4+zdr, 64-256 x 32 B. */
std::vector<Entry>
generateHot(std::uint64_t seed)
{
    bxt::scenario::Config config;
    std::string err;
    bxt::scenario::preset("hot-flood", config, err);
    config.requests = kHotRequests;
    bxt::scenario::Engine engine(config, seed);
    std::vector<Entry> pool;
    pool.reserve(kHotRequests);
    bxt::scenario::Request r;
    while (engine.next(r))
        pool.push_back(encodeEntry(static_cast<std::uint16_t>(r.tenant + 1),
                                   r.spec, r));
    return pool;
}

/**
 * zipf-0.99 over 32 tenants, 1-16 transactions per request. Specs and
 * sizes are assigned by tenant rank rather than drawn from the seed, so
 * every seed puts the same spec and size mix on the popular tenants;
 * the seed still draws the routing, counts and data. Two engines with
 * one size each give identical routing (it does not depend on size).
 */
std::vector<Entry>
generateMixed(std::uint64_t seed)
{
    bxt::scenario::Config config;
    std::string err;
    bxt::scenario::preset("zipf-0.99", config, err);
    config.minTx = 1;
    config.maxTx = 16;
    config.requests = kMixedEncodes;
    bxt::scenario::Config wide = config;
    config.sizeMix = {{32, 1.0}};
    wide.sizeMix = {{64, 1.0}};
    bxt::scenario::Engine narrow_engine(config, seed);
    bxt::scenario::Engine wide_engine(wide, seed);
    std::vector<Entry> pool;
    pool.reserve(kMixedEncodes);
    bxt::scenario::Request narrow;
    bxt::scenario::Request wider;
    while (narrow_engine.next(narrow) && wide_engine.next(wider)) {
        const std::uint32_t t = narrow.tenant;
        const std::string spec =
            t % kAdaptiveEvery == kAdaptiveEvery - 1
                ? std::string("adaptive")
                : kMixedSpecs[t % kMixedSpecs.size()];
        pool.push_back(encodeEntry(static_cast<std::uint16_t>(t + 1), spec,
                                   t % 2 == 0 ? narrow : wider));
    }
    return pool;
}

/**
 * The oracle: reference encodings and expected reply bytes. For
 * serve-mixed-rw it also inserts, after every Encode, a Decode of the
 * previous concrete Encode's expected reply, so about half the requests
 * read back what was written.
 */
bool
buildOracle(std::vector<Entry> &pool, bool add_decodes, std::string &err)
{
    std::map<std::string, bxt::verify::RefCodecPtr> refs;
    std::vector<Entry> out;
    std::size_t last_concrete = SIZE_MAX; // Index into `out`.
    for (Entry &e : pool) {
        if (!e.adaptive) {
            auto &ref = refs[e.spec];
            if (!ref)
                ref = bxt::verify::makeRefCodec(e.spec, e.busBits / 8);
            e.enc = refEncode(*ref, e.txBytes, e.busBits, e.raw.data(),
                              e.count);
            if (!e.enc.roundTrips) {
                err = "reference codec " + e.spec + " does not round-trip";
                return false;
            }
            e.expected = serialize(
                Opcode::Encode, e.stream, e.spec,
                encodeReplyBody(e.enc, e.txBytes, e.busBits, e.count));
        }
        out.push_back(std::move(e));
        const std::size_t pushed = out.size() - 1;
        if (add_decodes && last_concrete != SIZE_MAX) {
            const Entry src = out[last_concrete];
            Entry d;
            d.op = Opcode::Decode;
            d.stream = src.stream;
            d.spec = src.spec;
            d.txBytes = src.txBytes;
            d.busBits = src.busBits;
            d.count = src.count;
            d.raw = src.raw;
            bxt::wire::BodyWriter w;
            w.u32(d.txBytes);
            w.u32(d.busBits);
            w.u32(src.enc.metaWires);
            w.u32(src.enc.metaBytes);
            w.u64(d.count);
            w.bytes(src.enc.payload.data(), src.enc.payload.size());
            w.bytes(src.enc.metaPacked.data(), src.enc.metaPacked.size());
            d.request = serialize(Opcode::Decode, d.stream, d.spec, w.take());
            bxt::wire::BodyWriter r;
            r.u32(d.txBytes);
            r.u64(d.count);
            r.bytes(d.raw.data(), d.raw.size());
            d.expected = serialize(Opcode::Decode, d.stream, d.spec, r.take());
            d.enc = src.enc;
            out.push_back(std::move(d));
        }
        if (!out[pushed].adaptive)
            last_concrete = pushed;
    }
    pool = std::move(out);
    return true;
}

// ---------------------------------------------------------------- daemon

/** The spawned bxtd: one shard on its own CPU, TCP on an ephemeral port. */
class Daemon
{
  public:
    Daemon(const std::string &path, int cpu, std::string &err)
    {
        int fds[2];
        if (pipe(fds) != 0) {
            err = "pipe failed";
            return;
        }
        pid_ = fork();
        if (pid_ == 0) {
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            pinThisThread(cpu);
            dup2(fds[1], STDOUT_FILENO);
            close(fds[0]);
            close(fds[1]);
            execl(path.c_str(), "bxtd", "--listen", "127.0.0.1:0",
                  "--shards", "1", static_cast<char *>(nullptr));
            _exit(127);
        }
        close(fds[1]);
        out_ = fds[0];
        if (pid_ < 0) {
            err = "fork failed";
            return;
        }
        // bxtd prints its resolved port once it is listening.
        std::string text;
        const Clock::time_point start = Clock::now();
        while (port_ < 0 && secondsSince(start) < 10.0) {
            pollfd pfd{out_, POLLIN, 0};
            if (poll(&pfd, 1, 100) <= 0)
                continue;
            char buf[256];
            const ssize_t n = read(out_, buf, sizeof buf);
            if (n <= 0)
                break;
            text.append(buf, static_cast<std::size_t>(n));
            const std::size_t at = text.find("tcp://127.0.0.1:");
            if (at != std::string::npos &&
                text.find('\n', at) != std::string::npos)
                port_ = std::atoi(text.c_str() + at + 16);
        }
        if (port_ < 0)
            err = "bxtd did not report a port (" + path + ")";
    }
    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    int port() const { return port_; }
    int pid() const { return pid_; }

    /** SIGTERM, then SIGKILL after 5 s; waits until bxtd has exited. */
    void stop()
    {
        if (pid_ > 0) {
            kill(pid_, SIGTERM);
            const Clock::time_point start = Clock::now();
            int status = 0;
            while (waitpid(pid_, &status, WNOHANG) == 0) {
                if (secondsSince(start) > 5.0) {
                    kill(pid_, SIGKILL);
                    waitpid(pid_, &status, 0);
                    break;
                }
                usleep(1000);
            }
            pid_ = -1;
        }
        if (out_ >= 0) {
            close(out_);
            out_ = -1;
        }
    }

  private:
    int pid_ = -1;
    int out_ = -1;
    int port_ = -1;
};

bool
writeAll(int fd, const std::uint8_t *data, std::size_t n)
{
    while (n > 0) {
        const ssize_t w = write(fd, data, n);
        if (w < 0 && errno == EINTR)
            continue;
        if (w <= 0)
            return false;
        data += w;
        n -= static_cast<std::size_t>(w);
    }
    return true;
}

/**
 * Read one reply (one request is ever in flight) through a FrameParser
 * until it yields a frame. @p bytes keeps everything read, for the
 * byte-for-byte comparison; false on a closed connection or a reply the
 * parser refuses. The socket is busy-polled: a loader CPU that halted
 * while it waited would add the hypervisor's delay in waking an idle
 * virtual CPU to every round trip.
 */
bool
readReply(int fd, std::vector<std::uint8_t> &bytes, Frame &frame)
{
    bxt::wire::FrameParser parser;
    bxt::wire::WireError err;
    std::uint8_t buf[64 * 1024];
    bytes.clear();
    for (;;) {
        const ssize_t r = recv(fd, buf, sizeof buf, MSG_DONTWAIT);
        if (r < 0 && (errno == EINTR || errno == EAGAIN ||
                      errno == EWOULDBLOCK))
            continue;
        if (r <= 0)
            return false;
        bytes.insert(bytes.end(), buf, buf + r);
        parser.feed(buf, static_cast<std::size_t>(r));
        switch (parser.next(frame, err)) {
        case bxt::wire::FrameParser::Status::Ready:
            return parser.buffered() == 0;
        case bxt::wire::FrameParser::Status::Bad:
            return false;
        case bxt::wire::FrameParser::Status::NeedMore:
            break;
        }
    }
}

/**
 * Checks replies to adaptive Encodes: the reply must be the reference
 * encoding under the concrete spec it announces. Expected bodies are
 * cached per (entry, spec); the first check of each also round-trips it
 * through the reference decoder (RefEncoding::roundTrips).
 */
class AdaptiveOracle
{
  public:
    /** Returns the reference encoding the reply matches, or nullptr. */
    const RefEncoding *check(std::size_t index, const Entry &e,
                             const Frame &reply)
    {
        const std::size_t semi = reply.spec.find(";epoch=");
        if (semi == std::string::npos || reply.opcode != Opcode::Encode ||
            reply.streamId != e.stream)
            return nullptr;
        const std::string spec = reply.spec.substr(0, semi);
        auto key = std::make_pair(index, spec);
        auto it = expected_.find(key);
        if (it == expected_.end()) {
            auto &ref = refs_[spec];
            if (!ref)
                ref = bxt::verify::makeRefCodec(spec, e.busBits / 8);
            RefEncoding enc = refEncode(*ref, e.txBytes, e.busBits,
                                        e.raw.data(), e.count);
            if (!enc.roundTrips)
                return nullptr;
            std::vector<std::uint8_t> body =
                encodeReplyBody(enc, e.txBytes, e.busBits, e.count);
            it = expected_
                     .emplace(key, std::make_pair(std::move(body),
                                                  std::move(enc)))
                     .first;
        }
        return reply.body == it->second.first ? &it->second.second
                                              : nullptr;
    }

  private:
    std::map<std::string, bxt::verify::RefCodecPtr> refs_;
    /** (entry, announced spec) -> expected reply body and encoding. */
    std::map<std::pair<std::size_t, std::string>,
             std::pair<std::vector<std::uint8_t>, RefEncoding>>
        expected_;
};

/**
 * Verify one reply, given as the bytes read and the frame parsed from
 * them. Returns the reference encoding a verified Encode reply carries,
 * @p e.enc for a verified Decode, and nullptr for a wrong reply.
 */
const RefEncoding *
verifyReply(std::size_t index, const Entry &e,
            const std::vector<std::uint8_t> &bytes, const Frame &frame,
            AdaptiveOracle &adaptive)
{
    if (!e.adaptive)
        return bytes == e.expected ? &e.enc : nullptr;
    return adaptive.check(index, e, frame);
}

// ---------------------------------------------------------------- live run

/** Loader-thread phase: the interval index, or one of these. */
enum Phase : int { kWarmup = -1, kStop = 1 << 30 };

/** What a loader measured in one interval, by the time replies ended. */
struct IntervalStats
{
    std::vector<double> rttUs;
    std::uint64_t tx = 0; ///< Transactions of verified replies.
    std::uint64_t encodedTx = 0;
    std::uint64_t onesIn = 0;
    std::uint64_t onesOut = 0;
    bxt::BusStats bus; ///< Verified Encode replies, each sent alone.

    void add(const IntervalStats &o)
    {
        rttUs.insert(rttUs.end(), o.rttUs.begin(), o.rttUs.end());
        tx += o.tx;
        encodedTx += o.encodedTx;
        onesIn += o.onesIn;
        onesOut += o.onesOut;
        bus += o.bus;
    }
};

struct LoaderStats
{
    std::vector<IntervalStats> intervals;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

void
loaderLoop(int fd, int cpu, const std::vector<Entry> &pool,
           std::size_t first, std::size_t stride,
           const std::atomic<int> &phase, LoaderStats &stats)
{
    pinThisThread(cpu);
    AdaptiveOracle adaptive;
    std::vector<std::uint8_t> reply;
    Frame frame;
    std::size_t index = first % pool.size();
    while (phase.load(std::memory_order_relaxed) != kStop) {
        const Entry &e = pool[index];
        const Clock::time_point t0 = Clock::now();
        if (!writeAll(fd, e.request.data(), e.request.size()) ||
            !readReply(fd, reply, frame)) {
            // The connection is gone or out of step; nothing more to send.
            ++stats.attempted;
            ++stats.failed;
            return;
        }
        const double rtt =
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count();
        const int now = phase.load(std::memory_order_relaxed);
        const RefEncoding *enc = verifyReply(index, e, reply, frame, adaptive);
        ++stats.attempted;
        if (enc == nullptr)
            ++stats.failed;
        // A round trip counts in the interval in which it ended.
        if (now >= 0 && now != kStop) {
            IntervalStats &in = stats.intervals[static_cast<std::size_t>(now)];
            in.rttUs.push_back(rtt);
            if (enc != nullptr) {
                in.tx += e.count;
                if (e.op == Opcode::Encode) {
                    in.encodedTx += e.count;
                    in.onesIn += enc->inputOnes;
                    in.onesOut += enc->payloadOnes + enc->metaOnes;
                    in.bus += enc->bus;
                }
            }
        }
        index = (index + stride) % pool.size();
    }
}

struct Live
{
    std::vector<Snapshot> snaps; ///< Window start, then one per interval.
    /** Per interval: seconds the rig's CPUs and threads were taken by
     *  others (steal plus run-queue wait). */
    std::vector<double> lostSeconds;
    double windowSeconds = 0.0;
    double cpuSeconds = 0.0;
    double snapshotUs = 0.0;
    double rssMb = 0.0;
    std::vector<LoaderStats> loaders;
};

bool
takeSnapshot(bxt::client::Client &ctl, Snapshot &out, double &us,
             std::string &err)
{
    std::string json;
    const Clock::time_point t0 = Clock::now();
    if (!ctl.snapshot(json, err))
        return false;
    us += std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count();
    return parseSnapshot(json, out, err);
}

/** A spawned bxtd, a control connection and the loader connections. */
struct Rig
{
    std::unique_ptr<Daemon> daemon;
    bxt::client::Client ctl;
    std::vector<bxt::client::Client> conns;
};

bool
connectRig(Rig &rig, const BenchOptions &options, unsigned connections,
           std::string &err)
{
    rig.daemon = std::make_unique<Daemon>(options.bxtdPath,
                                          options.serverCpu(), err);
    if (rig.daemon->port() < 0)
        return false;
    rig.ctl = bxt::client::Client::connectTcp("127.0.0.1",
                                              rig.daemon->port(), err);
    if (!rig.ctl.connected() || !rig.ctl.ping(err))
        return false;
    rig.conns.clear();
    for (unsigned c = 0; c < connections; ++c) {
        rig.conns.push_back(bxt::client::Client::connectTcp(
            "127.0.0.1", rig.daemon->port(), err));
        if (!rig.conns.back().connected())
            return false;
    }
    return true;
}

/**
 * The server's codec construction: one request per distinct codec-cache
 * key (spec, geometry, and stream for adaptive specs), checked like any
 * other.
 */
bool
warmCodecs(Rig &rig, const std::vector<Entry> &pool, RunResult &result)
{
    std::map<std::tuple<std::string, std::uint32_t, std::uint16_t>,
             std::size_t>
        first;
    for (std::size_t i = 0; i < pool.size(); ++i) {
        const Entry &e = pool[i];
        first.emplace(std::make_tuple(e.spec, e.txBytes,
                                      e.adaptive ? e.stream : 0),
                      i);
    }
    AdaptiveOracle adaptive;
    std::vector<std::uint8_t> reply;
    Frame frame;
    for (const auto &[key, index] : first) {
        const Entry &e = pool[index];
        // Loader connections carry raw frames only; the control
        // connection keeps to the Client request methods.
        const int fd = rig.conns.front().rawFd();
        if (!writeAll(fd, e.request.data(), e.request.size()) ||
            !readReply(fd, reply, frame))
            return false;
        result.count(verifyReply(index, e, reply, frame, adaptive) !=
                     nullptr);
    }
    return true;
}

Live
runLive(Rig &rig, const std::vector<Entry> &pool,
        const BenchOptions &options, RunResult &result, std::string &err)
{
    Live live;
    const std::vector<int> cpus = options.loaderCpus();
    pinThisThread(cpus.back());
    const int intervals = std::max(
        1, static_cast<int>(std::lround(options.seconds / kIntervalSeconds)));
    std::atomic<int> phase{kWarmup};
    live.loaders.resize(rig.conns.size());
    for (LoaderStats &s : live.loaders)
        s.intervals.resize(static_cast<std::size_t>(intervals));
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < rig.conns.size(); ++c) {
        threads.emplace_back(loaderLoop, rig.conns[c].rawFd(),
                             cpus[c % cpus.size()], std::cref(pool), c,
                             rig.conns.size(), std::cref(phase),
                             std::ref(live.loaders[c]));
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(kWarmupSeconds));
    live.snaps.resize(static_cast<std::size_t>(intervals) + 1);
    bool ok = takeSnapshot(rig.ctl, live.snaps[0], live.snapshotUs, err);
    const int pid = rig.daemon->pid();
    std::vector<int> rig_cpus = cpus;
    rig_cpus.push_back(options.serverCpu());
    const auto lost = [&] {
        return stealSeconds(rig_cpus) + runQueueWaitSeconds(pid) +
               runQueueWaitSeconds(getpid());
    };
    const double cpu0 = processCpuSeconds(pid);
    double lost_prev = lost();
    const Clock::time_point start = Clock::now();
    phase.store(0);
    for (int i = 1; i <= intervals; ++i) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(i * kIntervalSeconds)));
        ok = takeSnapshot(rig.ctl, live.snaps[static_cast<std::size_t>(i)],
                          live.snapshotUs, err) &&
             ok;
        // Before the loader threads may end, so their wait still counts.
        const double now_lost = lost();
        phase.store(i < intervals ? i : kStop);
        live.lostSeconds.push_back(now_lost - lost_prev);
        lost_prev = now_lost;
    }
    live.cpuSeconds = processCpuSeconds(pid) - cpu0;
    live.windowSeconds = secondsSince(start);
    for (std::thread &t : threads)
        t.join();
    live.snapshotUs /= static_cast<double>(intervals + 1);
    live.rssMb = peakRssMb(rig.daemon->pid());
    for (const LoaderStats &s : live.loaders) {
        result.attempted += s.attempted;
        result.failed += s.failed;
    }
    if (!ok)
        result.correct = false;
    return live;
}

// ---------------------------------------------------------------- replay

/** Per-layer sums over the timed replay passes (seconds, bytes). */
struct Layers
{
    double crc = 0, parse = 0, handle = 0, serialize = 0;
    double coreEncode = 0, coreDecode = 0; ///< Concrete specs only.
    double transmit = 0; ///< Bus::transmitBatch of the encoded batches.
    std::uint64_t busTx = 0;  ///< Transactions sent over the bus.
    bxt::BusStats bus;        ///< Their ones and toggles.
    double handleConcrete = 0, handleAdaptive = 0;
    double extras = 0; ///< Standalone CRC, core and bus re-runs.
    std::uint64_t bytesOut = 0;
    std::uint32_t crcSink = 0; ///< Keeps the standalone CRCs computed.
};

/**
 * Socket-free replay of the pool through FrameParser -> Service::handle
 * -> serializeFrame, as the shard runs them. With @p layers set, each
 * call is timed, the CRCs are re-run standalone and the codec is re-run
 * on the same batch to split core time out of the service's; the encoded
 * batch is then sent over an idle bus, as the memory controller would.
 * Returns false if any reply differs from the expected bytes.
 */
bool
replayPass(const std::vector<Entry> &pool, bxt::server::Service &service,
           std::map<std::string, bxt::CodecPtr> &codecs,
           std::map<std::uint16_t, std::uint64_t> &epochs, Layers *layers)
{
    bool all_ok = true;
    bxt::wire::FrameParser parser;
    Frame frame;
    bxt::wire::WireError werr;
    bxt::TxBatch tx;
    bxt::EncodedBatch enc;
    bxt::TxBatch back;
    for (const Entry &e : pool) {
        Clock::time_point t = Clock::now();
        parser.feed(e.request.data(), e.request.size());
        const bool parsed = parser.next(frame, werr) ==
                            bxt::wire::FrameParser::Status::Ready;
        const double parse_s = layers ? secondsSince(t) : 0.0;
        t = Clock::now();
        const Frame response = service.handle(frame);
        const double handle_s = layers ? secondsSince(t) : 0.0;
        t = Clock::now();
        const std::vector<std::uint8_t> out =
            bxt::wire::serializeFrame(response);
        const double serialize_s = layers ? secondsSince(t) : 0.0;
        if (!parsed)
            all_ok = false;
        else if (!e.adaptive)
            all_ok = all_ok && out == e.expected;
        else {
            const std::size_t semi = response.spec.find(";epoch=");
            if (semi == std::string::npos)
                all_ok = false;
            else
                epochs[e.stream] = std::stoull(response.spec.substr(semi + 7));
        }
        if (layers == nullptr)
            continue;

        Layers &l = *layers;
        const Clock::time_point extra = Clock::now();
        t = Clock::now();
        l.crcSink ^= bxt::crc32(std::span<const std::uint8_t>(e.request)) ^
                     bxt::crc32(std::span<const std::uint8_t>(out));
        l.crc += secondsSince(t);
        if (!e.adaptive) {
            auto &codec = codecs[e.spec + "/" + std::to_string(e.busBits)];
            if (!codec)
                codec = bxt::makeCodec(e.spec, e.busBits / 8);
            if (e.op == Opcode::Encode) {
                tx.reset(e.txBytes);
                tx.append(e.raw.data(), e.count);
                t = Clock::now();
                codec->encodeBatch(tx, enc);
                l.coreEncode += secondsSince(t);
            } else {
                enc.configure(e.txBytes, e.enc.metaWires,
                              e.enc.metaBitsPerTx);
                enc.resize(e.count);
                std::memcpy(enc.payloadData(), e.enc.payload.data(),
                            e.enc.payload.size());
                if (!e.enc.metaBits.empty())
                    std::memcpy(enc.metaData(), e.enc.metaBits.data(),
                                e.enc.metaBits.size());
                t = Clock::now();
                codec->decodeBatch(enc, back);
                l.coreDecode += secondsSince(t);
            }
            bxt::Bus bus(e.busBits, codec->metaWiresPerBeat(), 0.3);
            t = Clock::now();
            l.bus += bus.transmitBatch(enc);
            l.transmit += secondsSince(t);
            l.busTx += e.count;
        }
        l.extras += secondsSince(extra);
        l.parse += parse_s;
        l.handle += handle_s;
        l.serialize += serialize_s;
        (e.adaptive ? l.handleAdaptive : l.handleConcrete) += handle_s;
        l.bytesOut += out.size();
    }
    return all_ok;
}

/** Traced-run per-layer metrics of the in-process replay. */
void
replayMetrics(const std::vector<Entry> &pool, const BenchOptions &options,
              RunResult &result)
{
    const std::vector<int> cpus = options.loaderCpus();
    pinThisThread(cpus.front());
    // bxtd always records telemetry; the replayed service does too.
    bxt::telemetry::setMetricsEnabled(true);
    bxt::server::Service service;
    std::map<std::string, bxt::CodecPtr> codecs;
    std::map<std::uint16_t, std::uint64_t> epochs;
    // Per-pass counts are properties of the pool.
    std::uint64_t adaptive = 0, encodes = 0, decodes = 0;
    std::uint64_t bytes_in = 0, tx_encoded = 0, tx_decoded = 0;
    for (const Entry &e : pool) {
        bytes_in += e.request.size();
        if (e.adaptive)
            ++adaptive;
        else if (e.op == Opcode::Encode)
            ++encodes;
        if (e.op == Opcode::Decode) {
            ++decodes;
            tx_decoded += e.count;
        } else {
            tx_encoded += e.count;
        }
    }

    // Alternate untimed and timed passes for half the run length.
    double plain_s = 0.0;
    double traced_s = 0.0;
    std::uint64_t passes = 0;
    Layers total;
    const Clock::time_point start = Clock::now();
    while (passes == 0 || secondsSince(start) < options.seconds / 2) {
        Clock::time_point t = Clock::now();
        result.count(replayPass(pool, service, codecs, epochs, nullptr),
                     pool.size());
        plain_s += secondsSince(t);
        t = Clock::now();
        result.count(replayPass(pool, service, codecs, epochs, &total),
                     pool.size());
        traced_s += secondsSince(t);
        ++passes;
    }
    const auto per = [passes](double seconds, std::uint64_t n) {
        return n == 0 ? 0.0
                      : seconds * 1e6 / static_cast<double>(n * passes);
    };
    const std::uint64_t requests = pool.size();
    result.add("wire.crc_us", per(total.crc, requests), "us");
    result.add("wire.parse_us", per(total.parse, requests), "us");
    result.add("wire.serialize_us", per(total.serialize, requests), "us");
    result.add("service.handle_us", per(total.handle, requests), "us");
    result.add("service.self_us",
               per(total.handleConcrete - total.coreEncode - total.coreDecode,
                   requests - adaptive),
               "us");
    result.add("core.encode_us", per(total.coreEncode, encodes), "us");
    result.add("core.decode_us", per(total.coreDecode, decodes), "us");
    result.add("channel.transmit_ns_per_tx",
               total.busTx == 0 ? 0.0
                                : total.transmit * 1e9 /
                                      static_cast<double>(total.busTx),
               "ns");
    result.add("channel.ones",
               static_cast<double>(total.bus.ones()) /
                   static_cast<double>(passes),
               "count");
    result.add("channel.toggles",
               static_cast<double>(total.bus.toggles()) /
                   static_cast<double>(passes),
               "count");
    result.add("adaptive.handle_us", per(total.handleAdaptive, adaptive),
               "us");
    double switches = 0.0;
    for (const auto &[stream, epoch] : epochs)
        switches += static_cast<double>(epoch);
    result.add("adaptive.switches", switches, "count");
    result.add("wire.bytes_in", static_cast<double>(bytes_in), "B");
    result.add("wire.bytes_out",
               static_cast<double>(total.bytesOut) /
                   static_cast<double>(passes),
               "B");
    result.add("core.tx_encoded", static_cast<double>(tx_encoded), "count");
    result.add("core.tx_decoded", static_cast<double>(tx_decoded), "count");
    // Both pass kinds replay the same pool, so the rate ratio is the time
    // ratio.
    result.add("trace.overhead_pct", 100.0 * (traced_s - plain_s) / traced_s,
               "%");
    result.add("trace.coverage",
               (total.parse + total.handle + total.serialize) /
                   (traced_s - total.extras),
               "ratio");
    result.note("replay_passes", std::to_string(passes));
    result.note("crc_sink", std::to_string(total.crcSink));
}

// ---------------------------------------------------------------- workload

RunResult
runServing(const BenchOptions &options, bool mixed, unsigned connections)
{
    RunResult result;
    std::string err;
    std::vector<double> setups;
    std::vector<double> pool_gens;
    std::vector<Entry> pool;
    Rig rig;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        if (rep > 0) {
            rig.daemon->stop();
            rig = Rig{};
        }
        // The program's set-up: bxtd spawn until the first Ping, the
        // connects, input generation through src/workloads, and codec
        // construction in the server. The oracle is not part of it.
        Clock::time_point t = Clock::now();
        if (!connectRig(rig, options, connections, err)) {
            std::fprintf(stderr, "bxt_perfbench: %s\n", err.c_str());
            result.correct = false;
            return result;
        }
        const Clock::time_point gen = Clock::now();
        std::vector<Entry> generated =
            mixed ? generateMixed(options.seed) : generateHot(options.seed);
        pool_gens.push_back(secondsSince(gen));
        double setup = secondsSince(t);
        if (rep == 0) {
            pool = std::move(generated);
            if (!buildOracle(pool, mixed, err)) {
                std::fprintf(stderr, "bxt_perfbench: %s\n", err.c_str());
                result.correct = false;
                return result;
            }
        }
        t = Clock::now();
        if (!warmCodecs(rig, pool, result)) {
            std::fprintf(stderr, "bxt_perfbench: codec warm-up failed\n");
            result.correct = false;
            return result;
        }
        setup += secondsSince(t);
        setups.push_back(setup);
    }

    Live live = runLive(rig, pool, options, result, err);
    rig.daemon->stop();
    if (!err.empty())
        std::fprintf(stderr, "bxt_perfbench: %s\n", err.c_str());

    // Everything the loaders measured, then the kept intervals pooled.
    const std::size_t n_intervals = live.lostSeconds.size();
    IntervalStats whole;
    for (const LoaderStats &s : live.loaders) {
        for (const IntervalStats &in : s.intervals)
            whole.add(in);
    }
    const std::vector<std::string> tx_counters = {"bxt.server.tx_encoded",
                                                  "bxt.server.tx_decoded"};
    const Snapshot &first = live.snaps.front();
    const Snapshot &last = live.snaps.back();
    const double server_rate = snapshotRate(first, last, tx_counters);
    const double client_rate =
        static_cast<double>(whole.tx) / live.windowSeconds;
    // The server-side rate is authoritative; the client's own count must
    // agree with it, or the window was not what it claims.
    if (server_rate <= 0.0 ||
        std::abs(client_rate - server_rate) > 0.05 * server_rate) {
        std::fprintf(stderr,
                     "bxt_perfbench: server rate %.0f tx/s and client rate "
                     "%.0f tx/s disagree\n",
                     server_rate, client_rate);
        result.correct = false;
    }
    // Leave out the intervals in which others took the most CPU time.
    std::vector<std::size_t> by_lost(n_intervals);
    for (std::size_t i = 0; i < n_intervals; ++i)
        by_lost[i] = i;
    std::stable_sort(by_lost.begin(), by_lost.end(),
                     [&](std::size_t a, std::size_t b) {
                         return live.lostSeconds[a] < live.lostSeconds[b];
                     });
    by_lost.resize(std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(n_intervals) *
                                    kKeptShare)));
    IntervalStats kept;
    double kept_tx = 0.0;
    double kept_seconds = 0.0;
    for (std::size_t i : by_lost) {
        for (const LoaderStats &s : live.loaders)
            kept.add(s.intervals[i]);
        for (const std::string &name : tx_counters)
            kept_tx += counterDelta(live.snaps[i], live.snaps[i + 1], name);
        kept_seconds +=
            (live.snaps[i + 1].uptimeUs - live.snaps[i].uptimeUs) / 1e6;
    }
    const Percentile p50 = percentile(kept.rttUs, 0.50);
    const Percentile p99 = percentile(kept.rttUs, 0.99);
    const Percentile whole_p50 = percentile(whole.rttUs, 0.50);
    double lost_total = 0.0;
    for (double s : live.lostSeconds)
        lost_total += s;
    std::uint64_t pool_tx = 0;
    std::uint64_t pool_encoded_tx = 0;
    for (const Entry &e : pool) {
        pool_tx += e.count;
        if (e.op == Opcode::Encode)
            pool_encoded_tx += e.count;
    }
    result.note("connections", std::to_string(connections));
    result.note("pool_requests", std::to_string(pool.size()));
    result.note("pool_tx", std::to_string(pool_tx));
    result.note("intervals", std::to_string(n_intervals));
    result.note("kept_intervals", std::to_string(by_lost.size()));
    result.note("lost_s_total", std::to_string(lost_total));
    result.note("lost_s_kept_max",
                std::to_string(live.lostSeconds[by_lost.back()]));
    result.note("rtt_samples_kept", std::to_string(p50.samples));
    result.note("rtt_samples_window", std::to_string(whole_p50.samples));
    result.note("window_rate_tx_s", std::to_string(server_rate));
    result.note("client_rate_tx_s", std::to_string(client_rate));
    result.note("window_p50_us", std::to_string(whole_p50.value));
    result.note("window_p99_us",
                std::to_string(percentile(whole.rttUs, 0.99).value));
    result.note("shard_cpu_util",
                std::to_string(live.cpuSeconds / live.windowSeconds));

    if (!options.trace) {
        result.add("throughput_tx_s", kept_tx / kept_seconds, "tx/s");
        result.add("p50_us", p50.value, "us");
        result.add("p99_us", p99.value, "us");
        result.add("ones_removed_pct",
                   whole.onesIn == 0
                       ? 0.0
                       : 100.0 * (static_cast<double>(whole.onesIn) -
                                  static_cast<double>(whole.onesOut)) /
                             static_cast<double>(whole.onesIn),
                   "%");
        // The window's verified Encode replies, as bxtd encoded them,
        // scaled to one pass over the pool's Encodes.
        const bxt::DramPowerModel model(bxt::DramPowerParams::gddr5x());
        result.add("sim_energy_uj",
                   whole.encodedTx == 0
                       ? 0.0
                       : model.computeSimple(whole.bus).total() * 1e6 *
                             static_cast<double>(pool_encoded_tx) /
                             static_cast<double>(whole.encodedTx),
                   "uJ");
        result.add("setup_s", median(setups), "s");
        result.add("peak_rss_mb", live.rssMb, "MiB");
        return result;
    }

    const Percentile req50 = histogramDeltaQuantile(
        first, last, "bxt.server.request_us", 0.50);
    const Percentile req99 = histogramDeltaQuantile(
        first, last, "bxt.server.request_us", 0.99);
    double rtt_sum = 0.0;
    for (double v : whole.rttUs)
        rtt_sum += v;
    result.add("client.rtt_us",
               whole.rttUs.empty()
                   ? 0.0
                   : rtt_sum / static_cast<double>(whole.rttUs.size()),
               "us");
    result.add("server.request_us_p50", req50.value, "us");
    result.add("server.request_us_p99", req99.value, "us");
    result.add("net.gap_us", whole_p50.value - req50.value, "us");
    result.add("shard.cpu_util", live.cpuSeconds / live.windowSeconds,
               "ratio");
    result.add("server.batch_size_p50",
               histogramDeltaQuantile(first, last,
                                      "bxt.server.batch_size", 0.50)
                   .value,
               "count");
    result.add("server.rejected_busy",
               counterDelta(first, last, "bxt.server.rejected_busy"),
               "count");
    result.add("server.errors",
               counterDelta(first, last, "bxt.server.errors"), "count");
    result.add("telemetry.snapshot_us", live.snapshotUs, "us");
    result.add("workloads.pool_gen_s", median(pool_gens), "s");
    result.note("server_request_samples", std::to_string(req50.samples));
    replayMetrics(pool, options, result);
    return result;
}

} // namespace

RunResult
runServeHot(const BenchOptions &options)
{
    return runServing(options, false, kHotConnections);
}

RunResult
runServeMixed(const BenchOptions &options)
{
    return runServing(options, true, kMixedConnections);
}

bool
selfTestServingOracle(std::string &report)
{
    // Real replies from an in-process Service for a small mixed pool.
    std::vector<Entry> pool = generateMixed(7);
    pool.resize(64);
    std::string err;
    if (!buildOracle(pool, true, err)) {
        report = err;
        return false;
    }
    bxt::telemetry::setMetricsEnabled(true);
    bxt::server::Service service;
    AdaptiveOracle adaptive;
    RunResult clean;
    RunResult injected;
    const auto check = [&](std::size_t i,
                           const std::vector<std::uint8_t> &bytes) {
        bxt::wire::FrameParser parser;
        parser.feed(bytes.data(), bytes.size());
        Frame frame;
        bxt::wire::WireError werr;
        return parser.next(frame, werr) ==
                   bxt::wire::FrameParser::Status::Ready &&
               verifyReply(i, pool[i], bytes, frame, adaptive) != nullptr;
    };
    for (std::size_t i = 0; i < pool.size(); ++i) {
        bxt::wire::FrameParser parser;
        parser.feed(pool[i].request.data(), pool[i].request.size());
        Frame frame;
        bxt::wire::WireError werr;
        parser.next(frame, werr);
        std::vector<std::uint8_t> reply =
            bxt::wire::serializeFrame(service.handle(frame));
        clean.count(check(i, reply));
        if (i == pool.size() / 2) {
            // One flipped payload bit must count as one failure.
            reply[reply.size() - bxt::wire::crcBytes - 1] ^= 1u;
        }
        injected.count(check(i, reply));
    }
    report = "clean " + std::to_string(clean.failed) + "/" +
             std::to_string(clean.attempted) + " failed, injected " +
             std::to_string(injected.failed) + "/" +
             std::to_string(injected.attempted) + " failed";
    return clean.failed == 0 && clean.attempted == pool.size() &&
           injected.failed == 1;
}

} // namespace bxtbench
