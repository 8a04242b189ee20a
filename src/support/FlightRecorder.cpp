#include "support/FlightRecorder.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "support/Logging.hpp"
#include "support/Metrics.hpp"

namespace pico::support
{

const char *
flightEventName(FlightRecorder::EventKind kind)
{
    switch (kind) {
    case FlightRecorder::EventKind::Admit:
        return "admit";
    case FlightRecorder::EventKind::Shed:
        return "shed";
    case FlightRecorder::EventKind::Start:
        return "start";
    case FlightRecorder::EventKind::Deadline:
        return "deadline";
    case FlightRecorder::EventKind::Fault:
        return "fault";
    case FlightRecorder::EventKind::Finish:
        return "finish";
    case FlightRecorder::EventKind::Drain:
        return "drain";
    }
    return "unknown";
}

FlightRecorder &
FlightRecorder::instance()
{
    static FlightRecorder recorder;
    return recorder;
}

void
FlightRecorder::record(EventKind kind, uint64_t request_id,
                       const char *detail)
{
    uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
    Slot &slot = slots_[ticket % ringCapacity];

    // Seqlock write protocol: odd while writing, even when stable.
    // Values are derived from the ticket, so a reader that raced a
    // ring lap sees a *different* even value and discards its copy.
    // Each payload store is a release, so none can become visible
    // before the odd sequence number.
    slot.seq.store(2 * ticket + 1, std::memory_order_release);
    slot.tsNs.store(monotonicNowNs(), std::memory_order_release);
    slot.requestId.store(request_id, std::memory_order_release);

    size_t len = detail != nullptr
                     ? std::min(std::strlen(detail), maxDetailBytes)
                     : 0;
    slot.kindAndLen.store(static_cast<uint64_t>(kind) |
                              (static_cast<uint64_t>(len) << 8),
                          std::memory_order_release);
    for (size_t w = 0; w < detailWords; ++w) {
        uint64_t word = 0;
        for (size_t b = 0; b < sizeof(uint64_t); ++b) {
            size_t i = w * sizeof(uint64_t) + b;
            if (i < len)
                word |= static_cast<uint64_t>(
                            static_cast<unsigned char>(detail[i]))
                        << (8 * b);
        }
        slot.detail[w].store(word, std::memory_order_release);
    }
    slot.seq.store(2 * ticket + 2, std::memory_order_release);
}

std::vector<FlightRecorder::Event>
FlightRecorder::snapshot() const
{
    std::vector<Event> out;
    out.reserve(ringCapacity);
    for (const Slot &slot : slots_) {
        uint64_t before = slot.seq.load(std::memory_order_acquire);
        if (before == 0 || (before & 1) != 0)
            continue; // never written, or mid-write
        // Acquire payload loads keep the closing sequence load after
        // every one of them; a payload from a newer write then shows
        // as a changed sequence number.
        Event e;
        e.tsNs = slot.tsNs.load(std::memory_order_acquire);
        e.requestId =
            slot.requestId.load(std::memory_order_acquire);
        uint64_t kl = slot.kindAndLen.load(std::memory_order_acquire);
        e.kind = static_cast<EventKind>(kl & 0xff);
        size_t len = std::min<size_t>((kl >> 8) & 0xff,
                                      maxDetailBytes);
        char buf[maxDetailBytes];
        for (size_t w = 0; w < detailWords; ++w) {
            uint64_t word =
                slot.detail[w].load(std::memory_order_acquire);
            for (size_t b = 0; b < sizeof(uint64_t); ++b)
                buf[w * sizeof(uint64_t) + b] =
                    static_cast<char>((word >> (8 * b)) & 0xff);
        }
        uint64_t after = slot.seq.load(std::memory_order_acquire);
        if (after != before)
            continue; // overwritten while copying
        e.detail.assign(buf, len);
        out.push_back(std::move(e));
    }
    std::sort(out.begin(), out.end(),
              [](const Event &a, const Event &b) {
                  return a.tsNs < b.tsNs;
              });
    return out;
}

std::string
FlightRecorder::toJson() const
{
    auto events = snapshot();
    std::string out;
    out.reserve(events.size() * 96 + 128);
    out += "{\"schema\":\"picoeval-flight-v1\",\"capacity\":";
    out += std::to_string(ringCapacity);
    out += ",\"recorded\":";
    out += std::to_string(recorded());
    out += ",\"events\":[";
    bool first = true;
    for (const Event &e : events) {
        if (!first)
            out += ",";
        first = false;
        out += "\n{\"ts_ns\":";
        out += std::to_string(e.tsNs);
        out += ",\"request\":";
        out += std::to_string(e.requestId);
        out += ",\"kind\":\"";
        out += flightEventName(e.kind);
        out += "\",\"detail\":\"";
        out += jsonEscape(e.detail);
        out += "\"}";
    }
    out += "\n]}\n";
    return out;
}

bool
FlightRecorder::dumpToFile(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        warn("cannot write flight-recorder dump '", path, "'");
        return false;
    }
    out << toJson();
    out.flush();
    if (!out) {
        warn("writing flight-recorder dump '", path, "' failed");
        return false;
    }
    return true;
}

void
FlightRecorder::resetForTest()
{
    head_.store(0, std::memory_order_relaxed);
    for (Slot &slot : slots_)
        slot.seq.store(0, std::memory_order_relaxed);
}

} // namespace pico::support
