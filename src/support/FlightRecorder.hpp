/**
 * @file
 * Crash flight recorder: the last N request lifecycle events, always
 * on, dumped as JSON on fatal(), SIGUSR1 or graceful drain.
 *
 * Tracing and metrics are opt-in, but a post-mortem of a chaos run
 * (or a production incident) must not depend on having had them
 * enabled. The flight recorder is the always-on fallback: a fixed
 * power-of-two ring of small fixed-size events — admit / shed /
 * start / deadline / fault / finish, each carrying a timestamp, the
 * request id and a short detail string — overwritten in FIFO order,
 * so the dump names the request ids involved in the most recent
 * trouble no matter what else was recording.
 *
 * Recording is lock-free and wait-free on the writer side: one
 * relaxed fetch_add claims a slot, and a per-slot sequence number
 * (even = stable, odd = being written; values derived from the claim
 * ticket so reuse is detectable) lets readers take a consistent
 * snapshot without ever blocking a writer. Event payloads live in
 * atomic words, stored with release after the odd sequence number
 * and loaded with acquire before the closing sequence load, so
 * concurrent record/snapshot is data-race free by construction, with
 * no standalone fence (ThreadSanitizer does not model one; on x86
 * both orders compile to plain moves). A torn event is detected via
 * its sequence number and skipped. (If a writer stalls for a full ring lap, one
 * garbled event can slip into a dump — an acceptable trade for a
 * recorder that may run inside a crash path.)
 */

#ifndef PICO_SUPPORT_FLIGHT_RECORDER_HPP
#define PICO_SUPPORT_FLIGHT_RECORDER_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace pico::support
{

/** Process-global ring of recent request lifecycle events. */
class FlightRecorder
{
  public:
    /** Lifecycle stages worth naming in a post-mortem. */
    enum class EventKind : uint8_t
    {
        Admit = 0,    ///< accepted into the bounded queue
        Shed = 1,     ///< refused (watermark, drain, stranded)
        Start = 2,    ///< a worker began executing it
        Deadline = 3, ///< finished with deadline_exceeded
        Fault = 4,    ///< finished with failed (isolated error)
        Finish = 5,   ///< finished ok
        Drain = 6,    ///< service-wide drain marker (requestId 0)
    };

    /** One decoded event (stable snapshot copy). */
    struct Event
    {
        uint64_t tsNs = 0;
        uint64_t requestId = 0;
        EventKind kind = EventKind::Admit;
        /** Short reason/detail, truncated to fit the slot. */
        std::string detail;
    };

    /** Ring capacity (power of two; oldest events overwritten). */
    static constexpr size_t ringCapacity = 1024;
    /** Longest detail string a slot can hold. */
    static constexpr size_t maxDetailBytes = 40;

    static FlightRecorder &instance();

    /** Record one event (lock-free; detail truncated to fit). */
    void record(EventKind kind, uint64_t request_id,
                const char *detail = "");

    /** Events ever recorded (monotonic; ring holds the newest). */
    uint64_t recorded() const
    {
        return head_.load(std::memory_order_relaxed);
    }

    /**
     * Consistent copies of every stable slot, oldest first. Events
     * mid-write (or overwritten mid-copy) are skipped, never torn.
     */
    std::vector<Event> snapshot() const;

    /** The snapshot as a picoeval-flight-v1 JSON document. */
    std::string toJson() const;

    /**
     * Dump toJson() to a file. @return false (after a warn()) when
     * the file cannot be written.
     */
    bool dumpToFile(const std::string &path) const;

    /**
     * Reset the ring (test isolation only — not safe against
     * concurrent writers).
     */
    void resetForTest();

  private:
    FlightRecorder() = default;

    /** 64-bit words per slot: ts, request, kind, detail payload. */
    static constexpr size_t detailWords =
        maxDetailBytes / sizeof(uint64_t);

    struct Slot
    {
        /** 2*ticket+1 while writing, 2*ticket+2 when stable. */
        std::atomic<uint64_t> seq{0};
        std::atomic<uint64_t> tsNs{0};
        std::atomic<uint64_t> requestId{0};
        std::atomic<uint64_t> kindAndLen{0};
        std::array<std::atomic<uint64_t>, detailWords> detail{};
    };

    std::atomic<uint64_t> head_{0};
    std::array<Slot, ringCapacity> slots_{};
};

/** Wire/JSON spelling of an event kind. */
const char *flightEventName(FlightRecorder::EventKind kind);

} // namespace pico::support

#endif // PICO_SUPPORT_FLIGHT_RECORDER_HPP
