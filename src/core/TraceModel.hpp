/**
 * @file
 * AHH trace-parameter extraction (the paper's TraceModeler).
 *
 * The trace is divided into granules of a fixed number of references.
 * Each granule keeps only the distinct word addresses it touches; at
 * its end they are sorted so that consecutive addresses form *runs*.
 * Three basic parameters are averaged over granules (section 4.2):
 *
 *   u(1) — unique word references per granule,
 *   p1   — fraction of unique references that are isolated
 *          (runs of length one),
 *   lav  — mean run length.
 *
 * From these the derived parameters p2 (equation 4.4) and u(L)
 * (equation 4.5) follow. Instruction traces are modeled whole
 * (ItraceModeler); unified traces are split into their instruction
 * and data components, each with its own parameters (UtraceModeler).
 */

#ifndef PICO_CORE_TRACE_MODEL_HPP
#define PICO_CORE_TRACE_MODEL_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "support/Logging.hpp"
#include "trace/Access.hpp"

namespace pico::core
{

/** Default granule size for instruction traces (references). */
constexpr uint64_t defaultIGranule = 10000;
/** Default granule size for unified traces (references). */
constexpr uint64_t defaultUGranule = 200000;

/** The AHH basic parameters of one trace component. */
struct ComponentParams
{
    /** Average unique word references per granule, u(1). */
    double u1 = 0.0;
    /** Average fraction of isolated (singular) references, p1. */
    double p1 = 0.0;
    /** Average run length, lav. */
    double lav = 1.0;

    /**
     * Run-continuation probability p2 (equation 4.4):
     * p2 = (lav - (1 + p1)) / (lav - 1), defined as 0 when lav == 1.
     */
    double p2() const;

    /**
     * Average unique cache lines per granule, u(L), for a line of
     * lineWords words (equation 4.5). Substituting equation 4.4 into
     * 4.5 gives the equivalent closed form
     *
     *     u(L) = u(1) * (L + lav - 1) / (L * lav)
     *
     * which is what we evaluate; it is exact at L = 1 and tends to
     * the number of runs u(1)/lav as L grows. lineWords may be any
     * positive real — the dilation model deliberately evaluates it
     * at infeasible line sizes L / d.
     */
    double uLines(double lineWords) const;

    /**
     * Why these parameters lie outside the AHH model's domain for
     * granules of granuleRefs references: a non-finite value, u(1)
     * outside (0, granule], p1 outside [0, 1], lav below 1 or above
     * u(1), or p2 above 1 (tolerance 1e-9). Parameters measured from
     * any trace meet every bound. p2 < 0 is no error: a real trace
     * may violate the run model's assumption lav >= 1 + p1.
     * @return one message per violated bound; empty inside the domain
     */
    std::vector<std::string> domainErrors(uint64_t granuleRefs) const;

    bool operator==(const ComponentParams &) const = default;
};

/**
 * Shared granule machinery: keeps the distinct word addresses of the
 * open granule, and at each granule boundary sorts them and
 * accumulates run statistics. u(1), the runs and the isolated words
 * depend only on which words a granule touches, so a repeated word is
 * dropped as it arrives: a set of the granule's words (open
 * addressing, linear probing, at most half full) answers whether it
 * is new. The set's capacity is kept across granules.
 */
class GranuleAccumulator
{
  public:
    GranuleAccumulator() : table_(size_t{1} << firstLog2Slots, emptySlot)
    {
    }

    /**
     * Fold one word address into the current granule. A word is a
     * byte address divided by 4, so it is below 2^62.
     */
    void
    addWord(uint64_t word)
    {
        const size_t mask = table_.size() - 1;
        for (size_t slot = home(word);; slot = (slot + 1) & mask) {
            if (table_[slot] == emptySlot) {
                panicIf(word == emptySlot, "word address ", word,
                        " is the empty-slot sentinel");
                table_[slot] = word;
                break;
            }
            if (table_[slot] == word)
                return;
        }
        buffer_.push_back(word);
        if (2 * buffer_.size() > table_.size())
            grow();
    }

    /** Close the current granule and accumulate its statistics. */
    void closeGranule();

    /** Number of closed granules. */
    uint64_t granules() const { return granules_; }

    /** Averaged parameters over all closed granules. */
    ComponentParams params() const;

  private:
    /** Marks a free slot; no word (below 2^62) equals it. */
    static constexpr uint64_t emptySlot = ~uint64_t{0};
    /** log2 of the set's capacity before its first growth. */
    static constexpr unsigned firstLog2Slots = 6;

    /** First slot probed for a word (multiplicative hashing). */
    size_t
    home(uint64_t word) const
    {
        return static_cast<size_t>((word * 0x9E3779B97F4A7C15ull) >>
                                   shift_);
    }

    /** Double the set's capacity and re-insert the open granule. */
    void grow();

    /** The open granule's distinct words, in arrival order. */
    std::vector<uint64_t> buffer_;
    /** The same words hashed; a power-of-two number of slots. */
    std::vector<uint64_t> table_;
    /** 64 - log2(table_.size()). */
    unsigned shift_ = 64 - firstLog2Slots;
    uint64_t granules_ = 0;
    double sumUnique_ = 0.0;
    double sumIsolatedFraction_ = 0.0;
    double sumRunLength_ = 0.0;
};

/** Trace modeler for instruction traces. */
class ItraceModeler
{
  public:
    explicit ItraceModeler(uint64_t granule_refs = defaultIGranule)
        : granuleRefs_(granule_refs)
    {
        fatalIf(granule_refs == 0, "granule size must be positive");
    }

    /** Feed one access; non-instruction references are ignored. */
    void
    access(const trace::Access &a)
    {
        if (!a.isInstr)
            return;
        acc_.addWord(a.addr / 4);
        if (++refs_ % granuleRefs_ == 0)
            acc_.closeGranule();
    }

    /** Sink-compatible overload. */
    void operator()(const trace::Access &a) { access(a); }

    /** Parameters of the instruction trace. */
    ComponentParams
    params() const
    {
        fatalIf(acc_.granules() == 0,
                "trace shorter than one granule (", granuleRefs_,
                " refs)");
        return acc_.params();
    }

    uint64_t granules() const { return acc_.granules(); }

  private:
    uint64_t granuleRefs_;
    uint64_t refs_ = 0;
    GranuleAccumulator acc_;
};

/**
 * Trace modeler for unified traces: granules are counted over all
 * references, but instruction and data addresses are sorted and
 * modeled separately (section 4.3).
 */
class UtraceModeler
{
  public:
    explicit UtraceModeler(uint64_t granule_refs = defaultUGranule)
        : granuleRefs_(granule_refs)
    {
        fatalIf(granule_refs == 0, "granule size must be positive");
    }

    void
    access(const trace::Access &a)
    {
        if (a.isInstr)
            iAcc_.addWord(a.addr / 4);
        else
            dAcc_.addWord(a.addr / 4);
        if (++refs_ % granuleRefs_ == 0) {
            iAcc_.closeGranule();
            dAcc_.closeGranule();
        }
    }

    void operator()(const trace::Access &a) { access(a); }

    /** Parameters of the instruction component. */
    ComponentParams
    instrParams() const
    {
        fatalIf(iAcc_.granules() == 0, "unified trace shorter than "
                                       "one granule");
        return iAcc_.params();
    }

    /** Parameters of the data component. */
    ComponentParams
    dataParams() const
    {
        fatalIf(dAcc_.granules() == 0, "unified trace shorter than "
                                       "one granule");
        return dAcc_.params();
    }

    uint64_t granules() const { return iAcc_.granules(); }

  private:
    uint64_t granuleRefs_;
    uint64_t refs_ = 0;
    GranuleAccumulator iAcc_;
    GranuleAccumulator dAcc_;
};

} // namespace pico::core

#endif // PICO_CORE_TRACE_MODEL_HPP
