/**
 * @file
 * Unit tests for the trace modelers: granule run statistics, the
 * derived parameters p2 and u(L), and the I/U modeler front ends.
 * The accumulator keeps only each granule's distinct words; a copy of
 * the accumulator that buffers and sorts every reference is the
 * reference it must match bit for bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/TraceModel.hpp"
#include "support/Logging.hpp"
#include "support/Random.hpp"

namespace pico::core
{
namespace
{

trace::Access
instrWord(uint64_t word)
{
    return {word * 4, true, false};
}

trace::Access
dataWord(uint64_t word)
{
    return {word * 4, false, false};
}

/**
 * The reference accumulator: buffers every word of a granule, and at
 * the boundary sorts them all, removes duplicates and sums the run
 * statistics in GranuleAccumulator's order.
 */
class SortEverythingAccumulator
{
  public:
    void addWord(uint64_t word) { buffer_.push_back(word); }

    void
    closeGranule()
    {
        if (buffer_.empty())
            return;
        std::sort(buffer_.begin(), buffer_.end());
        buffer_.erase(std::unique(buffer_.begin(), buffer_.end()),
                      buffer_.end());
        uint64_t unique = buffer_.size();
        uint64_t runs = 0;
        uint64_t isolated = 0;
        size_t i = 0;
        while (i < buffer_.size()) {
            size_t j = i + 1;
            while (j < buffer_.size() && buffer_[j] == buffer_[j - 1] + 1)
                ++j;
            ++runs;
            if (j - i == 1)
                ++isolated;
            i = j;
        }
        ++granules_;
        sumUnique_ += static_cast<double>(unique);
        sumIsolatedFraction_ += static_cast<double>(isolated) /
                                static_cast<double>(unique);
        sumRunLength_ += static_cast<double>(unique) /
                         static_cast<double>(runs);
        buffer_.clear();
    }

    uint64_t granules() const { return granules_; }

    ComponentParams
    params() const
    {
        auto n = static_cast<double>(granules_);
        return {sumUnique_ / n, sumIsolatedFraction_ / n,
                sumRunLength_ / n};
    }

  private:
    std::vector<uint64_t> buffer_;
    uint64_t granules_ = 0;
    double sumUnique_ = 0.0;
    double sumIsolatedFraction_ = 0.0;
    double sumRunLength_ = 0.0;
};

/**
 * Feed the accumulator and the reference the same granules; after each
 * granule their parameters must be equal, bit for bit.
 */
void
expectMatchesReference(const std::vector<std::vector<uint64_t>> &granules)
{
    GranuleAccumulator acc;
    SortEverythingAccumulator ref;
    for (size_t g = 0; g < granules.size(); ++g) {
        for (uint64_t w : granules[g]) {
            acc.addWord(w);
            ref.addWord(w);
        }
        acc.closeGranule();
        ref.closeGranule();
        ASSERT_EQ(acc.granules(), ref.granules()) << "granule " << g;
        if (ref.granules() > 0) {
            ASSERT_EQ(acc.params(), ref.params()) << "granule " << g;
        }
    }
}

TEST(GranuleAccumulator, SingleRunStatistics)
{
    GranuleAccumulator acc;
    for (uint64_t w = 100; w < 110; ++w)
        acc.addWord(w);
    acc.closeGranule();
    auto p = acc.params();
    EXPECT_DOUBLE_EQ(p.u1, 10.0);  // 10 unique words
    EXPECT_DOUBLE_EQ(p.p1, 0.0);   // no isolated references
    EXPECT_DOUBLE_EQ(p.lav, 10.0); // one run of length 10
}

TEST(GranuleAccumulator, AllIsolated)
{
    GranuleAccumulator acc;
    for (uint64_t w = 0; w < 8; ++w)
        acc.addWord(w * 10);
    acc.closeGranule();
    auto p = acc.params();
    EXPECT_DOUBLE_EQ(p.u1, 8.0);
    EXPECT_DOUBLE_EQ(p.p1, 1.0);
    EXPECT_DOUBLE_EQ(p.lav, 1.0);
}

TEST(GranuleAccumulator, MixedRuns)
{
    GranuleAccumulator acc;
    // Run of 3 (5,6,7), isolated (20), run of 2 (30,31).
    for (uint64_t w : {5, 6, 7, 20, 30, 31})
        acc.addWord(w);
    acc.closeGranule();
    auto p = acc.params();
    EXPECT_DOUBLE_EQ(p.u1, 6.0);
    EXPECT_NEAR(p.p1, 1.0 / 6.0, 1e-12); // 1 isolated of 6 unique
    EXPECT_DOUBLE_EQ(p.lav, 2.0);        // 6 unique / 3 runs
}

TEST(GranuleAccumulator, DuplicatesCollapse)
{
    GranuleAccumulator acc;
    for (int rep = 0; rep < 5; ++rep)
        for (uint64_t w : {1, 2, 3})
            acc.addWord(w);
    acc.closeGranule();
    auto p = acc.params();
    EXPECT_DOUBLE_EQ(p.u1, 3.0);
    EXPECT_DOUBLE_EQ(p.lav, 3.0);
}

TEST(GranuleAccumulator, AveragesAcrossGranules)
{
    GranuleAccumulator acc;
    for (uint64_t w = 0; w < 4; ++w)
        acc.addWord(w); // one run of 4
    acc.closeGranule();
    for (uint64_t w = 0; w < 4; ++w)
        acc.addWord(w * 100); // four isolated
    acc.closeGranule();
    auto p = acc.params();
    EXPECT_EQ(acc.granules(), 2u);
    EXPECT_DOUBLE_EQ(p.u1, 4.0);
    EXPECT_DOUBLE_EQ(p.p1, 0.5);        // (0 + 1) / 2
    EXPECT_DOUBLE_EQ(p.lav, 2.5);       // (4 + 1) / 2
}

TEST(GranuleAccumulator, EmptyGranuleIgnored)
{
    GranuleAccumulator acc;
    acc.closeGranule();
    EXPECT_EQ(acc.granules(), 0u);
    EXPECT_THROW(acc.params(), PanicError);
}

TEST(GranuleAccumulator, OneRepeatedWordMatchesReference)
{
    expectMatchesReference({std::vector<uint64_t>(10000, 4242)});
}

TEST(GranuleAccumulator, AllDistinctWordsMatchReference)
{
    // Runs of one to four words, fed in descending order.
    std::vector<uint64_t> words;
    for (uint64_t i = 4000; i-- > 0;)
        for (uint64_t k = i % 4 + 1; k-- > 0;)
            words.push_back(i * 10 + k);
    expectMatchesReference({words});
}

TEST(GranuleAccumulator, ExtremeWordsMatchReference)
{
    // Word 0 and the largest words an address can give (addr / 4).
    constexpr uint64_t top = (uint64_t{1} << 62) - 1;
    expectMatchesReference({{0, top, 1, top - 1, 0, top, 2, top - 3},
                            {top, top, top - 2, top - 1, top},
                            {0, 0, 0}});
}

TEST(GranuleAccumulator, SentinelWordIsRejected)
{
    GranuleAccumulator acc;
    EXPECT_THROW(acc.addWord(~uint64_t{0}), PanicError);
}

TEST(GranuleAccumulator, LargeGranuleMatchesReference)
{
    // 120k distinct words in runs of 1-5, each seen twice in a
    // shuffled order: the set grows from 64 slots twelve times.
    std::vector<uint64_t> words;
    for (uint64_t w = 0; words.size() < 120000; w += 7)
        for (uint64_t k = 0; k <= w % 5; ++k)
            words.push_back(w + k);
    words.insert(words.end(), words.begin(), words.end());
    Rng rng(11);
    for (size_t i = words.size() - 1; i > 0; --i)
        std::swap(words[i], words[rng.below(i + 1)]);
    expectMatchesReference({words});
}

TEST(GranuleAccumulator, ClearedSetHoldsNoStaleWords)
{
    // A large granule grows the set; the small ones after it reuse the
    // cleared slots and revisit words an earlier granule held.
    std::vector<std::vector<uint64_t>> granules;
    std::vector<uint64_t> first;
    for (uint64_t w = 0; w < 5000; ++w)
        first.push_back(w * 2);
    granules.push_back(first);
    for (uint64_t g = 0; g < 60; ++g) {
        std::vector<uint64_t> words;
        for (uint64_t w = 0; w < 300; ++w)
            words.push_back((g * 37 + w * (1 + g % 3)) % 4000);
        granules.push_back(words);
    }
    expectMatchesReference(granules);
}

TEST(GranuleAccumulator, RepetitiveRandomStreamMatchesReference)
{
    // Hot words repeat within and across granules; cold words are
    // scattered over a wide range.
    Rng rng(29);
    std::vector<std::vector<uint64_t>> granules(200);
    for (auto &words : granules) {
        uint64_t base = rng.below(1 << 12);
        for (int r = 0; r < 2000; ++r) {
            if (rng.coin(0.8))
                words.push_back(base + rng.below(64));
            else
                words.push_back(rng.below(uint64_t{1} << 40));
        }
    }
    expectMatchesReference(granules);
}

TEST(TraceModel, ModelersMatchReference)
{
    // One seeded stream: instruction fetches run through basic blocks
    // with jumps back into a loop body; data references mix strided
    // array walks, a hot table and scattered words.
    constexpr uint64_t iGranule = 1000, uGranule = 5000;
    ItraceModeler imod(iGranule);
    UtraceModeler umod(uGranule);
    SortEverythingAccumulator iRef, uiRef, udRef;
    uint64_t iRefs = 0, uRefs = 0;
    Rng rng(47);
    uint64_t pc = 0x10000, stride_addr = 0x800000;
    for (int n = 0; n < 120000; ++n) {
        trace::Access a;
        if (rng.coin(0.7)) {
            pc = rng.coin(0.1) ? 0x10000 + rng.below(1 << 14) * 4 : pc + 4;
            a = {pc, true, false};
        } else if (rng.coin(0.5)) {
            stride_addr += 4 * (1 + rng.below(3));
            a = {stride_addr, false, rng.coin(0.3)};
        } else if (rng.coin(0.7)) {
            a = {0x400000 + rng.below(256) * 4, false, false};
        } else {
            a = {rng.below(uint64_t{1} << 32) & ~uint64_t{3}, false, true};
        }
        imod.access(a);
        umod.access(a);
        if (a.isInstr) {
            iRef.addWord(a.addr / 4);
            if (++iRefs % iGranule == 0)
                iRef.closeGranule();
            uiRef.addWord(a.addr / 4);
        } else {
            udRef.addWord(a.addr / 4);
        }
        if (++uRefs % uGranule == 0) {
            uiRef.closeGranule();
            udRef.closeGranule();
        }
    }
    ASSERT_EQ(imod.granules(), iRef.granules());
    ASSERT_EQ(umod.granules(), uiRef.granules());
    ASSERT_GT(imod.granules(), 50u);
    ASSERT_GT(umod.granules(), 20u);
    EXPECT_EQ(imod.params(), iRef.params());
    EXPECT_EQ(umod.instrParams(), uiRef.params());
    EXPECT_EQ(umod.dataParams(), udRef.params());
}

TEST(ComponentParams, P2Definition)
{
    ComponentParams p;
    p.u1 = 100.0;
    p.p1 = 0.2;
    p.lav = 5.0;
    // Equation 4.4: (5 - 1.2) / 4 = 0.95.
    EXPECT_NEAR(p.p2(), 0.95, 1e-12);
}

TEST(ComponentParams, P2DegenerateAtUnitRunLength)
{
    ComponentParams p;
    p.u1 = 10.0;
    p.p1 = 1.0;
    p.lav = 1.0;
    EXPECT_DOUBLE_EQ(p.p2(), 0.0);
}

TEST(ComponentParams, ULinesEndpoints)
{
    ComponentParams p;
    p.u1 = 120.0;
    p.p1 = 0.1;
    p.lav = 6.0;
    // L = 1 word: every unique word is its own line.
    EXPECT_NEAR(p.uLines(1.0), 120.0, 1e-9);
    // L -> infinity: one line per run = u1 / lav.
    EXPECT_NEAR(p.uLines(1e9), 20.0, 1e-3);
}

TEST(ComponentParams, ULinesMatchesPForm)
{
    // The closed form equals the equation 4.5 p-form
    // u(1)(1 + p1/L - p2)/(1 + p1 - p2) under equation 4.4.
    ComponentParams p;
    p.u1 = 250.0;
    p.p1 = 0.3;
    p.lav = 4.0;
    for (double L : {1.0, 2.0, 3.7, 8.0, 16.0, 100.0}) {
        double closed = p.uLines(L);
        double pform = p.u1 * (1.0 + p.p1 / L - p.p2()) /
                       (1.0 + p.p1 - p.p2());
        EXPECT_NEAR(closed, pform, 1e-9 * closed) << "L=" << L;
    }
}

TEST(ComponentParams, ULinesMonotoneDecreasing)
{
    ComponentParams p;
    p.u1 = 300.0;
    p.p1 = 0.25;
    p.lav = 5.0;
    double prev = p.uLines(1.0);
    for (double L = 2.0; L <= 64.0; L *= 2.0) {
        double cur = p.uLines(L);
        EXPECT_LT(cur, prev);
        prev = cur;
    }
}

TEST(ItraceModeler, FiltersDataReferences)
{
    ItraceModeler modeler(16);
    for (uint64_t w = 0; w < 16; ++w) {
        modeler.access(instrWord(w));
        modeler.access(dataWord(w + 1000)); // must be ignored
    }
    ASSERT_EQ(modeler.granules(), 1u);
    EXPECT_DOUBLE_EQ(modeler.params().u1, 16.0);
    EXPECT_DOUBLE_EQ(modeler.params().lav, 16.0);
}

TEST(ItraceModeler, ThrowsWithoutFullGranule)
{
    ItraceModeler modeler(1000);
    modeler.access(instrWord(1));
    EXPECT_THROW(modeler.params(), FatalError);
}

TEST(UtraceModeler, SeparatesComponents)
{
    UtraceModeler modeler(20);
    // 10 sequential instruction words + 10 isolated data words per
    // granule.
    for (uint64_t w = 0; w < 10; ++w)
        modeler.access(instrWord(w));
    for (uint64_t w = 0; w < 10; ++w)
        modeler.access(dataWord(10000 + w * 50));
    ASSERT_EQ(modeler.granules(), 1u);
    EXPECT_DOUBLE_EQ(modeler.instrParams().lav, 10.0);
    EXPECT_DOUBLE_EQ(modeler.instrParams().p1, 0.0);
    EXPECT_DOUBLE_EQ(modeler.dataParams().lav, 1.0);
    EXPECT_DOUBLE_EQ(modeler.dataParams().p1, 1.0);
}

TEST(UtraceModeler, GranuleCountsAllReferences)
{
    // Granule size counts instruction + data together (section 4.3).
    UtraceModeler modeler(10);
    for (uint64_t w = 0; w < 5; ++w) {
        modeler.access(instrWord(w));
        modeler.access(dataWord(w + 500));
    }
    EXPECT_EQ(modeler.granules(), 1u);
}

TEST(TraceModel, RandomTraceParamsSane)
{
    // Random word addresses: p1 near 1, lav near 1.
    ItraceModeler modeler(5000);
    Rng rng(3);
    for (int i = 0; i < 50000; ++i)
        modeler.access(instrWord(rng.below(1 << 22)));
    auto p = modeler.params();
    EXPECT_GT(p.p1, 0.95);
    EXPECT_LT(p.lav, 1.1);
    EXPECT_GT(p.u1, 4000.0);
}

} // namespace
} // namespace pico::core
