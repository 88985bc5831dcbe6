/**
 * @file
 * Tests for the protection-policy layer (src/robust/protection):
 * check-bit math and the taxes it implies, word-level repair
 * semantics (parity invalidation, SEC-DED correction, laundering),
 * the ProtectedPredictor decorator, and the factory's protected
 * build/latency paths.
 */

#include "robust/protection.hh"

#include <gtest/gtest.h>
#include <sys/mman.h>

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "common/packed_pht.hh"
#include "common/rng.hh"
#include "core/factory.hh"
#include "core/runner.hh"
#include "workloads/registry.hh"
#include "workloads/workload.hh"

namespace bpsim {
namespace {

using robust::ProtectionConfig;
using robust::ProtectionLayer;
using robust::ProtectionPolicy;

ProtectionConfig
config(ProtectionPolicy policy, unsigned word_bits = 64)
{
    ProtectionConfig cfg;
    cfg.policy = policy;
    cfg.wordBits = word_bits;
    return cfg;
}

TEST(ProtectionMath, SecdedCheckBitsMatchHamming)
{
    // Hamming r with 2^r >= W + r + 1, plus the DED parity bit.
    EXPECT_EQ(robust::secdedCheckBits(8), 5u);
    EXPECT_EQ(robust::secdedCheckBits(16), 6u);
    EXPECT_EQ(robust::secdedCheckBits(32), 7u);
    EXPECT_EQ(robust::secdedCheckBits(64), 8u);
    EXPECT_EQ(robust::secdedCheckBits(128), 9u);
}

TEST(ProtectionMath, CheckBitsPerPolicy)
{
    EXPECT_EQ(robust::protectionCheckBits(
                  config(ProtectionPolicy::None)),
              0u);
    EXPECT_EQ(robust::protectionCheckBits(
                  config(ProtectionPolicy::ParityInvalidate)),
              1u);
    EXPECT_EQ(robust::protectionCheckBits(
                  config(ProtectionPolicy::SecdedCorrect)),
              8u);
    // Scrubbing stores the same code words; only the check timing
    // differs.
    EXPECT_EQ(robust::protectionCheckBits(
                  config(ProtectionPolicy::Scrub)),
              8u);
}

TEST(ProtectionMath, EffectiveBudgetPaysTheStorageTax)
{
    const std::size_t budget = 64 * 1024;
    EXPECT_EQ(robust::protectedEffectiveBudget(
                  budget, config(ProtectionPolicy::None)),
              budget);
    // SEC-DED at W=64: 8 check bits per 64 data bits = 12.5%.
    EXPECT_EQ(robust::protectedEffectiveBudget(
                  budget, config(ProtectionPolicy::SecdedCorrect)),
              budget * 64 / 72);
    // Parity: 1 bit per 64.
    EXPECT_EQ(robust::protectedEffectiveBudget(
                  budget, config(ProtectionPolicy::ParityInvalidate)),
              budget * 64 / 65);
    // Never collapses to nothing.
    EXPECT_GE(robust::protectedEffectiveBudget(
                  1, config(ProtectionPolicy::SecdedCorrect)),
              64u);
}

TEST(ProtectionMath, CheckBitsTotalCoversEveryWord)
{
    const auto cfg = config(ProtectionPolicy::SecdedCorrect);
    EXPECT_EQ(robust::protectionCheckBitsTotal(0, cfg), 0u);
    EXPECT_EQ(robust::protectionCheckBitsTotal(64, cfg), 8u);
    // Partial trailing word still needs a full set of check bits.
    EXPECT_EQ(robust::protectionCheckBitsTotal(65, cfg), 16u);
    EXPECT_EQ(robust::protectionCheckBitsTotal(
                  100, config(ProtectionPolicy::None)),
              0u);
}

TEST(ProtectionMath, OnlyAccessPathPoliciesAddFo4)
{
    EXPECT_EQ(robust::protectionCheckFo4(
                  config(ProtectionPolicy::None)),
              0.0);
    EXPECT_EQ(
        robust::protectionCheckFo4(config(ProtectionPolicy::Scrub)),
        0.0);
    const double parity = robust::protectionCheckFo4(
        config(ProtectionPolicy::ParityInvalidate));
    const double secded = robust::protectionCheckFo4(
        config(ProtectionPolicy::SecdedCorrect));
    EXPECT_GT(parity, 0.0);
    EXPECT_GT(secded, parity);
}

/** Fixture driving exact flip patterns through a layer over a small
 *  wordArrayField: 8-bit elements, 16-bit ECC words => two elements
 *  per word ({0,1} and {2,3}). */
struct LayerTest
{
    explicit LayerTest(ProtectionPolicy policy)
        : layer(config(policy, 16)),
          field(robust::wordArrayField("t.field", values, 8))
    {
    }

    /** Inject one flip the way the FaultInjector would: record it,
     *  then apply it to the storage. */
    void
    flip(std::size_t elem, unsigned bit)
    {
        flipIn(0, field, elem, bit);
    }

    /** As flip(), in @p f at walk ordinal @p ordinal. */
    void
    flipIn(std::size_t ordinal, const robust::StateField &f,
           std::size_t elem, unsigned bit)
    {
        const std::uint64_t before = robust::load(f, elem);
        layer.recordFlip(ordinal, f, elem, bit, before);
        robust::store(f, elem, before ^ (std::uint64_t{1} << bit));
    }

    std::vector<std::uint64_t> values{0x55, 0x55, 0x55, 0x55};
    ProtectionLayer layer;
    robust::StateField field;
};

TEST(ProtectionLayer, ParityInvalidatesOddCorruption)
{
    LayerTest t(ProtectionPolicy::ParityInvalidate);
    t.flip(0, 1);
    EXPECT_EQ(t.layer.pendingWords(), 1u);
    t.layer.repair();
    // Parity can only detect-and-reset: both elements of the word go
    // to the field's reset value, the untouched word stays put.
    EXPECT_EQ(t.values[0], t.field.resetValue);
    EXPECT_EQ(t.values[1], t.field.resetValue);
    EXPECT_EQ(t.values[2], 0x55u);
    EXPECT_EQ(t.layer.stats().invalidatedWords, 1u);
    EXPECT_EQ(t.layer.stats().invalidatedElements, 2u);
    EXPECT_EQ(t.layer.pendingWords(), 0u);
}

TEST(ProtectionLayer, ParityMissesEvenCorruption)
{
    LayerTest t(ProtectionPolicy::ParityInvalidate);
    t.flip(0, 1);
    t.flip(1, 2); // same 16-bit word, so the word has 2 flipped bits
    t.layer.repair();
    EXPECT_EQ(t.values[0], 0x55u ^ 0x02u);
    EXPECT_EQ(t.values[1], 0x55u ^ 0x04u);
    EXPECT_EQ(t.layer.stats().undetectedWords, 1u);
    EXPECT_EQ(t.layer.stats().invalidatedWords, 0u);
    // The ledger keeps the word: one MORE flip makes parity odd.
    EXPECT_EQ(t.layer.pendingWords(), 1u);
    t.flip(0, 3);
    t.layer.repair();
    EXPECT_EQ(t.values[0], t.field.resetValue);
    EXPECT_EQ(t.layer.stats().invalidatedWords, 1u);
}

TEST(ProtectionLayer, SecdedCorrectsSingleBit)
{
    LayerTest t(ProtectionPolicy::SecdedCorrect);
    t.flip(2, 6);
    EXPECT_NE(t.values[2], 0x55u);
    t.layer.repair();
    EXPECT_EQ(t.values[2], 0x55u); // restored, not reset
    EXPECT_EQ(t.layer.stats().correctedBits, 1u);
    EXPECT_EQ(t.layer.stats().invalidatedWords, 0u);
    EXPECT_EQ(t.layer.pendingWords(), 0u);
}

TEST(ProtectionLayer, SecdedInvalidatesDoubleAndMissesTriple)
{
    LayerTest t(ProtectionPolicy::SecdedCorrect);
    t.flip(0, 1);
    t.flip(1, 2);
    t.layer.repair();
    EXPECT_EQ(t.values[0], t.field.resetValue);
    EXPECT_EQ(t.values[1], t.field.resetValue);
    EXPECT_EQ(t.layer.stats().invalidatedWords, 1u);

    t.flip(2, 0);
    t.flip(2, 1);
    t.flip(3, 2);
    t.layer.repair();
    // Three flips in one word alias past SEC-DED: values keep the
    // corruption.
    EXPECT_EQ(t.values[2], 0x55u ^ 0x03u);
    EXPECT_EQ(t.values[3], 0x55u ^ 0x04u);
    EXPECT_EQ(t.layer.stats().undetectedWords, 1u);
}

TEST(ProtectionLayer, OverwrittenElementsAreLaundered)
{
    LayerTest t(ProtectionPolicy::SecdedCorrect);
    t.flip(0, 1);
    // The predictor trains over the flipped element before the check
    // runs: the write re-encoded the word, so there is nothing left
    // to repair.
    robust::store(t.field, 0, 0x33);
    t.layer.repair();
    EXPECT_EQ(t.values[0], 0x33u);
    EXPECT_EQ(t.layer.stats().launderedElements, 1u);
    EXPECT_EQ(t.layer.stats().correctedBits, 0u);
    EXPECT_EQ(t.layer.pendingWords(), 0u);
}

TEST(ProtectionLayer, CarriedParityWordCaughtByAThirdFlip)
{
    LayerTest t(ProtectionPolicy::ParityInvalidate);
    t.flip(0, 1);
    t.flip(0, 2);
    t.layer.repair();
    EXPECT_EQ(t.layer.stats().undetectedWords, 1u);
    ASSERT_EQ(t.layer.pendingWords(), 1u);
    // The third flip lands in the carried word's other element: the
    // word now holds three flipped bits, so parity fires.
    t.flip(1, 7);
    t.layer.repair();
    EXPECT_EQ(t.values[0], t.field.resetValue);
    EXPECT_EQ(t.values[1], t.field.resetValue);
    EXPECT_EQ(t.layer.stats().invalidatedWords, 1u);
    EXPECT_EQ(t.layer.stats().invalidatedElements, 2u);
    EXPECT_EQ(t.layer.pendingWords(), 0u);
}

TEST(ProtectionLayer, FlipAfterAWriteIsCheckedAgainstTheWrittenValue)
{
    LayerTest t(ProtectionPolicy::SecdedCorrect);
    // The same bit twice cancels out...
    t.flip(2, 3);
    t.flip(2, 3);
    EXPECT_EQ(t.values[2], 0x55u);
    // ...the predictor then writes the element, and a third flip
    // lands on the new value before the check.
    robust::store(t.field, 2, 0x21);
    t.flip(2, 0);
    t.layer.repair();
    // Corrected back to the value before the third flip, not to the
    // value before the first.
    EXPECT_EQ(t.values[2], 0x21u);
    EXPECT_EQ(t.layer.stats().correctedBits, 1u);
    EXPECT_EQ(t.layer.stats().launderedElements, 0u);
    EXPECT_EQ(t.layer.pendingWords(), 0u);
}

TEST(ProtectionLayer, CarriedWordIsLaunderedByAWrite)
{
    LayerTest t(ProtectionPolicy::ParityInvalidate);
    t.flip(0, 1);
    t.flip(0, 2);
    t.layer.repair();
    ASSERT_EQ(t.layer.pendingWords(), 1u);
    // The predictor overwrites the corrupted element between checks.
    robust::store(t.field, 0, 0x10);
    t.layer.repair();
    EXPECT_EQ(t.values[0], 0x10u);
    EXPECT_EQ(t.values[1], 0x55u);
    EXPECT_EQ(t.layer.stats().launderedElements, 1u);
    EXPECT_EQ(t.layer.stats().invalidatedWords, 0u);
    EXPECT_EQ(t.layer.stats().undetectedWords, 1u);
    EXPECT_EQ(t.layer.pendingWords(), 0u);
}

TEST(ProtectionLayer, SameNamedFieldsAreRepairedInTheirOwnStorage)
{
    LayerTest t(ProtectionPolicy::SecdedCorrect);
    std::vector<std::uint64_t> other{0x55, 0x55, 0x55, 0x55};
    const robust::StateField twin =
        robust::wordArrayField(t.field.name, other, 8);
    // One flip in word 0 of each field: two single-bit words, not
    // one double-bit word.
    t.flipIn(0, t.field, 0, 1);
    t.flipIn(1, twin, 1, 2);
    EXPECT_EQ(t.layer.pendingWords(), 2u);
    t.layer.repair();
    EXPECT_EQ(t.values[0], 0x55u);
    EXPECT_EQ(other[1], 0x55u);
    EXPECT_EQ(t.layer.stats().correctedBits, 2u);
    EXPECT_EQ(t.layer.stats().invalidatedWords, 0u);
}

TEST(ProtectionLayer, ThrowsWhenFieldsPassTwoToThe32Elements)
{
    // Element ids share a 64-bit sort key with a ledger index, so the
    // fields a layer sees may hold at most 2^32 - 1 elements in all.
    // The stubs hold no storage.
    const auto stub = [](std::string name, std::size_t count) {
        return robust::StateField{std::move(name), robust::FieldKind::Uint8,
                                  nullptr, count, 2};
    };
    const std::size_t half = std::size_t{1} << 31;
    ProtectionLayer layer(config(ProtectionPolicy::ParityInvalidate));
    layer.recordFlip(0, stub("t.a", half), half - 1, 0, 0);
    layer.recordFlip(1, stub("t.b", half - 1), 7, 1, 0);
    EXPECT_THROW(layer.recordFlip(2, stub("t.c", 1), 0, 0, 0),
                 std::length_error);
    // A field already seen still records; the ledger is intact.
    layer.recordFlip(0, stub("t.a", half), 3, 1, 0);
    EXPECT_EQ(layer.pendingWords(), 3u);

    ProtectionLayer other(config(ProtectionPolicy::ParityInvalidate));
    other.recordFlip(0, stub("t.a", half), 0, 0, 0);
    EXPECT_THROW(other.recordFlip(1, stub("t.b", half), 0, 0, 0),
                 std::length_error);
}

/**
 * The ledger as it was when every repair() pass sorted all of its
 * records by (field, element, arrival). Kept verbatim as the oracle
 * for ProtectionLayer, which sorts only the records added since the
 * last pass and merges them with the carried ones.
 */
class SortEverythingLayer
{
  public:
    explicit SortEverythingLayer(const ProtectionConfig &cfg) : cfg_(cfg)
    {
    }

    const robust::ProtectionStats &stats() const { return stats_; }

    void
    recordFlip(std::size_t field, const robust::StateField &state,
               std::size_t elem, unsigned bit, std::uint64_t before)
    {
        ++stats_.injectedFlips;
        if (field >= fields_.size())
            fields_.resize(field + 1);
        FieldSlot &slot = fields_[field];
        if (slot.elemsPerWord == 0)
            slot = {state, state.bits >= cfg_.wordBits
                               ? 1
                               : cfg_.wordBits / state.bits};
        records_.push_back({static_cast<std::uint32_t>(field),
                            static_cast<std::uint32_t>(records_.size()),
                            elem, before, std::uint64_t{1} << bit});
    }

    std::size_t
    pendingWords() const
    {
        std::vector<std::pair<std::uint32_t, std::uint64_t>> words;
        for (const FlipRecord &r : records_)
            words.emplace_back(r.field,
                               r.elem / fields_[r.field].elemsPerWord);
        std::sort(words.begin(), words.end());
        return static_cast<std::size_t>(
            std::unique(words.begin(), words.end()) - words.begin());
    }

    void
    repair(bool as_scrub)
    {
        ++stats_.repairEvents;
        if (as_scrub)
            ++stats_.scrubEvents;
        std::sort(records_.begin(), records_.end(),
                  [](const FlipRecord &a, const FlipRecord &b) {
                      if (a.field != b.field)
                          return a.field < b.field;
                      if (a.elem != b.elem)
                          return a.elem < b.elem;
                      return a.seq < b.seq;
                  });

        const std::size_t n = records_.size();
        std::size_t kept = 0;
        for (std::size_t i = 0; i < n;) {
            const std::uint32_t field = records_[i].field;
            const FieldSlot &slot = fields_[field];
            const std::uint64_t word =
                records_[i].elem / slot.elemsPerWord;
            const std::size_t start = i;
            std::size_t live = start;
            std::uint64_t corrupted = 0;
            while (i < n && records_[i].field == field &&
                   records_[i].elem / slot.elemsPerWord == word) {
                const std::uint64_t elem = records_[i].elem;
                std::uint64_t orig = 0, mask = 0;
                for (; i < n && records_[i].field == field &&
                       records_[i].elem == elem;
                     ++i) {
                    if (mask == 0)
                        orig = records_[i].before;
                    mask ^= records_[i].mask;
                }
                if (mask != 0 &&
                    robust::load(slot.state, elem) == (orig ^ mask)) {
                    records_[live++] = {field, 0, elem, orig, mask};
                    corrupted += popcount64(mask);
                } else {
                    ++stats_.launderedElements;
                }
            }
            if (corrupted == 0)
                continue;

            bool resolved = false;
            switch (cfg_.policy) {
              case ProtectionPolicy::None:
                resolved = true;
                break;
              case ProtectionPolicy::ParityInvalidate:
                if (corrupted % 2 == 1) {
                    invalidateWord(slot, word);
                    resolved = true;
                } else {
                    ++stats_.undetectedWords;
                }
                break;
              case ProtectionPolicy::SecdedCorrect:
              case ProtectionPolicy::Scrub:
                if (corrupted == 1) {
                    robust::store(slot.state, records_[start].elem,
                                  records_[start].before);
                    ++stats_.correctedBits;
                    resolved = true;
                } else if (corrupted == 2) {
                    invalidateWord(slot, word);
                    resolved = true;
                } else {
                    ++stats_.undetectedWords;
                }
                break;
            }
            if (!resolved)
                for (std::size_t r = start; r < live; ++r, ++kept) {
                    records_[kept] = records_[r];
                    records_[kept].seq = static_cast<std::uint32_t>(kept);
                }
        }
        records_.resize(kept);
    }

  private:
    struct FlipRecord
    {
        std::uint32_t field;
        std::uint32_t seq;
        std::uint64_t elem;
        std::uint64_t before;
        std::uint64_t mask;
    };
    struct FieldSlot
    {
        robust::StateField state;
        std::size_t elemsPerWord = 0;
    };

    void
    invalidateWord(const FieldSlot &slot, std::uint64_t word)
    {
        const std::size_t first = word * slot.elemsPerWord;
        const std::size_t last =
            std::min(first + slot.elemsPerWord, slot.state.count);
        for (std::size_t e = first; e < last; ++e)
            robust::store(slot.state, e, slot.state.resetValue);
        ++stats_.invalidatedWords;
        stats_.invalidatedElements += last - first;
    }

    ProtectionConfig cfg_;
    robust::ProtectionStats stats_;
    std::vector<FieldSlot> fields_;
    std::vector<FlipRecord> records_;
};

std::array<Counter, 8>
counters(const robust::ProtectionStats &s)
{
    return {s.injectedFlips,       s.correctedBits,
            s.invalidatedWords,    s.invalidatedElements,
            s.undetectedWords,     s.launderedElements,
            s.repairEvents,        s.scrubEvents};
}

/** One copy of the differential test's state: a packed PHT (which
 *  fill() resets a byte at a time), word arrays of widths 1, 2, 3,
 *  10, 16 and 64 (which it resets element by element), and a sparse
 *  byte field near the 2^32-element limit. Small counts, and flips in
 *  a few clusters of the sparse field, so flips pile up in the same
 *  words. */
struct LedgerState
{
    static constexpr std::size_t kSparse = 0xf0000000;
    static constexpr std::size_t kClusters[] = {0, 0x00ff0000,
                                                0x3f000000, 0xefff0000};
    static constexpr std::size_t kClusterSize = 24;

    explicit LedgerState(std::uint64_t seed)
    {
        static constexpr unsigned widths[] = {1, 2, 3, 10, 16, 64};
        static constexpr std::size_t counts[] = {70, 45, 30, 12, 8, 6};
        Rng rng(seed);
        for (std::size_t i = 0; i < pht.size(); ++i)
            pht.set(i, static_cast<std::uint8_t>(rng.nextRange(4)));
        fields.push_back(robust::packedCounterField("t.pht", pht));
        for (std::size_t k = 0; k < std::size(widths); ++k) {
            arrays[k].resize(counts[k]);
            for (std::uint64_t &v : arrays[k])
                v = rng.next() & loMask(widths[k]);
            fields.push_back(robust::wordArrayField(
                "t.w" + std::to_string(widths[k]), arrays[k],
                widths[k]));
        }
        // Its element ids reach the top byte of the ledger's 32-bit
        // ids, so the sort keys use the whole of their upper half.
        // The mapping only reserves address space: the clusters
        // touch a few zero-filled pages of it.
        void *p = mmap(nullptr, kSparse, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1,
                       0);
        if (p == MAP_FAILED)
            throw std::runtime_error("cannot reserve the sparse field");
        sparse = static_cast<std::uint8_t *>(p);
        fields.push_back({"t.sparse", robust::FieldKind::Uint8, sparse,
                          kSparse, 8, 1});
    }
    LedgerState(const LedgerState &) = delete;
    ~LedgerState() { munmap(sparse, kSparse); }

    /** A random element of field @p f. */
    std::size_t
    pick(std::size_t f, Rng &rng) const
    {
        if (f + 1 < fields.size())
            return rng.nextRange(fields[f].count);
        return kClusters[rng.nextRange(std::size(kClusters))] +
               rng.nextRange(kClusterSize);
    }

    /** Every element of every dense field, in walk order, then the
     *  sparse field's clusters. */
    std::vector<std::uint64_t>
    contents() const
    {
        std::vector<std::uint64_t> out;
        for (std::size_t f = 0; f + 1 < fields.size(); ++f)
            for (std::size_t e = 0; e < fields[f].count; ++e)
                out.push_back(robust::load(fields[f], e));
        for (const std::size_t first : kClusters)
            out.insert(out.end(), sparse + first,
                       sparse + first + kClusterSize);
        return out;
    }

    PackedPhtStorage pht{45, 1};
    std::vector<std::uint64_t> arrays[6];
    std::uint8_t *sparse = nullptr;
    std::vector<robust::StateField> fields;
};

/** Drives ProtectionLayer and the sort-everything oracle through the
 *  same seeded stream of flips, repeated flips, predictor writes and
 *  batched repair passes, comparing them after every pass. */
void
runDifferential(ProtectionPolicy policy, unsigned word_bits,
                std::uint64_t seed)
{
    const ProtectionConfig cfg = config(policy, word_bits);
    LedgerState mine(seed), ref(seed);
    ProtectionLayer layer(cfg);
    SortEverythingLayer oracle(cfg);
    Rng rng(seed * 7919 + word_bits);
    std::vector<std::tuple<std::size_t, std::size_t, unsigned>> flipped;

    const auto flip = [&](std::size_t f, std::size_t e, unsigned bit) {
        const robust::StateField &a = mine.fields[f];
        const robust::StateField &b = ref.fields[f];
        const std::uint64_t before = robust::load(a, e);
        ASSERT_EQ(before, robust::load(b, e));
        layer.recordFlip(f, a, e, bit, before);
        oracle.recordFlip(f, b, e, bit, before);
        robust::store(a, e, before ^ (std::uint64_t{1} << bit));
        robust::store(b, e, before ^ (std::uint64_t{1} << bit));
        flipped.emplace_back(f, e, bit);
    };

    const std::size_t nfields = mine.fields.size();
    for (int pass = 0; pass < 300; ++pass) {
        // Several injection events may land before one check, as
        // between scrub passes.
        const std::uint64_t events = 1 + rng.nextRange(4);
        for (std::uint64_t ev = 0; ev < events; ++ev) {
            const std::uint64_t flips = rng.nextRange(10);
            for (std::uint64_t k = 0; k < flips; ++k) {
                if (!flipped.empty() && rng.nextBool(0.2)) {
                    // The same bit again: the element's mask cancels.
                    const auto [f, e, bit] =
                        flipped[rng.nextRange(flipped.size())];
                    flip(f, e, bit);
                } else {
                    const std::size_t f = rng.nextRange(nfields);
                    flip(f, mine.pick(f, rng),
                         static_cast<unsigned>(
                             rng.nextRange(mine.fields[f].bits)));
                }
            }
            // The predictor trains between checks: a write launders
            // whatever corruption its element held.
            for (std::uint64_t w = rng.nextRange(3); w > 0; --w) {
                const std::size_t f = rng.nextRange(nfields);
                const std::size_t e = mine.pick(f, rng);
                const std::uint64_t v =
                    rng.next() & loMask(mine.fields[f].bits);
                robust::store(mine.fields[f], e, v);
                robust::store(ref.fields[f], e, v);
            }
        }
        if (flipped.size() > 64)
            flipped.erase(flipped.begin(), flipped.end() - 64);

        const bool as_scrub = policy == ProtectionPolicy::Scrub;
        layer.repair(as_scrub);
        oracle.repair(as_scrub);
        const std::string where = robust::protectionPolicyName(policy) +
                                  " W=" + std::to_string(word_bits) +
                                  " pass " + std::to_string(pass);
        ASSERT_EQ(counters(layer.stats()), counters(oracle.stats()))
            << where;
        ASSERT_EQ(layer.pendingWords(), oracle.pendingWords()) << where;
        ASSERT_EQ(mine.contents(), ref.contents()) << where;
    }

    // The stream must reach every outcome the policy has.
    const robust::ProtectionStats &s = layer.stats();
    EXPECT_GT(s.launderedElements, 0u);
    if (policy == ProtectionPolicy::ParityInvalidate) {
        EXPECT_GT(s.invalidatedWords, 0u);
        EXPECT_GT(s.undetectedWords, 0u);
    } else if (policy != ProtectionPolicy::None) {
        EXPECT_GT(s.correctedBits, 0u);
        EXPECT_GT(s.invalidatedWords, 0u);
        EXPECT_GT(s.undetectedWords, 0u);
    }
}

TEST(ProtectionLayer, MatchesTheSortEverythingLedger)
{
    // Word widths 13 and 32 give non-power-of-two elements per word
    // (6 two-bit, 13 one-bit, 10 three-bit elements); widths 16 and
    // 64 at W=13 are elements wider than their word.
    for (ProtectionPolicy policy : robust::allProtectionPolicies())
        for (unsigned word_bits : {13u, 32u, 64u})
            for (std::uint64_t seed : {1u, 2u}) {
                SCOPED_TRACE(robust::protectionPolicyName(policy) +
                             " W=" + std::to_string(word_bits) +
                             " seed " + std::to_string(seed));
                runDifferential(policy, word_bits, seed);
            }
}

TEST(ProtectedPredictor, RateZeroIsTransparent)
{
    const auto w = makeWorkload("176.gcc");
    const TraceBuffer trace = generateTrace(*w, 60000, 3);

    auto clean = makePredictor(PredictorKind::Gshare, 64 * 1024);
    const AccuracyResult base = runAccuracy(*clean, trace);

    robust::FaultPlan plan;
    plan.upsetRatePerBit = 0.0;
    // Build the inner at the FULL budget (not via the factory's
    // protected path) so accuracy is comparable bit for bit.
    robust::ProtectedPredictor pred(
        makePredictor(PredictorKind::Gshare, 64 * 1024), plan,
        config(ProtectionPolicy::SecdedCorrect));
    const AccuracyResult r = runAccuracy(pred, trace);

    EXPECT_EQ(r.mispredictions, base.mispredictions);
    EXPECT_EQ(pred.protectionStats().injectedFlips, 0u);
    EXPECT_EQ(pred.protectionStats().correctedBits, 0u);
}

TEST(ProtectedPredictor, SecdedRepairsAndIsDeterministic)
{
    const auto w = makeWorkload("186.crafty");
    const TraceBuffer trace = generateTrace(*w, 60000, 5);

    robust::FaultPlan plan;
    plan.upsetRatePerBit = 1e-3;
    plan.intervalBranches = 256;
    plan.seed = 99;

    AccuracyResult runs[2];
    robust::ProtectionStats stats[2];
    for (int i = 0; i < 2; ++i) {
        auto pred = makeProtectedPredictor(
            PredictorKind::Gshare, 64 * 1024,
            config(ProtectionPolicy::SecdedCorrect), plan);
        runs[i] = runAccuracy(*pred, trace);
        stats[i] = pred->protectionStats();
    }
    EXPECT_EQ(runs[0].mispredictions, runs[1].mispredictions);
    EXPECT_EQ(stats[0].injectedFlips, stats[1].injectedFlips);
    EXPECT_EQ(stats[0].correctedBits, stats[1].correctedBits);
    EXPECT_GT(stats[0].injectedFlips, 0u);
    // Checks run right after every injection event, so single-bit
    // words dominate and most flips get corrected.
    EXPECT_GT(stats[0].correctedBits, 0u);
    EXPECT_GT(stats[0].repairEvents, 0u);
    EXPECT_EQ(stats[0].scrubEvents, 0u);
}

TEST(ProtectedPredictor, ScrubRunsAtItsOwnCadence)
{
    const auto w = makeWorkload("176.gcc");
    const TraceBuffer trace = generateTrace(*w, 60000, 3);

    robust::FaultPlan plan;
    plan.upsetRatePerBit = 1e-3;
    plan.intervalBranches = 256;
    plan.seed = 7;
    ProtectionConfig cfg = config(ProtectionPolicy::Scrub);
    cfg.scrubIntervalBranches = 2048;

    auto pred = makeProtectedPredictor(PredictorKind::Gshare,
                                       64 * 1024, cfg, plan);
    runAccuracy(*pred, trace);
    const robust::ProtectionStats &s = pred->protectionStats();
    // One update per conditional branch, one scrub pass per full
    // interval; every repair pass is a scrub pass (scrubbing never
    // checks on access).
    EXPECT_GT(trace.condBranches(), 2048u);
    EXPECT_EQ(s.scrubEvents, trace.condBranches() / 2048);
    EXPECT_EQ(s.repairEvents, s.scrubEvents);
    EXPECT_GT(s.injectedFlips, 0u);
}

TEST(ProtectedPredictor, EventsAndScrubsFireOnTheirOwnCountdowns)
{
    // Injection every intervalBranches updates (never at 0), scrub
    // passes every 300 whatever the injection interval, and on-access
    // checks right after each injection. Pinned after every update.
    for (const Counter interval : {Counter{0}, Counter{1}, Counter{256}}) {
        robust::FaultPlan plan;
        plan.upsetRatePerBit = 1e-3;
        plan.intervalBranches = interval;
        ProtectionConfig scrub_cfg = config(ProtectionPolicy::Scrub);
        scrub_cfg.scrubIntervalBranches = 300;
        robust::ProtectedPredictor scrubbed(
            makePredictor(PredictorKind::Gshare, 1024), plan, scrub_cfg);
        robust::ProtectedPredictor checked(
            makePredictor(PredictorKind::Gshare, 1024), plan,
            config(ProtectionPolicy::SecdedCorrect));
        for (Counter u = 1; u <= 1000; ++u) {
            const Addr pc = 0x4000 + 4 * (u % 37);
            scrubbed.update(pc, u % 3 == 0);
            checked.update(pc, u % 3 == 0);
            const Counter events = interval == 0 ? 0 : u / interval;
            const std::string where = "interval " +
                                      std::to_string(interval) +
                                      ", update " + std::to_string(u);
            ASSERT_EQ(scrubbed.injector().events(), events) << where;
            ASSERT_EQ(scrubbed.protectionStats().scrubEvents, u / 300)
                << where;
            ASSERT_EQ(scrubbed.protectionStats().repairEvents, u / 300)
                << where;
            ASSERT_EQ(checked.injector().events(), events) << where;
            ASSERT_EQ(checked.protectionStats().repairEvents, events)
                << where;
            ASSERT_EQ(checked.protectionStats().scrubEvents, 0u) << where;
        }
    }
}

TEST(ProtectedPredictor, ExposedBitsStillMatchStorageBits)
{
    robust::FaultPlan plan;
    auto pred = makeProtectedPredictor(
        PredictorKind::Perceptron, 64 * 1024,
        config(ProtectionPolicy::SecdedCorrect), plan);

    std::size_t total = 0;
    class Counting : public robust::StateVisitor
    {
      public:
        explicit Counting(std::size_t &total) : total_(total) {}
        void
        visit(const robust::StateField &f) override
        {
            total_ += f.totalBits();
        }

      private:
        std::size_t &total_;
    } counter(total);
    pred->visitState(counter);
    EXPECT_EQ(total, pred->storageBits());
    // The check bits are the tax on top, not addressable state.
    EXPECT_GT(pred->protectionBitsTotal(), 0u);
    // The effective budget shrank to make room for them.
    EXPECT_LT(pred->storageBits(), 64u * 1024u * 8u);
}

TEST(ProtectedFactory, NonePolicyMatchesPlainLatency)
{
    for (PredictorKind kind :
         {PredictorKind::Gshare, PredictorKind::Perceptron,
          PredictorKind::MultiComponent}) {
        for (std::size_t budget : {16u * 1024u, 64u * 1024u}) {
            EXPECT_EQ(protectedPredictorLatencyCycles(
                          kind, budget,
                          config(ProtectionPolicy::None)),
                      predictorLatencyCycles(kind, budget))
                << kindName(kind) << " @ " << budget;
        }
    }
}

TEST(ProtectedFactory, LatencyReflectsBothTaxes)
{
    // The delay tax has two opposing parts: check logic adds FO4s,
    // but the shrunken effective table loses decode/wire FO4s. Both
    // must flow through; the net can go either way, so pin the
    // inputs instead of the sign — the protected geometry carries
    // check bits and the protected latency is within one cycle of
    // an explicitly-built equivalent.
    const std::size_t budget = 256 * 1024;
    const auto cfg = config(ProtectionPolicy::SecdedCorrect);
    const unsigned plain =
        predictorLatencyCycles(PredictorKind::Gshare, budget);
    const unsigned prot = protectedPredictorLatencyCycles(
        PredictorKind::Gshare, budget, cfg);
    const unsigned eff_plain = predictorLatencyCycles(
        PredictorKind::Gshare,
        robust::protectedEffectiveBudget(budget, cfg));
    // Protected latency is bounded by the two unprotected anchors:
    // at least the smaller table's bare latency, at most the full
    // table's latency plus the check logic (rounded up a cycle).
    EXPECT_GE(prot, eff_plain);
    EXPECT_LE(prot, plain + 1);
}

TEST(ProtectedFactory, FetchPredictorRunsUnderTiming)
{
    const auto w = makeWorkload("176.gcc");
    const TraceBuffer trace = generateTrace(*w, 30000, 3);

    robust::FaultPlan plan;
    plan.upsetRatePerBit = 1e-3;
    plan.intervalBranches = 256;
    plan.seed = 11;

    CoreConfig cfg;
    auto fp = makeProtectedFetchPredictor(
        PredictorKind::Gshare, 64 * 1024, DelayMode::Overriding,
        config(ProtectionPolicy::SecdedCorrect), plan);
    const SimResult r = runTiming(cfg, *fp, trace);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.instructions, 0u);
}

} // namespace
} // namespace bpsim
