#include "robust/protection.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "common/bitutil.hh"

namespace bpsim::robust {

std::string
protectionPolicyName(ProtectionPolicy policy)
{
    switch (policy) {
      case ProtectionPolicy::None:
        return "none";
      case ProtectionPolicy::ParityInvalidate:
        return "parity";
      case ProtectionPolicy::SecdedCorrect:
        return "secded";
      case ProtectionPolicy::Scrub:
        return "scrub";
    }
    return "unknown";
}

const std::vector<ProtectionPolicy> &
allProtectionPolicies()
{
    static const std::vector<ProtectionPolicy> policies = {
        ProtectionPolicy::None,
        ProtectionPolicy::ParityInvalidate,
        ProtectionPolicy::SecdedCorrect,
        ProtectionPolicy::Scrub,
    };
    return policies;
}

unsigned
secdedCheckBits(unsigned word_bits)
{
    assert(word_bits >= 1);
    unsigned r = 1;
    while ((std::uint64_t{1} << r) < std::uint64_t{word_bits} + r + 1)
        ++r;
    return r + 1; // Hamming bits plus the overall (DED) parity bit.
}

unsigned
protectionCheckBits(const ProtectionConfig &cfg)
{
    switch (cfg.policy) {
      case ProtectionPolicy::None:
        return 0;
      case ProtectionPolicy::ParityInvalidate:
        return 1;
      case ProtectionPolicy::SecdedCorrect:
      case ProtectionPolicy::Scrub:
        return secdedCheckBits(cfg.wordBits);
    }
    return 0;
}

double
protectionStorageOverhead(const ProtectionConfig &cfg)
{
    return static_cast<double>(protectionCheckBits(cfg)) /
           static_cast<double>(cfg.wordBits);
}

std::uint64_t
protectionCheckBitsTotal(std::uint64_t data_bits,
                         const ProtectionConfig &cfg)
{
    const unsigned check = protectionCheckBits(cfg);
    if (check == 0 || data_bits == 0)
        return 0;
    const std::uint64_t words =
        (data_bits + cfg.wordBits - 1) / cfg.wordBits;
    return words * check;
}

std::size_t
protectedEffectiveBudget(std::size_t budget_bytes,
                         const ProtectionConfig &cfg)
{
    const unsigned check = protectionCheckBits(cfg);
    if (check == 0)
        return budget_bytes;
    // Each wordBits of data carries `check` extra bits; scale the
    // data share of the budget accordingly.
    const std::size_t eff =
        static_cast<std::size_t>(static_cast<std::uint64_t>(
                                     budget_bytes) *
                                 cfg.wordBits /
                                 (cfg.wordBits + check));
    return std::max<std::size_t>(eff, 64);
}

double
protectionCheckFo4(const ProtectionConfig &cfg)
{
    switch (cfg.policy) {
      case ProtectionPolicy::None:
      case ProtectionPolicy::Scrub:
        // Scrubbing runs in the background; the read path is bare.
        return 0.0;
      case ProtectionPolicy::ParityInvalidate: {
        // XOR tree over word + parity bit: log2 depth, ~half an FO4
        // per XOR2 level.
        const double levels = std::ceil(std::log2(cfg.wordBits + 1.0));
        return 0.5 * levels;
      }
      case ProtectionPolicy::SecdedCorrect: {
        // Syndrome XOR tree plus decode and the correction mux.
        const double levels = std::ceil(std::log2(cfg.wordBits + 1.0));
        return 0.5 * levels + 3.0;
      }
    }
    return 0.0;
}

ProtectionLayer::ProtectionLayer(const ProtectionConfig &cfg)
    : cfg_(cfg)
{
    assert(cfg_.wordBits >= 1 && cfg_.wordBits <= 64);
}

std::size_t
ProtectionLayer::elemsPerWord(const StateField &field) const
{
    // Elements wider than the ECC word get a word of their own.
    if (field.bits >= cfg_.wordBits)
        return 1;
    return cfg_.wordBits / field.bits;
}

void
ProtectionLayer::recordFlip(std::size_t field, const StateField &state,
                            std::size_t elem, unsigned bit,
                            std::uint64_t before)
{
    ++stats_.injectedFlips;
    if (field >= fields_.size())
        fields_.resize(field + 1);
    FieldSlot &slot = fields_[field];
    if (slot.elemsPerWord == 0)
        slot = {state, elemsPerWord(state)};
    assert(slot.state.count == state.count &&
           slot.state.bits == state.bits);
    records_.push_back({static_cast<std::uint32_t>(field),
                        static_cast<std::uint32_t>(records_.size()),
                        elem, before, std::uint64_t{1} << bit});
}

std::size_t
ProtectionLayer::pendingWords() const
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
ProtectionLayer::invalidateWord(const FieldSlot &slot,
                                std::uint64_t word)
{
    const std::size_t first = word * slot.elemsPerWord;
    const std::size_t last =
        std::min(first + slot.elemsPerWord, slot.state.count);
    for (std::size_t e = first; e < last; ++e)
        slot.state.store(e, slot.state.resetValue);
    ++stats_.invalidatedWords;
    stats_.invalidatedElements += last - first;
}

void
ProtectionLayer::repair(bool as_scrub)
{
    ++stats_.repairEvents;
    if (as_scrub)
        ++stats_.scrubEvents;

    // Group by (field, word), each element's records in arrival
    // order. Words touch disjoint elements and the stats are sums, so
    // the order words resolve in changes nothing.
    std::sort(records_.begin(), records_.end(),
              [](const FlipRecord &a, const FlipRecord &b) {
                  if (a.field != b.field)
                      return a.field < b.field;
                  if (a.elem != b.elem)
                      return a.elem < b.elem;
                  return a.seq < b.seq;
              });

    const std::size_t n = records_.size();
    std::size_t kept = 0; // carried records, compacted to the front
    for (std::size_t i = 0; i < n;) {
        const std::uint32_t field = records_[i].field;
        const FieldSlot &slot = fields_[field];
        const std::uint64_t word = records_[i].elem / slot.elemsPerWord;

        // Fold each element's records into (value before its first
        // flip, XOR mask), as they arrived; a mask that cancels to
        // zero restarts the element at its next flip. Live elements
        // are written back in place from the word's first record.
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
            // An element the predictor overwrote since the flip was
            // re-encoded by that write: its corruption is gone.
            if (mask != 0 && slot.state.load(elem) == (orig ^ mask)) {
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
            // No checker; the ledger is unused under None.
            resolved = true;
            break;
          case ProtectionPolicy::ParityInvalidate:
            if (corrupted % 2 == 1) {
                invalidateWord(slot, word);
                resolved = true;
            } else {
                // Even number of flipped bits: parity holds, the
                // corruption rides on. Keep the records so a later
                // odd flip in the word is still caught.
                ++stats_.undetectedWords;
            }
            break;
          case ProtectionPolicy::SecdedCorrect:
          case ProtectionPolicy::Scrub:
            if (corrupted == 1) {
                // One live element with one flipped bit.
                slot.state.store(records_[start].elem,
                                 records_[start].before);
                ++stats_.correctedBits;
                resolved = true;
            } else if (corrupted == 2) {
                // Detected, uncorrectable: reset the word.
                invalidateWord(slot, word);
                resolved = true;
            } else {
                // Three or more flips can alias a valid codeword;
                // the model counts them as undetected.
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

ProtectedPredictor::ProtectedPredictor(
    std::unique_ptr<DirectionPredictor> inner, const FaultPlan &plan,
    const ProtectionConfig &cfg)
    : inner_(std::move(inner)), layer_(cfg), injector_(plan)
{
    if (cfg.policy != ProtectionPolicy::None) {
        injector_.setFlipObserver(
            [this](std::size_t field, const StateField &state,
                   std::size_t elem, unsigned bit, std::uint64_t before) {
                layer_.recordFlip(field, state, elem, bit, before);
            });
    }
}

void
ProtectedPredictor::update(Addr pc, bool taken)
{
    inner_->update(pc, taken);
    ++updates_;

    const Counter interval = injector_.plan().intervalBranches;
    if (interval > 0 && updates_ % interval == 0) {
        injector_.inject(*inner_);
        const ProtectionPolicy policy = layer_.config().policy;
        if (policy == ProtectionPolicy::ParityInvalidate ||
            policy == ProtectionPolicy::SecdedCorrect) {
            // On-access protection: the very next read of a flipped
            // word would hit the checker, so model the check as
            // immediate.
            layer_.repair();
        }
    }

    if (layer_.config().policy == ProtectionPolicy::Scrub) {
        const Counter scrub = layer_.config().scrubIntervalBranches;
        if (scrub > 0 && updates_ % scrub == 0)
            layer_.repair(/*as_scrub=*/true);
    }
}

std::vector<PredictorStat>
ProtectedPredictor::describeStats() const
{
    std::vector<PredictorStat> stats = inner_->describeStats();
    const ProtectionStats &p = layer_.stats();
    stats.push_back({"robust.faults.flips",
                     static_cast<double>(injector_.flips())});
    stats.push_back({"robust.faults.events",
                     static_cast<double>(injector_.events())});
    stats.push_back({"robust.protect.corrected_bits",
                     static_cast<double>(p.correctedBits)});
    stats.push_back({"robust.protect.invalidated_words",
                     static_cast<double>(p.invalidatedWords)});
    stats.push_back({"robust.protect.undetected_words",
                     static_cast<double>(p.undetectedWords)});
    stats.push_back({"robust.protect.laundered_elements",
                     static_cast<double>(p.launderedElements)});
    stats.push_back({"robust.protect.scrub_events",
                     static_cast<double>(p.scrubEvents)});
    stats.push_back({"robust.protect.check_bits",
                     static_cast<double>(protectionBitsTotal())});
    return stats;
}

std::uint64_t
ProtectedPredictor::protectionBitsTotal() const
{
    return protectionCheckBitsTotal(inner_->storageBits(),
                                    layer_.config());
}

} // namespace bpsim::robust
