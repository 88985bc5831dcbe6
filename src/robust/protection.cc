#include "robust/protection.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

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
ProtectionLayer::recordFlip(const StateField &field, std::size_t elem,
                            unsigned bit, std::uint64_t before)
{
    ++stats_.injectedFlips;
    const std::size_t word_idx = elem / elemsPerWord(field);
    WordRecord &word = ledger_[{field.name, word_idx}];
    if (!word.field.load)
        word.field = field;
    ElemRecord &rec = word.elems[elem];
    if (rec.mask == 0)
        rec.orig = before;
    rec.mask ^= std::uint64_t{1} << bit;
}

void
ProtectionLayer::invalidateWord(const WordRecord &word,
                                std::size_t word_idx)
{
    const std::size_t epw = elemsPerWord(word.field);
    const std::size_t first = word_idx * epw;
    const std::size_t last =
        std::min(first + epw, word.field.count);
    for (std::size_t e = first; e < last; ++e)
        word.field.store(e, word.field.resetValue);
    ++stats_.invalidatedWords;
    stats_.invalidatedElements += last - first;
}

void
ProtectionLayer::repair(bool as_scrub)
{
    ++stats_.repairEvents;
    if (as_scrub)
        ++stats_.scrubEvents;

    for (auto it = ledger_.begin(); it != ledger_.end();) {
        WordRecord &word = it->second;

        // An element the predictor overwrote since the flip was
        // re-encoded by that write: its recorded corruption is gone.
        std::map<std::size_t, ElemRecord> live;
        for (const auto &[elem, rec] : word.elems) {
            if (rec.mask != 0 &&
                word.field.load(elem) == (rec.orig ^ rec.mask))
                live.emplace(elem, rec);
            else
                ++stats_.launderedElements;
        }

        std::uint64_t corrupted = 0;
        for (const auto &[elem, rec] : live)
            corrupted += popcount64(rec.mask);

        if (corrupted == 0) {
            it = ledger_.erase(it);
            continue;
        }

        bool resolved = false;
        switch (cfg_.policy) {
          case ProtectionPolicy::None:
            // No checker; the ledger is unused under None.
            resolved = true;
            break;
          case ProtectionPolicy::ParityInvalidate:
            if (corrupted % 2 == 1) {
                invalidateWord(word, it->first.second);
                resolved = true;
            } else {
                // Even number of flipped bits: parity holds, the
                // corruption rides on. Keep the ledger so a later
                // odd flip in the word is still caught.
                ++stats_.undetectedWords;
            }
            break;
          case ProtectionPolicy::SecdedCorrect:
          case ProtectionPolicy::Scrub:
            if (corrupted == 1) {
                const auto &[elem, rec] = *live.begin();
                word.field.store(elem, rec.orig);
                ++stats_.correctedBits;
                resolved = true;
            } else if (corrupted == 2) {
                // Detected, uncorrectable: reset the word.
                invalidateWord(word, it->first.second);
                resolved = true;
            } else {
                // Three or more flips can alias a valid codeword;
                // the model counts them as undetected.
                ++stats_.undetectedWords;
            }
            break;
        }

        if (resolved) {
            it = ledger_.erase(it);
        } else {
            word.elems = std::move(live);
            ++it;
        }
    }
}

ProtectedPredictor::ProtectedPredictor(
    std::unique_ptr<DirectionPredictor> inner, const FaultPlan &plan,
    const ProtectionConfig &cfg)
    : inner_(std::move(inner)), layer_(cfg), injector_(plan)
{
    if (cfg.policy != ProtectionPolicy::None) {
        injector_.setFlipObserver(
            [this](const StateField &field, std::size_t elem,
                   unsigned bit, std::uint64_t before) {
                layer_.recordFlip(field, elem, bit, before);
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
        injector_.beginEvent();
        inner_->visitState(injector_);
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
