/**
 * @file
 * SRAM protection policies: parity, SEC-DED ECC and scrubbing over
 * the predictor state the fault injector bombards.
 *
 * The paper's thesis is that predictor *delay* dominates *accuracy*,
 * so a reliability story has to charge protection honestly on both
 * axes. Each policy here carries two taxes:
 *
 *  - a storage tax: check bits per protected word shrink the
 *    effective table budget (protectedEffectiveBudget(), used by the
 *    factory so a SEC-DED gshare at "64KB" really holds a smaller
 *    PHT plus its check bits);
 *  - a delay tax: parity/syndrome check logic on the read path adds
 *    FO4s (protectionCheckFo4(), folded into the CACTI-lite access
 *    time so protected predictors move on the fig1/fig7 axes).
 *    Scrubbing is off the access path and pays no read-side FO4s,
 *    trading a vulnerability window instead.
 *
 * Detection and repair are *modeled*, not bit-accurately encoded: the
 * ProtectionLayer records every flip the FaultInjector lands (same
 * seeded stream, via the flip observer) into a flat flip ledger and,
 * at check time, groups it by word and resolves each word the way
 * the real circuit would — parity detects an odd number of flipped
 * bits and can only invalidate; SEC-DED corrects one flipped bit,
 * detects-and-invalidates two, and is blind past that; scrubbing
 * applies SEC-DED semantics but only every scrubIntervalBranches
 * updates. An element the predictor has overwritten since its flip
 * was re-encoded by that write, so its ledger entry is dropped
 * ("laundered") rather than repaired. Everything is driven by the
 * injector's RNG, and each word resolves on its own elements alone,
 * so protected campaigns stay byte-reproducible from the seed.
 */

#ifndef BPSIM_ROBUST_PROTECTION_HH
#define BPSIM_ROBUST_PROTECTION_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "predictors/predictor.hh"
#include "robust/fault_injector.hh"
#include "robust/state_visitor.hh"

namespace bpsim::robust {

/** How (whether) predictor SRAM is protected. */
enum class ProtectionPolicy {
    None,             ///< unprotected (injection only)
    ParityInvalidate, ///< 1 parity bit/word; detect odd, reset word
    SecdedCorrect,    ///< SEC-DED ECC; fix 1, reset 2, blind past 2
    Scrub,            ///< SEC-DED applied only at scrub intervals
};

/** Stable printable name: "none", "parity", "secded", "scrub". */
std::string protectionPolicyName(ProtectionPolicy policy);

/** All policies, in a stable order. */
const std::vector<ProtectionPolicy> &allProtectionPolicies();

/** One protection configuration. */
struct ProtectionConfig
{
    ProtectionPolicy policy = ProtectionPolicy::None;
    /** Data bits per protected word (ECC granule). */
    unsigned wordBits = 64;
    /** Updates between scrub passes (Scrub policy only). */
    Counter scrubIntervalBranches = 2048;
};

/** SEC-DED check bits for a @p word_bits data word: the smallest r
 *  with 2^r >= word_bits + r + 1, plus the overall parity bit. */
unsigned secdedCheckBits(unsigned word_bits);

/** Check bits per protected word under @p cfg (0, 1 or SEC-DED's). */
unsigned protectionCheckBits(const ProtectionConfig &cfg);

/** Storage overhead as a fraction of data bits (checkBits/wordBits). */
double protectionStorageOverhead(const ProtectionConfig &cfg);

/** Check bits needed to cover @p data_bits of state under @p cfg. */
std::uint64_t protectionCheckBitsTotal(std::uint64_t data_bits,
                                       const ProtectionConfig &cfg);

/**
 * Data budget left after the check-bit tax: the largest data
 * capacity whose data + check bits fit in @p budget_bytes. The
 * factory builds protected predictors at this budget so the nominal
 * budget pays for the whole protected array.
 */
std::size_t protectedEffectiveBudget(std::size_t budget_bytes,
                                     const ProtectionConfig &cfg);

/**
 * Read-path check/correct logic in FO4 delays: an XOR tree over the
 * word for parity, syndrome decode plus the correction mux for
 * SEC-DED. Zero for None and Scrub (scrubbing is off the read path).
 */
double protectionCheckFo4(const ProtectionConfig &cfg);

/** What a protection layer did (all deterministic counters). */
struct ProtectionStats
{
    Counter injectedFlips = 0;     ///< flips recorded from the stream
    Counter correctedBits = 0;     ///< SEC-DED single-bit corrections
    Counter invalidatedWords = 0;  ///< words reset (parity/DED)
    Counter invalidatedElements = 0; ///< elements those resets wiped
    Counter undetectedWords = 0;   ///< corrupt words the code missed
    Counter launderedElements = 0; ///< overwritten before the check
    Counter repairEvents = 0;      ///< check/repair passes run
    Counter scrubEvents = 0;       ///< scrub passes (Scrub only)
};

/**
 * The detect/repair engine shared by the protected decorators.
 * Flips stream in through recordFlip() (wired to the FaultInjector's
 * observer); repair() then resolves every touched word per the
 * policy. Public so tests can drive exact flip patterns without RNG.
 *
 * The ledger is a flat list of fixed-size flip records. A field is
 * keyed by its ordinal in the injector's visitState() walk, which is
 * stable for one predictor, so one layer serves exactly one
 * predictor. Each record carries its element's word, computed once
 * when the flip is recorded. repair() puts the records in element
 * order (fields in the order of their first flip), arrivals in
 * order within an element; folds each element's flips into (value
 * before its first flip, XOR mask); resolves each word; and keeps
 * the live elements of words it could not resolve as records for
 * the next pass. Those carried records are already in order, so a
 * pass sorts only the records added since the last one and merges.
 */
class ProtectionLayer
{
  public:
    explicit ProtectionLayer(const ProtectionConfig &cfg);

    const ProtectionConfig &config() const { return cfg_; }
    const ProtectionStats &stats() const { return stats_; }

    /** Record one injected flip in element @p elem of @p state, the
     *  field at ordinal @p field of the walk (element value @p before
     *  the flip). The first flip at an ordinal keeps its StateField,
     *  whose accessors alias the predictor's storage. */
    void recordFlip(std::size_t field, const StateField &state,
                    std::size_t elem, unsigned bit, std::uint64_t before);

    /**
     * Resolve every ledgered word: drop laundered elements, then
     * correct / invalidate / miss per the policy. @p as_scrub only
     * tags the pass in the stats.
     */
    void repair(bool as_scrub = false);

    /** Words currently ledgered as (possibly) corrupt. */
    std::size_t pendingWords() const;

  private:
    /** One flip, or one live element carried over from a repair. */
    struct FlipRecord
    {
        std::uint32_t field; ///< ordinal in the injection walk
        std::uint32_t word;  ///< elem's protected word in the field
        std::uint64_t elem;
        std::uint64_t before; ///< value before this flip (carried:
                              ///< before the element's first flip)
        std::uint64_t mask;   ///< bits this record flips
    };
    /** A field's accessors, kept once, and its elements per word. */
    struct FieldSlot
    {
        StateField state;
        std::size_t elemsPerWord = 0; ///< 0 until the field is seen
        std::uint64_t firstId = 0; ///< ledger-order id of element 0
    };

    std::size_t elemsPerWord(const StateField &field) const;
    void invalidateWord(const FieldSlot &slot, std::uint64_t word);

    ProtectionConfig cfg_;
    ProtectionStats stats_;
    std::vector<FieldSlot> fields_; ///< indexed by walk ordinal
    std::uint64_t nextId_ = 0;      ///< firstId of the next field seen
    /** The ledger: carried records, in order, then new ones. */
    std::vector<FlipRecord> records_;
    std::size_t carried_ = 0; ///< records_[0, carried_) are carried
    // Per-pass scratch, kept so a pass does not allocate.
    std::vector<std::uint64_t> keys_; ///< new records' keys
    std::vector<FlipRecord> carry_; ///< records the pass keeps
};

/**
 * Direction-predictor decorator combining injection and protection:
 * every plan.intervalBranches updates one injection event bombards
 * the inner predictor (flips recorded into the ProtectionLayer), and
 * the policy's check runs right after (parity/SEC-DED are on the
 * access path) or every cfg.scrubIntervalBranches updates (Scrub).
 * Policy None degenerates to plain injection. storageBits() stays
 * the inner predictor's — check bits are not addressable state (see
 * protectionBitsTotal() for the tax) — so the exposed-bits ==
 * storageBits() invariant holds for the wrapper too.
 */
class ProtectedPredictor : public DirectionPredictor
{
  public:
    ProtectedPredictor(std::unique_ptr<DirectionPredictor> inner,
                       const FaultPlan &plan,
                       const ProtectionConfig &cfg);

    std::string name() const override { return inner_->name(); }
    std::size_t storageBits() const override
    {
        return inner_->storageBits();
    }
    bool predict(Addr pc) override { return inner_->predict(pc); }
    void update(Addr pc, bool taken) override;
    std::vector<PredictorStat> describeStats() const override;
    void visitState(StateVisitor &v) override
    {
        inner_->visitState(v);
    }

    const FaultInjector &injector() const { return injector_; }
    const ProtectionStats &protectionStats() const
    {
        return layer_.stats();
    }
    const ProtectionConfig &protectionConfig() const
    {
        return layer_.config();
    }
    /** Check bits covering the inner predictor's state. */
    std::uint64_t protectionBitsTotal() const;
    DirectionPredictor &inner() { return *inner_; }

  private:
    std::unique_ptr<DirectionPredictor> inner_;
    ProtectionLayer layer_;
    FaultInjector injector_;
    Counter toInject_; ///< updates left to the next injection (0: never)
    Counter toScrub_;  ///< updates left to the next scrub (0: never)
};

} // namespace bpsim::robust

#endif // BPSIM_ROBUST_PROTECTION_HH
