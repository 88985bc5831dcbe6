#include "robust/fault_injector.hh"

#include <cmath>
#include <stdexcept>

namespace bpsim::robust {

namespace {

bool
hasPrefix(const std::string &name, const std::string &prefix)
{
    return !prefix.empty() &&
           name.compare(0, prefix.size(), prefix) == 0;
}

/** The plan's targeting, for messages: "every field", or its
 *  prefixes (as `prefix*`) and exact names, comma-separated. */
std::string
describeTargets(const FaultPlan &plan)
{
    std::string out;
    const auto add = [&out](const std::string &target) {
        out += (out.empty() ? "" : ", ") + target;
    };
    if (!plan.targetPrefix.empty())
        add(plan.targetPrefix + "*");
    for (const std::string &p : plan.targetPrefixes)
        add(p + "*");
    for (const std::string &f : plan.targetFields)
        add(f);
    return out.empty() ? "every field" : out;
}

} // namespace

bool
FaultPlan::matches(const std::string &field_name) const
{
    if (targetPrefix.empty() && targetPrefixes.empty() &&
        targetFields.empty())
        return true;
    if (hasPrefix(field_name, targetPrefix))
        return true;
    for (const std::string &p : targetPrefixes)
        if (hasPrefix(field_name, p))
            return true;
    for (const std::string &f : targetFields)
        if (field_name == f)
            return true;
    return false;
}

FaultInjector::FaultInjector(const FaultPlan &plan)
    : plan_(plan), rng_(plan.seed)
{
}

std::size_t
FaultInjector::sampleFlipCount(std::size_t total_bits)
{
    const double lambda =
        plan_.upsetRatePerBit * static_cast<double>(total_bits);
    if (lambda <= 0.0)
        return 0;

    std::size_t n;
    if (lambda < 32.0) {
        // Knuth: multiply uniforms until the product drops below
        // e^-lambda. Exact Poisson, O(lambda) draws.
        const double limit = std::exp(-lambda);
        double prod = rng_.nextDouble();
        n = 0;
        while (prod > limit) {
            prod *= rng_.nextDouble();
            ++n;
        }
    } else {
        // Gaussian approximation for large means; the study sweeps
        // care about the expected flip mass, not tail exactness.
        const double g =
            lambda + std::sqrt(lambda) * rng_.nextGaussian();
        n = g <= 0.0 ? 0 : static_cast<std::size_t>(g + 0.5);
    }
    return n < total_bits ? n : total_bits;
}

void
FaultInjector::throwNothingMatched() const
{
    throw std::invalid_argument(
        "fault injection event matched no state field (targets: " +
        describeTargets(plan_) + "; " + std::to_string(fieldOrdinal_) +
        " field(s) exposed)");
}

void
FaultInjector::visit(const StateField &field)
{
    const std::size_t ordinal = fieldOrdinal_++;
    if (!plan_.matches(field.name))
        return;
    ++fieldsMatched_;

    const std::size_t total = field.totalBits();
    if (total == 0)
        return;
    bitsVisited_ += total;

    const std::size_t n = sampleFlipCount(total);
    for (std::size_t k = 0; k < n; ++k) {
        const std::uint64_t pos = rng_.nextRange(total);
        const std::size_t elem =
            static_cast<std::size_t>(pos / field.bits);
        const unsigned bit = static_cast<unsigned>(pos % field.bits);
        const std::uint64_t before = field.load(elem);
        if (observer_)
            observer_(ordinal, field, elem, bit, before);
        field.store(elem, before ^ (std::uint64_t{1} << bit));
    }
    flips_ += n;
    if (n)
        flipsByField_[field.name] += n;
}

FaultInjectingPredictor::FaultInjectingPredictor(
    std::unique_ptr<DirectionPredictor> inner, const FaultPlan &plan)
    : inner_(std::move(inner)),
      injector_(plan),
      toInject_(plan.intervalBranches)
{
}

void
FaultInjectingPredictor::update(Addr pc, bool taken)
{
    inner_->update(pc, taken);
    if (toInject_ != 0 && --toInject_ == 0) {
        toInject_ = injector_.plan().intervalBranches;
        injector_.inject(*inner_);
    }
}

std::vector<PredictorStat>
FaultInjectingPredictor::describeStats() const
{
    std::vector<PredictorStat> stats = inner_->describeStats();
    stats.push_back({"robust.faults.flips",
                     static_cast<double>(injector_.flips())});
    stats.push_back({"robust.faults.events",
                     static_cast<double>(injector_.events())});
    stats.push_back({"robust.faults.upset_rate_per_bit",
                     injector_.plan().upsetRatePerBit});
    return stats;
}

FaultInjectingFetchPredictor::FaultInjectingFetchPredictor(
    std::unique_ptr<FetchPredictor> inner, const FaultPlan &plan)
    : inner_(std::move(inner)),
      injector_(plan),
      toInject_(plan.intervalBranches)
{
}

void
FaultInjectingFetchPredictor::update(Addr pc, bool taken)
{
    inner_->update(pc, taken);
    if (toInject_ != 0 && --toInject_ == 0) {
        toInject_ = injector_.plan().intervalBranches;
        injector_.inject(*inner_);
    }
}

std::vector<PredictorStat>
FaultInjectingFetchPredictor::describeStats() const
{
    std::vector<PredictorStat> stats = inner_->describeStats();
    stats.push_back({"robust.faults.flips",
                     static_cast<double>(injector_.flips())});
    stats.push_back({"robust.faults.events",
                     static_cast<double>(injector_.events())});
    return stats;
}

} // namespace bpsim::robust
