#include "analysis/branch_profile.hh"

#include <algorithm>
#include <cmath>

namespace bpsim {

double
SiteStats::entropyBits() const
{
    const double p = takenRate();
    if (p <= 0.0 || p >= 1.0)
        return 0.0;
    return -(p * std::log2(p) + (1.0 - p) * std::log2(1.0 - p));
}

void
BranchProfile::observe(Addr pc, bool taken)
{
    SiteStats &s = sites_[pc];
    s.pc = pc;
    ++s.executions;
    s.taken += taken ? 1 : 0;
    ++dynamic_;
    taken_ += taken ? 1 : 0;
}

double
BranchProfile::takenFraction() const
{
    return dynamic_ ? static_cast<double>(taken_) /
                          static_cast<double>(dynamic_)
                    : 0.0;
}

double
BranchProfile::meanSiteEntropyBits() const
{
    if (dynamic_ == 0)
        return 0.0;
    double acc = 0.0;
    for (const auto &[pc, s] : sites_)
        acc += s.entropyBits() * static_cast<double>(s.executions);
    return acc / static_cast<double>(dynamic_);
}

double
BranchProfile::biasedFraction(double b) const
{
    if (dynamic_ == 0)
        return 0.0;
    Counter n = 0;
    for (const auto &[pc, s] : sites_)
        if (s.bias() >= b)
            n += s.executions;
    return static_cast<double>(n) / static_cast<double>(dynamic_);
}

std::vector<SiteStats>
BranchProfile::hottestSites(std::size_t n) const
{
    std::vector<SiteStats> v;
    v.reserve(sites_.size());
    for (const auto &[pc, s] : sites_)
        v.push_back(s);
    std::sort(v.begin(), v.end(),
              [](const SiteStats &a, const SiteStats &b) {
                  return a.executions > b.executions;
              });
    if (v.size() > n)
        v.resize(n);
    return v;
}

SiteStats
BranchProfile::site(Addr pc) const
{
    const auto it = sites_.find(pc);
    return it == sites_.end() ? SiteStats{pc, 0, 0} : it->second;
}

BranchProfile
profileTrace(const TraceBuffer &trace)
{
    BranchProfile p;
    const BranchSpan view = trace.branchView();
    for (std::size_t i = 0; i < view.size(); ++i)
        p.observe(view.pc(i), view.taken(i));
    return p;
}

void
MispredictProfile::observe(Addr pc, bool mispredicted)
{
    Cell &c = cells_[pc];
    ++c.executions;
    c.misses += mispredicted ? 1 : 0;
    ++branches_;
    mispredicts_ += mispredicted ? 1 : 0;
}

double
MispredictProfile::percent() const
{
    return branches_ ? 100.0 * static_cast<double>(mispredicts_) /
                           static_cast<double>(branches_)
                     : 0.0;
}

std::vector<MispredictProfile::SiteMisses>
MispredictProfile::topOffenders(std::size_t n) const
{
    std::vector<SiteMisses> v;
    v.reserve(cells_.size());
    for (const auto &[pc, c] : cells_) {
        SiteMisses m;
        m.pc = pc;
        m.executions = c.executions;
        m.misses = c.misses;
        m.shareOfAllMisses =
            mispredicts_ ? static_cast<double>(c.misses) /
                               static_cast<double>(mispredicts_)
                         : 0.0;
        v.push_back(m);
    }
    std::sort(v.begin(), v.end(),
              [](const SiteMisses &a, const SiteMisses &b) {
                  return a.misses > b.misses;
              });
    if (v.size() > n)
        v.resize(n);
    return v;
}

} // namespace bpsim
