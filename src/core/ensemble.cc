#include "core/ensemble.hh"

#include <cstdlib>
#include <cstring>
#include <optional>
#include <typeinfo>

#include "common/bitutil.hh"
#include "common/vec_kernels.hh"
#include "core/dispatch.hh"
#include "predictors/multicomponent.hh"
#include "predictors/perceptron.hh"
#include "robust/fault_injector.hh"
#include "robust/protection.hh"

namespace bpsim {

namespace {

/**
 * One wrapper's post-update tail, to be re-fired per member inside
 * the batched loop. Kept std::function-free: a two-way kind switch
 * over the stock robustness decorators, both resolved to direct
 * (inlineable) calls on the concrete wrapper type.
 */
struct ReplayHook
{
    enum class Kind : std::uint8_t { Fault, Protect };

    Kind kind;
    void *wrapper;

    void
    fire() const
    {
        if (kind == Kind::Fault)
            static_cast<robust::FaultInjectingPredictor *>(wrapper)
                ->afterInnerUpdate();
        else
            static_cast<robust::ProtectedPredictor *>(wrapper)
                ->afterInnerUpdate();
    }
};

/**
 * Peel the stock robustness decorators off @p p and return the
 * innermost predictor. Each peeled wrapper appends its post-update
 * hook to @p hooks (outermost first — callers fire them in reverse,
 * matching the nested update() call order: innermost tail first)
 * when @p hooks is non-null.
 */
DirectionPredictor *
unwrapDirection(DirectionPredictor *p, std::vector<ReplayHook> *hooks)
{
    for (;;) {
        if (auto *f =
                dynamic_cast<robust::FaultInjectingPredictor *>(p)) {
            if (hooks)
                hooks->push_back({ReplayHook::Kind::Fault, f});
            p = &f->inner();
            continue;
        }
        if (auto *pr = dynamic_cast<robust::ProtectedPredictor *>(p)) {
            if (hooks)
                hooks->push_back({ReplayHook::Kind::Protect, pr});
            p = &pr->inner();
            continue;
        }
        return p;
    }
}

/**
 * The generic batched loop, blocked member-major: each member
 * replays a block of branches before the next member starts on it.
 * Members are fully independent (each step reads and writes only
 * that member's state plus the read-only trace), so any interleaving
 * produces bit-identical counters and final state; this one is
 * chosen for cache behaviour. Branch-major order cycles the
 * *combined* table working set of the whole group through the cache
 * on every branch — for a nine-budget family that sum exceeds L2
 * and every PHT probe pays an LLC round trip. Member-major over a
 * block keeps one member's tables resident while the block's slice
 * of the trace columns stays hot in L1. Instantiated per concrete
 * (final) predictor type so the member step inlines.
 */
template <typename Pred>
std::vector<AccuracyResult>
genericEnsembleLoop(const std::vector<Pred *> &members,
                    const BranchSpan &view)
{
    // 16K branches: the trace slice is 16K * 9 bytes, well inside
    // L1+L2, and long enough that switching members' table sets is
    // amortized over the block.
    constexpr std::size_t kBlock = 16384;
    const std::size_t width = members.size();
    const std::size_t n = view.size();
    const Addr *pcs = view.pcData();
    const std::uint8_t *takens = view.takenData();
    std::vector<Counter> misp(width, 0);
    for (std::size_t base = 0; base < n; base += kBlock) {
        const std::size_t end = std::min(n, base + kBlock);
        for (std::size_t j = 0; j < width; ++j) {
            Pred *const p = members[j];
            Counter m = 0;
            for (std::size_t i = base; i < end; ++i) {
                const bool taken = takens[i] != 0;
                const bool predicted = p->predict(pcs[i]);
                p->update(pcs[i], taken);
                m += predicted != taken ? 1 : 0;
            }
            misp[j] += m;
        }
    }
    std::vector<AccuracyResult> results(width);
    for (std::size_t j = 0; j < width; ++j) {
        results[j].branches = static_cast<Counter>(n);
        results[j].mispredictions = misp[j];
    }
    return results;
}

/**
 * The mixed-wrapper variant of the generic loop: members share one
 * inner concrete type (predict/update inline as usual) but may carry
 * per-member wrapper hooks, fired after every update exactly where
 * the serial wrapper.update() would have fired them. A member's
 * hooks read and mutate only that member's own wrapper state
 * (injector RNG, update counters, protection ledger) and the
 * member's own inner predictor, so the member-major block order
 * produces the identical flip/repair stream per member as a serial
 * run. Members without hooks (bare cells sharing a group with
 * protected siblings) take the plain tight loop per block.
 */
template <typename Pred>
std::vector<AccuracyResult>
hookedEnsembleLoop(const std::vector<Pred *> &inners,
                   const std::vector<std::vector<ReplayHook>> &hooks,
                   const BranchSpan &view)
{
    constexpr std::size_t kBlock = 16384;
    const std::size_t width = inners.size();
    const std::size_t n = view.size();
    const Addr *pcs = view.pcData();
    const std::uint8_t *takens = view.takenData();
    std::vector<Counter> misp(width, 0);
    for (std::size_t base = 0; base < n; base += kBlock) {
        const std::size_t end = std::min(n, base + kBlock);
        for (std::size_t j = 0; j < width; ++j) {
            Pred *const p = inners[j];
            const ReplayHook *hb = hooks[j].data();
            const std::size_t nh = hooks[j].size();
            Counter m = 0;
            if (nh == 0) {
                for (std::size_t i = base; i < end; ++i) {
                    const bool taken = takens[i] != 0;
                    const bool predicted = p->predict(pcs[i]);
                    p->update(pcs[i], taken);
                    m += predicted != taken ? 1 : 0;
                }
            } else {
                for (std::size_t i = base; i < end; ++i) {
                    const bool taken = takens[i] != 0;
                    const bool predicted = p->predict(pcs[i]);
                    p->update(pcs[i], taken);
                    // Innermost wrapper's tail first (hooks are
                    // collected outermost-first), matching the
                    // nested update() unwind order.
                    for (std::size_t k = nh; k-- > 0;)
                        hb[k].fire();
                    m += predicted != taken ? 1 : 0;
                }
            }
            misp[j] += m;
        }
    }
    std::vector<AccuracyResult> results(width);
    for (std::size_t j = 0; j < width; ++j) {
        results[j].branches = static_cast<Counter>(n);
        results[j].mispredictions = misp[j];
    }
    return results;
}

} // namespace

/**
 * Specialized perceptron group kernel (friend of
 * PerceptronPredictor).
 *
 * Same-family perceptron members see the identical update stream, so
 * their global history registers and local history tables evolve
 * identically (the factory gives every budget the same local
 * geometry). The kernel exploits that: it maintains ONE shared ±1
 * global input array and ONE shared local history table, computes
 * the per-branch input vector once, and each member only pays its
 * own dot product and (conditional) training sweep — the fillInputs
 * pass that dominated the serial per-member cost is amortized across
 * the group. Member weight tables stay fully independent, and the
 * shared history state is written back to every member at the end,
 * so final member state matches a serial run bit for bit. (The one
 * exception is the inputs_ scratch vector, which is dead state — it
 * is never read before being overwritten and is not exposed by
 * visitState/describeStats.)
 *
 * Preconditions, checked by tryRun (falls back to the generic loop
 * when violated): every member fresh (all-zero histories, so the
 * shared state can start from zero), and every member that has a
 * local component sharing the same local geometry (members without
 * one — the small budgets — just skip the local term).
 */
struct PerceptronBatch
{
    static std::optional<std::vector<AccuracyResult>>
    tryRun(const std::vector<PerceptronPredictor *> &members,
           const BranchSpan &view)
    {
        // Members without a local component (small budgets) just
        // skip the local term; every member that has one must share
        // its geometry so the one local-history table serves all.
        unsigned lb = 0;
        std::size_t localMask = 0;
        unsigned maxGb = 0;
        for (const PerceptronPredictor *p : members) {
            if (p->localBits_ > 0) {
                if (lb == 0) {
                    lb = p->localBits_;
                    localMask = p->localMask_;
                } else if (p->localBits_ != lb ||
                           p->localMask_ != localMask) {
                    return std::nullopt;
                }
            }
            if (!(p->globalHistory_ ==
                  HistoryRegister(p->globalBits_)))
                return std::nullopt;
            for (std::uint64_t lh : p->localHistories_)
                if (lh != 0)
                    return std::nullopt;
            if (p->lastOutput_ != 0)
                return std::nullopt;
            maxGb = std::max(maxGb, p->globalBits_);
        }
        return run(members, view, maxGb, lb, localMask);
    }

  private:
    static std::vector<AccuracyResult>
    run(const std::vector<PerceptronPredictor *> &members,
        const BranchSpan &view, unsigned maxGb, unsigned lb,
        std::size_t localMask)
    {
        const std::size_t width = members.size();

        // Shared history state: xw[i] is the ±1 input for global
        // history bit i (newest first), lh the one local-history
        // table every member with a local component would have
        // computed identically. The global inputs live in a
        // double-length sliding window: inserting the newest bit is
        // one decrement-and-store, and only when the window hits the
        // buffer's front is it relocated — an amortized two bytes
        // per branch instead of shifting all maxGb entries each
        // time.
        std::vector<std::int16_t> xbuf(2 * std::size_t{maxGb}, -1);
        std::size_t xpos = maxGb;
        std::vector<std::int16_t> lx(lb, 0);
        std::vector<std::uint64_t> lh(lb > 0 ? localMask + 1 : 0, 0);

        // Per-member hot fields, unpacked once.
        struct Member
        {
            std::int16_t *weights;
            std::size_t rowStride;
            std::size_t numRows;
            double invRows;
            unsigned gb;
            unsigned lb;
            int threshold;
            int wmin;
            int wmax;
            int lastOut = 0;
            Counter misp = 0;
            std::int16_t *row = nullptr;

            // idx % numRows via a precomputed reciprocal: the row
            // counts are not powers of two, and one serialized
            // hardware divide per member per branch costs more than
            // the dot product it feeds. The fixup loops absorb the
            // double product's +-1 rounding, so the row is exact
            // for any idx.
            std::int16_t *
            rowFor(Addr idx) const
            {
                const std::uint64_t q = static_cast<std::uint64_t>(
                    static_cast<double>(idx) * invRows);
                std::int64_t rem =
                    static_cast<std::int64_t>(idx) -
                    static_cast<std::int64_t>(q * numRows);
                const std::int64_t rows =
                    static_cast<std::int64_t>(numRows);
                while (rem < 0)
                    rem += rows;
                while (rem >= rows)
                    rem -= rows;
                return weights +
                       static_cast<std::size_t>(rem) * rowStride;
            }
        };
        std::vector<Member> ms(width);
        for (std::size_t j = 0; j < width; ++j) {
            PerceptronPredictor &p = *members[j];
            ms[j] = {p.weights_.data(),
                     p.rowStride_,
                     p.numRows_,
                     1.0 / static_cast<double>(p.numRows_),
                     p.globalBits_,
                     p.localBits_,
                     p.threshold_,
                     p.weightMin_,
                     p.weightMax_,
                     0,
                     0};
        }

        const std::size_t n = view.size();
        const Addr *pcs = view.pcData();
        const std::uint8_t *takens = view.takenData();
        if (n > 0) {
            const Addr idx0 =
                PerceptronPredictor::indexPc(pcs[0]);
            for (Member &m : ms)
                m.row = m.rowFor(idx0);
        }
        for (std::size_t i = 0; i < n; ++i) {
            const Addr idx =
                PerceptronPredictor::indexPc(pcs[i]);
            // Branch i+1's row index is already known, so each
            // member's row pointer is computed one branch ahead:
            // the reciprocal-modulo latency overlaps the current
            // dot product instead of serializing in front of the
            // next one, and the prefetch pulls the next row while
            // this branch trains.
            const Addr idxNext =
                i + 1 < n
                    ? PerceptronPredictor::indexPc(pcs[i + 1])
                    : 0;
            const bool haveNext = i + 1 < n;
            const bool taken = takens[i] != 0;
            const std::int16_t *xw = xbuf.data() + xpos;
            std::uint64_t lhv = 0;
            std::size_t li = 0;
            if (lb > 0) {
                li = static_cast<std::size_t>(idx) & localMask;
                lhv = lh[li];
                for (unsigned b = 0; b < lb; ++b)
                    lx[b] = ((lhv >> b) & 1) ? 1 : -1;
            }
            for (Member &m : ms) {
                std::int16_t *row = m.row;
                if (haveNext) {
                    m.row = m.rowFor(idxNext);
                    __builtin_prefetch(m.row, 1);
                }
                int dot = static_cast<int>(row[0]) +
                          dotSignedI16Wide(row + 1, xw, m.gb);
                if (m.lb > 0)
                    dot += dotSignedI16Wide(row + 1 + m.gb,
                                            lx.data(), m.lb);
                const bool predicted = dot >= 0;
                m.misp += predicted != taken ? 1 : 0;
                const int magnitude = dot >= 0 ? dot : -dot;
                if (predicted != taken ||
                    magnitude <= m.threshold) {
                    const int dir = taken ? 1 : -1;
                    int bias = static_cast<int>(row[0]) + dir;
                    bias = bias < m.wmin
                               ? m.wmin
                               : (bias > m.wmax ? m.wmax : bias);
                    row[0] = static_cast<std::int16_t>(bias);
                    trainSignedI16Wide(row + 1, xw, m.gb, dir,
                                       m.wmin, m.wmax);
                    if (m.lb > 0)
                        trainSignedI16Wide(row + 1 + m.gb, lx.data(),
                                           m.lb, dir, m.wmin,
                                           m.wmax);
                }
                m.lastOut = dot;
            }
            // Advance the shared history state exactly as every
            // member's update() would have.
            if (maxGb > 0) {
                if (xpos == 0) {
                    std::memcpy(xbuf.data() + maxGb, xbuf.data(),
                                maxGb * sizeof(std::int16_t));
                    xpos = maxGb;
                }
                xbuf[--xpos] = taken ? 1 : -1;
            }
            if (lb > 0)
                lh[li] = ((lhv << 1) | (taken ? 1 : 0)) & loMask(lb);
        }

        // Write the shared state back into each member so its final
        // SRAM image (visitState) matches the serial run bit for
        // bit.
        std::vector<AccuracyResult> results(width);
        for (std::size_t j = 0; j < width; ++j) {
            PerceptronPredictor &p = *members[j];
            for (unsigned b = 0; b < p.globalBits_; ++b)
                p.globalHistory_.setBit(b, xbuf[xpos + b] > 0);
            if (p.localBits_ > 0)
                p.localHistories_ = lh;
            p.lastOutput_ = ms[j].lastOut;
            results[j].branches = static_cast<Counter>(n);
            results[j].mispredictions = ms[j].misp;
        }
        return results;
    }
};

/**
 * Specialized multi-component group kernel (friend of
 * MultiComponentPredictor and its typed components).
 *
 * MC's per-branch cost is dominated by scattered table probes — the
 * selector row plus one PHT row per component, five-plus dependent
 * cache accesses whose addresses the hardware prefetcher cannot
 * guess. Unlike the perceptron there is no shared input vector to
 * amortize, but the *next* branch's indices are fully computable the
 * moment this branch's updates land (updates use the actual trace
 * outcome, so every component's history after branch i is exactly
 * its state when branch i+1 is predicted). The kernel exploits that:
 * the member-major block loop calls the same inline predict/update
 * pair the generic loop would, then issues one software prefetch per
 * table for branch i+1 — selector row, bimodal row, local history
 * word, every global component's PHT row — overlapping the miss
 * latency with the current branch's selection scan. Prefetches are
 * side-effect-free, so counters and final state stay bit-identical
 * to the serial run (golden-tested in tests/test_ensemble.cc).
 */
struct MulticomponentBatch
{
    static std::vector<AccuracyResult>
    run(const std::vector<MultiComponentPredictor *> &members,
        const BranchSpan &view)
    {
        constexpr std::size_t kBlock = 16384;
        const std::size_t width = members.size();
        const std::size_t n = view.size();
        const Addr *pcs = view.pcData();
        const std::uint8_t *takens = view.takenData();
        std::vector<Counter> misp(width, 0);
        for (std::size_t base = 0; base < n; base += kBlock) {
            const std::size_t end = std::min(n, base + kBlock);
            for (std::size_t j = 0; j < width; ++j) {
                MultiComponentPredictor *const p = members[j];
                Counter m = 0;
                for (std::size_t i = base; i < end; ++i) {
                    const bool taken = takens[i] != 0;
                    const bool predicted = p->predict(pcs[i]);
                    p->update(pcs[i], taken);
                    m += predicted != taken ? 1 : 0;
                    if (i + 1 < end)
                        prefetchNext(*p, pcs[i + 1]);
                }
                misp[j] += m;
            }
        }
        std::vector<AccuracyResult> results(width);
        for (std::size_t j = 0; j < width; ++j) {
            results[j].branches = static_cast<Counter>(n);
            results[j].mispredictions = misp[j];
        }
        return results;
    }

  private:
    static void
    prefetchNext(MultiComponentPredictor &p, Addr pc)
    {
        // Valid post-update: every component's index function reads
        // state already advanced past the current branch.
        __builtin_prefetch(&p.selector_[p.selectorIndex(pc)]);
        p.bimodal_.pht_.prefetch(p.bimodal_.index(pc));
        if (p.local_) {
            LocalPredictor &l = *p.local_;
            __builtin_prefetch(&l.histories_[l.historyIndex(pc)]);
        }
        for (GsharePredictor &g : p.globals_)
            g.pht_.prefetch(g.index(pc));
    }
};

const std::type_info *
ensembleAccuracyInnerType(DirectionPredictor &member)
{
    DirectionPredictor *inner =
        unwrapDirection(&member, nullptr);
    if (!withConcretePredictor(*inner, [](auto &) {}))
        return nullptr;
    return &typeid(*inner);
}

bool
ensembleBatchable(const std::vector<DirectionPredictor *> &members)
{
    if (members.size() < 2 || members[0] == nullptr)
        return false;
    // Members may differ in wrapper chains but must share one known
    // concrete inner type; unknown user predictors fail here and
    // stay on the serial path.
    const std::type_info *t = ensembleAccuracyInnerType(*members[0]);
    if (t == nullptr)
        return false;
    for (DirectionPredictor *p : members)
        if (p == nullptr || ensembleAccuracyInnerType(*p) != t)
            return false;
    return true;
}

std::vector<AccuracyResult>
runAccuracyEnsemble(const std::vector<DirectionPredictor *> &members,
                    const TraceBuffer &trace)
{
    if (members.empty())
        return {};
    const BranchSpan view = trace.branchView();
    // The monomorphizing cast below requires a uniform known inner
    // type; re-verify instead of trusting the caller (a mixed group
    // would be undefined behaviour, not just slow). Anything the
    // probe refuses falls back to the virtual loop on the original
    // wrapped members, which is always correct.
    const std::size_t width = members.size();
    std::vector<DirectionPredictor *> inners(width);
    std::vector<std::vector<ReplayHook>> hooks(width);
    bool anyHooks = false;
    for (std::size_t j = 0; j < width; ++j) {
        if (members[j] == nullptr)
            return genericEnsembleLoop(members, view);
        inners[j] = unwrapDirection(members[j], &hooks[j]);
        anyHooks = anyHooks || !hooks[j].empty();
    }
    const std::type_info &t0 = typeid(*inners[0]);
    for (DirectionPredictor *p : inners)
        if (typeid(*p) != t0)
            return genericEnsembleLoop(members, view);
    std::vector<AccuracyResult> results;
    const bool matched =
        withConcretePredictor(*inners[0], [&](auto &firstInner) {
            using P = std::decay_t<decltype(firstInner)>;
            std::vector<P *> typed;
            typed.reserve(width);
            for (DirectionPredictor *p : inners)
                typed.push_back(static_cast<P *>(p));
            if (anyHooks) {
                // Wrapped members get the hooked loop: the
                // specialized kernels below share history state
                // across members, which an injected flip would
                // desynchronize, so they serve all-bare groups only.
                results = hookedEnsembleLoop(typed, hooks, view);
                return;
            }
            if constexpr (std::is_same_v<P, PerceptronPredictor>) {
                if (auto r = PerceptronBatch::tryRun(typed, view)) {
                    results = std::move(*r);
                    return;
                }
            }
            if constexpr (std::is_same_v<P,
                                         MultiComponentPredictor>) {
                results = MulticomponentBatch::run(typed, view);
                return;
            }
            results = genericEnsembleLoop(typed, view);
        });
    if (!matched)
        results = genericEnsembleLoop(members, view);
    return results;
}

bool
ensembleEnabled()
{
    const char *env = std::getenv("BPSIM_ENSEMBLE");
    return !(env && env[0] == '0' && env[1] == '\0');
}

} // namespace bpsim
