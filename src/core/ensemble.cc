#include "core/ensemble.hh"

#include <algorithm>
#include <cstring>

#include "common/bitutil.hh"
#include "common/vec_kernels.hh"

namespace bpsim {

/**
 * The perceptron group kernel (friend of PerceptronPredictor).
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
 * Preconditions, checked by tryRun (the caller falls back to
 * runAccuracy() per member when violated): every member fresh
 * (all-zero histories, so the shared state can start from zero),
 * and every member that has a local component sharing the same
 * local geometry (members without one — the small budgets — just
 * skip the local term).
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

std::optional<std::vector<AccuracyResult>>
runPerceptronEnsemble(const std::vector<PerceptronPredictor *> &members,
                      const TraceBuffer &trace)
{
    return PerceptronBatch::tryRun(members, trace.branchView());
}

} // namespace bpsim
