/**
 * @file
 * In-memory dynamic trace storage and iteration.
 *
 * A trace is generated once per (workload, seed, length) and then
 * replayed against many predictor configurations, mirroring the
 * paper's methodology where every predictor sees the same SPECint
 * instruction stream.
 *
 * A TraceBuffer is built in one of two ways and never changes after:
 *
 *  - push(), while a generator (Tracer) or a test appends ops;
 *  - from a TraceBacking, which is how readTrace() returns a v3
 *    file: the branch columns are served straight from the file
 *    image the backing holds, and the op stream is decoded inside
 *    the backing, at most once, when a consumer (the timing core,
 *    trace corruption, a test) first touches a micro-op.
 *
 * Copies of a backed buffer share the backing, and so share its one
 * decode; the compiler-generated copy and move are all a buffer
 * needs. Every const member is safe for any number of concurrent
 * readers.
 *
 * Storage is columnar where it matters: the dense conditional-branch
 * index every accuracy run replays is kept as two parallel columns
 * (pc, taken) rather than an array of structs, so the replay loop
 * streams 9 bytes per branch instead of 16 and the perceptron group
 * kernel (src/core/ensemble) reads the raw columns directly.
 */

#ifndef BPSIM_TRACE_TRACE_BUFFER_HH
#define BPSIM_TRACE_TRACE_BUFFER_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "trace/micro_op.hh"

namespace bpsim {

/**
 * A non-owning structure-of-arrays view over the conditional-branch
 * columns of a trace: @c n parallel (pc, taken) entries. taken bytes
 * are 0 or 1. Hot kernels read the column pointers directly.
 */
class BranchSpan
{
  public:
    BranchSpan() = default;
    BranchSpan(const Addr *pc, const std::uint8_t *taken,
               std::size_t n)
        : pc_(pc), taken_(taken), n_(n)
    {
    }

    std::size_t size() const { return n_; }
    bool empty() const { return n_ == 0; }

    /** Raw column pointers (SoA kernels). */
    const Addr *pcData() const { return pc_; }
    const std::uint8_t *takenData() const { return taken_; }

    Addr pc(std::size_t i) const { return pc_[i]; }
    bool taken(std::size_t i) const { return taken_[i] != 0; }

  private:
    const Addr *pc_ = nullptr;
    const std::uint8_t *taken_ = nullptr;
    std::size_t n_ = 0;
};

/**
 * Backing store for a trace loaded without decoding: the v3 columnar
 * reader (trace_io) implements this over the file's image on the
 * heap. The branch columns are served in place; ops() decodes the op
 * stream once, on first call, and keeps it. Every member is safe to
 * call from any number of threads at once, so one backing can sit
 * under every copy of a loaded trace.
 */
class TraceBacking
{
  public:
    TraceBacking() = default;
    TraceBacking(const TraceBacking &) = delete;
    TraceBacking &operator=(const TraceBacking &) = delete;
    virtual ~TraceBacking() = default;

    /** Branch pc column, 64-byte aligned, branchCount() entries. */
    virtual const Addr *branchPc() const = 0;
    /** Branch taken column (bytes 0/1), branchCount() entries. */
    virtual const std::uint8_t *branchTaken() const = 0;
    virtual std::size_t branchCount() const = 0;
    virtual std::size_t opCount() const = 0;

    /** The op stream, opCount() entries, decoded on the first call
     *  and shared by every later one; throws TraceIoError on
     *  malformed columns, on every call. */
    virtual const std::vector<MicroOp> &ops() const = 0;
    /** True once ops() has decoded the stream. */
    virtual bool opsDecoded() const = 0;
    /** Heap bytes the backing holds: the file image, plus the
     *  decoded op stream once there is one. */
    virtual std::size_t residentBytes() const = 0;
};

/** A replayable buffer of dynamic instructions; see file comment. */
class TraceBuffer
{
  public:
    /** An empty trace, to be built with push(). */
    TraceBuffer() = default;

    /** A trace served from @p backing: branch columns in place, ops
     *  decoded by the backing on first use. */
    explicit TraceBuffer(std::shared_ptr<const TraceBacking> backing)
        : backing_(std::move(backing))
    {
    }

    /** Reserve capacity for @p ops instructions up front. */
    void reserve(std::size_t ops) { ops_.reserve(ops); }

    /** Append one instruction while building the trace. A backed
     *  trace has no pushed ops and takes none. */
    void
    push(const MicroOp &op)
    {
        assert(!backing_ && "a backed trace is immutable");
        ops_.push_back(op);
        if (op.cls == InstClass::CondBranch) {
            branchPcs_.push_back(op.pc);
            branchTaken_.push_back(op.taken ? 1 : 0);
        }
    }

    /** Number of dynamic instructions. */
    std::size_t
    size() const
    {
        return backing_ ? backing_->opCount() : ops_.size();
    }
    bool empty() const { return size() == 0; }

    /** Number of dynamic conditional branches. */
    Counter condBranches() const { return branchView().size(); }

    /** Dynamic conditional-branch density (branches / instruction). */
    double
    branchDensity() const
    {
        return empty() ? 0.0
                       : static_cast<double>(condBranches()) /
                             static_cast<double>(size());
    }

    const MicroOp &operator[](std::size_t i) const { return ops()[i]; }

    /**
     * Dense conditional-branch columns: the {pc, taken} stream every
     * accuracy run replays, without skipping over non-branch ops.
     * Maintained by push(); served straight from the file image for
     * a backed buffer, so reading it never decodes ops.
     */
    BranchSpan
    branchView() const
    {
        if (backing_)
            return {backing_->branchPc(), backing_->branchTaken(),
                    backing_->branchCount()};
        return {branchPcs_.data(), branchTaken_.data(),
                branchPcs_.size()};
    }

    /** True when the op stream is decoded and resident in memory;
     *  false while a backed buffer still holds it encoded (nothing
     *  has forced a decode yet). */
    bool
    opsMaterialized() const
    {
        return !backing_ || backing_->opsDecoded();
    }

    auto begin() const { return ops().begin(); }
    auto end() const { return ops().end(); }

    /**
     * Resident heap footprint estimate in bytes: the op stream and
     * branch-column capacities of a pushed trace, or the backing's
     * file image plus its op stream once decoded. Grows when a
     * backed trace's ops are first touched. Used by
     * SharedTracePool's memory budget.
     */
    std::size_t
    memoryBytes() const
    {
        if (backing_)
            return backing_->residentBytes();
        return ops_.capacity() * sizeof(MicroOp) +
               branchPcs_.capacity() * sizeof(Addr) +
               branchTaken_.capacity() * sizeof(std::uint8_t);
    }

  private:
    const std::vector<MicroOp> &
    ops() const
    {
        return backing_ ? backing_->ops() : ops_;
    }

    std::vector<MicroOp> ops_;
    std::vector<Addr> branchPcs_;
    std::vector<std::uint8_t> branchTaken_;
    std::shared_ptr<const TraceBacking> backing_;
};

} // namespace bpsim

#endif // BPSIM_TRACE_TRACE_BUFFER_HH
