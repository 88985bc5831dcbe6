/**
 * @file
 * In-memory dynamic trace storage and iteration.
 *
 * A trace is generated once per (workload, seed, length) and then
 * replayed against many predictor configurations, mirroring the
 * paper's methodology where every predictor sees the same SPECint
 * instruction stream.
 *
 * Storage is columnar where it matters: the dense conditional-branch
 * index every accuracy run replays is kept as two parallel columns
 * (pc, taken) rather than an array of structs, so the replay loop
 * streams 9 bytes per branch instead of 16 and the perceptron group
 * kernel (src/core/ensemble) reads the raw columns directly. A
 * buffer can also be *backed*: a trace loaded from a v3 columnar file
 * (trace_io) keeps the branch columns pointing straight into the
 * file image it read into memory — zero decode — and materializes
 * the full micro-op stream lazily, only when a consumer (the timing
 * simulator, trace rewriting, fault injection) actually touches it.
 */

#ifndef BPSIM_TRACE_TRACE_BUFFER_HH
#define BPSIM_TRACE_TRACE_BUFFER_HH

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "trace/micro_op.hh"

namespace bpsim {

/** One conditional branch, dense for accuracy replay. */
struct BranchRecord
{
    Addr pc = 0;
    bool taken = false;
};

/**
 * A non-owning structure-of-arrays view over the conditional-branch
 * columns of a trace: @c n parallel (pc, taken) entries. taken bytes
 * are 0 or 1. Iteration yields BranchRecord values so existing
 * record-oriented loops keep working; hot kernels read the column
 * pointers directly.
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

    BranchRecord
    operator[](std::size_t i) const
    {
        return {pc_[i], taken_[i] != 0};
    }

    /** Index-based iterator; operator* materializes a BranchRecord. */
    class Iterator
    {
      public:
        Iterator(const BranchSpan *s, std::size_t i) : s_(s), i_(i) {}
        BranchRecord operator*() const { return (*s_)[i_]; }
        Iterator &
        operator++()
        {
            ++i_;
            return *this;
        }
        bool
        operator!=(const Iterator &o) const
        {
            return i_ != o.i_;
        }

      private:
        const BranchSpan *s_;
        std::size_t i_;
    };

    Iterator begin() const { return {this, 0}; }
    Iterator end() const { return {this, n_}; }

  private:
    const Addr *pc_ = nullptr;
    const std::uint8_t *taken_ = nullptr;
    std::size_t n_ = 0;
};

/**
 * Backing store for a trace loaded without decoding: the v3 columnar
 * reader (trace_io) implements this over the file's image on the
 * heap. The branch columns are served in place; the op stream is
 * decoded only on demand via decodeOps(). Implementations are
 * immutable and therefore safe to share across threads.
 */
class TraceBacking
{
  public:
    virtual ~TraceBacking() = default;

    /** Branch pc column, 64-byte aligned, branchCount() entries. */
    virtual const Addr *branchPc() const = 0;
    /** Branch taken column (bytes 0/1), branchCount() entries. */
    virtual const std::uint8_t *branchTaken() const = 0;
    virtual std::size_t branchCount() const = 0;
    virtual std::size_t opCount() const = 0;
    /** Heap bytes the backing holds (the file image). */
    virtual std::size_t residentBytes() const = 0;

    /** Decode the full micro-op stream. Called at most once per
     *  buffer (lazily); throws TraceIoError on malformed columns. */
    virtual std::vector<MicroOp> decodeOps() const = 0;
};

/** A replayable buffer of dynamic instructions. */
class TraceBuffer
{
  public:
    TraceBuffer() = default;

    // The atomic materialization flag makes copy/move user-provided;
    // semantics are plain member-wise copies (trace_buffer.cc).
    TraceBuffer(const TraceBuffer &other);
    TraceBuffer(TraceBuffer &&other) noexcept;
    TraceBuffer &operator=(const TraceBuffer &other);
    TraceBuffer &operator=(TraceBuffer &&other) noexcept;

    /** Reserve capacity for @p ops instructions up front. */
    void reserve(std::size_t ops) { ops_.reserve(ops); }

    /** Append one instruction. */
    void
    push(const MicroOp &op)
    {
        if (backing_)
            detachFromBacking();
        ops_.push_back(op);
        ++opCount_;
        if (op.cls == InstClass::CondBranch) {
            branchPcs_.push_back(op.pc);
            branchTaken_.push_back(op.taken ? 1 : 0);
            ++condBranches_;
        }
    }

    /**
     * Adopt @p backing as this buffer's contents: the branch view is
     * served zero-copy from the backing's columns and the op stream
     * stays encoded until first use. Replaces any prior contents.
     */
    void adoptBacking(std::shared_ptr<const TraceBacking> backing);

    /** Number of dynamic instructions. */
    std::size_t size() const { return opCount_; }
    bool empty() const { return opCount_ == 0; }

    /** Number of dynamic conditional branches. */
    Counter condBranches() const { return condBranches_; }

    /** Dynamic conditional-branch density (branches / instruction). */
    double
    branchDensity() const
    {
        return opCount_ == 0 ? 0.0
                             : static_cast<double>(condBranches_) /
                                   static_cast<double>(opCount_);
    }

    const MicroOp &operator[](std::size_t i) const
    {
        return opsVec()[i];
    }

    /**
     * Mutable record access, for fault injection (src/robust). The
     * caller must not change @c cls — the cached conditional-branch
     * count assumes the instruction mix is fixed. Marks the branch
     * view stale; the mutator must call rebuildBranchView() before
     * the buffer is replayed or shared again. On a backed buffer
     * this materializes the op stream first (copy-on-write).
     */
    MicroOp &
    mutableOp(std::size_t i)
    {
        opsVec();
        branchesDirty_ = true;
        return ops_[i];
    }

    /**
     * Recompute the dense branch columns after mutation through
     * mutableOp(). Must be called from a single thread at
     * trace-publish time, before any replay. Making the rebuild an
     * explicit mutating step (instead of lazily rebuilding inside
     * const branchView()) keeps branchView() genuinely read-only, so
     * pool workers sharing a trace never write it — the previous
     * lazy scheme was a data race the moment a corrupted trace
     * reached the parallel executor before its first serial view.
     * A backed buffer detaches: the rebuilt columns are owned, not
     * the file image's.
     */
    void rebuildBranchView();

    /**
     * Dense conditional-branch columns: the {pc, taken} stream every
     * accuracy run replays, without skipping over non-branch ops.
     * Maintained incrementally by push(); served straight from the
     * file image for a backed buffer.
     *
     * The view is frozen: requesting it on a buffer left stale by
     * mutableOp() is a bug (asserted), not a trigger for a hidden
     * rebuild. Safe for any number of concurrent readers — it never
     * mutates the buffer.
     */
    BranchSpan
    branchView() const
    {
        assert(!branchesDirty_ &&
               "stale branch view: call rebuildBranchView() after "
               "mutableOp() before replaying the trace");
        if (backing_ && branchesFromBacking_)
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
        return opsReady_.load(std::memory_order_acquire);
    }

    auto begin() const { return opsVec().begin(); }
    auto end() const { return opsVec().end(); }

    /**
     * Resident heap footprint estimate in bytes: op-stream and
     * owned branch-column capacities, plus the backing's file image
     * while the buffer holds one. A backed buffer whose ops are
     * still encoded charges no op stream. Used by SharedTracePool's
     * memory budget.
     */
    std::size_t
    memoryBytes() const
    {
        std::size_t bytes = 0;
        if (opsMaterialized())
            bytes += ops_.capacity() * sizeof(MicroOp);
        bytes += branchPcs_.capacity() * sizeof(Addr);
        bytes += branchTaken_.capacity() * sizeof(std::uint8_t);
        if (backing_)
            bytes += backing_->residentBytes();
        return bytes;
    }

    /** Drop all contents (keeps op capacity). */
    void clear();

  private:
    /** Op stream, materializing from the backing on first use. */
    const std::vector<MicroOp> &
    opsVec() const
    {
        if (!opsReady_.load(std::memory_order_acquire))
            materializeOps();
        return ops_;
    }

    void materializeOps() const;
    void detachFromBacking();
    void copyFrom(const TraceBuffer &other);
    void moveFrom(TraceBuffer &&other) noexcept;

    // ops_ is mutable because a backed buffer decodes it lazily
    // behind const accessors; materializeOps() synchronizes.
    mutable std::vector<MicroOp> ops_;
    std::vector<Addr> branchPcs_;
    std::vector<std::uint8_t> branchTaken_;
    std::shared_ptr<const TraceBacking> backing_;
    std::size_t opCount_ = 0;
    bool branchesFromBacking_ = false;
    bool branchesDirty_ = false;
    Counter condBranches_ = 0;
    mutable std::atomic<bool> opsReady_{true};
};

} // namespace bpsim

#endif // BPSIM_TRACE_TRACE_BUFFER_HH
