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
 * prefix(n) cuts a trace to its first n ops without copying them: a
 * generated trace's op stream does not depend on its length, so the
 * first n ops of a longer trace are the n-op trace at the same seed.
 * A sweep holds each workload once, at the longest length it needs,
 * and serves every shorter length as a prefix.
 *
 * Copies and prefix views share their storage (a backing shares its
 * one decode too); each carries only its own op and branch counts.
 * The compiler-generated copy and move are all a buffer needs. Every
 * const member is safe for any number of concurrent readers.
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
#include <stdexcept>
#include <string>
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
    /** Conditional branches among the first @p ops ops, counted
     *  without decoding the stream. */
    virtual std::size_t condBranchesIn(std::size_t ops) const = 0;
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
        : backing_(std::move(backing)),
          opCount_(backing_->opCount()),
          branchCount_(backing_->branchCount())
    {
    }

    /** Reserve capacity for @p ops instructions up front. */
    void
    reserve(std::size_t ops)
    {
        if (!ownsStorage())
            takeStorage();
        own_->ops.reserve(ops);
    }

    /** Append one instruction while building the trace. A backed
     *  trace has no pushed ops and takes none. */
    void
    push(const MicroOp &op)
    {
        assert(!backing_ && "a backed trace is immutable");
        if (!ownsStorage()) [[unlikely]]
            takeStorage();
        Columns &c = *own_;
        c.ops.push_back(op);
        ++opCount_;
        if (op.cls == InstClass::CondBranch) {
            c.pc.push_back(op.pc);
            c.taken.push_back(op.taken ? 1 : 0);
            ++branchCount_;
        }
    }

    /**
     * The first @p ops instructions as a trace of their own. The
     * view shares this trace's storage (no op or branch is copied)
     * and carries its own op and branch counts, so size(),
     * branchView(), operator[] and begin()/end() all stop at the
     * cut. A cut at size() is a plain copy, so it decodes nothing.
     * Throws std::out_of_range past size().
     */
    TraceBuffer
    prefix(std::size_t ops) const
    {
        if (ops > opCount_)
            throw std::out_of_range("trace prefix of " +
                                    std::to_string(ops) + " ops from " +
                                    std::to_string(opCount_));
        TraceBuffer view = *this;
        if (ops == opCount_)
            return view;
        view.opCount_ = ops;
        if (backing_) {
            view.branchCount_ = backing_->condBranchesIn(ops);
        } else {
            view.branchCount_ = 0;
            for (std::size_t i = 0; i < ops; ++i)
                view.branchCount_ +=
                    own_->ops[i].cls == InstClass::CondBranch;
        }
        return view;
    }

    /** Number of dynamic instructions. */
    std::size_t size() const { return opCount_; }
    bool empty() const { return opCount_ == 0; }

    /** Number of dynamic conditional branches. */
    Counter condBranches() const { return branchCount_; }

    /** Dynamic conditional-branch density (branches / instruction). */
    double
    branchDensity() const
    {
        return empty() ? 0.0
                       : static_cast<double>(condBranches()) /
                             static_cast<double>(size());
    }

    const MicroOp &
    operator[](std::size_t i) const
    {
        assert(i < opCount_);
        return opData()[i];
    }

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
                    branchCount_};
        if (own_)
            return {own_->pc.data(), own_->taken.data(), branchCount_};
        return {};
    }

    /** True when the op stream is decoded and resident in memory;
     *  false while a backed buffer still holds it encoded (nothing
     *  has forced a decode yet). */
    bool
    opsMaterialized() const
    {
        return !backing_ || backing_->opsDecoded();
    }

    const MicroOp *begin() const { return opData(); }
    const MicroOp *end() const { return opData() + opCount_; }

  private:
    /** What push() builds: the op stream and the branch columns. */
    struct Columns
    {
        std::vector<MicroOp> ops;
        std::vector<Addr> pc;
        std::vector<std::uint8_t> taken;
    };

    const MicroOp *
    opData() const
    {
        if (backing_)
            return backing_->ops().data();
        return own_ ? own_->ops.data() : nullptr;
    }

    /** True when push() may append to the storage in place: no
     *  other buffer shares it, and it ends where this buffer does. */
    bool
    ownsStorage() const
    {
        return own_.use_count() == 1 && own_->ops.size() == opCount_;
    }

    /** Give this buffer storage of its own, holding exactly its ops,
     *  so appending never changes what another buffer reads. */
    [[gnu::noinline]] void
    takeStorage()
    {
        auto mine = std::make_shared<Columns>();
        if (!own_) {
            opCount_ = branchCount_ = 0; // new, or moved from
        } else {
            mine->ops.assign(own_->ops.begin(),
                             own_->ops.begin() + opCount_);
            mine->pc.assign(own_->pc.begin(),
                            own_->pc.begin() + branchCount_);
            mine->taken.assign(own_->taken.begin(),
                               own_->taken.begin() + branchCount_);
        }
        own_ = std::move(mine);
    }

    /** Pushed storage, shared by copies and prefix views. */
    std::shared_ptr<Columns> own_;
    std::shared_ptr<const TraceBacking> backing_;
    /** This buffer's length, which a prefix view cuts short of its
     *  storage. */
    std::size_t opCount_ = 0;
    std::size_t branchCount_ = 0;
};

} // namespace bpsim

#endif // BPSIM_TRACE_TRACE_BUFFER_HH
