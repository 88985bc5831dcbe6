/**
 * @file
 * In-memory dynamic trace storage and iteration.
 *
 * A trace is generated once per (workload, seed, length) and then
 * replayed against many predictor configurations, mirroring the
 * paper's methodology where every predictor sees the same SPECint
 * instruction stream.
 *
 * Every trace is held in one form: the five data sections of a v3
 * trace file (trace_io.hh), byte for byte. push() encodes each op
 * straight into them, and readTrace() reads a file's sections into
 * them, so a generated trace and a loaded one are the same thing
 * and writing a trace is a copy of its sections. The sections are:
 *
 *  - the conditional-branch columns, pc and taken, which every
 *    accuracy run replays through branchView() without touching any
 *    other op (9 bytes per branch, read straight by the SoA kernels
 *    in src/core);
 *  - one opmeta word per op (micro_op.hh): class, taken, registers;
 *  - the op pcs and the op extras as zigzag LEB128 delta streams
 *    (extras against the previous op of the same class).
 *
 * No MicroOp array is ever built. The pc and extra columns are
 * decoded once per trace, the first time a consumer asks for ops
 * (the timing core through opColumns(), a cold reader through
 * operator[] or iteration); the decode validates the op stream as
 * the reader would have, and is shared by every copy and prefix
 * view. Accuracy-only runs never trigger it.
 *
 * prefix(n) cuts a trace to its first n ops without copying them: a
 * generated trace's op stream does not depend on its length, so the
 * first n ops of a longer trace are the n-op trace at the same seed.
 * A sweep holds each workload once, at the longest length it needs,
 * and serves every shorter length as a prefix.
 *
 * Copies and prefix views share their storage; each carries only its
 * own op and branch counts. The compiler-generated copy and move are
 * all a buffer needs. A trace is built by push() on a buffer no other
 * buffer shares; a shared, cut or file-read trace never changes, and
 * every const member is safe for any number of concurrent readers.
 */

#ifndef BPSIM_TRACE_TRACE_BUFFER_HH
#define BPSIM_TRACE_TRACE_BUFFER_HH

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <exception>
#include <iterator>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>

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
 * One section of a trace in memory: a growable array like a
 * std::vector of trivial values, except that growing it leaves the
 * new elements unwritten (a read fills them, and pages reserved
 * ahead are not faulted in) and that the encoder can append through
 * a raw pointer once it has made room.
 */
template <typename T>
class TraceColumn
{
  public:
    const T *data() const { return data_.get(); }
    T *data() { return data_.get(); }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return capacity_; }
    std::span<const T> span() const { return {data(), size_}; }

    /** Room for @p n elements in all without reallocating. */
    void
    reserve(std::size_t n)
    {
        if (n <= capacity_)
            return;
        auto grown = std::make_unique_for_overwrite<T[]>(n);
        if (size_ != 0)
            std::memcpy(grown.get(), data_.get(), size_ * sizeof(T));
        data_ = std::move(grown);
        capacity_ = n;
    }
    /** Set the size to @p n; elements past the old size are
     *  unwritten, for the caller to fill. */
    void
    resize(std::size_t n)
    {
        reserve(n);
        size_ = n;
    }

    /** Append @p v; the caller has made room. */
    void put(T v) { data_[size_++] = v; }
    /** The end, for appending in place after making room; extendTo()
     *  then takes the elements up to @p end in. */
    T *tail() { return data_.get() + size_; }
    void extendTo(const T *end) { size_ = end - data_.get(); }

  private:
    std::unique_ptr<T[]> data_;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
};

/**
 * The five data sections of a v3 trace (trace_io.hh's sections 0-4)
 * in host byte order: on a little-endian host, the file's bytes.
 */
struct TraceSections
{
    TraceColumn<Addr> branchPc;
    TraceColumn<std::uint8_t> branchTaken;
    TraceColumn<std::uint32_t> opMeta;
    TraceColumn<std::uint8_t> opPcDelta;
    TraceColumn<std::uint8_t> opExtraDelta;
};

/** TraceSections cut at one buffer's length (see sections()). */
struct TraceSectionView
{
    std::span<const Addr> branchPc;
    std::span<const std::uint8_t> branchTaken;
    std::span<const std::uint32_t> opMeta;
    std::span<const std::uint8_t> opPcDelta;
    std::span<const std::uint8_t> opExtraDelta;
};

/** What the timing core reads per op: the opmeta words in place and
 *  the decoded pc and extra columns, one entry per op. */
struct OpColumns
{
    const std::uint32_t *meta = nullptr;
    const Addr *pc = nullptr;
    const Addr *extra = nullptr;

    MicroOp
    op(std::size_t i) const
    {
        return opmeta::unpack(meta[i], pc[i], extra[i]);
    }
};

/** A replayable buffer of dynamic instructions; see file comment. */
class TraceBuffer
{
  public:
    /** An empty trace, to be built with push(). */
    TraceBuffer() = default;

    /**
     * A trace over sections read from @p source (a file path, named
     * in decode errors). The caller has checked that the sections
     * agree in size: one opMeta word per op, one branchTaken byte
     * per branchPc entry, taken bytes 0 or 1. The op stream is
     * checked by the decode. Such a trace takes no push().
     */
    TraceBuffer(TraceSections sections, std::string source);

    /** Reserve capacity for @p ops instructions up front. */
    void reserve(std::size_t ops);

    /** Append one instruction while building the trace. A decode
     *  already made is dropped, so columns and iterators taken
     *  before the push are invalid after it. Throws std::logic_error
     *  on a buffer that shares its storage, is a prefix view or was
     *  read from a file. */
    void
    push(const MicroOp &op)
    {
        // One test for every reason to leave the fast path: no
        // storage yet, storage shared, a cut view, a decode to drop,
        // or the sections out of room (always, for a read trace).
        Image *const im = image_.get();
        if (!im || image_.use_count() != 1 ||
            opCount_ != im->sections.opMeta.size() ||
            im->decode.state.load(std::memory_order_relaxed) != 0 ||
            im->room == 0) [[unlikely]] {
            pushSlow(op);
            return;
        }
        im->append(op);
        ++opCount_;
        branchCount_ += op.cls == InstClass::CondBranch;
    }

    /**
     * The first @p ops instructions as a trace of their own. The
     * view shares this trace's storage (no op or branch is copied)
     * and carries its own op and branch counts, so size(),
     * branchView(), operator[] and begin()/end() all stop at the
     * cut. Throws std::out_of_range past size().
     */
    TraceBuffer prefix(std::size_t ops) const;

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

    /**
     * Dense conditional-branch columns: the {pc, taken} stream every
     * accuracy run replays, without skipping over non-branch ops.
     * Reading it never decodes ops.
     */
    BranchSpan
    branchView() const
    {
        if (!image_)
            return {};
        return {image_->sections.branchPc.data(),
                image_->sections.branchTaken.data(), branchCount_};
    }

    /**
     * The per-op columns, size() entries, for the timing core. The
     * first call on any copy or view decodes the pc and extra
     * columns for all of them; throws TraceIoError, on every call,
     * when the op stream is malformed.
     */
    OpColumns
    opColumns() const
    {
        if (!image_)
            return {};
        Decode &d = image_->decode;
        if (d.state.load(std::memory_order_acquire) != kDecoded)
            [[unlikely]]
            image_->runDecode();
        return {image_->sections.opMeta.data(), d.pc.get(),
                d.extra.get()};
    }

    /** Instruction @p i, by value; decodes as opColumns() does. */
    MicroOp
    operator[](std::size_t i) const
    {
        assert(i < opCount_);
        return opColumns().op(i);
    }

    /** True once the pc and extra columns are decoded and resident;
     *  false while the trace holds only its encoded sections. */
    bool
    opsMaterialized() const
    {
        return image_ && image_->decode.state.load(
                             std::memory_order_acquire) == kDecoded;
    }

    /** The sections cut at size(): the bytes writeTraceV3 writes. */
    TraceSectionView sections() const;

    /** Input iterator yielding each instruction by value. */
    class Iterator
    {
      public:
        using iterator_category = std::input_iterator_tag;
        using value_type = MicroOp;
        using difference_type = std::ptrdiff_t;
        using pointer = void;
        using reference = MicroOp;

        Iterator() = default;
        Iterator(OpColumns cols, std::size_t i) : cols_(cols), i_(i) {}

        MicroOp operator*() const { return cols_.op(i_); }
        Iterator &
        operator++()
        {
            ++i_;
            return *this;
        }
        Iterator
        operator++(int)
        {
            Iterator old = *this;
            ++i_;
            return old;
        }
        bool operator==(const Iterator &o) const { return i_ == o.i_; }

      private:
        OpColumns cols_;
        std::size_t i_ = 0;
    };

    /** Iteration decodes as opColumns() does; an empty trace
     *  decodes nothing. */
    Iterator
    begin() const
    {
        return {empty() ? OpColumns{} : opColumns(), 0};
    }
    Iterator end() const { return {OpColumns{}, opCount_}; }

  private:
    static constexpr int kDecoded = 1;
    static constexpr int kFailed = 2;

    /** The decoded pc and extra columns, made once. */
    struct Decode
    {
        std::once_flag once;
        /** 0 until the decode has run, then kDecoded or kFailed. */
        std::atomic<int> state{0};
        std::exception_ptr error;
        std::unique_ptr<Addr[]> pc;
        std::unique_ptr<Addr[]> extra;
    };

    /** The storage every copy and prefix view of a trace shares. */
    struct Image
    {
        TraceSections sections;
        /** Where the sections came from, for decode errors; empty
         *  for a pushed trace. */
        std::string source;
        /** Read from a file: push() may not append. */
        bool readOnly = false;

        /** Encoder state: the last op's pc and, per class, the last
         *  extra (the bases of the next deltas). */
        Addr prevPc = 0;
        Addr prevExtra[8] = {};

        Decode decode;
        /** Fill @c decode once; see opColumns(). */
        void runDecode();

        /** Ops every section has room for; 0 for a read trace. */
        std::size_t room = 0;
        /** Give the sections room for more ops. */
        void makeRoom();

        /** Encode @p op onto the end of the sections, which have
         *  room for it. */
        void
        append(const MicroOp &op)
        {
            --room;
            TraceSections &s = sections;
            s.opMeta.put(opmeta::pack(op));
            putDelta(s.opPcDelta, op.pc - prevPc);
            Addr &lastExtra = prevExtra[static_cast<unsigned>(op.cls) & 7];
            putDelta(s.opExtraDelta, op.extra - lastExtra);
            prevPc = op.pc;
            lastExtra = op.extra;
            if (op.cls == InstClass::CondBranch) {
                s.branchPc.put(op.pc);
                s.branchTaken.put(op.taken ? 1 : 0);
            }
        }
    };

    /** Append @p delta to @p out, zigzag LEB128 coded; @p out has
     *  room for the longest varint. */
    static void
    putDelta(TraceColumn<std::uint8_t> &out, Addr delta)
    {
        const auto s = static_cast<std::int64_t>(delta);
        std::uint64_t z = static_cast<std::uint64_t>(s) << 1 ^
                          static_cast<std::uint64_t>(s >> 63);
        std::uint8_t *p = out.tail();
        while (z >= 0x80) {
            *p++ = static_cast<std::uint8_t>(z) | 0x80;
            z >>= 7;
        }
        *p++ = static_cast<std::uint8_t>(z);
        out.extendTo(p);
    }

    /** push() off its fast path: start storage, refuse, drop a
     *  decode or make room, then append. */
    [[gnu::noinline, gnu::cold]] void pushSlow(const MicroOp &op);

    /** Shared, so copies and views read one storage and one decode;
     *  non-const because the decode fills pc and extra in place. */
    std::shared_ptr<Image> image_;
    /** This buffer's length, which a prefix view cuts short of its
     *  storage. */
    std::size_t opCount_ = 0;
    std::size_t branchCount_ = 0;
};

} // namespace bpsim

#endif // BPSIM_TRACE_TRACE_BUFFER_HH
