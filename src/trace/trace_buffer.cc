#include "trace/trace_buffer.hh"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "trace/trace_io.hh"

namespace bpsim {

namespace {

/** The delta putDelta() zigzag-coded as @p z. */
std::uint64_t
unzigzag(std::uint64_t z)
{
    return (z >> 1) ^ (~(z & 1) + 1);
}

/** Strict LEB128 decode: advances @p pos, throws on truncation or a
 *  varint running past the 10-byte limit of a 64-bit value. */
std::uint64_t
getVarint(const std::uint8_t *p, std::size_t size, std::size_t &pos,
          const std::string &source)
{
    std::uint64_t v = 0;
    for (unsigned shift = 0; shift < 70; shift += 7) {
        if (pos >= size)
            throw TraceIoError("truncated varint in '" + source + "'");
        const std::uint8_t b = p[pos++];
        v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if (!(b & 0x80))
            return v;
    }
    throw TraceIoError("oversized varint in '" + source + "'");
}

/** Bytes of the first @p n varints of @p stream (all of it when it
 *  holds fewer). */
std::size_t
varintBytes(const TraceColumn<std::uint8_t> &stream, std::size_t n)
{
    std::size_t pos = 0;
    for (; n > 0 && pos < stream.size(); ++pos)
        n -= stream.data()[pos] < 0x80;
    return pos;
}

/** Bytes of the longest varint, a 64-bit value's. */
constexpr std::size_t kMaxVarintBytes = 10;

} // namespace

void
TraceBuffer::Image::makeRoom()
{
    // Room is counted in ops, each taking one meta word, at most
    // kMaxVarintBytes per delta stream and, if it is a branch, one
    // entry per branch column. Only a section without room for one
    // more op grows (doubling), so a column reserved for the whole
    // trace never does.
    room = SIZE_MAX;
    const auto fit = [&](auto &column, std::size_t perOp) {
        if (column.capacity() - column.size() < perOp)
            column.reserve(2 * column.capacity() + 1024 * perOp);
        room = std::min(room,
                        (column.capacity() - column.size()) / perOp);
    };
    fit(sections.opMeta, 1);
    fit(sections.opPcDelta, kMaxVarintBytes);
    fit(sections.opExtraDelta, kMaxVarintBytes);
    fit(sections.branchPc, 1);
    fit(sections.branchTaken, 1);
}

TraceBuffer::TraceBuffer(TraceSections sections, std::string source)
    : image_(std::make_shared<Image>()),
      opCount_(sections.opMeta.size()),
      branchCount_(sections.branchPc.size())
{
    image_->sections = std::move(sections);
    image_->source = std::move(source);
    image_->readOnly = true;
}

void
TraceBuffer::reserve(std::size_t ops)
{
    if (!image_) {
        image_ = std::make_shared<Image>();
        opCount_ = branchCount_ = 0; // new, or moved from
    }
    TraceSections &s = image_->sections;
    s.opMeta.reserve(ops);
    // Every op takes at least one byte in each delta stream.
    s.opPcDelta.reserve(ops);
    s.opExtraDelta.reserve(ops);
}

void
TraceBuffer::pushSlow(const MicroOp &op)
{
    if (!image_) {
        reserve(0);
    } else if (image_.use_count() != 1 ||
               opCount_ != image_->sections.opMeta.size() ||
               image_->readOnly) {
        throw std::logic_error(
            "TraceBuffer::push on a shared, cut or file-read trace");
    } else if (image_->decode.state.load(std::memory_order_relaxed) !=
               0) {
        // The only holder has decoded and now appends: the columns
        // would miss the new op, so drop them.
        std::destroy_at(&image_->decode);
        std::construct_at(&image_->decode);
    }
    if (image_->room == 0)
        image_->makeRoom();
    image_->append(op);
    ++opCount_;
    branchCount_ += op.cls == InstClass::CondBranch;
}

TraceBuffer
TraceBuffer::prefix(std::size_t ops) const
{
    if (ops > opCount_)
        throw std::out_of_range("trace prefix of " +
                                std::to_string(ops) + " ops from " +
                                std::to_string(opCount_));
    TraceBuffer view = *this;
    if (ops == opCount_)
        return view;
    view.opCount_ = ops;
    view.branchCount_ = 0;
    const std::uint32_t *meta = image_->sections.opMeta.data();
    for (std::size_t i = 0; i < ops; ++i)
        view.branchCount_ +=
            opmeta::cls(meta[i]) == InstClass::CondBranch;
    return view;
}

TraceSectionView
TraceBuffer::sections() const
{
    if (!image_)
        return {};
    const TraceSections &s = image_->sections;
    // A delta stream cut after this buffer's last op.
    const auto cut = [&](const TraceColumn<std::uint8_t> &stream) {
        return opCount_ == s.opMeta.size()
                   ? stream.span()
                   : stream.span().first(varintBytes(stream, opCount_));
    };
    return {s.branchPc.span().first(branchCount_),
            s.branchTaken.span().first(branchCount_),
            s.opMeta.span().first(opCount_), cut(s.opPcDelta),
            cut(s.opExtraDelta)};
}

void
TraceBuffer::Image::runDecode()
{
    // The sections never change, so a failed decode would fail
    // again: keep its error rather than decoding per call.
    std::call_once(decode.once, [this] {
        try {
            const std::size_t n = sections.opMeta.size();
            auto pcs = std::make_unique_for_overwrite<Addr[]>(n);
            auto extras = std::make_unique_for_overwrite<Addr[]>(n);
            const std::uint32_t *meta = sections.opMeta.data();
            const std::uint8_t *pcIn = sections.opPcDelta.data();
            const std::uint8_t *extraIn = sections.opExtraDelta.data();
            const std::size_t pcSize = sections.opPcDelta.size();
            const std::size_t extraSize = sections.opExtraDelta.size();
            std::size_t pcPos = 0, extraPos = 0;
            Addr lastPc = 0;
            Addr lastExtra[8] = {};
            for (std::size_t r = 0; r < n; ++r) {
                if (!opmeta::valid(meta[r]))
                    throw TraceIoError("corrupt record in '" + source +
                                       "'");
                lastPc += unzigzag(getVarint(pcIn, pcSize, pcPos, source));
                Addr &e = lastExtra[meta[r] & 7];
                e += unzigzag(
                    getVarint(extraIn, extraSize, extraPos, source));
                pcs[r] = lastPc;
                extras[r] = e;
            }
            if (pcPos != pcSize || extraPos != extraSize)
                throw TraceIoError("trailing garbage in '" + source +
                                   "'");
            decode.pc = std::move(pcs);
            decode.extra = std::move(extras);
            decode.state.store(kDecoded, std::memory_order_release);
        } catch (...) {
            decode.error = std::current_exception();
            decode.state.store(kFailed, std::memory_order_release);
        }
    });
    if (decode.error)
        std::rethrow_exception(decode.error);
}

} // namespace bpsim
