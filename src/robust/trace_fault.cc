#include "robust/trace_fault.hh"

#include <cstdio>
#include <memory>

namespace bpsim::robust {

TraceBuffer
corruptTrace(const TraceBuffer &trace, double rate, Rng &rng,
             TraceCorruption *stats)
{
    TraceCorruption c;
    TraceBuffer out;
    out.reserve(trace.size());
    for (MicroOp op : trace) {
        if (rate > 0.0 && rng.nextBool(rate)) {
            ++c.recordsHit;
            switch (rng.nextRange(3)) {
            case 0:
                op.taken = !op.taken;
                ++c.takenFlips;
                break;
            case 1:
                op.pc ^= std::uint64_t{1} << rng.nextRange(64);
                ++c.pcBitFlips;
                break;
            default:
                op.extra ^= std::uint64_t{1} << rng.nextRange(64);
                ++c.extraBitFlips;
                break;
            }
        }
        out.push(op);
    }
    if (stats)
        *stats = c;
    return out;
}

Counter
corruptFileBytes(const std::string &path, Counter flips, Rng &rng)
{
    struct Closer
    {
        void
        operator()(std::FILE *f) const
        {
            if (f)
                std::fclose(f);
        }
    };
    std::unique_ptr<std::FILE, Closer> f(
        std::fopen(path.c_str(), "rb+"));
    if (!f)
        return 0;
    if (std::fseek(f.get(), 0, SEEK_END) != 0)
        return 0;
    const long size = std::ftell(f.get());
    if (size <= 0)
        return 0;

    Counter done = 0;
    for (Counter k = 0; k < flips; ++k) {
        const long off = static_cast<long>(
            rng.nextRange(static_cast<std::uint64_t>(size)));
        unsigned char byte = 0;
        if (std::fseek(f.get(), off, SEEK_SET) != 0 ||
            std::fread(&byte, 1, 1, f.get()) != 1)
            continue;
        byte ^= static_cast<unsigned char>(1u << rng.nextRange(8));
        if (std::fseek(f.get(), off, SEEK_SET) != 0 ||
            std::fwrite(&byte, 1, 1, f.get()) != 1)
            continue;
        ++done;
    }
    return done;
}

} // namespace bpsim::robust
