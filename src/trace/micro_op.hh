/**
 * @file
 * The dynamic instruction record consumed by predictors and the
 * timing simulator.
 *
 * Traces are execution-driven: workload kernels (src/workloads) run
 * real algorithms and emit one MicroOp per dynamic instruction
 * through a Tracer. Predictor-accuracy runs look only at conditional
 * branches; the timing simulator consumes every record.
 *
 * A trace does not hold MicroOps (trace_buffer.hh): it packs each
 * op's non-address fields into one opmeta word and delta-codes its
 * two addresses, and hands MicroOps out by value.
 */

#ifndef BPSIM_TRACE_MICRO_OP_HH
#define BPSIM_TRACE_MICRO_OP_HH

#include <cstdint>

#include "common/types.hh"

namespace bpsim {

/** Dynamic instruction classes (SPECint-flavoured integer mix). */
enum class InstClass : std::uint8_t {
    IntAlu,     ///< single-cycle integer op
    IntMul,     ///< multi-cycle integer multiply/divide
    Load,       ///< memory read
    Store,      ///< memory write
    CondBranch, ///< conditional direct branch (the predictor's prey)
    UncondBranch, ///< unconditional jump/call/return
};

/** True for either branch class. */
constexpr bool
isBranch(InstClass c)
{
    return c == InstClass::CondBranch || c == InstClass::UncondBranch;
}

/** True for loads and stores. */
constexpr bool
isMemory(InstClass c)
{
    return c == InstClass::Load || c == InstClass::Store;
}

/**
 * One dynamic instruction.
 *
 * Register identifiers are synthetic architectural registers in
 * [1, 63]; 0 means "no register". @c extra carries the effective
 * address for memory ops and the (taken-path) target for branches.
 */
struct MicroOp
{
    Addr pc = 0;
    Addr extra = 0;
    InstClass cls = InstClass::IntAlu;
    bool taken = false;   ///< branch outcome (conditional branches)
    std::uint8_t dst = 0;
    std::uint8_t srcA = 0;
    std::uint8_t srcB = 0;
};

/**
 * The 4-byte meta word of one op: the v3 trace file's opMeta section
 * (trace_io.hh) and what every TraceBuffer holds per op. Bits 0-2
 * hold the class, 3 taken, 4-11 dst, 12-17 srcA and 18-24 srcB; bits
 * 25-31 are zero.
 */
namespace opmeta {

constexpr std::uint32_t
pack(const MicroOp &op)
{
    return static_cast<std::uint32_t>(op.cls) |
           std::uint32_t{op.taken} << 3 | std::uint32_t{op.dst} << 4 |
           std::uint32_t{op.srcA & 0x3fu} << 12 |
           std::uint32_t{op.srcB & 0x7fu} << 18;
}

constexpr InstClass
cls(std::uint32_t m)
{
    return static_cast<InstClass>(m & 0x07);
}

constexpr bool taken(std::uint32_t m) { return (m >> 3) & 1; }
constexpr unsigned dst(std::uint32_t m) { return (m >> 4) & 0xff; }
constexpr unsigned srcA(std::uint32_t m) { return (m >> 12) & 0x3f; }
constexpr unsigned srcB(std::uint32_t m) { return (m >> 18) & 0x7f; }

/** True for a word pack() can produce: a known class and zero spare
 *  bits. */
constexpr bool
valid(std::uint32_t m)
{
    return (m & 0x07) <= static_cast<std::uint32_t>(
                             InstClass::UncondBranch) &&
           (m >> 25) == 0;
}

/** The op @p m describes, at @p pc with @p extra. */
constexpr MicroOp
unpack(std::uint32_t m, Addr pc, Addr extra)
{
    MicroOp op;
    op.pc = pc;
    op.extra = extra;
    op.cls = cls(m);
    op.taken = taken(m);
    op.dst = static_cast<std::uint8_t>(dst(m));
    op.srcA = static_cast<std::uint8_t>(srcA(m));
    op.srcB = static_cast<std::uint8_t>(srcB(m));
    return op;
}

} // namespace opmeta

} // namespace bpsim

#endif // BPSIM_TRACE_MICRO_OP_HH
