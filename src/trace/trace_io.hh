/**
 * @file
 * Binary trace file I/O.
 *
 * Traces can be expensive to generate at paper scale, and external
 * traces (e.g. converted ChampSim/SimpleScalar traces) are the other
 * way to feed this simulator. There is one little-endian format,
 * version 3: the trace cache's entries and `cli --save-trace` both
 * write it. It starts with a header:
 *
 *   offset  size  field
 *   0       8     magic "BPSTRACE"
 *   8       4     version (3)
 *   12      4     reserved (0)
 *   16      8     record count
 *
 * After the header, a directory (branch count, section table,
 * FNV-1a-64 directory checksum) names six sections, each at a
 * 64-byte-aligned offset, zero-padded between:
 *
 *   0  branchPc     raw u64 LE per conditional branch
 *   1  branchTaken  one byte (0/1) per conditional branch
 *   2  opMeta       4 packed bytes per op: class (3b), taken (1b),
 *                   dst (8b), srcA (6b), srcB (7b); the top 7 bits
 *                   must be zero
 *   3  opPcDelta    LEB128 zigzag(pc - previous pc) stream
 *   4  opExtraDelta LEB128 zigzag(extra - previous extra *of this
 *                   class*) stream
 *   5  blockSums    64-bit block hash per 64 KiB block of sections
 *                   0-4 (four-lane word-wise multiply-rotate — see
 *                   blockHash64 in trace_io.cc; FNV-1a would cost
 *                   one multiply per byte on every warm cache load)
 *
 * The per-class extra baseline keeps interleaved streams (branch
 * targets vs memory addresses vs constant-zero ALU extras) each
 * delta-small. Sections 0-1 duplicate the conditional-branch columns
 * of the op stream so accuracy replay never decodes ops at all:
 * readTrace() reads the file into memory, validates structure,
 * padding and every block checksum, and returns a TraceBuffer built
 * on a backing that holds that image: branchView() points straight
 * into it (zero decode), and the backing decodes the op stream
 * (sections 2-4) once, the first time any copy of the trace touches
 * a micro-op. Truncation and bit flips surface as TraceIoError
 * instead of a silently wrong trace. The encoding is canonical:
 * re-encoding a decoded trace reproduces the file byte for byte.
 */

#ifndef BPSIM_TRACE_TRACE_IO_HH
#define BPSIM_TRACE_TRACE_IO_HH

#include <stdexcept>
#include <string>

#include "trace/trace_buffer.hh"

namespace bpsim {

/** Thrown on malformed trace files or I/O failures. */
class TraceIoError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Write @p trace in the columnar v3 layout (see file comment);
 *  throws TraceIoError on failure. Reading it back yields a
 *  bit-identical trace. */
void writeTraceV3(const TraceBuffer &trace, const std::string &path);

/**
 * Read a v3 trace file into memory the returned buffer's backing
 * owns; throws TraceIoError on any malformed, truncated or
 * other-version file. A concurrent in-place truncation of the file
 * surfaces as a short read and throws too, which the trace cache
 * heals by regenerating. Ops are decoded on first use, and a
 * malformed op stream throws TraceIoError there. On a big-endian
 * host the ops are decoded here and the buffer is a pushed one.
 */
TraceBuffer readTrace(const std::string &path);

} // namespace bpsim

#endif // BPSIM_TRACE_TRACE_IO_HH
