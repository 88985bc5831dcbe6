/**
 * @file
 * Microarchitectural configuration of the timing simulator.
 *
 * The defaults reproduce Table 1 of the paper:
 *
 *   L1 I-cache      64 KB, 64-byte lines, direct mapped
 *   L1 D-cache      64 KB, 64-byte lines, direct mapped
 *   L2 cache        2 MB, 128-byte lines, 4-way set assoc.
 *   BTB             512 entries, 2-way set assoc.
 *   Issue width     8
 *   Pipeline depth  20
 *
 * Latency parameters the paper leaves implicit are set to values
 * conventional for its assumed 3.5 GHz / 100 nm design point and are
 * exposed here so sensitivity studies can vary them.
 */

#ifndef BPSIM_SIM_CORE_CONFIG_HH
#define BPSIM_SIM_CORE_CONFIG_HH

#include <cstddef>

namespace bpsim {

/** Timing-simulator configuration (defaults = paper's Table 1). */
struct CoreConfig
{
    // --- Table 1 parameters -------------------------------------
    std::size_t l1iSizeBytes = 64 * 1024;
    std::size_t l1iLineBytes = 64;
    unsigned l1iAssoc = 1;

    std::size_t l1dSizeBytes = 64 * 1024;
    std::size_t l1dLineBytes = 64;
    unsigned l1dAssoc = 1;

    std::size_t l2SizeBytes = 2 * 1024 * 1024;
    std::size_t l2LineBytes = 128;
    unsigned l2Assoc = 4;

    std::size_t btbEntries = 512;
    unsigned btbAssoc = 2;

    unsigned issueWidth = 8;
    unsigned pipelineDepth = 20;

    // --- Derived / conventional latencies -----------------------
    /** Stages between fetch and execute; instructions fetched at
     *  cycle t can execute no earlier than t + frontEndDepth. The
     *  branch misprediction penalty is dominated by this (a 20-deep
     *  pipeline resolves branches late). */
    unsigned frontEndDepth = 15;

    /** Load-to-use latency on an L1 hit. */
    unsigned l1dHitCycles = 2;
    /** Additional latency for an L2 hit. */
    unsigned l2HitCycles = 14;
    /** Additional latency for main memory (aggressive clock => many
     *  cycles). */
    unsigned memoryCycles = 220;
    /** Fetch stall on an L1I miss that hits in L2 / memory. */
    unsigned ifetchL2Cycles = 12;
    unsigned ifetchMemoryCycles = 210;

    /** Integer multiply latency. */
    unsigned mulCycles = 7;

    /** Fetch bubble when a taken branch misses in the BTB (target
     *  computed in decode). */
    unsigned btbMissPenalty = 3;

    /** Reorder buffer capacity. */
    std::size_t robEntries = 128;
    /** Fetch-to-dispatch buffer capacity. */
    std::size_t fetchBufferEntries = 64;

    /** Field-by-field equality (the timing memo's key compares
     *  whole configurations, so a new field joins it by itself). */
    bool operator==(const CoreConfig &) const = default;
};

} // namespace bpsim

#endif // BPSIM_SIM_CORE_CONFIG_HH
