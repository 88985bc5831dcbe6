#include "sim/ooo_core.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>
#include <vector>

namespace bpsim {

void
SimResult::publishMetrics(obs::MetricRegistry &reg,
                          const std::string &workload) const
{
    // `sim.core.<counter>{workload=w}` for plain counters and
    // `sim.core.<counter>{cause=c,workload=w}` for attributed ones;
    // counters accumulate, so publishing a whole suite into one
    // registry yields suite totals alongside the per-workload lines.
    const std::string wl =
        workload.empty() ? "" : "workload=" + workload;
    const auto plain = [&](const char *base) {
        return wl.empty() ? "sim.core." + std::string(base)
                          : "sim.core." + std::string(base) + "{" +
                                wl + "}";
    };
    const auto caused = [&](const char *base, const char *cause) {
        std::string labels = std::string("cause=") + cause;
        if (!wl.empty())
            labels += "," + wl;
        return "sim.core." + std::string(base) + "{" + labels + "}";
    };
    reg.counter(plain("cycles")).add(cycles);
    reg.counter(plain("instructions")).add(instructions);
    reg.counter(plain("cond_branches")).add(condBranches);
    reg.counter(plain("mispredictions")).add(mispredictions);
    reg.counter(plain("flushes")).add(flushes);
    reg.counter(plain("squashed_uops")).add(squashedUops);
    reg.counter(plain("overriding_bubbles")).add(overridingBubbleCycles);
    reg.counter(caused("flush_cycles", "override"))
        .add(overrideStallCycles);
    reg.counter(caused("flush_cycles", "mispredict"))
        .add(mispredictWaitCycles);
    reg.counter(caused("stall_cycles", "icache"))
        .add(icacheStallCycles);
    reg.counter(caused("stall_cycles", "btb")).add(btbStallCycles);
    reg.counter(caused("stall_cycles", "rob")).add(robStallCycles);
    reg.gauge(plain("ipc")).set(ipc());
    reg.gauge(plain("mispredict_percent")).set(mispredictionPercent());
}

OooCore::OooCore(const CoreConfig &cfg)
    : cfg_(cfg),
      l1i_(cfg.l1iSizeBytes, cfg.l1iLineBytes, cfg.l1iAssoc, "l1i"),
      l1d_(cfg.l1dSizeBytes, cfg.l1dLineBytes, cfg.l1dAssoc, "l1d"),
      l2_(cfg.l2SizeBytes, cfg.l2LineBytes, cfg.l2Assoc, "l2"),
      btb_(cfg.btbEntries, cfg.btbAssoc)
{}

namespace {

/** "No entry" in a wakeup or completion list. */
constexpr std::uint32_t kNoLink = ~std::uint32_t{0};

struct RobEntry
{
    InstSeqNum seq = 0;
    std::uint32_t traceIndex = 0;
    /** Wakeup-list links, one per source operand: the next consumer
     *  waiting on the same producer, encoded `(slot << 1) | operand`
     *  (kNoLink ends the list). Meaningless while the operand does
     *  not wait. */
    std::uint32_t wakeNext[2] = {kNoLink, kNoLink};
    /** Head of this entry's own consumer list. */
    std::uint32_t wakeHead = kNoLink;
    /** Next entry completing in the same cycle. */
    std::uint32_t completeNext = kNoLink;
    /** Source operands whose producer has not completed. */
    std::uint8_t pending = 0;
    /** Completed: set in the cycle the result is due, so a done entry
     *  may commit. A committed entry stays done until its slot is
     *  reused, and a reused slot carries a new seq. */
    bool done = false;
    bool mispredictedBranch = false;
};
static_assert(sizeof(RobEntry) == 32);

/** The entry, named by ROB slot and seq, that last wrote a register. */
struct Producer
{
    std::uint32_t slot;
    InstSeqNum seq;
};

struct FetchedInst
{
    std::uint32_t traceIndex;
    bool mispredictedBranch;
    Cycle dispatchReady;
};

/** Why fetch is currently stalled (for cycle attribution). */
enum class StallReason : std::uint8_t {
    None,
    Icache,
    Override, ///< overriding-predictor disagreement squash
    BtbMiss,  ///< taken branch without a BTB target
    Redirect, ///< post-resolution redirect gap
};

/** The lowest @p m set bits of @p x, for m < popcount(x): a rank
 *  select that halves the search width six times. */
std::uint64_t
lowestSetBits(std::uint64_t x, unsigned m)
{
    unsigned pos = 0;
    for (unsigned width = 32; width != 0; width >>= 1) {
        const auto below = static_cast<unsigned>(std::popcount(
            (x >> pos) & ((std::uint64_t{1} << width) - 1)));
        const bool skip = below <= m;
        m -= skip ? below : 0;
        pos += skip ? width : 0;
    }
    return x & ((std::uint64_t{1} << pos) - 1);
}

} // namespace

/*
 * One loop iteration is one cycle: commit, complete, issue, dispatch,
 * fetch, in that order, so each stage sees the state the stages
 * after it left in the previous cycle. The per-cycle state lives in
 * locals, and dispatch and wakeup set links and ready bits with
 * selects rather than branches.
 *
 * The ROB has one slot more than the config asks for: a sentinel
 * that is always done, with seq 0. Register 0, and every register
 * whose last writer has left the ROB, names an entry that is done
 * (the sentinel, a committed entry) or holds a different seq (a
 * reused slot), so an operand waits exactly when its producer's slot
 * still holds the producer's seq and is not done.
 *
 * Issue is wakeup-driven. One bit per ROB slot: @c unissued marks
 * dispatched entries not yet issued, @c ready the subset whose
 * operands have all completed. Dispatch links an entry onto each
 * unfinished producer's consumer list and counts them in `pending`;
 * completion walks the list, and an entry whose count reaches zero
 * sets its ready bit. Issue then walks the bitmaps a 64-slot word at
 * a time in age order (ROB ring order from the head).
 *
 * Completion runs off a wheel: bucket `cycle % size` lists, linked
 * through RobEntry::completeNext, the issued entries that complete in
 * that cycle. The wheel is longer than the slowest latency, so a
 * bucket never mixes cycles. Order within a bucket does not matter:
 * marking done and waking consumers commute, and at most one
 * unresolved mispredicted branch is ever in flight.
 */
SimResult
OooCore::run(const TraceBuffer &trace, const PredictionColumn &column)
{
    if (column.size() != trace.condBranches())
        throw std::invalid_argument(
            "OooCore: prediction column has " +
            std::to_string(column.size()) + " entries for " +
            std::to_string(trace.condBranches()) +
            " conditional branches");
    const std::size_t numOps = trace.size();
    const MicroOp *const ops = numOps ? &trace[0] : nullptr;
    const std::uint32_t *const predictions = column.data();
    obs::EventTracer *const tracer = tracer_;
    const unsigned width = cfg_.issueWidth;
    const unsigned lineShift =
        static_cast<unsigned>(std::countr_zero(cfg_.l1iLineBytes));

    // Livelock guard: 64 cycles per op plus the slowest memory round
    // trips the config allows per op (a dependent chain of load
    // misses, or an i-cache miss on every op, is slow but finishes).
    // Stock predictors' bubbles fit well inside the 64, so reaching
    // the guard means the run cannot finish.
    const Cycle perOp = 64 + cfg_.l1dHitCycles + cfg_.l2HitCycles +
                        cfg_.memoryCycles + cfg_.ifetchMemoryCycles;
    const Cycle maxCycles = static_cast<Cycle>(numOps) * perOp + 100000;

    const std::size_t robSize = cfg_.robEntries;
    // Wakeup links reserve one bit for the operand.
    assert(robSize < (std::size_t{1} << 31));
    std::vector<RobEntry> robStore(robSize + 1);
    RobEntry *const rob = robStore.data();
    const auto sentinel = static_cast<std::uint32_t>(robSize);
    rob[sentinel].done = true;
    std::vector<Producer> regStore(64, Producer{sentinel, 0});
    Producer *const regs = regStore.data();
    std::vector<std::uint64_t> unissuedStore((robSize + 63) / 64);
    std::vector<std::uint64_t> readyStore(unissuedStore.size());
    std::uint64_t *const unissued = unissuedStore.data();
    std::uint64_t *const readyBits = readyStore.data();
    const std::size_t fbSize = cfg_.fetchBufferEntries;
    std::vector<FetchedInst> fbStore(fbSize);
    FetchedInst *const fetchBuffer = fbStore.data();
    // Longer than the slowest latency, so a bucket only ever holds
    // entries due in one cycle.
    std::vector<std::uint32_t> wheel(
        std::bit_ceil(std::size_t{std::max({1u, cfg_.mulCycles,
                                            cfg_.l1dHitCycles +
                                                cfg_.l2HitCycles +
                                                cfg_.memoryCycles})} +
                      1),
        kNoLink);
    const std::size_t wheelMask = wheel.size() - 1;

    SimResult r;
    Cycle cycle = 0;
    std::size_t fetchIndex = 0;
    std::size_t branchOrdinal = 0;
    Cycle fetchStallUntil = 0;
    StallReason stallReason = StallReason::None;
    bool fetchBlocked = false; // waiting on a mispredicted branch
    Addr lastFetchLine = ~Addr{0};
    std::size_t fbHead = 0;
    std::size_t fbCount = 0;
    std::size_t robHead = 0;
    std::size_t robTail = 0;
    std::size_t robCount = 0;
    std::size_t readyCount = 0;
    InstSeqNum nextSeq = 1;

    // Issue one ready entry: clear its bits and put it on the wheel.
    const auto issueEntry = [&](std::size_t slot) {
        const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
        unissued[slot / 64] &= ~bit;
        readyBits[slot / 64] &= ~bit;
        --readyCount;
        RobEntry &e = rob[slot];
        const MicroOp &op = ops[e.traceIndex];
        unsigned latency = 1; // stores: address generation only
        if (op.cls == InstClass::IntMul)
            latency = cfg_.mulCycles;
        else if (op.cls == InstClass::Load)
            latency = l1d_.access(op.extra) ? cfg_.l1dHitCycles
                      : l2_.access(op.extra)
                          ? cfg_.l1dHitCycles + cfg_.l2HitCycles
                          : cfg_.l1dHitCycles + cfg_.l2HitCycles +
                                cfg_.memoryCycles;
        // This cycle's complete stage has already run, so even a
        // zero-latency op completes in the next one.
        std::uint32_t &head =
            wheel[(cycle + std::max(latency, 1u)) & wheelMask];
        e.completeNext = head;
        head = static_cast<std::uint32_t>(slot);
    };

    // Oldest-first issue of ready entries, bounded by issue width,
    // from a window of the issueWidth * 8 oldest unissued entries:
    // scanning the whole ROB every cycle would be unrealistic, and the
    // bounded window approximates a real issue queue. Walks the slots
    // [head, end) and then [0, head), a bitmap word at a time.
    const std::size_t windowSize = std::size_t{width} * 8;
    const auto issueOldestReady = [&] {
        std::size_t seen = 0; // unissued entries passed so far
        unsigned issued = 0;
        const std::size_t bounds[2][2] = {{robHead, robSize},
                                          {0, robHead}};
        for (const auto &[lo, hi] : bounds) {
            for (std::size_t w = lo / 64; w * 64 < hi; ++w) {
                std::uint64_t mask = ~std::uint64_t{0};
                if (w * 64 < lo)
                    mask &= ~std::uint64_t{0} << (lo - w * 64);
                const std::uint64_t waiting = unissued[w] & mask;
                if (waiting == 0)
                    continue;
                std::uint64_t ready = readyBits[w] & mask;
                std::size_t n =
                    static_cast<std::size_t>(std::popcount(waiting));
                if (seen + n > windowSize) {
                    // The window ends inside this word: keep the ready
                    // entries among its first (windowSize - seen)
                    // waiting ones.
                    n = windowSize - seen;
                    ready &= lowestSetBits(waiting,
                                           static_cast<unsigned>(n));
                }
                while (ready != 0) {
                    issueEntry(w * 64 + static_cast<std::size_t>(
                                            std::countr_zero(ready)));
                    ready &= ready - 1;
                    if (++issued == width)
                        return;
                }
                seen += n;
                if (seen == windowSize)
                    return;
            }
        }
    };

    while (fetchIndex < numOps || robCount > 0 || fbCount > 0) {
        if (cycle >= maxCycles)
            throw std::runtime_error(
                "OooCore: livelock guard tripped at cycle " +
                std::to_string(cycle) + " with " +
                std::to_string(fetchIndex) + " / " +
                std::to_string(numOps) + " ops fetched");

        // Commit, in order.
        for (unsigned n = 0; n < width && robCount > 0; ++n) {
            const RobEntry &e = rob[robHead];
            if (!e.done)
                break;
            const MicroOp &op = ops[e.traceIndex];
            if (op.cls == InstClass::Store && !l1d_.access(op.extra))
                l2_.access(op.extra); // stores write at commit
            ++r.instructions;
            robHead = robHead + 1 == robSize ? 0 : robHead + 1;
            --robCount;
        }

        // Complete the entries due this cycle and wake their
        // consumers. The consumers are all still in the ROB: none can
        // issue, let alone commit, before this producer completes.
        std::uint32_t &due = wheel[cycle & wheelMask];
        for (std::uint32_t slot = due; slot != kNoLink;) {
            RobEntry &e = rob[slot];
            slot = e.completeNext;
            e.done = true;
            for (std::uint32_t link = e.wakeHead; link != kNoLink;) {
                const std::size_t c = link >> 1;
                RobEntry &consumer = rob[c];
                link = consumer.wakeNext[link & 1];
                const bool woken = --consumer.pending == 0;
                readyBits[c / 64] |= std::uint64_t{woken} << (c % 64);
                readyCount += woken;
            }
            if (e.mispredictedBranch) {
                // Branch resolution redirects fetch next cycle; the
                // redirect gap is part of the misprediction cost.
                if (tracer)
                    tracer->record(cycle,
                                   obs::SimEvent::MispredictResolve,
                                   ops[e.traceIndex].pc);
                fetchBlocked = false;
                fetchStallUntil = std::max(fetchStallUntil, cycle + 1);
                stallReason = StallReason::Redirect;
                // The refetched path starts a new cache line.
                lastFetchLine = ~Addr{0};
            }
        }
        due = kNoLink;

        if (readyCount != 0)
            issueOldestReady();

        // Dispatch, in program order.
        if (robCount == robSize && fbCount > 0 &&
            fetchBuffer[fbHead].dispatchReady <= cycle) {
            ++r.robStallCycles;
            if (tracer)
                tracer->record(cycle, obs::SimEvent::RobStall,
                               ops[fetchBuffer[fbHead].traceIndex].pc,
                               robCount);
        }
        for (unsigned n = 0; n < width && fbCount > 0 && robCount < robSize;
             ++n) {
            const FetchedInst &fi = fetchBuffer[fbHead];
            if (fi.dispatchReady > cycle)
                break;
            const auto slot = static_cast<std::uint32_t>(robTail);
            RobEntry &e = rob[slot];
            e.seq = nextSeq++;
            e.traceIndex = fi.traceIndex;
            e.wakeHead = kNoLink;
            e.done = false;
            e.mispredictedBranch = fi.mispredictedBranch;

            // Look the operand producers up *now*: dispatch order is
            // program order, so regs still names the youngest older
            // writer of each source register.
            const MicroOp &op = ops[fi.traceIndex];
            const Producer pa = regs[op.srcA];
            RobEntry &a = rob[pa.slot];
            const bool waitA = a.seq == pa.seq && !a.done;
            e.wakeNext[0] = a.wakeHead;
            a.wakeHead = waitA ? slot << 1 : a.wakeHead;
            const Producer pb = regs[op.srcB];
            RobEntry &b = rob[pb.slot];
            const bool waitB = b.seq == pb.seq && !b.done;
            e.wakeNext[1] = b.wakeHead;
            b.wakeHead = waitB ? slot << 1 | 1 : b.wakeHead;
            e.pending = static_cast<std::uint8_t>(waitA + waitB);
            regs[op.dst] = {slot, e.seq};
            regs[0] = {sentinel, 0};

            const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
            const bool ready = e.pending == 0;
            unissued[slot / 64] |= bit;
            readyBits[slot / 64] |= ready ? bit : 0;
            readyCount += ready;
            robTail = robTail + 1 == robSize ? 0 : robTail + 1;
            ++robCount;
            fbHead = fbHead + 1 == fbSize ? 0 : fbHead + 1;
            --fbCount;
        }

        // Fetch.
        if (fetchBlocked) {
            // Waiting on a mispredicted branch: these are
            // misprediction recovery cycles, and every one squashes a
            // fetch group's worth of wrong-path micro-ops.
            ++r.mispredictWaitCycles;
            r.squashedUops += width;
        } else if (cycle < fetchStallUntil) {
            switch (stallReason) {
              case StallReason::Icache:
                ++r.icacheStallCycles;
                break;
              case StallReason::Override:
                ++r.frontEndStallCycles;
                ++r.overrideStallCycles;
                r.squashedUops += width;
                break;
              case StallReason::BtbMiss:
                ++r.frontEndStallCycles;
                ++r.btbStallCycles;
                break;
              case StallReason::Redirect:
                ++r.mispredictWaitCycles;
                r.squashedUops += width;
                break;
              case StallReason::None:
                break;
            }
        } else {
            stallReason = StallReason::None;
            for (unsigned n = 0; n < width && fetchIndex < numOps &&
                                 fbCount < fbSize;
                 ++n) {
                const MicroOp &op = ops[fetchIndex];

                // Instruction cache: one access per new line.
                const Addr line = op.pc >> lineShift;
                if (line != lastFetchLine) {
                    lastFetchLine = line;
                    if (!l1i_.access(op.pc)) {
                        const unsigned stall =
                            l2_.access(op.pc) ? cfg_.ifetchL2Cycles
                                              : cfg_.ifetchMemoryCycles;
                        fetchStallUntil = cycle + stall;
                        stallReason = StallReason::Icache;
                        if (tracer)
                            tracer->record(cycle,
                                           obs::SimEvent::CacheMiss,
                                           op.pc, stall);
                        break; // refetch this op after the miss
                    }
                }

                bool mispredicted = false;
                bool endsFetchBlock = false;
                // A taken branch needs its target from the BTB.
                bool needsTarget = op.cls == InstClass::UncondBranch;
                if (op.cls == InstClass::CondBranch) {
                    const std::uint32_t entry =
                        predictions[branchOrdinal++];
                    const bool predicted = entry >> 31;
                    const unsigned bubbles =
                        entry & PredictionColumn::kMaxBubbleCycles;
                    ++r.condBranches;
                    if (tracer)
                        tracer->record(cycle, obs::SimEvent::Predict,
                                       op.pc,
                                       predicted == op.taken ? 0 : 1);
                    if (bubbles > 0) {
                        // Overriding disagreement (or stall-style
                        // delay): the fetches behind this branch are
                        // squashed.
                        fetchStallUntil = cycle + 1 + bubbles;
                        stallReason = StallReason::Override;
                        r.overridingBubbleCycles += bubbles;
                        ++r.flushes;
                        if (tracer)
                            tracer->record(
                                cycle, obs::SimEvent::OverrideDisagree,
                                op.pc, bubbles);
                        endsFetchBlock = true;
                    }
                    if (predicted != op.taken) {
                        ++r.mispredictions;
                        ++r.flushes;
                        mispredicted = true;
                        fetchBlocked = true;
                        endsFetchBlock = true;
                    } else {
                        needsTarget = predicted;
                    }
                }
                if (needsTarget) {
                    const auto target = btb_.lookup(op.pc);
                    if (!target || *target != op.extra) {
                        fetchStallUntil = cycle + 1 + cfg_.btbMissPenalty;
                        stallReason = StallReason::BtbMiss;
                        r.btbMissPenaltyCycles += cfg_.btbMissPenalty;
                        if (tracer)
                            tracer->record(cycle, obs::SimEvent::BtbMiss,
                                           op.pc, cfg_.btbMissPenalty);
                    }
                    btb_.update(op.pc, op.extra);
                    endsFetchBlock = true; // discontinuous fetch
                }

                if (tracer && n == 0)
                    tracer->record(cycle, obs::SimEvent::Fetch, op.pc);
                std::size_t fbTail = fbHead + fbCount;
                fbTail -= fbTail >= fbSize ? fbSize : 0;
                fetchBuffer[fbTail] = {
                    static_cast<std::uint32_t>(fetchIndex), mispredicted,
                    cycle + cfg_.frontEndDepth};
                ++fbCount;
                ++fetchIndex;
                if (endsFetchBlock)
                    break;
            }
        }
        ++cycle;
    }
    r.cycles = cycle;
    r.l1iMissRate = l1i_.missRate();
    r.l1dMissRate = l1d_.missRate();
    r.l2MissRate = l2_.missRate();
    r.btbHitRate = btb_.hitRate();
    return r;
}

} // namespace bpsim
