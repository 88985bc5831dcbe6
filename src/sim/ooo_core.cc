#include "sim/ooo_core.hh"

#include <algorithm>
#include <cassert>
#include <bit>
#include <stdexcept>
#include <string>

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
      btb_(cfg.btbEntries, cfg.btbAssoc),
      rob_(cfg.robEntries),
      regProducer_(64),
      unissued_((cfg.robEntries + 63) / 64),
      ready_((cfg.robEntries + 63) / 64),
      // Longer than the slowest latency, so a bucket only ever holds
      // entries due in one cycle.
      completions_(std::bit_ceil(
                       std::size_t{std::max({1u, cfg.mulCycles,
                                             cfg.l1dHitCycles +
                                                 cfg.l2HitCycles +
                                                 cfg.memoryCycles})} +
                       1),
                   kNoLink)
{
    // Wakeup links reserve one bit for the operand.
    assert(rob_.size() < (std::size_t{1} << 31));
}

OooCore::Producer
OooCore::producerOf(std::uint8_t reg) const
{
    if (reg == 0)
        return {};
    return regProducer_[reg];
}

void
OooCore::waitOn(const Producer &p, std::size_t slot, unsigned operand)
{
    if (p.robSlot < 0)
        return;
    RobEntry &prod = rob_[static_cast<std::size_t>(p.robSlot)];
    // The producing entry may have retired and its slot been reused;
    // the sequence number disambiguates. A done producer completed in
    // an earlier stage, so its value is already available.
    if (!prod.valid || prod.seq != p.seq || prod.done)
        return;
    RobEntry &e = rob_[slot];
    e.wakeNext[operand] = prod.wakeHead;
    prod.wakeHead = static_cast<std::uint32_t>(slot << 1 | operand);
    ++e.pending;
}

unsigned
OooCore::loadLatency(Addr addr)
{
    if (l1d_.access(addr))
        return cfg_.l1dHitCycles;
    if (l2_.access(addr))
        return cfg_.l1dHitCycles + cfg_.l2HitCycles;
    return cfg_.l1dHitCycles + cfg_.l2HitCycles + cfg_.memoryCycles;
}

void
OooCore::fetchStage(const TraceBuffer &trace)
{
    if (fetchBlocked_) {
        // Waiting on a mispredicted branch: these are misprediction
        // recovery cycles, and every one squashes a fetch group's
        // worth of wrong-path micro-ops.
        ++result_.mispredictWaitCycles;
        result_.squashedUops += cfg_.issueWidth;
        return;
    }
    if (cycle_ < fetchStallUntil_) {
        switch (stallReason_) {
          case StallReason::Icache:
            ++result_.icacheStallCycles;
            break;
          case StallReason::Override:
            ++result_.frontEndStallCycles;
            ++result_.overrideStallCycles;
            result_.squashedUops += cfg_.issueWidth;
            break;
          case StallReason::BtbMiss:
            ++result_.frontEndStallCycles;
            ++result_.btbStallCycles;
            break;
          case StallReason::Redirect:
            ++result_.mispredictWaitCycles;
            result_.squashedUops += cfg_.issueWidth;
            break;
          case StallReason::None:
            break;
        }
        return;
    }
    stallReason_ = StallReason::None;

    for (unsigned n = 0; n < cfg_.issueWidth; ++n) {
        if (fetchIndex_ >= trace.size() ||
            fetchBuffer_.size() >= cfg_.fetchBufferEntries)
            return;

        const MicroOp &op = trace[fetchIndex_];

        // Instruction cache: one access per new line.
        const Addr line = op.pc / cfg_.l1iLineBytes;
        if (line != lastFetchLine_) {
            lastFetchLine_ = line;
            if (!l1i_.access(op.pc)) {
                const unsigned stall = l2_.access(op.pc)
                                           ? cfg_.ifetchL2Cycles
                                           : cfg_.ifetchMemoryCycles;
                fetchStallUntil_ = cycle_ + stall;
                stallReason_ = StallReason::Icache;
                if (tracer_)
                    tracer_->record(cycle_, obs::SimEvent::CacheMiss,
                                    op.pc, stall);
                return; // refetch this op after the miss resolves
            }
        }

        bool mispredicted = false;
        bool ends_fetch_block = false;

        if (op.cls == InstClass::CondBranch) {
            const std::uint32_t entry = column_[branchOrdinal_++];
            const bool predicted = entry >> 31;
            const unsigned bubbles =
                entry & PredictionColumn::kMaxBubbleCycles;
            ++result_.condBranches;
            if (tracer_)
                tracer_->record(cycle_, obs::SimEvent::Predict,
                                op.pc, predicted == op.taken ? 0 : 1);
            if (bubbles > 0) {
                // Overriding disagreement (or stall-style delay):
                // the fetches behind this branch are squashed.
                fetchStallUntil_ = cycle_ + 1 + bubbles;
                stallReason_ = StallReason::Override;
                result_.overridingBubbleCycles += bubbles;
                ++result_.flushes;
                if (tracer_)
                    tracer_->record(cycle_,
                                    obs::SimEvent::OverrideDisagree,
                                    op.pc, bubbles);
                ends_fetch_block = true;
            }
            if (predicted != op.taken) {
                ++result_.mispredictions;
                ++result_.flushes;
                mispredicted = true;
                fetchBlocked_ = true;
                ends_fetch_block = true;
            } else if (predicted) {
                // Correctly predicted taken: need the target.
                const auto target = btb_.lookup(op.pc);
                if (!target || *target != op.extra) {
                    fetchStallUntil_ =
                        cycle_ + 1 + cfg_.btbMissPenalty;
                    stallReason_ = StallReason::BtbMiss;
                    result_.btbMissPenaltyCycles +=
                        cfg_.btbMissPenalty;
                    if (tracer_)
                        tracer_->record(cycle_,
                                        obs::SimEvent::BtbMiss,
                                        op.pc, cfg_.btbMissPenalty);
                }
                btb_.update(op.pc, op.extra);
                ends_fetch_block = true; // discontinuous fetch
            }
        } else if (op.cls == InstClass::UncondBranch) {
            const auto target = btb_.lookup(op.pc);
            if (!target || *target != op.extra) {
                fetchStallUntil_ = cycle_ + 1 + cfg_.btbMissPenalty;
                stallReason_ = StallReason::BtbMiss;
                result_.btbMissPenaltyCycles += cfg_.btbMissPenalty;
                if (tracer_)
                    tracer_->record(cycle_, obs::SimEvent::BtbMiss,
                                    op.pc, cfg_.btbMissPenalty);
            }
            btb_.update(op.pc, op.extra);
            ends_fetch_block = true;
        }

        if (tracer_ && n == 0)
            tracer_->record(cycle_, obs::SimEvent::Fetch, op.pc);
        fetchBuffer_.push_back(
            {static_cast<std::uint32_t>(fetchIndex_),
             cycle_ + cfg_.frontEndDepth, mispredicted});
        ++fetchIndex_;

        if (ends_fetch_block)
            return;
    }
}

void
OooCore::dispatchStage(const TraceBuffer &trace)
{
    if (robCount_ >= rob_.size() && !fetchBuffer_.empty() &&
        fetchBuffer_.front().dispatchReady <= cycle_) {
        ++result_.robStallCycles;
        if (tracer_)
            tracer_->record(
                cycle_, obs::SimEvent::RobStall,
                trace[fetchBuffer_.front().traceIndex].pc, robCount_);
    }
    for (unsigned n = 0; n < cfg_.issueWidth; ++n) {
        if (fetchBuffer_.empty() || robCount_ >= rob_.size())
            return;
        const FetchedInst &fi = fetchBuffer_.front();
        if (fi.dispatchReady > cycle_)
            return;

        const std::size_t slot = robTail_;
        RobEntry &e = rob_[slot];
        e.seq = nextSeq_++;
        e.traceIndex = fi.traceIndex;
        e.completeCycle = 0;
        e.wakeHead = kNoLink;
        e.pending = 0;
        e.done = false;
        e.mispredictedBranch = fi.mispredictedBranch;
        e.valid = true;

        const MicroOp &op = trace[fi.traceIndex];
        // Look the operand producers up *now*: dispatch order is
        // program order, so regProducer_ still names the youngest
        // older writer of each source register.
        waitOn(producerOf(op.srcA), slot, 0);
        waitOn(producerOf(op.srcB), slot, 1);
        if (op.dst != 0)
            regProducer_[op.dst] = {static_cast<std::int32_t>(slot),
                                    e.seq};

        const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
        unissued_[slot / 64] |= bit;
        if (e.pending == 0) {
            ready_[slot / 64] |= bit;
            ++readyCount_;
        }
        robTail_ = (robTail_ + 1) % rob_.size();
        ++robCount_;
        fetchBuffer_.pop_front();
    }
}

void
OooCore::issue(const TraceBuffer &trace, std::size_t slot)
{
    const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
    unissued_[slot / 64] &= ~bit;
    ready_[slot / 64] &= ~bit;
    --readyCount_;

    RobEntry &e = rob_[slot];
    const MicroOp &op = trace[e.traceIndex];
    unsigned latency = 1;
    switch (op.cls) {
      case InstClass::IntMul:
        latency = cfg_.mulCycles;
        break;
      case InstClass::Load:
        latency = loadLatency(op.extra);
        break;
      case InstClass::Store:
        latency = 1; // address generation; data written at commit
        break;
      default:
        latency = 1;
        break;
    }
    e.completeCycle = cycle_ + latency;
    // This cycle's complete stage has already run, so even a
    // zero-latency op completes in the next one.
    const Cycle due = std::max(e.completeCycle, cycle_ + 1);
    std::uint32_t &head = completions_[due & (completions_.size() - 1)];
    e.completeNext = head;
    head = static_cast<std::uint32_t>(slot);
}

void
OooCore::issueStage(const TraceBuffer &trace)
{
    // Oldest-first issue of ready instructions, bounded by issue
    // width, from a window of the issueWidth * 8 oldest unissued
    // entries: scanning the whole ROB every cycle would be
    // unrealistic, and the bounded window approximates a real issue
    // queue. Age order is ROB ring order from the head, so walk the
    // slots [head, end) and then [0, head), a bitmap word at a time.
    if (readyCount_ == 0)
        return;
    const std::size_t limit = std::size_t{cfg_.issueWidth} * 8;
    const std::size_t slots = rob_.size();
    std::size_t seen = 0; // unissued entries passed so far
    unsigned issued = 0;
    const std::size_t bounds[2][2] = {{robHead_, slots}, {0, robHead_}};
    for (const auto &[lo, hi] : bounds) {
        for (std::size_t w = lo / 64; w * 64 < hi; ++w) {
            std::uint64_t mask = ~std::uint64_t{0};
            if (w * 64 < lo)
                mask &= ~std::uint64_t{0} << (lo - w * 64);
            if (hi - w * 64 < 64)
                mask &= (std::uint64_t{1} << (hi - w * 64)) - 1;
            const std::uint64_t waiting = unissued_[w] & mask;
            if (waiting == 0)
                continue;
            std::uint64_t ready = ready_[w] & mask;
            std::size_t n =
                static_cast<std::size_t>(std::popcount(waiting));
            if (seen + n > limit) {
                // The window ends inside this word: keep the ready
                // entries among its first (limit - seen) waiting ones.
                std::uint64_t beyond = waiting;
                for (std::size_t k = seen; k < limit; ++k)
                    beyond &= beyond - 1;
                ready &= waiting ^ beyond;
                n = limit - seen;
            }
            while (ready != 0) {
                const std::size_t slot =
                    w * 64 +
                    static_cast<std::size_t>(std::countr_zero(ready));
                ready &= ready - 1;
                issue(trace, slot);
                if (++issued == cfg_.issueWidth)
                    return;
            }
            seen += n;
            if (seen == limit)
                return;
        }
    }
}

void
OooCore::completeStage(const TraceBuffer &trace)
{
    (void)trace; // used only when a tracer is attached
    std::uint32_t &due = completions_[cycle_ & (completions_.size() - 1)];
    for (std::uint32_t slot = due; slot != kNoLink;) {
        RobEntry &e = rob_[slot];
        slot = e.completeNext;
        e.done = true;
        // Wake the consumers. They are all still in the ROB: none can
        // issue, let alone commit, before this producer completes.
        for (std::uint32_t link = e.wakeHead; link != kNoLink;) {
            const std::size_t c = link >> 1;
            RobEntry &consumer = rob_[c];
            link = consumer.wakeNext[link & 1];
            if (--consumer.pending == 0) {
                ready_[c / 64] |= std::uint64_t{1} << (c % 64);
                ++readyCount_;
            }
        }
        e.wakeHead = kNoLink;
        if (e.mispredictedBranch) {
            // Branch resolution redirects fetch next cycle; the
            // redirect gap is part of the misprediction cost.
            if (tracer_)
                tracer_->record(cycle_,
                                obs::SimEvent::MispredictResolve,
                                trace[e.traceIndex].pc);
            fetchBlocked_ = false;
            if (fetchStallUntil_ <= cycle_)
                fetchStallUntil_ = cycle_ + 1;
            stallReason_ = StallReason::Redirect;
            // The refetched path starts a new cache line.
            lastFetchLine_ = ~Addr{0};
        }
    }
    due = kNoLink;
}

void
OooCore::commitStage(const TraceBuffer &trace)
{
    for (unsigned n = 0; n < cfg_.issueWidth; ++n) {
        if (robCount_ == 0)
            return;
        RobEntry &e = rob_[robHead_];
        if (!e.done || e.completeCycle > cycle_)
            return;
        const MicroOp &op = trace[e.traceIndex];
        if (op.cls == InstClass::Store) {
            // Stores write the memory system at commit.
            if (!l1d_.access(op.extra))
                l2_.access(op.extra);
        }
        ++result_.instructions;
        e.valid = false;
        robHead_ = (robHead_ + 1) % rob_.size();
        --robCount_;
    }
}

SimResult
OooCore::run(const TraceBuffer &trace, const PredictionColumn &column)
{
    if (column.size() != trace.condBranches())
        throw std::invalid_argument(
            "OooCore: prediction column has " +
            std::to_string(column.size()) + " entries for " +
            std::to_string(trace.condBranches()) +
            " conditional branches");
    column_ = column.data();
    result_ = SimResult{};
    // Livelock guard: 64 cycles per op plus the slowest memory round
    // trips the config allows per op (a dependent chain of load
    // misses, or an i-cache miss on every op, is slow but finishes).
    // Stock predictors' bubbles fit well inside the 64, so reaching
    // the guard means the run cannot finish.
    const Cycle perOp = 64 + cfg_.l1dHitCycles + cfg_.l2HitCycles +
                        cfg_.memoryCycles + cfg_.ifetchMemoryCycles;
    const Cycle maxCycles =
        static_cast<Cycle>(trace.size()) * perOp + 100000;
    while (fetchIndex_ < trace.size() || robCount_ > 0 ||
           !fetchBuffer_.empty()) {
        if (cycle_ >= maxCycles)
            throw std::runtime_error(
                "OooCore: livelock guard tripped at cycle " +
                std::to_string(cycle_) + " with " +
                std::to_string(fetchIndex_) + " / " +
                std::to_string(trace.size()) + " ops fetched");
        commitStage(trace);
        completeStage(trace);
        issueStage(trace);
        dispatchStage(trace);
        fetchStage(trace);
        ++cycle_;
    }
    result_.cycles = cycle_;
    result_.l1iMissRate = l1i_.missRate();
    result_.l1dMissRate = l1d_.missRate();
    result_.l2MissRate = l2_.missRate();
    result_.btbHitRate = btb_.hitRate();
    return result_;
}

} // namespace bpsim
