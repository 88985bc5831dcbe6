#include "sim/ooo_core.hh"

#include <algorithm>
#include <cassert>
#include <functional>
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

OooCore::OooCore(const CoreConfig &cfg, FetchPredictor &predictor)
    : cfg_(cfg),
      predictor_(predictor),
      l1i_(cfg.l1iSizeBytes, cfg.l1iLineBytes, cfg.l1iAssoc, "l1i"),
      l1d_(cfg.l1dSizeBytes, cfg.l1dLineBytes, cfg.l1dAssoc, "l1d"),
      l2_(cfg.l2SizeBytes, cfg.l2LineBytes, cfg.l2Assoc, "l2"),
      btb_(cfg.btbEntries, cfg.btbAssoc),
      rob_(cfg.robEntries),
      regProducer_(64)
{
    // Completion-heap keys and the unissued list reserve 16 bits for
    // the ROB slot.
    assert(rob_.size() <= (std::size_t{1} << 16));
    completeHeap_.reserve(rob_.size());
    unissued_.reserve(rob_.size());
}

OooCore::Producer
OooCore::producerOf(std::uint8_t reg) const
{
    if (reg == 0)
        return {};
    return regProducer_[reg];
}

bool
OooCore::producerDone(const Producer &p) const
{
    if (p.robSlot < 0)
        return true;
    const RobEntry &e = rob_[static_cast<std::size_t>(p.robSlot)];
    // The producing entry may have retired and its slot been reused;
    // the sequence number disambiguates.
    if (!e.valid || e.seq != p.seq)
        return true;
    return e.done && e.completeCycle <= cycle_;
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
            const FetchPrediction fp = predictor_.predict(op.pc);
            predictor_.update(op.pc, op.taken);
            ++result_.condBranches;
            if (tracer_)
                tracer_->record(cycle_, obs::SimEvent::Predict,
                                op.pc, fp.taken == op.taken ? 0 : 1);
            if (fp.bubbleCycles > 0) {
                // Overriding disagreement (or stall-style delay):
                // the fetches behind this branch are squashed.
                fetchStallUntil_ = cycle_ + 1 + fp.bubbleCycles;
                stallReason_ = StallReason::Override;
                result_.overridingBubbleCycles += fp.bubbleCycles;
                ++result_.flushes;
                if (tracer_)
                    tracer_->record(cycle_,
                                    obs::SimEvent::OverrideDisagree,
                                    op.pc, fp.bubbleCycles);
                ends_fetch_block = true;
            }
            if (fp.taken != op.taken) {
                ++result_.mispredictions;
                ++result_.flushes;
                mispredicted = true;
                fetchBlocked_ = true;
                ends_fetch_block = true;
            } else if (fp.taken) {
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

        RobEntry &e = rob_[robTail_];
        e.seq = nextSeq_++;
        e.traceIndex = fi.traceIndex;
        e.completeCycle = 0;
        e.done = false;
        e.mispredictedBranch = fi.mispredictedBranch;
        e.valid = true;

        const MicroOp &op = trace[fi.traceIndex];
        // Capture the operand producers *now*: dispatch order is
        // program order, so regProducer_ still names the youngest
        // older writer of each source register.
        e.prodA = producerOf(op.srcA);
        e.prodB = producerOf(op.srcB);
        if (op.dst != 0)
            regProducer_[op.dst] = {static_cast<std::int32_t>(robTail_),
                                    e.seq};

        unissued_.push_back(static_cast<std::uint16_t>(robTail_));
        robTail_ = (robTail_ + 1) % rob_.size();
        ++robCount_;
        fetchBuffer_.pop_front();
    }
}

void
OooCore::issueStage(const TraceBuffer &trace)
{
    // Oldest-first issue of ready instructions, bounded by issue
    // width. Scanning the whole ROB every cycle would be slow and
    // unrealistic; a bounded window over the oldest unissued entries
    // approximates a real issue queue.
    unsigned issued = 0;
    const std::size_t scan_limit = std::min<std::size_t>(
        unissued_.size(), std::size_t{cfg_.issueWidth} * 8);
    std::size_t kept = 0;
    std::size_t k = 0;
    for (; k < scan_limit && issued < cfg_.issueWidth; ++k) {
        const std::uint16_t slot = unissued_[k];
        RobEntry &e = rob_[slot];
        if (!producerDone(e.prodA) || !producerDone(e.prodB)) {
            unissued_[kept++] = slot;
            continue;
        }
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
        ++issued;
        ++issuedNotDone_;
        completeHeap_.push_back(
            (static_cast<std::uint64_t>(e.completeCycle) << 16) |
            static_cast<std::uint64_t>(slot));
        std::push_heap(completeHeap_.begin(), completeHeap_.end(),
                       std::greater<>{});
        nextCompleteCycle_ = completeHeap_.front() >> 16;
    }
    // Compact in place: the not-ready entries already sit at
    // [0, kept); slide the unvisited tail down behind them.
    unissued_.erase(unissued_.begin() + static_cast<std::ptrdiff_t>(kept),
                    unissued_.begin() + static_cast<std::ptrdiff_t>(k));
}

void
OooCore::completeStage(const TraceBuffer &trace)
{
    (void)trace; // used only when a tracer is attached
    if (issuedNotDone_ == 0 || cycle_ < nextCompleteCycle_)
        return;
    // Pop every due completion off the min-heap. Heap entries can
    // only be issued-and-not-done (see the member comment), so no
    // liveness re-checks are needed.
    while (!completeHeap_.empty() &&
           (completeHeap_.front() >> 16) <= cycle_) {
        const std::size_t slot =
            static_cast<std::size_t>(completeHeap_.front() & 0xffff);
        std::pop_heap(completeHeap_.begin(), completeHeap_.end(),
                      std::greater<>{});
        completeHeap_.pop_back();
        RobEntry &e = rob_[slot];
        e.done = true;
        --issuedNotDone_;
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
    nextCompleteCycle_ = completeHeap_.empty()
                             ? ~Cycle{0}
                             : completeHeap_.front() >> 16;
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
OooCore::run(const TraceBuffer &trace)
{
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
