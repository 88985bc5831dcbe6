/**
 * @file
 * Google-benchmark microbenchmarks of the library's hot paths:
 * predictor predict+update throughput, trace generation, and the
 * timing simulator itself. These are engineering benchmarks (how
 * fast is the simulator), not paper reproductions.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>

#include "bench_util.hh"
#include "common/vec_kernels.hh"
#include "core/ensemble.hh"
#include "core/factory.hh"
#include "core/runner.hh"
#include "obs/report_session.hh"
#include "obs/span_trace.hh"
#include "parallel/cell_pool.hh"
#include "trace/trace_cache.hh"
#include "workloads/registry.hh"

namespace bpsim {
namespace {

const TraceBuffer &
sharedTrace()
{
    static const TraceBuffer trace = [] {
        const auto w = makeWorkload("176.gcc");
        return generateTrace(*w, 200000, 42);
    }();
    return trace;
}

void
BM_PredictorThroughput(benchmark::State &state)
{
    const auto kind = static_cast<PredictorKind>(state.range(0));
    const auto &trace = sharedTrace();
    auto pred = makePredictor(kind, 64 * 1024);
    Counter branches = 0;
    for (auto _ : state) {
        for (const MicroOp &op : trace) {
            if (op.cls != InstClass::CondBranch)
                continue;
            benchmark::DoNotOptimize(pred->predict(op.pc));
            pred->update(op.pc, op.taken);
            ++branches;
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(branches));
    state.SetLabel(kindName(kind));
}

void
BM_TraceGeneration(benchmark::State &state)
{
    const auto w = makeWorkload("164.gzip");
    Counter ops = 0;
    for (auto _ : state) {
        const auto t = generateTrace(*w, 100000, 1);
        benchmark::DoNotOptimize(t.size());
        ops += t.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}

void
BM_TimingSimulator(benchmark::State &state)
{
    const auto &trace = sharedTrace();
    CoreConfig cfg;
    Counter insts = 0;
    for (auto _ : state) {
        auto fp = makeFetchPredictor(PredictorKind::GshareFast,
                                     64 * 1024, DelayMode::Pipelined);
        const auto r = runTiming(cfg, *fp, trace);
        benchmark::DoNotOptimize(r.cycles);
        insts += r.instructions;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(insts));
}

void
BM_AccuracyRunner(benchmark::State &state)
{
    const auto &trace = sharedTrace();
    Counter branches = 0;
    for (auto _ : state) {
        auto pred =
            makePredictor(PredictorKind::GshareFast, 64 * 1024);
        const auto r = runAccuracy(*pred, trace);
        benchmark::DoNotOptimize(r.mispredictions);
        branches += r.branches;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(branches));
}

/**
 * Single-cell replay kernel, devirtualized path: what one suite cell
 * costs per branch through runAccuracy()'s monomorphized loop.
 * Registered per predictor kind as BM_PredictUpdate/<name>; the CI
 * kernel-bench gate tracks BM_PredictUpdate/gshare.
 */
void
BM_PredictUpdate(benchmark::State &state, PredictorKind kind)
{
    const auto &trace = sharedTrace();
    auto pred = makePredictor(kind, 64 * 1024);
    Counter branches = 0;
    for (auto _ : state) {
        const auto r = runAccuracy(*pred, trace);
        benchmark::DoNotOptimize(r.mispredictions);
        branches += r.branches;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(branches));
}

/** Same cell through the virtual-dispatch loop, for the
 *  devirtualization speedup ratio. */
void
BM_PredictUpdateVirtual(benchmark::State &state, PredictorKind kind)
{
    const auto &trace = sharedTrace();
    auto pred = makePredictor(kind, 64 * 1024);
    Counter branches = 0;
    for (auto _ : state) {
        const auto r = runAccuracyVirtual(*pred, trace);
        benchmark::DoNotOptimize(r.mispredictions);
        branches += r.branches;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(branches));
}

/**
 * Flight-recorder overhead on the disabled and enabled paths, around
 * a trivial xorshift body:
 *
 *   none      the bare body — the baseline;
 *   disabled  body + a SpanScope with no recorder installed: must
 *             cost only the null-sink branch (CI gates this against
 *             "none" within the same run);
 *   enabled   body + a SpanScope recording into an installed ring —
 *             the real per-span cost (clock reads + ring store).
 */
enum class SpanMode { None, Disabled, Enabled };

void
BM_SpanOverhead(benchmark::State &state, SpanMode mode)
{
    // One recorder per benchmark run; install only for "enabled".
    obs::SpanRecorder recorder(1 << 10);
    if (mode == SpanMode::Enabled)
        obs::SpanRecorder::install(&recorder);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    Counter spans = 0;
    for (auto _ : state) {
        if (mode == SpanMode::None) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        } else {
            obs::SpanScope span("bench", "xorshift");
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        benchmark::DoNotOptimize(x);
        ++spans;
    }
    if (mode == SpanMode::Enabled)
        obs::SpanRecorder::install(nullptr);
    state.SetItemsProcessed(static_cast<std::int64_t>(spans));
}

/**
 * The perceptron group kernel: one pass over the shared trace
 * stepping one member per standard budget (the group a figure sweep
 * forms). Items processed counts member-branches, so items/s divides
 * directly against BM_PredictUpdate/perceptron's serial per-cell
 * rate — the ratio is the per-member saving from sharing the input
 * vector.
 */
void
BM_EnsembleReplay(benchmark::State &state)
{
    const auto &trace = sharedTrace();
    Counter memberBranches = 0;
    for (auto _ : state) {
        state.PauseTiming();
        std::vector<std::unique_ptr<DirectionPredictor>> owned;
        std::vector<PerceptronPredictor *> members;
        for (const std::size_t budget : standardBudgets()) {
            owned.push_back(
                makePredictor(PredictorKind::Perceptron, budget));
            members.push_back(
                static_cast<PerceptronPredictor *>(owned.back().get()));
        }
        state.ResumeTiming();
        const auto results = runPerceptronEnsemble(members, trace);
        if (!results) {
            state.SkipWithError("perceptron kernel refused the group");
            return;
        }
        for (const auto &r : *results)
            memberBranches += r.branches;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(memberBranches));
    state.SetLabel("width=" +
                   std::to_string(standardBudgets().size()));
}

/**
 * Timing-core cost against ROB size (arg = robEntries) on 181.mcf,
 * whose load misses fill the ROB, under gshare overriding at 64 KB.
 * The issue stage walks only unissued entries, so per-instruction
 * throughput must stay flat as the ROB grows; CI gates the 512:32
 * items-per-second ratio, which falls to ~0.35 if issue goes back to
 * walking the ROB. Registered without the namespace prefix so the
 * gate's NUM:DEN pair can name it.
 */
void
BM_OooCoreRobScaling(benchmark::State &state)
{
    static const TraceBuffer trace = [] {
        const auto w = makeWorkload("181.mcf");
        return generateTrace(*w, 100000, 42);
    }();
    CoreConfig cfg;
    cfg.robEntries = static_cast<std::size_t>(state.range(0));
    Counter insts = 0;
    for (auto _ : state) {
        auto fp = makeFetchPredictor(PredictorKind::Gshare, 64 * 1024,
                                     DelayMode::Overriding);
        const auto r = runTiming(cfg, *fp, trace);
        benchmark::DoNotOptimize(r.cycles);
        insts += r.instructions;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(insts));
}

/** Register the per-kind replay-kernel, perceptron group-kernel,
 *  span and ROB-scaling benchmarks. Called from main (name/closure
 *  registration needs runtime values). */
void
registerKernelBenchmarks()
{
    for (const PredictorKind kind : allKinds()) {
        benchmark::RegisterBenchmark(
            ("BM_PredictUpdate/" + kindName(kind)).c_str(),
            [kind](benchmark::State &s) { BM_PredictUpdate(s, kind); })
            ->Unit(benchmark::kMillisecond);
        benchmark::RegisterBenchmark(
            ("BM_PredictUpdateVirtual/" + kindName(kind)).c_str(),
            [kind](benchmark::State &s) {
                BM_PredictUpdateVirtual(s, kind);
            })
            ->Unit(benchmark::kMillisecond);
    }
    benchmark::RegisterBenchmark("BM_EnsembleReplay/perceptron",
                                 BM_EnsembleReplay)
        ->Unit(benchmark::kMillisecond);
    const std::pair<const char *, SpanMode> spanModes[] = {
        {"BM_SpanOverhead/none", SpanMode::None},
        {"BM_SpanOverhead/disabled", SpanMode::Disabled},
        {"BM_SpanOverhead/enabled", SpanMode::Enabled},
    };
    for (const auto &[name, mode] : spanModes)
        benchmark::RegisterBenchmark(
            name,
            [mode](benchmark::State &s) { BM_SpanOverhead(s, mode); });
    benchmark::RegisterBenchmark("BM_OooCoreRobScaling",
                                 BM_OooCoreRobScaling)
        ->Arg(32)
        ->Arg(128)
        ->Arg(512)
        ->Unit(benchmark::kMillisecond);
}

/** The perceptron dot-product/train kernel in isolation: verifies
 *  the contiguous-int16 formulation actually vectorizes (throughput
 *  should sit far above one weight per cycle). */
void
BM_PerceptronKernel(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    std::vector<std::int16_t> w(n, 3);
    std::vector<std::int16_t> x(n, 1);
    for (std::size_t i = 1; i < n; i += 2)
        x[i] = -1;
    Counter weights = 0;
    for (auto _ : state) {
        const int y = dotSignedI16Wide(w.data(), x.data(), n);
        benchmark::DoNotOptimize(y);
        trainSignedI16Wide(w.data(), x.data(), n, y >= 0 ? -1 : 1,
                           -128, 127);
        benchmark::DoNotOptimize(w.data());
        weights += 2 * n;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(weights));
}

/**
 * CellPool scaling: a fixed 24-cell accuracy grid (2 predictors x 12
 * workloads) executed at 1/2/4/hardware jobs. On a multicore host the
 * per-iteration time should drop roughly linearly until the core
 * count; jobs=1 measures the pool's serial-path overhead against the
 * plain loop (BM_AccuracyRunner).
 */
void
BM_CellPoolSuiteAccuracy(benchmark::State &state)
{
    const unsigned jobs =
        state.range(0) == 0
            ? parallel::hardwareJobs()
            : static_cast<unsigned>(state.range(0));
    static const SuiteTraces suite(50000, 42);
    const std::vector<PredictorKind> kinds = {
        PredictorKind::GshareFast, PredictorKind::Gshare};
    Counter cells = 0;
    for (auto _ : state) {
        parallel::CellPool pool(jobs);
        for (auto kind : kinds) {
            std::vector<AccuracyCellConfig> one = {
                {[kind] { return makePredictor(kind, 64 * 1024); },
                 kindName(kind), 64 * 1024}};
            obs::RunReport report;
            suiteAccuracyReportEnsemble(suite, one, report, nullptr,
                                        &pool);
            benchmark::DoNotOptimize(one[0].results.data());
            cells += one[0].results.size();
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(cells));
    state.SetLabel("jobs=" + std::to_string(jobs));
}

/** Trace-suite construction with a cold cache: every workload is
 *  generated and written to disk. */
void
BM_TraceCacheCold(benchmark::State &state)
{
    const std::string dir =
        std::filesystem::temp_directory_path() /
        "bpsim_microbench_cache_cold";
    Counter ops = 0;
    for (auto _ : state) {
        std::filesystem::remove_all(dir);
        const SuiteTraces suite(50000, 42, nullptr, TraceCache(dir));
        benchmark::DoNotOptimize(suite.cacheMisses());
        ops += suite.size() * suite.opsPerWorkload();
    }
    std::filesystem::remove_all(dir);
    state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}

/** Trace-suite construction with a warm cache: every workload is
 *  served from disk, skipping generation entirely. */
void
BM_TraceCacheWarm(benchmark::State &state)
{
    const std::string dir =
        std::filesystem::temp_directory_path() /
        "bpsim_microbench_cache_warm";
    std::filesystem::remove_all(dir);
    { // Prime once outside the timed loop.
        const SuiteTraces prime(50000, 42, nullptr, TraceCache(dir));
        benchmark::DoNotOptimize(prime.cacheMisses());
    }
    Counter ops = 0;
    for (auto _ : state) {
        const SuiteTraces suite(50000, 42, nullptr, TraceCache(dir));
        benchmark::DoNotOptimize(suite.cacheHits());
        ops += suite.size() * suite.opsPerWorkload();
    }
    std::filesystem::remove_all(dir);
    state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}

/**
 * Columnar (v3) trace-cache codec: one store (column split + delta
 * encode + checksums) plus one load of a 200k-op trace. The load
 * side is the v3 cold cost — reading the file into memory,
 * header/dir/block-checksum validation, branch columns served from
 * that image; op decoding stays lazy and unpaid. Items processed
 * counts trace ops through the codec (store + load).
 */
void
BM_TraceCacheColumnar(benchmark::State &state)
{
    const std::string dir =
        std::filesystem::temp_directory_path() /
        "bpsim_microbench_cache_columnar";
    std::filesystem::remove_all(dir);
    const TraceCache cache(dir);
    const TraceBuffer &trace = sharedTrace();
    Counter ops = 0;
    for (auto _ : state) {
        cache.store("176.gcc", trace.size(), 42, trace);
        const auto loaded = cache.load("176.gcc", trace.size(), 42);
        benchmark::DoNotOptimize(loaded->branchView().size());
        ops += 2 * trace.size();
    }
    std::filesystem::remove_all(dir);
    state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}

} // namespace
} // namespace bpsim

BENCHMARK(bpsim::BM_PredictorThroughput)
    ->DenseRange(0, 7, 1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bpsim::BM_TraceGeneration)->Unit(benchmark::kMillisecond);
BENCHMARK(bpsim::BM_TimingSimulator)->Unit(benchmark::kMillisecond);
BENCHMARK(bpsim::BM_AccuracyRunner)->Unit(benchmark::kMillisecond);
BENCHMARK(bpsim::BM_CellPoolSuiteAccuracy)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(0) // 0 = hardware concurrency
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bpsim::BM_TraceCacheCold)->Unit(benchmark::kMillisecond);
BENCHMARK(bpsim::BM_TraceCacheWarm)->Unit(benchmark::kMillisecond);
BENCHMARK(bpsim::BM_TraceCacheColumnar)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bpsim::BM_PerceptronKernel)->Arg(32)->Arg(64)->Arg(256);

int
main(int argc, char **argv)
{
    // Strip --report/--trace/--jobs before google-benchmark sees argv
    // so its own flag parser does not reject them. BenchArgs::parse
    // is unusable here: it rejects every leftover argument, including
    // google-benchmark's own flags.
    bpsim::obs::ReportSession session(argc, argv, "microbench");
    (void)bpsim::takeJobsFlag(argc, argv);
    bpsim::registerKernelBenchmarks();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
