/**
 * @file
 * Library entry points for the paper-artifact benches.
 *
 * Historically each figure/table/study was only an executable; the
 * sweep engine (tools/bpsweep) needs to run all of them inside one
 * process, against one shared worker pool and one suite of traces.
 * So every bench body is a function
 *
 *     int run(const ArtifactSpec &, SweepContext &)
 *
 * and the per-bench main() is a thin wrapper: parse BenchArgs, build
 * a StandaloneSweepContext (stdout + ReportSession + private
 * CellPool — exactly the old BenchSession behavior, byte for byte),
 * call the body. bpsweep instead builds a BufferedSweepContext per
 * artifact (in-memory output, own RunReport/MetricRegistry, a
 * CellPool on the shared scheduler, a prefix of the sweep's suite)
 * and runs many bodies concurrently. Because every body
 * writes rows in commit order and text through ctx.printf(), its
 * RunReport and table text are byte-identical either way — the
 * contract test_artifact_registry and the CI sweep-check job
 * enforce.
 *
 * Artifacts are registered in artifact_registry.cc via the accessor
 * functions below (plain functions, so no static-initializer-order
 * or linker dead-stripping hazards). Names are stable CLI/report
 * identifiers; never reuse or rename one.
 */

#ifndef BPSIM_BENCH_ARTIFACT_REGISTRY_HH
#define BPSIM_BENCH_ARTIFACT_REGISTRY_HH

#include <cstddef>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/types.hh"
#include "obs/event_trace.hh"
#include "obs/metrics.hh"
#include "obs/report_session.hh"
#include "obs/run_report.hh"
#include "parallel/cell_pool.hh"

namespace bpsim {

/** The seed every artifact's suite traces are generated at. */
inline constexpr std::uint64_t kSuiteSeed = 42;

/** Static description of one reproducible artifact. */
struct ArtifactSpec
{
    std::string name;  ///< stable id: bench binary / report name
    std::string title; ///< one-line "what it reproduces"
    /** Default BPSIM_OPS_PER_WORKLOAD fallback; 0 = replays no
     *  suite traces (table2). */
    Counter defaultOps = 0;
};

/**
 * Everything an artifact body needs from its host. The standalone
 * main and bpsweep provide different implementations; bodies must
 * not touch stdout or globals directly — all table text goes through
 * printf() so the sweep can buffer it per artifact.
 */
class SweepContext
{
  public:
    virtual ~SweepContext() = default;

    virtual obs::RunReport &report() = 0;
    virtual obs::MetricRegistry &metrics() = 0;
    /** Event sink for timing runs; nullptr unless --trace. */
    virtual obs::EventTracer *tracer() = 0;
    virtual bool wantReport() const = 0;
    /** The suite-cell executor (a standalone CellPool, or a
     *  CellPool on the sweep's shared scheduler inside bpsweep).
     *  Never nullptr. */
    virtual parallel::CellPool *pool() = 0;
    /** The memo timing sweeps share (core/runner.hh): one per
     *  standalone artifact, one per bpsweep invocation. */
    virtual TimingMemo &timingMemo() = 0;

    /** Registry pointer only when a report will be written — so
     *  plain stdout runs skip the metric bookkeeping entirely. */
    obs::MetricRegistry *
    metricsIfEnabled()
    {
        return wantReport() ? &metrics() : nullptr;
    }

    /** The twelve stand-in traces at @p ops ops each, seed
     *  kSuiteSeed: a prefix of the sweep's suite inside bpsweep,
     *  generated (or loaded from BPSIM_TRACE_CACHE) for this body
     *  otherwise, or when the sweep holds fewer ops. */
    SuiteTraces suite(Counter ops);

    /** The artifact's table output (stdout standalone, an in-memory
     *  buffer inside bpsweep). */
    void printf(const char *fmt, ...)
        __attribute__((format(printf, 2, 3)));

  protected:
    /** Sink for printf(); called from the artifact driver thread. */
    virtual void write(const char *data, std::size_t n) = 0;

    /** The sweep's suite, which suite() cuts; nullptr standalone. */
    const SuiteTraces *held_ = nullptr;
};

/** An artifact body. Returns the process exit code (0 success). */
using ArtifactFn = int (*)(const ArtifactSpec &, SweepContext &);

struct ArtifactDef
{
    ArtifactSpec spec;
    ArtifactFn fn = nullptr;
};

/** All artifacts, in canonical (paper) order. */
const std::vector<ArtifactDef> &artifactRegistry();

/** Lookup by spec name; nullptr when unknown. */
const ArtifactDef *findArtifact(const std::string &name);

/** The longest suite @p defs replay: the largest
 *  benchOpsPerWorkload(defaultOps) among those with a nonzero
 *  defaultOps, or 0 when none replays suite traces. A sweep holds
 *  one suite of this length and serves every body a prefix. */
Counter longestSuiteOps(const std::vector<const ArtifactDef *> &defs);

/** Per-artifact accessors (each defined in its bench TU). */
const ArtifactDef &fig1AccuracyBudgetArtifact();
const ArtifactDef &fig2IdealVsOverridingArtifact();
const ArtifactDef &fig5AccuracyLargeArtifact();
const ArtifactDef &fig6PerBenchmarkAccuracyArtifact();
const ArtifactDef &fig7IpcBudgetArtifact();
const ArtifactDef &fig8PerBenchmarkIpcArtifact();
const ArtifactDef &table2AccessDelayArtifact();
const ArtifactDef &ablationUpdateDelayArtifact();
const ArtifactDef &ablationDelayHidingArtifact();
const ArtifactDef &ablationPipelineArtifact();
const ArtifactDef &studyDisagreementArtifact();
const ArtifactDef &studyPipelineDepthArtifact();
const ArtifactDef &studyContextSwitchArtifact();
const ArtifactDef &studySoftErrorArtifact();
const ArtifactDef &studyProtectionSurfaceArtifact();
const ArtifactDef &studyFieldVulnerabilityArtifact();

/**
 * The standalone host: stdout output, a ReportSession for
 * --report/--trace, a private CellPool sized by --jobs, and a suite
 * generated for the body. The destructor stamps the pool's
 * utilization stats into the metrics before the session writes the
 * report (the old BenchSession behavior).
 */
class StandaloneSweepContext final : public SweepContext
{
  public:
    StandaloneSweepContext(const ArtifactSpec &spec,
                           const BenchArgs &args);
    ~StandaloneSweepContext() override;

    obs::RunReport &report() override { return session_.report(); }
    obs::MetricRegistry &metrics() override
    {
        return session_.metrics();
    }
    obs::EventTracer *tracer() override { return session_.tracer(); }
    bool wantReport() const override { return session_.wantReport(); }
    parallel::CellPool *pool() override { return &pool_; }
    TimingMemo &timingMemo() override { return memo_; }

  protected:
    void write(const char *data, std::size_t n) override;

  private:
    obs::ReportSession session_;
    parallel::CellPool pool_;
    TimingMemo memo_;
};

/**
 * The in-process host bpsweep (and the registry test) uses: output
 * accumulates in a string, report/metrics live here, and cells run
 * on a caller-supplied pool, share a caller-supplied timing memo
 * (or a private one) and replay prefixes of a caller-supplied suite
 * (or generate their own). finalize() attaches the metric snapshot
 * to the report the way ReportSession::finish() would.
 */
class BufferedSweepContext final : public SweepContext
{
  public:
    /** @param pool Cell executor; must outlive the context.
     *  @param want_report Enables metrics and report assembly.
     *  @param memo Timing memo shared with other artifacts (must
     *  outlive the context); nullptr gives the context its own.
     *  @param suite The sweep's suite, at seed kSuiteSeed (must
     *  outlive the context); nullptr makes suite() generate. */
    BufferedSweepContext(const ArtifactSpec &spec,
                         parallel::CellPool *pool, bool want_report,
                         TimingMemo *memo = nullptr,
                         const SuiteTraces *suite = nullptr);

    obs::RunReport &report() override { return report_; }
    obs::MetricRegistry &metrics() override { return metrics_; }
    obs::EventTracer *tracer() override { return nullptr; }
    bool wantReport() const override { return wantReport_; }
    parallel::CellPool *pool() override { return pool_; }
    TimingMemo &timingMemo() override { return *memo_; }

    const std::string &output() const { return out_; }

    /** Snapshot metrics into the report (idempotent-enough: call
     *  once, after the body returned). */
    void finalize();

  protected:
    void write(const char *data, std::size_t n) override;

  private:
    obs::RunReport report_;
    obs::MetricRegistry metrics_;
    parallel::CellPool *pool_;
    bool wantReport_;
    std::string out_;
    TimingMemo ownMemo_;
    TimingMemo *memo_;
};

/**
 * The whole main() of a standalone bench: parse the common flags
 * (exit 2 on usage errors), host the body in a
 * StandaloneSweepContext, return its exit code.
 */
int artifactMain(const ArtifactDef &def, int argc, char **argv);

/** Print the standard bench header naming the reproduced artifact. */
void benchHeader(SweepContext &ctx, const std::string &artifact,
                 const std::string &what, Counter ops);

} // namespace bpsim

#endif // BPSIM_BENCH_ARTIFACT_REGISTRY_HH
