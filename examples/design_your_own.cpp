/**
 * @file
 * Design your own predictor: the library's DirectionPredictor
 * interface is the extension point — implement predict()/update()
 * and every runner, wrapper, and bench works with your design.
 *
 * As a worked example we build an "agree" predictor (Sprangle et
 * al.): the PHT stores whether the branch will *agree* with a
 * per-branch bias bit instead of the direction itself, converting
 * destructive PHT aliasing into (mostly) constructive aliasing. We
 * then evaluate it against gshare across the suite, and — because
 * its index has the same structure as gshare's — it is equally easy
 * to pipeline with the paper's gshare.fast recipe.
 */

#include <cstdio>
#include <vector>

#include "common/bitutil.hh"
#include "common/history.hh"
#include "common/sat_counter.hh"
#include "core/factory.hh"
#include "core/runner.hh"
#include "predictors/predictor.hh"

using namespace bpsim;

namespace {

/** Agree predictor: bias table + agree-coded gshare PHT. */
class AgreePredictor : public DirectionPredictor
{
  public:
    explicit AgreePredictor(std::size_t entries)
        : pht_(entries),
          bias_(entries / 4),
          biasSet_(entries / 4, false),
          mask_(entries - 1),
          history_(floorLog2(entries))
    {
    }

    std::string name() const override { return "agree"; }

    std::size_t
    storageBits() const override
    {
        // Two-bit agree counters + one bias bit (+valid) per entry.
        return pht_.size() * 2 + bias_.size() * 2 + history_.length();
    }

    bool
    predict(Addr pc) override
    {
        const std::size_t bi = biasIndex(pc);
        // First-encounter bias: predict backward-taken style (set on
        // first update); until then assume taken.
        const bool bias = biasSet_[bi] ? bias_[bi] : true;
        const bool agree = pht_[index(pc)].taken();
        return agree == bias;
    }

    void
    update(Addr pc, bool taken) override
    {
        const std::size_t bi = biasIndex(pc);
        if (!biasSet_[bi]) {
            // The first outcome becomes the bias, approximating a
            // compiler-set bias bit.
            bias_[bi] = taken;
            biasSet_[bi] = true;
        }
        pht_[index(pc)].update(taken == bias_[bi]);
        history_.shiftIn(taken);
    }

  private:
    std::size_t
    index(Addr pc) const
    {
        return static_cast<std::size_t>(
                   (indexPc(pc) ^ history_.low64())) & mask_;
    }
    std::size_t
    biasIndex(Addr pc) const
    {
        return static_cast<std::size_t>(indexPc(pc)) &
               (bias_.size() - 1);
    }

    std::vector<TwoBitCounter> pht_;
    std::vector<bool> bias_;
    std::vector<bool> biasSet_;
    std::size_t mask_;
    HistoryRegister history_;
};

} // namespace

int
main()
{
    const Counter ops = benchOpsPerWorkload(300000);
    SuiteTraces suite(ops);

    std::printf("custom 'agree' predictor vs library gshare, 16KB "
                "budget, %llu ops per workload\n\n",
                static_cast<unsigned long long>(ops));
    std::printf("%-12s %12s %12s\n", "benchmark", "gshare(%)",
                "agree(%)");

    // One config list: the library predictor and the custom one run
    // side by side over every workload (unknown types like
    // AgreePredictor simply take the one-cell-at-a-time path).
    std::vector<AccuracyCellConfig> cells = {
        {[] { return makePredictor(PredictorKind::Gshare, 16 * 1024); },
         "gshare", 16 * 1024},
        {[] { return std::make_unique<AgreePredictor>(1 << 16); },
         "agree", 16 * 1024},
    };
    obs::RunReport report;
    suiteAccuracyReportEnsemble(suite, cells, report);
    const auto &gshare = cells[0];
    const auto &agree = cells[1];

    for (std::size_t i = 0; i < suite.size(); ++i)
        std::printf("%-12s %12.2f %12.2f\n", suite.name(i).c_str(),
                    gshare.results[i].percent(),
                    agree.results[i].percent());
    std::printf("%-12s %12.2f %12.2f\n", "mean", gshare.meanPercent,
                agree.meanPercent);

    std::printf("\nThe same object plugs into the timing simulator "
                "via SingleCycleFetchPredictor or\nOverridingFetchPredictor "
                "— see examples/quickstart.cpp.\n");
    return 0;
}
