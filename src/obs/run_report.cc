#include "obs/run_report.hh"

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

namespace bpsim::obs {

std::string
RunReport::Row::key() const
{
    return workload + "|" + predictor + "|" + mode + "|" +
           std::to_string(budgetBytes);
}

Json
RunReport::Row::toJson() const
{
    const Row &r = *this;
    Json j = Json::object();
    j.set("workload", Json(r.workload));
    j.set("predictor", Json(r.predictor));
    j.set("mode", Json(r.mode));
    j.set("budget_bytes", Json(static_cast<std::uint64_t>(r.budgetBytes)));
    j.set("branches", Json(r.branches));
    j.set("mispredictions", Json(r.mispredictions));
    j.set("mispredict_percent", Json(r.mispredictPercent()));
    if (r.hasTiming) {
        Json t = Json::object();
        t.set("issue_width", Json(r.issueWidth));
        t.set("cycles", Json(r.cycles));
        t.set("instructions", Json(r.instructions));
        t.set("ipc", Json(r.ipc()));
        t.set("squashed_uops", Json(r.squashedUops));
        t.set("flushes", Json(r.flushes));
        Json fc = Json::object();
        fc.set("override", Json(r.flushCyclesOverride));
        fc.set("mispredict", Json(r.flushCyclesMispredict));
        fc.set("total", Json(r.flushCyclesTotal()));
        t.set("flush_cycles", std::move(fc));
        Json sc = Json::object();
        sc.set("icache", Json(r.stallCyclesIcache));
        sc.set("btb", Json(r.stallCyclesBtb));
        sc.set("rob", Json(r.robStallCycles));
        t.set("stall_cycles", std::move(sc));
        j.set("timing", std::move(t));
    }
    return j;
}

RunReport::Row
RunReport::Row::fromJson(const Json &j)
try {
    RunReport::Row r;
    r.workload = j.get("workload").asString();
    r.predictor = j.get("predictor").asString();
    r.mode = j.get("mode").asString();
    r.budgetBytes =
        static_cast<std::size_t>(j.get("budget_bytes").asU64());
    r.branches = j.get("branches").asU64();
    r.mispredictions = j.get("mispredictions").asU64();
    if (const Json *t = j.find("timing")) {
        r.hasTiming = true;
        r.issueWidth =
            static_cast<unsigned>(t->get("issue_width").asU64());
        r.cycles = t->get("cycles").asU64();
        r.instructions = t->get("instructions").asU64();
        r.squashedUops = t->get("squashed_uops").asU64();
        r.flushes = t->get("flushes").asU64();
        const Json &fc = t->get("flush_cycles");
        r.flushCyclesOverride = fc.get("override").asU64();
        r.flushCyclesMispredict = fc.get("mispredict").asU64();
        const Json &sc = t->get("stall_cycles");
        r.stallCyclesIcache = sc.get("icache").asU64();
        r.stallCyclesBtb = sc.get("btb").asU64();
        r.robStallCycles = sc.get("rob").asU64();
    }
    return r;
} catch (const JsonError &e) {
    throw RunReportParseError(std::string("malformed row: ") +
                              e.what());
}

Json
RunReport::toJson() const
{
    Json j = Json::object();
    j.set("schema_version", Json(schemaVersion));
    j.set("tool", Json(tool));
    j.set("experiment", Json(experiment));
    j.set("ops_per_workload", Json(opsPerWorkload));
    j.set("seed", Json(seed));
    Json arr = Json::array();
    for (const Row &r : rows)
        arr.push(r.toJson());
    j.set("rows", std::move(arr));
    if (!annotations.empty()) {
        Json ann = Json::array();
        for (const Annotation &a : annotations) {
            Json e = Json::object();
            e.set("key", Json(a.key));
            e.set("message", Json(a.message));
            ann.push(std::move(e));
        }
        j.set("annotations", std::move(ann));
    }
    if (!metrics.isNull())
        j.set("metrics", metrics);
    return j;
}

RunReport
RunReport::fromJson(const Json &j)
{
    try {
        RunReport rep;
        rep.schemaVersion =
            static_cast<int>(j.get("schema_version").asNumber());
        if (rep.schemaVersion != kSchemaVersion)
            throw RunReportSchemaError(
                "unsupported schema_version " +
                std::to_string(rep.schemaVersion) + " (reader is v" +
                std::to_string(kSchemaVersion) + ")");
        rep.tool = j.get("tool").asString();
        rep.experiment = j.get("experiment").asString();
        rep.opsPerWorkload = j.get("ops_per_workload").asU64();
        rep.seed = j.get("seed").asU64();
        for (const Json &row : j.get("rows").items())
            rep.rows.push_back(Row::fromJson(row));
        if (const Json *ann = j.find("annotations"))
            for (const Json &e : ann->items())
                rep.annotations.push_back(
                    {e.get("key").asString(),
                     e.get("message").asString()});
        if (const Json *m = j.find("metrics"))
            rep.metrics = *m;
        return rep;
    } catch (const JsonError &e) {
        throw RunReportParseError(std::string("malformed report: ") +
                                  e.what());
    }
}

bool
RunReport::writeFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "obs: cannot open report file '%s'\n",
                     path.c_str());
        return false;
    }
    os << toJson().dump(2) << '\n';
    return static_cast<bool>(os);
}

RunReport
RunReport::readFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        throw RunReportIoError("cannot open report file '" + path +
                               "'");
    std::ostringstream buf;
    buf << is.rdbuf();
    try {
        return fromJson(Json::parse(buf.str()));
    } catch (const JsonError &e) {
        throw RunReportParseError(path + ": " + e.what());
    }
}

std::vector<std::string>
RunReport::validate() const
{
    std::vector<std::string> problems;
    if (schemaVersion != kSchemaVersion)
        problems.push_back("schema_version " +
                           std::to_string(schemaVersion) +
                           " != " + std::to_string(kSchemaVersion));
    if (experiment.empty())
        problems.push_back("empty experiment name");
    std::set<std::string> seen;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        const std::string where =
            "row " + std::to_string(i) + " (" + r.key() + "): ";
        if (!seen.insert(r.key()).second)
            problems.push_back(where + "duplicate row key");
        if (r.mispredictions > r.branches)
            problems.push_back(where +
                               "mispredictions exceed branches");
        if (!r.hasTiming)
            continue;
        if (r.issueWidth == 0) {
            problems.push_back(where + "timing row with issue_width 0");
            continue;
        }
        if (r.squashedUops !=
            static_cast<Counter>(r.issueWidth) * r.flushCyclesTotal())
            problems.push_back(
                where + "squashed_uops != issue_width * flush cycles (" +
                std::to_string(r.squashedUops) + " vs " +
                std::to_string(static_cast<Counter>(r.issueWidth) *
                               r.flushCyclesTotal()) +
                ")");
        if (r.instructions > 0 && r.cycles == 0)
            problems.push_back(where + "instructions without cycles");
        if (opsPerWorkload > 0 && r.instructions != opsPerWorkload)
            problems.push_back(
                where + "instructions != ops_per_workload (" +
                std::to_string(r.instructions) + " vs " +
                std::to_string(opsPerWorkload) + ")");
    }
    return problems;
}

} // namespace bpsim::obs
