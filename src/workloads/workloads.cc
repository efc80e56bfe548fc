#include "workloads/workloads.h"

#include <algorithm>
#include <cmath>

#include "logic/solver.h"
#include "pc/flat_pc.h"
#include "util/logging.h"
#include "util/rng.h"

namespace reason {
namespace workloads {

const char *
workloadName(WorkloadId id)
{
    switch (id) {
      case WorkloadId::AlphaGeo: return "AlphaGeometry";
      case WorkloadId::R2Guard: return "R2-Guard";
      case WorkloadId::GeLaTo: return "GeLaTo";
      case WorkloadId::CtrlG: return "Ctrl-G";
      case WorkloadId::NeuroPC: return "NeuroPC";
      case WorkloadId::Linc: return "LINC";
    }
    return "?";
}

const char *
datasetName(DatasetId id)
{
    switch (id) {
      case DatasetId::IMO: return "IMO";
      case DatasetId::MiniF2F: return "MiniF2F";
      case DatasetId::TwinSafety: return "TwinSafety";
      case DatasetId::XSTest: return "XSTest";
      case DatasetId::CommonGen: return "CommonGen";
      case DatasetId::News: return "News";
      case DatasetId::CoAuthor: return "CoAuthor";
      case DatasetId::AwA2: return "AwA2";
      case DatasetId::FOLIO: return "FOLIO";
      case DatasetId::ProofWriter: return "ProofWriter";
    }
    return "?";
}

WorkloadId
workloadOf(DatasetId id)
{
    switch (id) {
      case DatasetId::IMO:
      case DatasetId::MiniF2F: return WorkloadId::AlphaGeo;
      case DatasetId::TwinSafety:
      case DatasetId::XSTest: return WorkloadId::R2Guard;
      case DatasetId::CommonGen:
      case DatasetId::News: return WorkloadId::GeLaTo;
      case DatasetId::CoAuthor: return WorkloadId::CtrlG;
      case DatasetId::AwA2: return WorkloadId::NeuroPC;
      case DatasetId::FOLIO:
      case DatasetId::ProofWriter: return WorkloadId::Linc;
    }
    return WorkloadId::AlphaGeo;
}

std::vector<DatasetId>
allDatasets()
{
    return {DatasetId::IMO,       DatasetId::MiniF2F,
            DatasetId::TwinSafety, DatasetId::XSTest,
            DatasetId::CommonGen, DatasetId::News,
            DatasetId::CoAuthor,  DatasetId::AwA2,
            DatasetId::FOLIO,     DatasetId::ProofWriter};
}

std::vector<WorkloadId>
allWorkloads()
{
    return {WorkloadId::AlphaGeo, WorkloadId::R2Guard,
            WorkloadId::GeLaTo,   WorkloadId::CtrlG,
            WorkloadId::NeuroPC,  WorkloadId::Linc};
}

namespace {

/** Neural runtime share on A6000 per workload (Fig. 3(a)). */
double
neuralFraction(WorkloadId id)
{
    switch (id) {
      case WorkloadId::AlphaGeo: return 0.362;
      case WorkloadId::R2Guard: return 0.373;
      case WorkloadId::GeLaTo: return 0.634;
      case WorkloadId::CtrlG: return 0.361;
      case WorkloadId::NeuroPC: return 0.495;
      case WorkloadId::Linc: return 0.652;
    }
    return 0.5;
}

/**
 * Deduction-style SAT suite: planted (satisfiable) instances mixed with
 * structured unsatisfiable ones (pigeonhole and over-constrained
 * planted-complement formulas), under a conflict budget that models the
 * proof deadline the end task imposes.
 */
SatSuite
makeSatSuite(Rng &rng, uint32_t count, uint32_t num_vars,
             double clause_ratio, uint64_t budget, double unsat_frac,
             uint32_t extra_binary_pct)
{
    SatSuite suite;
    suite.conflictBudget = budget;
    for (uint32_t i = 0; i < count; ++i) {
        bool make_unsat = rng.uniform01() < unsat_frac;
        if (make_unsat) {
            // Pigeonhole instances scale steeply in difficulty; size is
            // randomized so some exceed the budget (accuracy < 100%).
            uint32_t holes = rng.bernoulli(0.15) ? 6 : 5;
            suite.instances.push_back(logic::pigeonhole(holes));
            suite.truth.push_back(0);
        } else {
            uint32_t clauses = static_cast<uint32_t>(
                clause_ratio * double(num_vars));
            std::vector<bool> hidden;
            logic::CnfFormula f =
                logic::plantedKSat(rng, num_vars, clauses, 3, &hidden);
            // Binary clauses planted against the *same* hidden model
            // keep the instance satisfiable while giving the Stage-2
            // implication-graph pruning structure to exploit.
            uint32_t extra = num_vars * extra_binary_pct / 100;
            logic::CnfFormula f2 = logic::plantedKSatWithModel(
                rng, hidden, extra, 2);
            for (const auto &c : f2.clauses())
                f.addClause(c);
            // Rule-chain redundancy (geometry derivations state
            // antecedents their rule chains already imply): implication
            // chains l0 -> l1 -> ... over hidden-true literals, plus
            // clauses that mention both ends of a chain segment — the
            // implied literal is exactly what hidden-literal
            // elimination removes.
            uint32_t chain_len = 6;
            uint32_t num_chains = std::max(1u, num_vars / 12);
            std::vector<std::vector<logic::Lit>> chains;
            for (uint32_t c = 0; c < num_chains; ++c) {
                std::vector<logic::Lit> chain;
                for (uint32_t k = 0; k < chain_len; ++k) {
                    uint32_t v = static_cast<uint32_t>(
                        rng.uniformInt(0, num_vars - 1));
                    chain.push_back(logic::Lit::make(v, !hidden[v]));
                }
                for (uint32_t k = 0; k + 1 < chain.size(); ++k)
                    f.addClause({~chain[k], chain[k + 1]});
                chains.push_back(std::move(chain));
            }
            uint32_t redundant =
                static_cast<uint32_t>(0.40 * double(clauses));
            for (uint32_t rci = 0; rci < redundant; ++rci) {
                const auto &chain = chains[static_cast<size_t>(
                    rng.uniformInt(0, int64_t(chains.size()) - 1))];
                uint32_t i = static_cast<uint32_t>(
                    rng.uniformInt(0, chain_len - 2));
                uint32_t j = static_cast<uint32_t>(
                    rng.uniformInt(i + 1, chain_len - 1));
                uint32_t r = static_cast<uint32_t>(
                    rng.uniformInt(0, num_vars - 1));
                f.addClause({chain[i], chain[j],
                             logic::Lit::make(r, rng.bernoulli(0.5))});
            }
            suite.instances.push_back(std::move(f));
            suite.truth.push_back(1);
        }
    }
    return suite;
}

/** Class-conditional PC suite (NeuroPC / R2-Guard style). */
PcSuite
makePcSuite(Rng &rng, uint32_t num_classes, uint32_t num_vars,
            uint32_t arity, uint32_t num_sums, uint32_t queries_per_class,
            uint32_t calibration_per_class)
{
    PcSuite suite;
    // Wide mixtures (8 product children per sum) carry the low-flow
    // edges that Sec. IV-B's pruning removes.
    for (uint32_t c = 0; c < num_classes; ++c)
        suite.classCircuits.push_back(
            pc::randomCircuit(rng, num_vars, arity, num_sums, 8));
    for (uint32_t c = 0; c < num_classes; ++c) {
        auto cal = pc::sampleDataset(rng, suite.classCircuits[c],
                                     calibration_per_class);
        suite.calibration.insert(suite.calibration.end(), cal.begin(),
                                 cal.end());
        auto qs = pc::sampleDataset(rng, suite.classCircuits[c],
                                    queries_per_class);
        for (auto &q : qs) {
            suite.queries.push_back(std::move(q));
            suite.labels.push_back(c);
        }
    }
    return suite;
}

/** Constrained-decoding HMM suite (GeLaTo / Ctrl-G style). */
HmmSuite
makeHmmSuite(Rng &rng, uint32_t states, uint32_t symbols, uint32_t band,
             uint32_t seq_len, uint32_t num_queries,
             uint32_t num_calibration, uint32_t num_constraints)
{
    HmmSuite suite;
    // Peaked rows (concentration < 1): distilled language HMMs put most
    // mass on few successors, so posterior pruning removes genuinely
    // unused structure without moving the decode.
    suite.model = hmm::Hmm::banded(rng, states, symbols, band, 0.35);
    for (uint32_t i = 0; i < num_calibration; ++i) {
        hmm::Sequence obs;
        suite.model.sample(rng, seq_len, &obs);
        suite.calibration.push_back(std::move(obs));
    }
    for (uint32_t i = 0; i < num_queries; ++i) {
        hmm::Sequence obs;
        std::vector<uint32_t> path;
        suite.model.sample(rng, seq_len, &obs, &path);
        suite.queries.push_back(std::move(obs));
        suite.truePaths.push_back(std::move(path));
    }
    for (uint32_t i = 0; i < num_constraints; ++i) {
        uint32_t pos = static_cast<uint32_t>(
            rng.uniformInt(0, int64_t(seq_len) - 1));
        // Constraint states are drawn from the decoded paths so a
        // correct decoder can succeed.
        uint32_t q = static_cast<uint32_t>(
            rng.uniformInt(0, int64_t(suite.truePaths.size()) - 1));
        suite.constraints.emplace_back(pos, suite.truePaths[q][pos]);
    }
    return suite;
}

struct ScaleParams
{
    uint32_t sat_instances;
    uint32_t sat_vars;
    uint32_t pc_vars;
    uint32_t pc_queries;
    uint32_t hmm_states;
    uint32_t hmm_len;
    uint32_t hmm_queries;
};

ScaleParams
paramsFor(TaskScale scale)
{
    if (scale == TaskScale::Small)
        return {8, 90, 16, 60, 16, 32, 24};
    return {16, 150, 24, 120, 24, 48, 48};
}

} // namespace

TaskBundle
generate(DatasetId dataset, TaskScale scale, uint64_t seed)
{
    Rng rng(seed ^ (uint64_t(dataset) << 32) ^
            (scale == TaskScale::Large ? 0x5a5a5a5aull : 0));
    TaskBundle b;
    b.dataset = dataset;
    b.workload = workloadOf(dataset);
    b.scale = scale;
    b.neuralFractionA6000 = neuralFraction(b.workload);
    ScaleParams p = paramsFor(scale);

    switch (dataset) {
      case DatasetId::IMO:
        b.metricName = "Accuracy";
        b.sat = makeSatSuite(rng, p.sat_instances + 4,
                             p.sat_vars * 5 / 2, 4.25, 1500, 0.20, 40);
        break;
      case DatasetId::MiniF2F:
        b.metricName = "Accuracy";
        b.sat = makeSatSuite(rng, p.sat_instances + 4,
                             p.sat_vars * 2, 4.25, 1200, 0.20, 35);
        break;
      case DatasetId::TwinSafety:
        b.metricName = "AUPRC";
        b.pcs = makePcSuite(rng, 2, p.pc_vars, 2, 3, p.pc_queries, 120);
        b.hmms = makeHmmSuite(rng, p.hmm_states, 24, 3, p.hmm_len / 2,
                              p.hmm_queries / 2, 24, 0);
        break;
      case DatasetId::XSTest:
        b.metricName = "AUPRC";
        b.pcs = makePcSuite(rng, 2, p.pc_vars + 4, 2, 3, p.pc_queries,
                            140);
        b.hmms = makeHmmSuite(rng, p.hmm_states, 20, 2, p.hmm_len / 2,
                              p.hmm_queries / 2, 24, 0);
        break;
      case DatasetId::CommonGen:
        b.metricName = "BLEU";
        b.hmms = makeHmmSuite(rng, p.hmm_states * 2, 48, 3, p.hmm_len,
                              p.hmm_queries, 32, 0);
        break;
      case DatasetId::News:
        b.metricName = "BLEU";
        b.hmms = makeHmmSuite(rng, p.hmm_states * 2, 64, 4, p.hmm_len,
                              p.hmm_queries, 32, 0);
        break;
      case DatasetId::CoAuthor:
        b.metricName = "Success rate";
        b.hmms = makeHmmSuite(rng, p.hmm_states, 40, 3, p.hmm_len,
                              p.hmm_queries, 32, 12);
        break;
      case DatasetId::AwA2:
        b.metricName = "Accuracy";
        b.pcs = makePcSuite(rng, 4, p.pc_vars, 2, 3, p.pc_queries / 2,
                            100);
        break;
      case DatasetId::FOLIO:
        b.metricName = "Accuracy";
        b.sat = makeSatSuite(rng, p.sat_instances, p.sat_vars, 4.1,
                             900, 0.35, 50);
        break;
      case DatasetId::ProofWriter:
        b.metricName = "Accuracy";
        b.sat = makeSatSuite(rng, p.sat_instances, p.sat_vars * 4 / 3,
                             4.2, 1000, 0.30, 45);
        break;
    }
    return b;
}

double
satAccuracy(const SatSuite &suite)
{
    reasonAssert(suite.instances.size() == suite.truth.size(),
                 "suite truth mismatch");
    if (suite.instances.empty())
        return 0.0;
    uint32_t correct = 0;
    for (size_t i = 0; i < suite.instances.size(); ++i) {
        logic::SolverConfig cfg;
        cfg.conflictBudget = suite.conflictBudget;
        logic::CdclSolver solver(suite.instances[i], cfg);
        logic::SolveResult r = solver.solve();
        if ((r == logic::SolveResult::Sat && suite.truth[i] == 1) ||
            (r == logic::SolveResult::Unsat && suite.truth[i] == 0))
            ++correct;
    }
    return double(correct) / double(suite.instances.size());
}

double
pcClassificationAccuracy(const std::vector<pc::Circuit> &class_circuits,
                         const std::vector<pc::Assignment> &queries,
                         const std::vector<uint32_t> &labels)
{
    reasonAssert(queries.size() == labels.size(), "label mismatch");
    if (queries.empty())
        return 0.0;
    // Flat path: lower each class circuit once and stream every query
    // through a reused evaluator (class-major for cache locality).
    std::vector<std::vector<double>> ll(
        class_circuits.size(), std::vector<double>(queries.size()));
    for (uint32_t c = 0; c < class_circuits.size(); ++c) {
        auto flat = class_circuits[c].lowered();
        pc::CircuitEvaluator eval(*flat);
        eval.logLikelihoodBatch(queries, ll[c]);
    }
    uint32_t correct = 0;
    for (size_t q = 0; q < queries.size(); ++q) {
        double best = -1e300;
        uint32_t arg = 0;
        for (uint32_t c = 0; c < class_circuits.size(); ++c) {
            if (ll[c][q] > best) {
                best = ll[c][q];
                arg = c;
            }
        }
        if (arg == labels[q])
            ++correct;
    }
    return double(correct) / double(queries.size());
}

double
hmmDecodeAgreement(const hmm::Hmm &model,
                   const std::vector<hmm::Sequence> &queries,
                   const std::vector<std::vector<uint32_t>> &true_paths,
                   uint32_t tolerance)
{
    reasonAssert(queries.size() == true_paths.size(), "path mismatch");
    if (queries.empty())
        return 0.0;
    const uint32_t n = model.numStates();
    uint64_t agree = 0;
    uint64_t total = 0;
    for (size_t q = 0; q < queries.size(); ++q) {
        hmm::ViterbiResult v = hmm::viterbi(model, queries[q]);
        for (size_t t = 0; t < v.path.size(); ++t) {
            uint32_t a = v.path[t];
            uint32_t b = true_paths[q][t];
            uint32_t dist = std::min((a + n - b) % n, (b + n - a) % n);
            agree += dist <= tolerance ? 1 : 0;
            ++total;
        }
    }
    return total ? double(agree) / double(total) : 0.0;
}

double
hmmConstraintSuccess(
    const hmm::Hmm &model, const std::vector<hmm::Sequence> &queries,
    const std::vector<std::pair<uint32_t, uint32_t>> &constraints)
{
    if (queries.empty() || constraints.empty())
        return 0.0;
    // A query "succeeds" when its decoded path satisfies at least one
    // of the infill constraints applicable to its length.
    uint32_t success = 0;
    for (const auto &obs : queries) {
        hmm::ViterbiResult v = hmm::viterbi(model, obs);
        bool ok = false;
        for (const auto &c : constraints) {
            if (c.first < v.path.size() &&
                v.path[c.first] == c.second) {
                ok = true;
                break;
            }
        }
        success += ok ? 1 : 0;
    }
    return double(success) / double(queries.size());
}

double
taskMetric(const TaskBundle &bundle)
{
    switch (bundle.dataset) {
      case DatasetId::IMO:
      case DatasetId::MiniF2F:
      case DatasetId::FOLIO:
      case DatasetId::ProofWriter:
        return satAccuracy(bundle.sat);
      case DatasetId::TwinSafety:
      case DatasetId::XSTest:
      case DatasetId::AwA2:
        return pcClassificationAccuracy(bundle.pcs.classCircuits,
                                        bundle.pcs.queries,
                                        bundle.pcs.labels);
      case DatasetId::CommonGen:
      case DatasetId::News:
        return hmmDecodeAgreement(bundle.hmms.model,
                                  bundle.hmms.queries,
                                  bundle.hmms.truePaths);
      case DatasetId::CoAuthor:
        return hmmConstraintSuccess(bundle.hmms.model,
                                    bundle.hmms.queries,
                                    bundle.hmms.constraints);
    }
    return 0.0;
}

} // namespace workloads
} // namespace reason
