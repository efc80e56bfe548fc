/**
 * @file
 * Fig. 11 reproduction: end-to-end symbolic/probabilistic kernel
 * runtime of REASON vs Xeon CPU, Orin NX, and RTX A6000 across the ten
 * reasoning tasks, normalized to REASON = 1.0.
 *
 * Paper shape: RTX ≈ 9.8-13.8x, Orin ≈ 48-53x, Xeon ≈ 95.6-100.4x.
 * The micro-benchmarks additionally time the underlying simulators.
 */

#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/builders.h"
#include "sys/system.h"
#include "util/table.h"
#include "workloads/timing.h"
#include "workloads/workloads.h"

using namespace reason;

namespace {

void
BM_MeasureSymbolicOps(benchmark::State &state)
{
    workloads::TaskBundle b = workloads::generate(
        workloads::DatasetId::FOLIO, workloads::TaskScale::Small, 1);
    for (auto _ : state) {
        workloads::SymbolicOps ops = workloads::measureSymbolicOps(b);
        benchmark::DoNotOptimize(ops.sat.propagations);
    }
}
BENCHMARK(BM_MeasureSymbolicOps)->Unit(benchmark::kMillisecond);

void
BM_PlatformCostModel(benchmark::State &state)
{
    workloads::TaskBundle b = workloads::generate(
        workloads::DatasetId::XSTest, workloads::TaskScale::Small, 1);
    workloads::SymbolicOps ops = workloads::measureSymbolicOps(b);
    for (auto _ : state) {
        auto c = sys::symbolicCost(sys::Platform::ReasonAccel, ops);
        benchmark::DoNotOptimize(c.seconds);
    }
}
BENCHMARK(BM_PlatformCostModel);

/** Seed path: pointer-chasing Dag::evaluate of a PC workload kernel. */
void
BM_DagEvalSeedWalker(benchmark::State &state)
{
    workloads::TaskBundle b = workloads::generate(
        workloads::DatasetId::TwinSafety, workloads::TaskScale::Small, 7);
    core::Dag dag = core::buildFromCircuit(b.pcs.classCircuits.front());
    std::vector<double> inputs(dag.numInputs(), 0.5);
    for (auto _ : state)
        benchmark::DoNotOptimize(dag.evaluateRoot(inputs));
}
BENCHMARK(BM_DagEvalSeedWalker);

void
printFig11()
{
    Table table({"Task", "REASON", "RTX A6000", "Orin NX", "Xeon CPU",
                 "REASON [ms]"});
    double rtx_acc = 0.0, orin_acc = 0.0, xeon_acc = 0.0;
    int n = 0;
    for (workloads::DatasetId d : workloads::allDatasets()) {
        workloads::TaskBundle b =
            workloads::generate(d, workloads::TaskScale::Small, 7);
        workloads::SymbolicOps ops =
            workloads::measureSymbolicOps(b, /*optimized=*/true);
        double reason =
            sys::symbolicCost(sys::Platform::ReasonAccel, ops).seconds;
        double rtx =
            sys::symbolicCost(sys::Platform::RtxA6000, ops).seconds;
        double orin =
            sys::symbolicCost(sys::Platform::OrinNx, ops).seconds;
        double xeon =
            sys::symbolicCost(sys::Platform::XeonCpu, ops).seconds;
        table.addRow({workloads::datasetName(d), "1.0",
                      Table::num(rtx / reason, 1),
                      Table::num(orin / reason, 1),
                      Table::num(xeon / reason, 1),
                      Table::num(reason * 1e3, 3)});
        rtx_acc += rtx / reason;
        orin_acc += orin / reason;
        xeon_acc += xeon / reason;
        ++n;
    }
    table.addRow({"geomean-ish avg", "1.0", Table::num(rtx_acc / n, 1),
                  Table::num(orin_acc / n, 1),
                  Table::num(xeon_acc / n, 1), "-"});
    std::printf("\n");
    table.print("Fig. 11 — normalized symbolic/probabilistic runtime "
                "(REASON = 1.0; paper: RTX ~12x, Orin ~50x, Xeon ~98x)");
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    printFig11();
    return 0;
}
