// T1 — Use-case end-to-end times: converged EVOLVE platform vs siloed
// baseline, for three pipelines (urban mobility, ML training, analytics
// chain). Reproduces the paper's headline "convergence pays" table.
//
// Both deployments are layouts of one core::Platform and run through the
// same code path. With `--trace`, every run is span-traced end to end;
// the bench prints a per-layer critical-path attribution table for each
// layout (rows sum to the end-to-end time, so the siloed table shows the
// staging copies as storage and network time) and writes
// TRACE_t1_endtoend.json, loadable in Perfetto / chrome://tracing.
#include <cstring>
#include <iostream>
#include <memory>

#include "core/platform.hpp"
#include "core/report.hpp"
#include "core/siloed.hpp"
#include "trace/critical_path.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"
#include "util/strings.hpp"
#include "workloads/genomics.hpp"
#include "workloads/ml.hpp"
#include "workloads/mobility.hpp"
#include "workloads/tabular.hpp"

using namespace evolve;

namespace {

struct UseCase {
  std::string name;
  std::function<void(storage::DatasetCatalog&)> stage;
  std::function<workflow::Workflow()> build;
};

std::vector<UseCase> use_cases() {
  std::vector<UseCase> cases;

  // 1. Urban mobility (trace analytics + clustering).
  cases.push_back(UseCase{
      "urban-mobility",
      [](storage::DatasetCatalog& catalog) {
        workloads::MobilityScenario scenario;
        scenario.trace_bytes = 2 * util::kGiB;
        workloads::stage_mobility_inputs(catalog, scenario);
      },
      [] {
        workloads::MobilityScenario scenario;
        scenario.trace_bytes = 2 * util::kGiB;
        return workloads::mobility_pipeline(scenario);
      }});

  // 2. ML training: featurize -> SGD -> accel scoring.
  cases.push_back(UseCase{
      "ml-training",
      [](storage::DatasetCatalog& catalog) {
        catalog.define(storage::DatasetSpec{"samples", 32, util::kGiB});
        catalog.preload("samples");
      },
      [] {
        workflow::Workflow wf("ml-training");
        wf.add(workflow::dataflow_step(
            "featurize", workloads::featurize("samples", "features"), 4, 4));
        auto train = workflow::hpc_step(
            "train",
            workloads::sgd_program(workloads::SgdModel{.epochs = 8}, 8), 8);
        train.depends_on = {"featurize"};
        train.input_datasets = {"features"};
        wf.add(train);
        auto score =
            workflow::accel_step("score", "dnn-infer", util::seconds(10));
        score.depends_on = {"train"};
        wf.add(score);
        return wf;
      }});

  // 3. Analytics chain: two dependent dataflow jobs + HPC post-process.
  cases.push_back(UseCase{
      "analytics-chain",
      [](storage::DatasetCatalog& catalog) {
        catalog.define(storage::DatasetSpec{"events", 32, 2 * util::kGiB});
        catalog.define(storage::DatasetSpec{"catalog", 8, 128 * util::kMiB});
        catalog.preload("events");
        catalog.preload("catalog");
      },
      [] {
        workflow::Workflow wf("analytics-chain");
        wf.add(workflow::dataflow_step(
            "join", workloads::join_aggregate("events", "catalog", "joined"),
            6, 4));
        auto sessions = workflow::dataflow_step(
            "sessionize", workloads::sessionize("joined", "sessions"), 6, 4);
        sessions.depends_on = {"join"};
        wf.add(sessions);
        hpc::MpiProgram post;
        post.iterations = 10;
        post.compute_per_iteration = util::millis(150);
        post.allreduce_bytes = 4 * util::kMiB;
        auto hpc_post = workflow::hpc_step("simulate", post, 4);
        hpc_post.depends_on = {"sessionize"};
        hpc_post.input_datasets = {"sessions"};
        wf.add(hpc_post);
        return wf;
      }});

  // 4. Genomics: QC -> FPGA pattern match -> HPC assembly.
  cases.push_back(UseCase{
      "genomics",
      [](storage::DatasetCatalog& catalog) {
        workloads::GenomicsScenario scenario;
        scenario.reads_bytes = util::kGiB;
        scenario.read_partitions = 32;
        workloads::stage_genomics_inputs(catalog, scenario);
      },
      [] {
        workloads::GenomicsScenario scenario;
        scenario.reads_bytes = util::kGiB;
        scenario.read_partitions = 32;
        scenario.qc_executors = 4;
        scenario.assembly_ranks = 4;
        return workloads::genomics_pipeline(scenario);
      }});
  return cases;
}

// Traced runs, collected for export after every scenario has drained
// (tracers outlive their simulations).
struct Tracing {
  bool on = false;
  std::vector<std::unique_ptr<trace::Tracer>> tracers;
  std::vector<trace::TraceProcess> processes;
  using Paths = std::vector<std::pair<std::string, trace::CriticalPath>>;
  Paths converged, siloed;
};

struct Outcome {
  util::TimeNs time = 0;  // end to end; -1 when the workflow failed
  util::Bytes staged = 0;
};

/// Runs one use case on a fresh platform of the given layout.
template <class Layout>
Outcome run_use_case(const UseCase& uc, const std::string& layout,
                     Tracing::Paths& paths, Tracing& tracing) {
  sim::Simulation sim;
  Layout layout_platform(sim);
  core::Platform& platform = layout_platform;
  trace::Tracer* tracer = nullptr;
  if (tracing.on) {
    tracing.tracers.push_back(std::make_unique<trace::Tracer>(sim));
    tracer = tracing.tracers.back().get();
    platform.set_tracer(tracer);
  }
  uc.stage(platform.catalog());
  Outcome outcome;
  platform.run_workflow(uc.build(), [&](const workflow::WorkflowResult& r) {
    outcome.time = r.success ? r.duration : -1;
  });
  sim.run();
  outcome.staged = platform.staged_bytes();
  if (tracer) {
    tracer->close_open_spans();
    tracing.processes.push_back(
        trace::TraceProcess{"t1/" + uc.name + " " + layout, tracer});
    for (trace::SpanId root : trace::root_spans(*tracer)) {
      // The workflow run is the only root with children.
      if (tracer->span(root).name == "wf.run") {
        paths.emplace_back(uc.name, trace::critical_path(*tracer, root));
        break;
      }
    }
  }
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  Tracing tracing;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) tracing.on = true;
  }

  core::Table table(
      "T1: end-to-end use-case time, converged vs siloed (same hardware)",
      {"use case", "converged", "siloed", "staged", "speedup"});
  core::MetricsReport report("t1_endtoend");

  for (const UseCase& uc : use_cases()) {
    const Outcome converged = run_use_case<core::Platform>(
        uc, "converged", tracing.converged, tracing);
    const Outcome siloed = run_use_case<core::SiloedPlatform>(
        uc, "siloed", tracing.siloed, tracing);
    table.add_row({uc.name, util::human_time(converged.time),
                   util::human_time(siloed.time),
                   util::human_bytes(siloed.staged),
                   util::fixed(static_cast<double>(siloed.time) /
                                   static_cast<double>(converged.time),
                               2) +
                       "x"});
    report.set(uc.name + "_converged_ns", converged.time);
    report.set(uc.name + "_siloed_ns", siloed.time);
    report.set(uc.name + "_staged_bytes", siloed.staged);
  }
  table.print();
  std::cout << "\nShape check: converged < siloed on every use case; the gap"
               "\ngrows with the volume of cross-silo data staged.\n";

  if (tracing.on) {
    for (const auto& [layout, paths] :
         {std::pair{"converged", &tracing.converged},
          std::pair{"siloed", &tracing.siloed}}) {
      std::cout << "\n";
      trace::critical_path_table(
          std::string("T1 critical path: end-to-end latency by layer (") +
              layout + ")",
          *paths)
          .print();
    }
    std::cout << "\nwrote "
              << trace::write_chrome_trace("t1_endtoend", tracing.processes)
              << "\n";
    for (const auto& [name, path] : tracing.converged) {
      trace::report_critical_path(report, name, path);
    }
    for (const auto& [name, path] : tracing.siloed) {
      trace::report_critical_path(report, name + "_siloed", path);
    }
  }
  if (core::json_mode(argc, argv)) {
    std::cout << "wrote " << report.write() << "\n";
  }
  return 0;
}
