// aptq_cli — command-line driver over the library's public API.
//
//   aptq_cli quantize  --model 7b --method aptq-mixed --ratio 0.75
//                      [--bits 4] [--group 16] [--out model.aptq]
//   aptq_cli eval      --model 7b --method gptq [--ratio R] [--bits N]
//   aptq_cli zeroshot  --model 7b --method aptq [--items 200]
//   aptq_cli sensitivity --model 7b
//   aptq_cli drift     --model 7b --method aptq-mixed --ratio 0.5
//   aptq_cli generate  --model 7b [--packed model.aptq] [--length 48]
//                      [--temp 0.8]
//
// Models: "7b" (llama7b-sim) or "13b" (llama13b-sim); trained on first use
// and cached under .cache/aptq (override with APTQ_CACHE_DIR).
#include <cstdio>
#include <map>

#include "core/model_zoo.hpp"
#include "core/pipeline.hpp"
#include "eval/harness.hpp"
#include "eval/perplexity.hpp"
#include "eval/tasks.hpp"
#include "model/sampler.hpp"
#include "obs/log.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "quant/diagnostics.hpp"
#include "quant/mixed_precision.hpp"
#include "quant/packed_model.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/threadpool.hpp"

using namespace aptq;

namespace {

const std::map<std::string, Method>& method_table() {
  static const std::map<std::string, Method> table = {
      {"fp", Method::fp},
      {"rtn", Method::rtn},
      {"gptq", Method::gptq},
      {"owq", Method::owq},
      {"smoothquant", Method::smoothquant},
      {"fpq", Method::fpq},
      {"awq", Method::awq},
      {"llm-qat", Method::llm_qat},
      {"pbllm", Method::pbllm},
      {"aptq", Method::aptq},
      {"aptq-mixed", Method::aptq_mixed},
      {"blockwise", Method::blockwise_mixed},
      {"aptq-knapsack", Method::aptq_knapsack},
  };
  return table;
}

Method parse_method(const std::string& name) {
  const auto it = method_table().find(name);
  if (it == method_table().end()) {
    std::string known;
    for (const auto& [k, _] : method_table()) {
      known += k + " ";
    }
    APTQ_FAIL("unknown method '" + name + "'; known: " + known);
  }
  return it->second;
}

ZooSpec parse_model(const std::string& name) {
  if (name == "7b") {
    return llama7b_sim();
  }
  if (name == "13b") {
    return llama13b_sim();
  }
  APTQ_FAIL("unknown model '" + name + "' (use 7b or 13b)");
}

PipelineConfig config_from_args(const ArgParser& args) {
  PipelineConfig cfg;
  cfg.bits = static_cast<int>(args.get_long("bits", cfg.bits));
  cfg.group_size =
      static_cast<std::size_t>(args.get_long("group",
                                             static_cast<long>(cfg.group_size)));
  cfg.ratio_high = args.get_double("ratio", cfg.ratio_high);
  cfg.calib_segments = static_cast<std::size_t>(
      args.get_long("calib", static_cast<long>(cfg.calib_segments)));
  cfg.pbllm_salient_fraction =
      args.get_double("salient", cfg.pbllm_salient_fraction);
  cfg.mse_clip_search = args.get_long("clip-search", 0) != 0;
  return cfg;
}

int usage() {
  std::printf(
      "usage: aptq_cli <quantize|eval|zeroshot|sensitivity|drift|generate> "
      "[--model 7b|13b] [--method NAME] [--ratio R] [--bits N] "
      "[--group G] [--out FILE] [--packed FILE] [--items N] "
      "[--length N] [--temp T] [--threads N] "
      "[--trace-out FILE] [--report FILE] "
      "[--log-level error|warn|info|debug]\n");
  return 2;
}

SampleConfig sample_config(const ArgParser& args) {
  SampleConfig config;
  config.temperature = static_cast<float>(args.get_double("temp", 1.0));
  return config;
}

// The subcommand dispatch, factored out of main so the observability
// artifacts are finalized on every successful exit path.
int run_cli(const ArgParser& args, obs::RunReport& report) {
    auto corpora = make_standard_corpora();
    ModelZoo zoo;

    if (args.command() == "generate" && args.has("packed")) {
      const PackedModel pm =
          PackedModel::load(args.get_string("packed", ""));
      const Model m = pm.unpack();
      Rng rng(static_cast<std::uint64_t>(args.get_long("seed", 1)));
      const TokenSeq seq = sample_from_model(
          m, static_cast<std::size_t>(args.get_long("length", 48)), rng,
          sample_config(args));
      for (const TokenId t : seq) {
        std::printf("%d ", t);
      }
      std::printf("\n");
      return 0;
    }

    const ZooSpec spec = parse_model(args.get_string("model", "7b"));
    const Model fp = zoo.get(spec, *corpora);
    const PipelineConfig cfg = config_from_args(args);
    report.add_config("model", spec.name);
    report.add_config("bits", static_cast<long>(cfg.bits));
    report.add_config("group_size", static_cast<long>(cfg.group_size));
    report.add_config("ratio_high", cfg.ratio_high);
    report.add_config("threads",
                      static_cast<long>(ThreadPool::global_thread_count()));

    if (args.command() == "quantize" || args.command() == "eval") {
      const Method method = parse_method(args.get_string("method", "aptq"));
      const QuantizedModel qm =
          quantize_model(fp, corpora->c4, method, cfg);
      report.add_config("method", qm.method);
      report.add_config("avg_bits", qm.average_bits());
      std::printf("%s on %s: avg %.2f bits, packed %zu bytes\n",
                  qm.method.c_str(), spec.name.c_str(), qm.average_bits(),
                  qm.packed_bytes());
      const auto c4 = corpora->c4.eval_segments(48, 96);
      const auto wiki = corpora->wiki.eval_segments(48, 96);
      const PerplexityResult c4_res =
          evaluate_perplexity(qm.model, c4, qm.forward_options);
      const PerplexityResult wiki_res =
          evaluate_perplexity(qm.model, wiki, qm.forward_options);
      report.add_eval("C4Sim", c4_res.perplexity, c4_res.nll, c4_res.tokens);
      report.add_eval("WikiSim", wiki_res.perplexity, wiki_res.nll,
                      wiki_res.tokens);
      std::printf("perplexity: C4Sim %.3f  WikiSim %.3f\n",
                  c4_res.perplexity, wiki_res.perplexity);
      if (args.has("out")) {
        const std::string out = args.get_string("out", "");
        PackedModel::pack(qm, cfg.group_size).save(out);
        std::printf("packed artifact written to %s\n", out.c_str());
      }
      return 0;
    }

    if (args.command() == "zeroshot") {
      const Method method = parse_method(args.get_string("method", "aptq"));
      const QuantizedModel qm =
          quantize_model(fp, corpora->c4, method, cfg);
      TaskGenConfig tcfg;
      tcfg.n_items =
          static_cast<std::size_t>(args.get_long("items", 200));
      const auto suite = generate_task_suite(corpora->c4, tcfg);
      report.add_config("method", qm.method);
      const ZeroShotReport zs =
          evaluate_zero_shot(qm.model, suite, qm.forward_options);
      report.add_config("zeroshot.mean_accuracy", zs.mean_accuracy);
      TextTable table({"task", "accuracy"});
      for (const auto& t : zs.tasks) {
        table.add_row({t.task, fmt_percent(t.accuracy, 1)});
      }
      table.add_row({"mean", fmt_percent(zs.mean_accuracy, 2)});
      std::printf("%s\n", table.render().c_str());
      return 0;
    }

    if (args.command() == "sensitivity") {
      const auto segments = sample_calibration_set(
          corpora->c4, cfg.calib_segments, cfg.calib_seq_len,
          cfg.calib_seed);
      CalibConfig ccfg;
      const CalibrationResult calib =
          collect_calibration(fp, segments, ccfg);
      const auto ranking = rank_sensitivities(calib, fp);
      TextTable table({"layer", "avg trace", "weights"});
      for (const auto& s : ranking) {
        table.add_row({s.name, fmt_fixed(s.sensitivity, 4),
                       std::to_string(s.weight_count)});
      }
      std::printf("%s\n", table.render().c_str());
      return 0;
    }

    if (args.command() == "drift") {
      const Method method =
          parse_method(args.get_string("method", "aptq-mixed"));
      const QuantizedModel qm =
          quantize_model(fp, corpora->c4, method, cfg);
      report.add_config("method", qm.method);
      const auto segs = corpora->c4.eval_segments(48, 16);
      std::printf("%s drift vs FP on %s:\n%s\n", qm.method.c_str(),
                  spec.name.c_str(),
                  render_drift_report(
                      compare_models(fp, qm.model, segs)).c_str());
      return 0;
    }

    if (args.command() == "generate") {
      Rng rng(static_cast<std::uint64_t>(args.get_long("seed", 1)));
      const TokenSeq seq = sample_from_model(
          fp, static_cast<std::size_t>(args.get_long("length", 48)), rng,
          sample_config(args));
      for (const TokenId t : seq) {
        std::printf("%d ", t);
      }
      std::printf("\n");
      return 0;
    }

    return usage();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ArgParser args(argc, argv);
    if (args.command().empty()) {
      return usage();
    }
    // --threads N (default: hardware concurrency; 1 = fully serial). All
    // results are bitwise identical at any thread count.
    configure_threads(args);
    // --log-level / --trace-out / --report. Tracing and telemetry stay off
    // unless their output file is requested, so the default run pays only
    // the disabled-check loads.
    const obs::ObsOptions obs_options = obs::configure_observability(args);
    obs::RunReport report;
    report.add_config("tool", std::string("aptq_cli"));
    report.add_config("command", args.command());
    const int rc = run_cli(args, report);
    obs::finalize_observability(obs_options, report);
    return rc;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
