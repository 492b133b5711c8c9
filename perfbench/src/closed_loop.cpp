// The dense and inject workloads: closed loops of synchronous calls.
#include <cstdio>
#include <vector>

#include "config.hpp"
#include "pairs.hpp"
#include "setup.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

std::vector<SetupShape> square_shapes(std::int64_t n, bool with_nt4) {
  std::vector<SetupShape> shapes = {
      {Dtype::kF64, n, n, n, 1}, {Dtype::kF64, n, n, n, 2},
      {Dtype::kF32, n, n, n, 1}, {Dtype::kBf16, n, n, n, 1},
      {Dtype::kI8, n, n, n, 1},
  };
  if (with_nt4) shapes.push_back({Dtype::kF64, n, n, n, 4});
  shapes.push_back({Dtype::kF64, cfg::kStreamM, cfg::kStreamN, cfg::kStreamK, 1});
  return shapes;
}

// Stream calls per round: about as much time as the round's pairs take.
constexpr int kStreamPerRound = 30;
constexpr int kStormPerRound = 12;  ///< three balanced blocks of the levels

}  // namespace

void run_dense(Run& run) {
  const bool trace = run.args.trace;
  const std::uint64_t seed = run.args.seed;
  run.set_e2e("setup_s",
              measure_setup(square_shapes(cfg::kDenseN, trace), {}, cfg::kSetupReps));

  std::vector<PairCase> cases = make_pairs(cfg::kDenseN, 0, seed, trace);
  Stream stream(seed, /*storm=*/false);
  for (PairCase& c : cases) warm_pair(c, run);
  stream.run(20, run);
  stream.clear();

  const double deadline = now_s() + run.args.seconds;
  int round = 0;
  do {
    for (PairCase& c : cases) run_pair(c, round % 2 == 1, run);
    stream.run(kStreamPerRound, run, trace);
    ++round;
  } while (now_s() < deadline || round < 2);

  report_pairs(run, cases);
  stream.report(run);
  run.set_layer("abft.false_positives",
                run.layer["abft.false_positives"] + double(stream.abft.detected));
}

void run_inject(Run& run) {
  const bool trace = run.args.trace;
  const std::uint64_t seed = run.args.seed;
  run.set_e2e("setup_s",
              measure_setup(square_shapes(cfg::kInjectN, false), {}, cfg::kSetupReps));

  std::vector<PairCase> cases =
      make_pairs(cfg::kInjectN, cfg::kPaperErrors, seed, false);
  PairCase clean = make_pair("f64_nt1", cfg::kInjectN, 0, seed);
  clean.ft_only = true;
  Stream storm(seed, /*storm=*/true);
  for (PairCase& c : cases) warm_pair(c, run);
  warm_pair(clean, run);
  storm.run(8, run);
  storm.clear();

  const double deadline = now_s() + run.args.seconds;
  int round = 0;
  do {
    for (PairCase& c : cases) run_pair(c, round % 2 == 1, run);
    run_pair(clean, false, run);
    storm.run(kStormPerRound, run, trace);
    ++round;
  } while (now_s() < deadline || round < 2);

  report_pairs(run, cases);
  storm.report(run);

  // Ground truth of the paper phase (the injected fp64 cases) and of the
  // storm.
  AbftCounts paper;
  for (const PairCase& c : cases) {
    if (c.errors == 0) continue;
    std::fprintf(stderr,
                 "perfbench: paper phase %s: calls %lld, injected %lld, detected %lld, "
                 "corrected %lld, uncorrectable panels %lld, retries %lld, flagged calls %lld\n",
                 c.label.c_str(), static_cast<long long>(c.abft.calls),
                 static_cast<long long>(c.abft.injected), static_cast<long long>(c.abft.detected),
                 static_cast<long long>(c.abft.corrected),
                 static_cast<long long>(c.abft.uncorrectable),
                 static_cast<long long>(c.abft.retries),
                 static_cast<long long>(c.abft.flagged_calls));
    paper.injected += c.abft.injected;
    paper.detected += c.abft.detected;
    paper.corrected += c.abft.corrected;
    paper.undelivered += c.abft.undelivered;
    paper.uncorrectable += c.abft.uncorrectable;
    paper.retries += c.abft.retries;
    paper.flagged_calls += c.abft.flagged_calls;
  }
  run.set_layer("abft.injected", double(paper.injected));
  run.set_layer("abft.detected", double(paper.detected));
  run.set_layer("abft.corrected", double(paper.corrected));
  run.set_layer("abft.undelivered", double(paper.undelivered));
  run.set_layer("abft.corrected_per_injected",
                paper.injected > 0 ? double(paper.corrected) / double(paper.injected) : 0.0);
  run.set_layer("abft.uncorrectable_panels",
                double(paper.uncorrectable + storm.abft.uncorrectable));
  run.set_layer("abft.retries", double(paper.retries + storm.abft.retries));
  run.set_layer("abft.paper_flagged_calls", double(paper.flagged_calls));
  const PairCase& f64 = cases.front();
  const double per_call_fixes =
      double(f64.abft.corrected) / double(std::max<std::int64_t>(f64.abft.calls, 1));
  if (per_call_fixes > 0.0) {
    run.set_layer("abft.correct_us_per_error",
                  (median(f64.t_ft) - median(clean.t_ft)) * 1e6 / per_call_fixes);
  }
  run.set_layer("abft.storm_clean_ms_p50", median(storm.clean_ms));
  run.set_layer("abft.storm_flagged_calls", double(storm.abft.flagged_calls));
}

}  // namespace pb
