// The paper's Section-8 extension: multi-level "Transform-and-Shrink" for
// complex queries. The query
//
//   SELECT COUNT(*) FROM T1 JOIN T2 ON key
//   WHERE T1.severity >= 100 AND T2.date - T1.date <= 10
//
// is decomposed into a filter operator and a join operator, each running
// its own IncShrink instance with its own slice of the privacy budget. The
// Appendix-D.2 optimizer decides how to split the budget: a starved
// operator floods its successor with dummy tuples.

#include <cstdio>
#include <vector>

#include "src/core/multilevel.h"
#include "src/dp/allocation.h"

using namespace incshrink;

int main() {
  const uint64_t kSteps = 60;

  // Build the stream: T1 records carry a severity payload; only severe ones
  // (>= 100) should reach the join. Each record is joined by one T2 record
  // two steps later.
  std::vector<std::vector<LogicalRecord>> t1(kSteps), t2(kSteps);
  Rng rng(123);
  Word rid = 1, key = 1;
  uint64_t expected = 0;
  for (uint64_t t = 0; t + 4 < kSteps; ++t) {
    for (int i = 0; i < 3; ++i) {
      const bool severe = rng.Bernoulli(0.4);
      const Word k = key++;
      t1[t].push_back({t + 1, rid++, k, static_cast<Word>(t + 1),
                       severe ? 150u : 20u});
      t2[t + 2].push_back({t + 3, rid++, k, static_cast<Word>(t + 3), 0});
      if (severe) ++expected;
    }
  }

  // Let the Appendix-D.2 optimizer split eps = 3 across the two operators.
  std::vector<OperatorSpec> ops(2);
  ops[0].kind = OperatorSpec::Kind::kFilter;
  ops[0].input_rows1 = 4 * kSteps;
  ops[0].output_rows = 6 * kSteps / 5;
  ops[0].sensitivity = 1;
  ops[0].releases = kSteps / 2;
  ops[1].kind = OperatorSpec::Kind::kJoin;
  ops[1].input_rows1 = 6 * kSteps / 5;
  ops[1].input_rows2 = 4 * kSteps;
  ops[1].output_rows = 6 * kSteps / 5;
  ops[1].sensitivity = 10;
  ops[1].releases = kSteps / 3;
  const AllocationResult alloc =
      OptimizePrivacyAllocation(ops, /*eps_total=*/3.0, /*lg_total=*/1e9);
  std::printf("budget allocation: filter eps1 = %.2f, join eps2 = %.2f "
              "(E_Q = %.3f)\n\n",
              alloc.eps[0], alloc.eps[1], alloc.efficiency);

  MultiLevelPipeline::Config cfg;
  cfg.eps1 = alloc.eps[0];
  cfg.eps2 = alloc.eps[1];
  cfg.filter = FilterSpec{100, 0xFFFFFFFF};
  cfg.join = JoinSpec{0, 10, true, 1, true, true};
  cfg.omega = 1;
  cfg.budget_b = 10;
  cfg.window_steps = 8;
  cfg.timer_T1 = 2;
  cfg.timer_T2 = 3;
  cfg.upload_rows_t1 = 4;
  cfg.upload_rows_t2 = 4;

  MultiLevelPipeline pipeline(cfg);
  for (uint64_t t = 0; t < kSteps; ++t) {
    const Status st = pipeline.Step(t1[t], t2[t]);
    if (!st.ok()) {
      std::fprintf(stderr, "step failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  const RunSummary s = pipeline.Summary();
  std::printf("steps                 : %llu\n",
              static_cast<unsigned long long>(s.steps));
  std::printf("true filtered joins   : %llu\n",
              static_cast<unsigned long long>(s.final_true_count));
  std::printf("final view answer     : %llu\n",
              static_cast<unsigned long long>(
                  pipeline.stage2().step_metrics().back().view_answer));
  std::printf("avg |error|           : %.2f\n", s.l1_error.mean());
  std::printf("V1 rows / V2 rows     : %llu / %llu\n",
              static_cast<unsigned long long>(pipeline.stage1().view().size()),
              static_cast<unsigned long long>(pipeline.stage2().view().size()));
  std::printf("total MPC time (sim)  : %.2f s\n", s.total_mpc_seconds);
  std::printf("avg QET (sim)         : %.4f s\n", s.qet_seconds.mean());
  return 0;
}
