// Tier-1 coverage for the fault-schedule fuzzer: generator determinism, text
// round-trip, runner determinism, a small always-on schedule sweep, and the
// shrinker (a planted invariant violation must minimize deterministically).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fuzz/fault_schedule.h"
#include "fuzz/fuzz_runner.h"
#include "fuzz/shrinker.h"

namespace fuse {
namespace {

TEST(FuzzScheduleTest, GeneratorIsDeterministic) {
  const FaultSchedule a = GenerateSchedule(42);
  const FaultSchedule b = GenerateSchedule(42);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.ToText(), b.ToText());

  bool any_different = false;
  for (uint64_t seed = 43; seed < 48; ++seed) {
    if (!(GenerateSchedule(seed) == a)) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(FuzzScheduleTest, TextFormRoundTrips) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const FaultSchedule s = GenerateSchedule(seed);
    FaultSchedule back;
    ASSERT_TRUE(FaultSchedule::FromText(s.ToText(), &back)) << "seed " << seed;
    EXPECT_EQ(s, back) << "seed " << seed;
    EXPECT_EQ(s.ToText(), back.ToText()) << "seed " << seed;
  }

  // The hand-written vocabulary: explicit groups with every expectation, a
  // setup churn clause, churn stop and a machine crash.
  const std::string text =
      "fuse-fuzz-schedule v1\nseed 5\nnodes 12\ngroups 1\n"
      "group auto 3,0,2\n"
      "group must-fire 1,4\n"
      "group silent 5,6,7\n"
      "setup churn_start at_us=0 a=8 b=4 dur_us=1500000 param=1000 group=-\n"
      "crash_machine at_us=0 a=1 b=0 dur_us=0 param=0 group=-\n"
      "churn_stop at_us=2300000 a=0 b=0 dur_us=0 param=0 group=-\n";
  FaultSchedule s;
  ASSERT_TRUE(FaultSchedule::FromText(text, &s));
  EXPECT_EQ(s.ToText(), text);
  EXPECT_EQ(s.total_groups(), 4);
  ASSERT_EQ(s.explicit_groups.size(), 3u);
  EXPECT_EQ(s.explicit_groups[0].members, (std::vector<uint32_t>{3, 0, 2}));
  EXPECT_EQ(s.explicit_groups[0].expect, GroupExpect::kAuto);
  EXPECT_EQ(s.explicit_groups[1].expect, GroupExpect::kMustFire);
  EXPECT_EQ(s.explicit_groups[2].expect, GroupExpect::kSilent);
  ASSERT_EQ(s.clauses.size(), 3u);
  EXPECT_TRUE(s.clauses[0].setup);
  EXPECT_EQ(s.clauses[0].op, FaultOp::kChurnStart);
  EXPECT_EQ(s.clauses[0].b, 4u);
  EXPECT_EQ(s.clauses[0].dur_us, 1500000);
  EXPECT_EQ(s.clauses[0].param, 1000.0);
  EXPECT_FALSE(s.clauses[1].setup);
  EXPECT_EQ(s.clauses[1].op, FaultOp::kCrashMachine);
  EXPECT_EQ(s.clauses[2].op, FaultOp::kChurnStop);
  FaultSchedule back;
  ASSERT_TRUE(FaultSchedule::FromText(s.ToText(), &back));
  EXPECT_EQ(s, back);

  // Member lists of any length (a fixed token buffer once cut them short).
  FaultSchedule wide;
  wide.num_nodes = 400;
  FaultClause split;
  split.op = FaultOp::kPartition;
  for (uint32_t i = 100; i < 400; ++i) {
    split.group.push_back(i);
  }
  wide.clauses.push_back(split);
  wide.explicit_groups.push_back(GroupSpec{split.group, GroupExpect::kSilent});
  ASSERT_TRUE(FaultSchedule::FromText(wide.ToText(), &back));
  EXPECT_EQ(wide, back);
}

TEST(FuzzScheduleTest, GeneratorNeverDrawsTheHandWrittenVocabulary) {
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    const FaultSchedule s = GenerateSchedule(seed);
    EXPECT_TRUE(s.explicit_groups.empty()) << "seed " << seed;
    for (const FaultClause& c : s.clauses) {
      EXPECT_FALSE(c.setup) << "seed " << seed;
      EXPECT_NE(c.op, FaultOp::kCrashMachine) << "seed " << seed;
      EXPECT_NE(c.op, FaultOp::kChurnStart) << "seed " << seed;
      EXPECT_NE(c.op, FaultOp::kChurnStop) << "seed " << seed;
    }
  }
}

TEST(FuzzScheduleTest, TextParserRejectsGarbage) {
  FaultSchedule out;
  EXPECT_FALSE(FaultSchedule::FromText("", &out));
  EXPECT_FALSE(FaultSchedule::FromText("not a schedule\n", &out));
  EXPECT_FALSE(FaultSchedule::FromText("fuse-fuzz-schedule v1\nseed x\n", &out));
  EXPECT_FALSE(FaultSchedule::FromText(
      "fuse-fuzz-schedule v1\nseed 1\nnodes 4\ngroups 1\n"
      "frobnicate at_us=0 a=0 b=0 dur_us=0 param=0 group=-\n",
      &out));

  const std::string head = "fuse-fuzz-schedule v1\nseed 1\nnodes 12\ngroups 0\n";
  ASSERT_TRUE(FaultSchedule::FromText(head + "group silent 1,2\n", &out));
  const char* const bad_lines[] = {
      // Group lines: empty, duplicate members, unknown or missing
      // expectation, malformed member list, trailing garbage.
      "group auto -\n",
      "group auto\n",
      "group must-fire 1,2,1\n",
      "group sometimes 1,2\n",
      "group 1,2\n",
      "group auto 1,,2\n",
      "group auto 1,x\n",
      "group auto 1,-2\n",
      "group auto 1,2,\n",
      "group auto 1, 2\n",
      "group auto 1,4294967296\n",
      "group silent 1,2 extra\n",
      // Churn: empty range, no uptime, no downtime, operands or a window on
      // churn_stop.
      "churn_start at_us=0 a=6 b=0 dur_us=1000 param=10 group=-\n",
      "churn_start at_us=0 a=6 b=6 dur_us=0 param=10 group=-\n",
      "churn_start at_us=0 a=6 b=6 dur_us=1000 param=0 group=-\n",
      "churn_start at_us=0 a=6 b=6 dur_us=1000 param=10 group=1\n",
      "churn_stop at_us=0 a=3 b=0 dur_us=0 param=0 group=-\n",
      "churn_stop at_us=0 a=0 b=0 dur_us=5 param=0 group=-\n",
      // Machine crash: a second operand, a window, a param, a member list.
      "crash_machine at_us=0 a=1 b=2 dur_us=0 param=0 group=-\n",
      "crash_machine at_us=0 a=1 b=0 dur_us=10 param=0 group=-\n",
      "crash_machine at_us=0 a=1 b=0 dur_us=0 param=0.5 group=-\n",
      "crash_machine at_us=0 a=1 b=0 dur_us=0 param=0 group=1,2\n",
      // Setup clauses are untimed; `setup` needs a clause.
      "setup crash at_us=5 a=1 b=0 dur_us=0 param=0 group=-\n",
      "setup\n",
      "setup group auto 1,2\n",
  };
  for (const char* line : bad_lines) {
    EXPECT_FALSE(FaultSchedule::FromText(head + line, &out)) << line;
  }
}

TEST(FuzzRunnerTest, RunIsDeterministic) {
  const FaultSchedule s = GenerateSchedule(7);
  const FuzzRunResult r1 = RunSchedule(s);
  const FuzzRunResult r2 = RunSchedule(s);
  EXPECT_EQ(r1.log_line, r2.log_line);
  EXPECT_EQ(r1.violations, r2.violations);
}

TEST(FuzzRunnerTest, EmptyScheduleIsQuiet) {
  FaultSchedule s;
  s.seed = 99;
  s.num_nodes = 6;
  s.num_groups = 2;
  const FuzzRunResult r = RunSchedule(s);
  EXPECT_TRUE(r.ok()) << r.log_line;
  EXPECT_EQ(r.groups_created, 2);
  // The must-not-fire half of the oracle: nothing went wrong, so nothing may
  // fire.
  EXPECT_EQ(r.groups_fired, 0);
}

TEST(FuzzRunnerTest, PlantedDuplicateWatchOnlyFiresWithANotification) {
  // The planted duplicate watch alone is harmless until a notification
  // actually arrives.
  FaultSchedule quiet;
  quiet.seed = 3;
  quiet.num_nodes = 6;
  quiet.num_groups = 1;
  FuzzRunOptions opts;
  opts.plant_duplicate_watch = true;
  EXPECT_TRUE(RunSchedule(quiet, opts).ok());

  // An explicit SignalFailure must reach every member — and hits the doubled
  // watch twice: a duplicate-delivery violation.
  FaultSchedule loud = quiet;
  FaultClause c;
  c.op = FaultOp::kSignalFailure;
  c.a = 0;
  loud.clauses.push_back(c);
  const FuzzRunResult r = RunSchedule(loud, opts);
  EXPECT_FALSE(r.ok());
}

TEST(FuzzRunnerTest, PlantedLivelockIsAViolationOnBothEngines) {
  // A hang must come back as a verdict the shrinker can work with: once the
  // planted spin freezes the clock, RunSchedule stops and reports it.
  // The slow_host clause is removable noise the shrinker must strip.
  FaultSchedule s;
  ASSERT_TRUE(FaultSchedule::FromText("fuse-fuzz-schedule v1\nseed 3\nnodes 6\ngroups 1\n"
                                      "slow_host at_us=0 a=4 b=0 dur_us=0 param=500 group=-\n"
                                      "signal at_us=10000000 a=0 b=0 dur_us=0 param=0 group=-\n",
                                      &s));
  for (const int shards : {0, 4}) {
    FuzzRunOptions opts;
    opts.plant_livelock = true;
    opts.num_shards = shards;
    const FuzzRunResult r = RunSchedule(s, opts);
    ASSERT_EQ(r.violations.size(), 1u) << "shards " << shards << ": " << r.log_line;
    EXPECT_EQ(r.violations[0].rfind("livelock: ", 0), 0u) << r.violations[0];

    const auto still_fails = [&opts](const FaultSchedule& c) {
      const FuzzRunResult cr = RunSchedule(c, opts);
      return !cr.ok() && cr.violations[0].rfind("livelock: ", 0) == 0;
    };
    const FaultSchedule min = ShrinkSchedule(s, still_fails);
    ASSERT_EQ(min.clauses.size(), 1u) << min.ToText();
    EXPECT_EQ(min.clauses[0].op, FaultOp::kSignalFailure);
  }
}

TEST(FuzzRunnerTest, ShardedVerdictIndependentOfThreadCount) {
  // The sharded backend must grade a schedule identically no matter how many
  // worker threads execute it: same oracle verdict, same QoS counters, same
  // deterministic log line. (The trace-level version of this lives in
  // determinism_test.cc; here the fuzz oracle — group creation under faults,
  // notification coverage, detection latency — is the fingerprint.)
  for (uint64_t seed : {7u, 19u}) {
    const FaultSchedule s = GenerateSchedule(seed);
    FuzzRunOptions opts;
    opts.num_shards = 4;
    FuzzRunResult by_threads[3];
    const int threads[] = {1, 2, 8};
    for (int i = 0; i < 3; ++i) {
      opts.threads = threads[i];
      by_threads[i] = RunSchedule(s, opts);
    }
    for (int i = 1; i < 3; ++i) {
      EXPECT_EQ(by_threads[0].log_line, by_threads[i].log_line)
          << "seed " << seed << ": " << threads[i] << " workers diverged";
      EXPECT_EQ(by_threads[0].violations, by_threads[i].violations) << "seed " << seed;
      EXPECT_EQ(by_threads[0].max_detection_latency_us, by_threads[i].max_detection_latency_us)
          << "seed " << seed;
    }
    // The invariant itself must also hold on the sharded backend.
    EXPECT_TRUE(by_threads[0].ok())
        << by_threads[0].log_line
        << (by_threads[0].violations.empty() ? "" : "\n  " + by_threads[0].violations[0]);
  }
}

TEST(FuzzSmokeTest, FiftyScheduleSweepHoldsTheInvariant) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const FaultSchedule s = GenerateSchedule(seed);
    const FuzzRunResult r = RunSchedule(s);
    EXPECT_TRUE(r.ok()) << r.log_line << (r.violations.empty() ? "" : "\n  " + r.violations[0]);
  }
}

TEST(FuzzShrinkerTest, PlantedViolationShrinksToGolden) {
  FaultSchedule failing;
  failing.seed = 7;
  failing.num_nodes = 9;
  failing.num_groups = 3;
  FaultClause pad;  // removable noise the shrinker must strip
  pad.op = FaultOp::kSlowHost;
  pad.a = 4;
  pad.at_us = 30 * 1000 * 1000;
  pad.param = 500.0;
  failing.clauses.push_back(pad);
  FaultClause sig;
  sig.op = FaultOp::kSignalFailure;
  sig.a = 0;
  sig.at_us = 60 * 1000 * 1000;
  failing.clauses.push_back(sig);

  FuzzRunOptions opts;
  opts.plant_duplicate_watch = true;
  const auto still_fails = [&opts](const FaultSchedule& s) { return !RunSchedule(s, opts).ok(); };
  ASSERT_TRUE(still_fails(failing));

  const FaultSchedule min1 = ShrinkSchedule(failing, still_fails);
  const FaultSchedule min2 = ShrinkSchedule(failing, still_fails);
  EXPECT_EQ(min1.ToText(), min2.ToText());  // same input => byte-identical shrink

  EXPECT_EQ(min1.ToText(),
            "fuse-fuzz-schedule v1\n"
            "seed 7\n"
            "nodes 4\n"
            "groups 1\n"
            "signal at_us=0 a=0 b=0 dur_us=0 param=0 group=-\n");
  ASSERT_TRUE(still_fails(min1));  // the minimized repro still reproduces
}

}  // namespace
}  // namespace fuse
