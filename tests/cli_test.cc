#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>

#include "data/fimi_io.h"
#include "data/frequency.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tools/cli.h"

namespace anonsafe {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

void WriteSampleFile(const std::string& path) {
  std::ofstream out(path);
  // 12 transactions over 6 items with assorted supports.
  out << "1 2 3\n1 2\n1 4\n1 2 5\n2 3\n1 3 6\n2 4\n1 2 3\n5 6\n1 2\n"
         "3 4 5\n1 6\n";
}

// ----------------------------------------------------------------- Parsing

TEST(CliParseTest, SplitsCommandPositionalAndFlags) {
  auto cli = ParseCli({"assess", "file.dat", "--tolerance=0.2", "--verbose"});
  ASSERT_TRUE(cli.ok());
  EXPECT_EQ(cli->command, "assess");
  ASSERT_EQ(cli->positional.size(), 1u);
  EXPECT_EQ(cli->positional[0], "file.dat");
  EXPECT_EQ(cli->flags.at("tolerance"), "0.2");
  EXPECT_EQ(cli->flags.at("verbose"), "true");
}

TEST(CliParseTest, EmptyArgsFail) {
  EXPECT_TRUE(ParseCli({}).status().IsInvalidArgument());
  EXPECT_TRUE(ParseCli({"--only=flags"}).status().IsInvalidArgument());
}

TEST(CliParseTest, FlagAccessors) {
  auto cli = ParseCli({"x", "--a=1.5", "--b=7", "--bad=zz"});
  ASSERT_TRUE(cli.ok());
  auto d = FlagAsDouble(*cli, "a", 0.0);
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(*d, 1.5);
  auto dd = FlagAsDouble(*cli, "missing", 9.5);
  ASSERT_TRUE(dd.ok());
  EXPECT_DOUBLE_EQ(*dd, 9.5);
  auto u = FlagAsUint64(*cli, "b", 0);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(*u, 7u);
  EXPECT_TRUE(FlagAsDouble(*cli, "bad", 0.0).status().IsInvalidArgument());
  EXPECT_TRUE(FlagAsUint64(*cli, "bad", 0).status().IsInvalidArgument());
}

// strtoull wraps "-1" to 2^64 - 1; an integer flag must refuse it rather
// than run with a huge port, worker count or seed.
TEST(CliParseTest, FlagAsUint64RejectsNegative) {
  auto cli = ParseCli({"x", "--port=-1", "--seed=-0", "--workers=3"});
  ASSERT_TRUE(cli.ok());
  auto port = FlagAsUint64(*cli, "port", 0);
  ASSERT_TRUE(port.status().IsInvalidArgument());
  EXPECT_NE(port.status().message().find("expects an integer"),
            std::string::npos);
  EXPECT_TRUE(FlagAsUint64(*cli, "seed", 0).status().IsInvalidArgument());
  auto workers = FlagAsUint64(*cli, "workers", 0);
  ASSERT_TRUE(workers.ok());
  EXPECT_EQ(*workers, 3u);
}

// ---------------------------------------------------------------- Commands

TEST(CliRunTest, HelpAndUnknown) {
  std::ostringstream out;
  auto help = ParseCli({"help"});
  ASSERT_TRUE(help.ok());
  EXPECT_TRUE(RunCli(*help, out).ok());
  EXPECT_NE(out.str().find("usage: anonsafe"), std::string::npos);

  auto unknown = ParseCli({"frobnicate"});
  ASSERT_TRUE(unknown.ok());
  EXPECT_TRUE(RunCli(*unknown, out).IsInvalidArgument());
}

TEST(CliRunTest, StatsOnSampleFile) {
  const std::string path = TempPath("cli_stats.dat");
  WriteSampleFile(path);
  auto cli = ParseCli({"stats", path});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCli(*cli, out).ok());
  EXPECT_NE(out.str().find("transactions"), std::string::npos);
  EXPECT_NE(out.str().find("12"), std::string::npos);
  EXPECT_NE(out.str().find("frequency groups"), std::string::npos);
}

TEST(CliRunTest, StatsMissingFileFails) {
  auto cli = ParseCli({"stats", "/no/such/file.dat"});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  EXPECT_TRUE(RunCli(*cli, out).IsIOError());
}

TEST(CliRunTest, StatsWrongArity) {
  auto cli = ParseCli({"stats"});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  EXPECT_TRUE(RunCli(*cli, out).IsInvalidArgument());
}

TEST(CliRunTest, AssessProducesDecision) {
  const std::string path = TempPath("cli_assess.dat");
  WriteSampleFile(path);
  auto cli = ParseCli({"assess", path, "--tolerance=0.5"});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCli(*cli, out).ok());
  EXPECT_NE(out.str().find("decision:"), std::string::npos);
}

TEST(CliRunTest, AssessRejectsBadTolerance) {
  const std::string path = TempPath("cli_assess2.dat");
  WriteSampleFile(path);
  auto cli = ParseCli({"assess", path, "--tolerance=nope"});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  EXPECT_TRUE(RunCli(*cli, out).IsInvalidArgument());
}

TEST(CliRunTest, AnonymizeRoundTrip) {
  const std::string in = TempPath("cli_anon_in.dat");
  const std::string out_path = TempPath("cli_anon_out.dat");
  WriteSampleFile(in);
  auto cli = ParseCli({"anonymize", in, out_path, "--seed=99"});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCli(*cli, out).ok());

  auto original = ReadFimiFile(in);
  auto anonymized = ReadFimiFile(out_path);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(anonymized.ok());
  EXPECT_EQ(original->database.num_transactions(),
            anonymized->database.num_transactions());
  // Frequencies preserved as a multiset even though labels moved.
  auto ot = FrequencyTable::Compute(original->database);
  auto at = FrequencyTable::Compute(anonymized->database);
  ASSERT_TRUE(ot.ok());
  ASSERT_TRUE(at.ok());
  std::vector<SupportCount> os = ot->supports(), as = at->supports();
  // The anonymized file may have fewer *labels* if some item never
  // appears; supports themselves must match as sorted multisets over the
  // appearing items.
  std::sort(os.begin(), os.end());
  std::sort(as.begin(), as.end());
  os.erase(std::remove(os.begin(), os.end(), 0u), os.end());
  as.erase(std::remove(as.begin(), as.end(), 0u), as.end());
  EXPECT_EQ(os, as);
}

TEST(CliRunTest, GenerateWritesBenchmarkStandIn) {
  const std::string out_path = TempPath("cli_gen.dat");
  auto cli =
      ParseCli({"generate", "CHESS", out_path, "--scale=0.2", "--seed=5"});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCli(*cli, out).ok());
  auto generated = ReadFimiFile(out_path);
  ASSERT_TRUE(generated.ok());
  EXPECT_EQ(generated->database.num_items(), 75u);
  auto table = FrequencyTable::Compute(generated->database);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(FrequencyGroups::Build(*table).num_groups(), 73u);
}

TEST(CliRunTest, GenerateUnknownBenchmarkFails) {
  auto cli = ParseCli({"generate", "NOPE", TempPath("x.dat")});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  EXPECT_TRUE(RunCli(*cli, out).IsNotFound());
}

TEST(CliRunTest, SimilarityOnSampleFile) {
  const std::string path = TempPath("cli_sim.dat");
  WriteSampleFile(path);
  auto cli = ParseCli({"similarity", path, "--seed=3"});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCli(*cli, out).ok());
  EXPECT_NE(out.str().find("mean alpha"), std::string::npos);
}

TEST(CliRunTest, RiskRankingOnSampleFile) {
  const std::string path = TempPath("cli_risk.dat");
  WriteSampleFile(path);
  auto cli = ParseCli({"risk", path, "--top=3"});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCli(*cli, out).ok());
  EXPECT_NE(out.str().find("crack prob."), std::string::npos);
  EXPECT_NE(out.str().find("O-estimate"), std::string::npos);
}

TEST(CliRunTest, DefendMergeProducesSaferFile) {
  const std::string in = TempPath("cli_defend_in.dat");
  const std::string out_path = TempPath("cli_defend_out.dat");
  WriteSampleFile(in);
  auto cli = ParseCli({"defend", in, out_path, "--tolerance=0.4",
                       "--mode=merge"});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCli(*cli, out).ok());
  EXPECT_NE(out.str().find("merge defense"), std::string::npos);
  auto defended = ReadFimiFile(out_path);
  ASSERT_TRUE(defended.ok());
  EXPECT_EQ(defended->database.num_transactions(), 12u);
}

TEST(CliRunTest, DefendRejectsUnknownMode) {
  const std::string in = TempPath("cli_defend_bad.dat");
  WriteSampleFile(in);
  auto cli = ParseCli({"defend", in, TempPath("o.dat"), "--mode=wat"});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  EXPECT_TRUE(RunCli(*cli, out).IsInvalidArgument());
}

TEST(CliRunTest, BeliefTemplateAndAttackFlow) {
  const std::string data = TempPath("cli_attack.dat");
  const std::string belief = TempPath("cli_attack.belief");
  WriteSampleFile(data);
  auto make = ParseCli({"belief", data, belief});
  ASSERT_TRUE(make.ok());
  std::ostringstream out1;
  ASSERT_TRUE(RunCli(*make, out1).ok());
  auto attack = ParseCli({"attack", data, belief, "--top=2"});
  ASSERT_TRUE(attack.ok());
  std::ostringstream out2;
  ASSERT_TRUE(RunCli(*attack, out2).ok());
  EXPECT_NE(out2.str().find("alpha = 1.0000"), std::string::npos);
  EXPECT_NE(out2.str().find("O-estimate"), std::string::npos);
}

TEST(CliRunTest, AttackMissingBeliefFileFails) {
  const std::string data = TempPath("cli_attack2.dat");
  WriteSampleFile(data);
  auto attack = ParseCli({"attack", data, "/no/such.belief"});
  ASSERT_TRUE(attack.ok());
  std::ostringstream out;
  EXPECT_TRUE(RunCli(*attack, out).IsIOError());
}

TEST(CliRunTest, MineAllAlgorithmsAgree) {
  const std::string path = TempPath("cli_mine.dat");
  WriteSampleFile(path);
  std::string outputs[3];
  const char* algorithms[] = {"apriori", "fpgrowth", "eclat"};
  for (int i = 0; i < 3; ++i) {
    auto cli = ParseCli({"mine", path, "--min-support=0.25",
                         std::string("--algorithm=") + algorithms[i],
                         "--top=50"});
    ASSERT_TRUE(cli.ok());
    std::ostringstream out;
    ASSERT_TRUE(RunCli(*cli, out).ok()) << algorithms[i];
    outputs[i] = out.str();
    // Strip the algorithm name so the bodies are comparable.
    size_t paren = outputs[i].find('(');
    outputs[i] = outputs[i].substr(outputs[i].find('\n'));
    (void)paren;
  }
  EXPECT_EQ(outputs[0], outputs[1]);
  EXPECT_EQ(outputs[0], outputs[2]);
}

TEST(CliRunTest, MineWithRulesAndBadAlgorithm) {
  const std::string path = TempPath("cli_mine2.dat");
  WriteSampleFile(path);
  auto cli = ParseCli({"mine", path, "--min-support=0.2",
                       "--min-confidence=0.5"});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCli(*cli, out).ok());
  EXPECT_NE(out.str().find("association rules"), std::string::npos);
  auto bad = ParseCli({"mine", path, "--algorithm=magic"});
  ASSERT_TRUE(bad.ok());
  std::ostringstream out2;
  EXPECT_TRUE(RunCli(*bad, out2).IsInvalidArgument());
}

// ----------------------------------------------------------- Observability

/// Restores the process-wide observability switches a test flipped.
struct ObsSwitchGuard {
  ~ObsSwitchGuard() {
    obs::SetTracingEnabled(false);
    obs::SetMetricsEnabled(false);
  }
};

TEST(CliRunTest, AssessWithTracePrintsPhaseTable) {
  ObsSwitchGuard guard;
  const std::string path = TempPath("cli_trace.dat");
  WriteSampleFile(path);
  // Tolerance low enough that the recipe falls through to the alpha
  // bisection, so all phases appear.
  auto cli = ParseCli({"assess", path, "--tolerance=0.05", "--trace"});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCli(*cli, out).ok());
  const std::string text = out.str();
  EXPECT_NE(text.find("trace (assess):"), std::string::npos);
  EXPECT_NE(text.find("recipe.assess_risk"), std::string::npos);
  EXPECT_NE(text.find("recipe.point_valued_check"), std::string::npos);
  EXPECT_NE(text.find("recipe.alpha_probe"), std::string::npos);
  EXPECT_NE(text.find("core.oestimate"), std::string::npos);
  EXPECT_NE(text.find("graph.consistency_build"), std::string::npos);
  EXPECT_NE(text.find("% of root"), std::string::npos);
}

TEST(CliRunTest, AssessWithMetricsOutWritesJsonAndProm) {
  ObsSwitchGuard guard;
  const std::string path = TempPath("cli_metrics.dat");
  const std::string json_path = TempPath("cli_metrics.json");
  WriteSampleFile(path);
  auto cli = ParseCli({"assess", path, "--tolerance=0.05",
                       "--metrics-out=" + json_path});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out, err;
  std::streambuf* const cerr_buf = std::cerr.rdbuf(err.rdbuf());
  const Status run = RunCli(*cli, out);
  std::cerr.rdbuf(cerr_buf);
  ASSERT_TRUE(run.ok());
  // The notice goes to stderr, so stdout carries only the command's output.
  EXPECT_NE(err.str().find("metrics: " + json_path), std::string::npos);
  EXPECT_EQ(out.str().find("metrics: "), std::string::npos);

  std::ifstream json(json_path);
  ASSERT_TRUE(json.good());
  std::stringstream buf;
  buf << json.rdbuf();
  EXPECT_NE(buf.str().find("\"anonsafe_recipe_runs_total\""),
            std::string::npos);
  EXPECT_NE(buf.str().find("\"anonsafe_alpha_probes_total\""),
            std::string::npos);
  EXPECT_NE(buf.str().find("\"p95\""), std::string::npos);

  std::ifstream prom(TempPath("cli_metrics.prom"));
  ASSERT_TRUE(prom.good());
  std::stringstream pbuf;
  pbuf << prom.rdbuf();
  EXPECT_NE(pbuf.str().find("# TYPE anonsafe_recipe_assess_risk_seconds "
                            "histogram"),
            std::string::npos);
}

TEST(CliRunTest, MetricsOutToUnwritablePathFails) {
  ObsSwitchGuard guard;
  const std::string path = TempPath("cli_metrics_bad.dat");
  WriteSampleFile(path);
  auto cli = ParseCli({"assess", path,
                       "--metrics-out=/no/such/dir/metrics.json"});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  EXPECT_TRUE(RunCli(*cli, out).IsIOError());
}

TEST(CliRunTest, ReportOnSampleFile) {
  const std::string path = TempPath("cli_report.dat");
  WriteSampleFile(path);
  auto cli = ParseCli({"report", path, "--tolerance=0.3"});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCli(*cli, out).ok());
  EXPECT_NE(out.str().find("Disclosure Risk Report"), std::string::npos);
}

// Compute-command flags are the serve params spelled with dashes: typed
// by the verb's param list, so a bool flag takes true/false and a number
// flag keeps the historical parse error.
TEST(CliRunTest, ComputeFlagsAreTypedServeParams) {
  const std::string path = TempPath("cli_params.dat");
  WriteSampleFile(path);
  auto no_curve = ParseCli({"report", path, "--json", "--seed=3",
                            "--include-similarity-curve=false"});
  ASSERT_TRUE(no_curve.ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCli(*no_curve, out).ok());
  EXPECT_NE(out.str().find("\"similarity_curve\":[]"), std::string::npos)
      << out.str();

  auto bad_bool = ParseCli({"plan", path, "--prefer-sampler=maybe"});
  ASSERT_TRUE(bad_bool.ok());
  EXPECT_TRUE(RunCli(*bad_bool, out).IsInvalidArgument());

  auto bad_number = ParseCli({"similarity", path, "--threads=abc"});
  ASSERT_TRUE(bad_number.ok());
  Status status = RunCli(*bad_number, out);
  ASSERT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("flag --threads expects a number, got "
                                  "'abc'"),
            std::string::npos)
      << status.message();
}

// ---------------------------------------------------------------- Adversary

TEST(CliRunTest, AssessWithAdversaryPrintsProvenance) {
  const std::string path = TempPath("cli_adversary.dat");
  WriteSampleFile(path);
  auto cli = ParseCli({"assess", path, "--tolerance=0.5",
                       "--adversary=probabilistic:span=1,sigma=0.5"});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCli(*cli, out).ok());
  EXPECT_NE(out.str().find("decision:"), std::string::npos);
  EXPECT_NE(out.str().find("adversary: probabilistic:span=1,sigma=0.5"),
            std::string::npos)
      << out.str();

  // The default interval adversary prints no provenance line — the
  // output stays byte-compatible with the historical CLI.
  auto plain = ParseCli({"assess", path, "--tolerance=0.5"});
  ASSERT_TRUE(plain.ok());
  std::ostringstream plain_out;
  ASSERT_TRUE(RunCli(*plain, plain_out).ok());
  EXPECT_EQ(plain_out.str().find("adversary:"), std::string::npos);
}

TEST(CliRunTest, AssessRejectsUnknownAdversary) {
  const std::string path = TempPath("cli_adversary_bad.dat");
  WriteSampleFile(path);
  auto cli = ParseCli({"assess", path, "--adversary=laplace"});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  EXPECT_TRUE(RunCli(*cli, out).IsInvalidArgument());

  auto bad_param =
      ParseCli({"assess", path, "--adversary=probabilistic:sigma=-1"});
  ASSERT_TRUE(bad_param.ok());
  std::ostringstream out2;
  EXPECT_TRUE(RunCli(*bad_param, out2).IsInvalidArgument());
}

TEST(CliRunTest, ReportJsonCarriesAdversaryProvenance) {
  const std::string path = TempPath("cli_adversary_json.dat");
  WriteSampleFile(path);
  auto cli = ParseCli(
      {"report", path, "--json", "--adversary=exact_support:k=2"});
  ASSERT_TRUE(cli.ok());
  std::ostringstream out;
  ASSERT_TRUE(RunCli(*cli, out).ok());
  EXPECT_NE(out.str().find("\"adversary\":\"exact_support\""),
            std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("\"adversary_params\":{\"k\":2}"),
            std::string::npos)
      << out.str();
}

}  // namespace
}  // namespace anonsafe
