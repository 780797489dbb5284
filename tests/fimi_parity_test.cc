// Parity of the block-scanning FIMI reader with the line-stream parser
// it replaced. `OracleReadFimi` below is that parser, kept verbatim as a
// test-only oracle: getline per line, `operator>>` per label, a hash-map
// label remap. On every input of a seeded mutation corpus, ReadFimi (a
// stream) and ParseFimi (an in-memory buffer) must both give the
// oracle's status code and message, or its labels and transactions.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/fimi_io.h"
#include "util/rng.h"
#include "test_rows.h"

namespace anonsafe {
namespace {

Result<LabeledDatabase> OracleReadFimi(std::istream& in) {
  std::unordered_map<int64_t, ItemId> label_to_id;
  std::vector<int64_t> labels;
  std::vector<Transaction> transactions;

  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream ls(line);
    Transaction txn;
    int64_t label;
    while (ls >> label) {
      if (label < 0) {
        return Status::InvalidArgument("negative item label at line " +
                                       std::to_string(line_no));
      }
      auto [it, inserted] =
          label_to_id.emplace(label, static_cast<ItemId>(labels.size()));
      if (inserted) labels.push_back(label);
      txn.push_back(it->second);
    }
    if (!ls.eof()) {
      return Status::InvalidArgument("malformed token at line " +
                                     std::to_string(line_no));
    }
    if (!txn.empty()) transactions.push_back(std::move(txn));
  }
  if (in.bad()) return Status::IOError("stream read failure");

  LabeledDatabase out;
  out.labels = std::move(labels);
  ANONSAFE_ASSIGN_OR_RETURN(
      out.database,
      Database::FromTransactions(out.labels.size(), std::move(transactions)));
  return out;
}

// Compares one parse against the oracle's; returns "" when they agree.
std::string Diff(const Result<LabeledDatabase>& want,
                 const Result<LabeledDatabase>& got) {
  if (want.ok() != got.ok()) {
    return "oracle " + want.status().ToString() + " vs " +
           got.status().ToString();
  }
  if (!want.ok()) {
    if (want.status() == got.status()) return "";
    return "oracle " + want.status().ToString() + " vs " +
           got.status().ToString();
  }
  if (want->labels != got->labels) return "labels differ";
  if (want->database.num_items() != got->database.num_items()) {
    return "domain sizes differ";
  }
  if (Rows(want->database) != Rows(got->database)) {
    return "transactions differ";
  }
  return "";
}

void ExpectParity(const std::string& text) {
  std::istringstream oracle_in(text);
  const Result<LabeledDatabase> want = OracleReadFimi(oracle_in);
  std::istringstream stream_in(text);
  const std::string shown =
      text.size() <= 200 ? text : text.substr(0, 200) + "...";
  EXPECT_EQ(Diff(want, ReadFimi(stream_in)), "")
      << "ReadFimi on input: \"" << shown << "\"";
  EXPECT_EQ(Diff(want, ParseFimi(text)), "")
      << "ParseFimi on input: \"" << shown << "\"";
}

// Hand-picked inputs: every edge of the token grammar on its own.
const std::vector<std::string>& Seeds() {
  static const std::vector<std::string> seeds = {
      "",
      "\n",
      "\n\n\n",
      "1 2 3\n4 5\n",
      "1 2 3\n4 5",          // missing final newline
      "1\t2\t3\n",           // tabs
      "1 2\r\n3 4\r\n",      // CRLF
      "1 2\r3\n",            // bare CR inside a line
      "1\v2\f3\n",
      "   \t  \n 7 \n",
      "+7 8\n",
      "-0 1\n",
      "1 -5x\n",
      "5abc 1\n",
      "1 5abc\n",
      "1.5 2\n",
      "2 1.5\n",
      "5+3\n",
      "5-3\n",
      "1 -\n",
      "1 +\n",
      "1 - 2\n",
      "1 +-5\n",
      "1 --5\n",
      "1 x\n",
      "0x10\n",
      "007 7\n",
      "1 99999999999999999999\n",   // int64 overflow, last on its line
      "99999999999999999999 1\n",   // int64 overflow, mid-line
      "1 99999999999999999999\r\n",
      "1 -99999999999999999999\n",
      "9223372036854775807 1\n",    // INT64_MAX
      "9223372036854775808 1\n",    // INT64_MAX + 1
      "1 -9223372036854775808\n",   // INT64_MIN
      "18446744073709551616\n",
      "1048575 1048576 1048577\n",  // around the dense-remap limit
      "16470 5000000000 3 16470\n5000000000 1\n",
      std::string("1 2\0 3\n", 7),
      "1 2 2 1\n2 1\n",
  };
  return seeds;
}

TEST(FimiParityTest, SeedsMatchOracle) {
  for (const std::string& text : Seeds()) ExpectParity(text);
}

TEST(FimiParityTest, SeededMutationsMatchOracle) {
  static const std::vector<std::string> fragments = {
      " ", "\t", "\r", "\n", "\r\n", "\v", "+", "-", ".", "x", "a", "0",
      "7", "+7", "-0", "-5x", "5abc", "1.5", "99999999999999999999",
      "9223372036854775808", "1048576", "5000000000", "16470",
      std::string(1, '\0')};
  Rng rng(20050614);
  const std::vector<std::string>& seeds = Seeds();
  for (int trial = 0; trial < 3000; ++trial) {
    std::string text = seeds[rng.UniformUint64(seeds.size())];
    const size_t edits = 1 + rng.UniformUint64(4);
    for (size_t e = 0; e < edits; ++e) {
      const size_t pos = rng.UniformUint64(text.size() + 1);
      switch (rng.UniformUint64(3)) {
        case 0:  // insert a fragment
          text.insert(pos, fragments[rng.UniformUint64(fragments.size())]);
          break;
        case 1:  // delete one byte
          if (pos < text.size()) text.erase(pos, 1);
          break;
        default:  // overwrite one byte with a digit or separator
          if (pos < text.size()) {
            text[pos] = "0123456789 \n\t-"[rng.UniformUint64(14)];
          }
          break;
      }
    }
    ExpectParity(text);
    if (HasFailure()) break;  // one counterexample is enough
  }
}

// Inputs larger than the scanner's read block, so lines (and one line
// longer than a block) straddle block boundaries.
TEST(FimiParityTest, MultiBlockInputsMatchOracle) {
  Rng rng(7);
  std::string text;
  while (text.size() < (size_t{5} << 20) / 2) {
    const size_t width = 1 + rng.UniformUint64(30);
    for (size_t i = 0; i < width; ++i) {
      if (i) text += rng.Bernoulli(0.1) ? "\t" : " ";
      const uint64_t bound = rng.Bernoulli(0.01) ? uint64_t{1} << 22 : 500;
      text += std::to_string(rng.UniformUint64(bound));
    }
    text += rng.Bernoulli(0.1) ? "\r\n" : "\n";
  }
  std::string long_line;
  while (long_line.size() < (size_t{3} << 20) / 2) {
    long_line += std::to_string(rng.UniformUint64(100000)) + " ";
  }
  ExpectParity(text);
  ExpectParity(text + long_line);                 // no final newline
  ExpectParity(text + long_line + "\n" + text);
  ExpectParity(text + long_line + "5abc\n" + text);  // error past a block
  ExpectParity(text + "1 -2\n");
}

}  // namespace
}  // namespace anonsafe
