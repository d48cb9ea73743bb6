// Seeded mutation fuzzer for qasm::parse. Each mutant is one to four
// stacked mutations (byte flips, byte and token inserts, deletes,
// truncations, splices between programs, duplicated statements) of a
// program from the differential corpus: the parser test programs, the
// edge programs and the small suite circuits rendered with seeded
// parameters. For every mutant only QasmError may escape the reader, an
// accepted circuit must equal the oracle's (tests/support/
// reference_qasm.hpp) and read back from its own rendering, and a
// rejection the oracle does not share must be an intended one.
//
// The budget is the number of mutants, a command-line argument:
//
//   qasm_qasm_fuzz_test [--mutants=N] [gtest flags]
//
// ctest runs the default, 25,000 (about a second in a release
// build); the sanitize CI lane runs the same binary with 50 times as
// many.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "codar/qasm/writer.hpp"
#include "codar/workloads/suite.hpp"
#include "support/qasm_differential.hpp"

namespace codar::qasm {
namespace {

constexpr std::size_t kDefaultMutants = 25000;
std::size_t g_mutants = kDefaultMutants;

/// The parser test and edge programs, and the suite circuits small
/// enough to mutate thousands of times, rendered with seeded parameter
/// values.
std::vector<std::string> fuzz_corpus() {
  std::vector<std::string> corpus = codar::testing::parser_test_programs();
  for (std::string& p : codar::testing::edge_programs())
    corpus.push_back(std::move(p));
  std::mt19937_64 rng(11);
  for (const workloads::BenchmarkSpec& spec : workloads::benchmark_suite()) {
    if (spec.circuit.size() > 120) continue;
    corpus.push_back(
        to_qasm(codar::testing::with_seeded_parameters(spec.circuit, rng)));
  }
  return corpus;
}

/// Fragments worth inserting: keywords, operators, the numerals the
/// reader checks specially, and line breaks.
const std::vector<std::string_view>& fragments() {
  static const std::vector<std::string_view> list = {
      "qreg ",  "creg ", "gate ",  "barrier ", "measure ", "opaque ",
      "include ", "if ", "reset ", "pi",     "->",       "==",
      "(",      ")",     "[",      "]",       "{",        "}",
      ";",      ",",     "^",      "-",       "+",        "*",
      "/",      "1e999", "0/0",    "65536",   "1.2.3",    "1e",
      ".5",     "\"",    "//",     "\n",      "\r\n",     " ",
      "q",      "q[0]",  "a",      "h ",      "cx ",      "U",
      "CX",     "rz(",   "sin(",   "0",       "9",        "2147483648",
      "-1",     "1e-999", "5e-324", "OPENQASM 2.0;"};
  return list;
}

class Mutator {
 public:
  Mutator(const std::vector<std::string>& corpus, std::uint64_t seed)
      : corpus_(corpus), rng_(seed) {}

  std::string next() {
    std::string s = corpus_[below(corpus_.size())];
    const std::size_t steps = 1 + below(4);
    for (std::size_t i = 0; i < steps; ++i) mutate(s);
    return s;
  }

 private:
  std::size_t below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng_() % n);
  }

  void mutate(std::string& s) {
    switch (below(7)) {
      case 0:  // flip one bit
        if (!s.empty()) s[below(s.size())] ^= static_cast<char>(1 << below(8));
        break;
      case 1:  // insert a random byte
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(below(s.size() + 1)),
                 static_cast<char>(below(256)));
        break;
      case 2:  // insert a fragment
        s.insert(below(s.size() + 1), fragments()[below(fragments().size())]);
        break;
      case 3:  // delete up to 8 bytes
        if (!s.empty()) {
          const std::size_t at = below(s.size());
          s.erase(at, 1 + below(8));
        }
        break;
      case 4:  // truncate
        s.resize(below(s.size() + 1));
        break;
      case 5: {  // splice: this program's head, another's tail
        const std::string& other = corpus_[below(corpus_.size())];
        s = s.substr(0, below(s.size() + 1)) +
            other.substr(below(other.size() + 1));
        break;
      }
      default:  // duplicate one `;`-terminated statement in place
        duplicate_statement(s);
        break;
    }
  }

  void duplicate_statement(std::string& s) {
    const std::size_t end = s.find(';', below(s.size() + 1));
    if (end == std::string::npos) return;
    const std::size_t prev = s.rfind(';', end == 0 ? 0 : end - 1);
    const std::size_t begin = prev == std::string::npos || prev >= end ? 0 : prev + 1;
    s.insert(end + 1, s.substr(begin, end + 1 - begin));
  }

  const std::vector<std::string>& corpus_;
  std::mt19937_64 rng_;
};

TEST(QasmFuzz, MutantsOnlyRaiseQasmErrorAndMatchTheOracle) {
  const std::vector<std::string> corpus = fuzz_corpus();
  ASSERT_GT(corpus.size(), 80u);
  Mutator mutator(corpus, 0x5eed);
  std::size_t accepted = 0;
  int failures = 0;
  for (std::size_t i = 0; i < g_mutants && failures < 5; ++i) {
    const std::string mutant = mutator.next();
    std::string problem;
    try {
      problem = codar::testing::compare_readers(mutant);
      if (problem.empty() && codar::testing::read_production(mutant).circuit)
        ++accepted;
    } catch (const std::exception& e) {
      problem = std::string("escaped: ") + e.what();
    }
    if (!problem.empty()) {
      ++failures;
      ADD_FAILURE() << "mutant " << i << ": " << problem << "\n---\n"
                    << mutant << "\n---";
    }
  }
  // The mutants must still reach the back end, not just the lexer.
  EXPECT_GT(accepted, g_mutants / 20);
}

}  // namespace
}  // namespace codar::qasm

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  constexpr std::string_view kFlag = "--mutants=";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.substr(0, kFlag.size()) == kFlag) {
      codar::qasm::g_mutants =
          std::strtoull(std::string(arg.substr(kFlag.size())).c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: %s [--mutants=N] [gtest flags]\n", argv[0]);
      return 2;
    }
  }
  return RUN_ALL_TESTS();
}
