// Seeded mutation fuzz of mcnl text.
//
// Valid netlists are serialized and then corrupted by flipping bytes,
// inflating digit runs, and dropping or duplicating lines.  Every mutant
// must either parse — into a netlist that round-trips through
// write_netlist — or throw std::runtime_error carrying the named
// "netlist parse error" prefix.  Any other exception fails the test; a
// crash or a runaway allocation fails the run (and ASan/UBSan in CI).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "netlist/generator.hpp"
#include "netlist/io.hpp"
#include "util/rng.hpp"

namespace mcopt::netlist {
namespace {

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t begin = 0;
  while (begin < text.size()) {
    const std::size_t end = text.find('\n', begin);
    const std::size_t stop = end == std::string::npos ? text.size() : end;
    lines.push_back(text.substr(begin, stop - begin));
    begin = stop + 1;
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + '\n';
  return text;
}

std::size_t pick(util::Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.next_below(n));
}

/// Applies one random mutation to `text`.
std::string mutate(std::string text, util::Rng& rng) {
  switch (rng.next_below(4)) {
    case 0: {  // flip one byte to an arbitrary value
      if (text.empty()) break;
      text[pick(rng, text.size())] = static_cast<char>(rng.next_below(256));
      break;
    }
    case 1: {  // inflate a digit run by 1-12 random digits
      std::vector<std::size_t> digits;
      for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] >= '0' && text[i] <= '9') digits.push_back(i);
      }
      if (digits.empty()) break;
      std::string extra;
      const std::size_t count = 1 + pick(rng, 12);
      for (std::size_t i = 0; i < count; ++i) {
        extra += static_cast<char>('0' + rng.next_below(10));
      }
      text.insert(digits[pick(rng, digits.size())], extra);
      break;
    }
    case 2: {  // drop a line
      std::vector<std::string> lines = split_lines(text);
      if (lines.empty()) break;
      lines.erase(lines.begin() +
                  static_cast<std::ptrdiff_t>(pick(rng, lines.size())));
      text = join_lines(lines);
      break;
    }
    default: {  // duplicate a line in place
      std::vector<std::string> lines = split_lines(text);
      if (lines.empty()) break;
      const std::size_t at = pick(rng, lines.size());
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                   lines[at]);
      text = join_lines(lines);
      break;
    }
  }
  return text;
}

class NetlistIoFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(NetlistIoFuzzTest, MutantsParseOrRaiseANamedError) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  util::Rng rng{util::derive_seed(0x6d636e6cULL, seed)};
  const std::string base =
      seed % 2 == 0
          ? to_string(random_gola(GolaParams{8, 20}, rng))
          : to_string(random_nola(NolaParams{10, 16, 2, 5}, rng));
  int parsed = 0;
  int rejected = 0;
  for (int m = 0; m < 400; ++m) {
    std::string text = base;
    const std::uint64_t rounds = 1 + rng.next_below(3);
    for (std::uint64_t r = 0; r < rounds; ++r) text = mutate(text, rng);
    std::optional<Netlist> nl;
    try {
      nl = from_string(text);
    } catch (const std::runtime_error& e) {
      ++rejected;
      ASSERT_EQ(std::string{e.what()}.rfind("netlist parse error", 0), 0u)
          << "mutant " << m << " raised an unnamed error: " << e.what()
          << "\n" << text;
      continue;
    } catch (const std::exception& e) {
      FAIL() << "mutant " << m << " escaped as " << e.what() << ":\n"
             << text;
    }
    ++parsed;
    ASSERT_LE(nl->num_cells(), kMaxNetlistCells);
    const std::string canonical = to_string(*nl);
    ASSERT_EQ(to_string(from_string(canonical)), canonical)
        << "mutant " << m << ":\n" << text;
  }
  // The mutators must exercise both outcomes, or the fuzz proves little.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetlistIoFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace mcopt::netlist
