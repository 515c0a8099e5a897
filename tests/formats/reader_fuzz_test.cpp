// A seeded mutation fuzz of the view readers. Every recorder document of
// every recorder (reference::recorder_documents) is edited a few bytes
// at a time: bit flips, and insertions and deletions of the bytes the
// formats' grammars turn on (`" \ { } [ ] , : ; -> =`, whitespace and
// control bytes). On every mutant each reader of the document's format
// must accept exactly when its tree-based reference accepts and then
// read the same graph; the DOT reader must also fail with its
// reference's message, since the two share no code. What every reader
// makes of every mutant (outcome.h: the view, or the error with its
// offset) is pinned by one digest, which covers the JSON readers' error
// messages as well.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "formats/detect.h"
#include "formats/dot.h"
#include "formats/neo4j.h"
#include "formats/prov_json.h"
#include "outcome.h"
#include "reference_formats.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"

namespace provmark::formats {
namespace {

using namespace std::string_view_literals;

constexpr std::array kTokens = {
    "\""sv, "\\"sv, "{"sv,  "}"sv,  "["sv,    "]"sv,    ","sv,
    ":"sv,  ";"sv,  "->"sv, "="sv,  " "sv,    "\n"sv,   "\t"sv,
    "\r"sv, "\0"sv, "\x01"sv, "\x1f"sv, "\x7f"sv,
};

/// Mutants made of each document.
constexpr int kMutants = 16;

/// `text` with one to three edits drawn from `rng`.
std::string mutate(std::string text, util::Rng& rng) {
  const int edits = 1 + static_cast<int>(rng.next_below(3));
  for (int i = 0; i < edits; ++i) {
    const std::size_t at = rng.next_below(text.size() + 1);
    const std::string_view token = kTokens[rng.next_below(kTokens.size())];
    switch (rng.next_below(3)) {
      case 0:  // flip one bit
        if (at < text.size()) {
          text[at] = static_cast<char>(text[at] ^ (1 << rng.next_below(8)));
        }
        break;
      case 1: text.insert(at, token); break;
      default: {
        // Delete the token's next occurrence from `at` on, or from the
        // start when there is none after it.
        std::size_t found = text.find(token, at);
        if (found == std::string::npos) found = text.find(token);
        if (found != std::string::npos) text.erase(found, token.size());
        break;
      }
    }
  }
  return text;
}

/// "" when the readers of `format` agree with their references on
/// `text`, else what differs.
std::string disagreement(Format format, std::string_view text) {
  for (const reference::ReaderPair* pair : reference::readers_for(format)) {
    std::string diff = reference::disagreement(*pair, text);
    if (!diff.empty()) return diff;
  }
  return "";
}

TEST(ReaderFuzz, MutantsOfEveryRecorderDocument) {
  const std::vector<reference::RecorderDocument> docs =
      reference::recorder_documents();
  struct Found {
    std::string digest, diff;
    std::size_t accepted = 0;
  };
  const std::vector<Found> found =
      runtime::default_pool().parallel_map<Found>(
          docs, [](const reference::RecorderDocument& doc, std::size_t) {
            Found out;
            const Format format = detect_format(doc.text);
            util::Rng rng(util::stable_hash(
                doc.system + " " + doc.program +
                (doc.foreground ? " fg" : " bg")));
            outcome::Digest digest;
            for (int m = 0; m < kMutants; ++m) {
              const std::string mutant = mutate(doc.text, rng);
              const std::string outcome = outcome::of_every_reader(mutant);
              digest.add(outcome);
              out.accepted += outcome.find("\nok ") != std::string::npos;
              if (out.diff.empty()) {
                const std::string diff = disagreement(format, mutant);
                if (!diff.empty()) {
                  out.diff = doc.system + " " + doc.program + " mutant " +
                             std::to_string(m) + ": " + diff;
                }
              }
            }
            out.digest = digest.hex();
            return out;
          });
  outcome::Digest all;
  std::size_t accepted = 0;
  for (const Found& f : found) {
    EXPECT_EQ(f.diff, "");
    all.add(f.digest);
    accepted += f.accepted;
  }
  // Some mutants must still read (an edit inside a string, a flip that
  // keeps the grammar), or the fuzz only ever sees the first error.
  const std::size_t mutants = docs.size() * kMutants;
  EXPECT_GT(accepted, mutants / 20);
  EXPECT_LT(accepted, mutants);
  std::printf("%zu mutants, %zu read by a view reader\n", mutants, accepted);
  EXPECT_EQ(all.hex(), "e4e27713e7f62c4f");
}

}  // namespace
}  // namespace provmark::formats
