// Mutation test of the cache and wire readers: seeded byte flips,
// truncations, swaps of balanced subtrees and atoms replaced by tokens a
// reader must range-check or reject (1e300, a list, an empty string...),
// applied to the envelopes and compile-response payloads of
// tests/golden/format.golden. Every
// mutated input must either be rejected — decode_compile_response raises
// UserError, DiskCache::load reports kCorrupt or kMiss — or decode to an
// entry whose re-encoding decodes to an equal entry (the same text again).
// Half of the mutated envelopes get a fresh checksum first, so the entry
// reader sees them too instead of stopping at a checksum mismatch. Any
// other exception, a crash, or (under the sanitizers) undefined behaviour
// fails the test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "daemon/protocol.h"
#include "format_golden.h"
#include "service/disk_cache.h"
#include "support/hash.h"
#include "support/rng.h"
#include "support/sexpr.h"

namespace diospyros {
namespace {

namespace fs = std::filesystem;

using Spans = std::vector<std::pair<std::size_t, std::size_t>>;

/** The spans of every balanced list and of every atom in `text`. */
std::pair<Spans, Spans>
spans_of(const std::string& text)
{
    Spans lists, atoms;
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const std::size_t start = i;
        if (text[i] == '"') {
            for (++i; i < text.size() && text[i] != '"'; ++i) {
                i += text[i] == '\\' ? 1 : 0;
            }
            atoms.emplace_back(start, std::min(i + 1, text.size()));
        } else if (text[i] == '(') {
            open.push_back(i);
        } else if (text[i] == ')' && !open.empty()) {
            lists.emplace_back(open.back(), i + 1);
            open.pop_back();
        } else if (!std::isspace(static_cast<unsigned char>(text[i])) &&
                   text[i] != ')') {
            while (i + 1 < text.size() &&
                   !std::isspace(static_cast<unsigned char>(text[i + 1])) &&
                   text[i + 1] != '(' && text[i + 1] != ')') {
                ++i;
            }
            atoms.emplace_back(start, i + 1);
        }
    }
    return {lists, atoms};
}

/**
 * Applies one byte flip, truncation or subtree swap to `text`, or puts a
 * token a reader must range-check or reject in place of an atom.
 */
void
mutate(std::string& text, Rng& rng)
{
    if (text.empty()) {
        return;
    }
    const auto at = [&](std::size_t n) {
        return static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    };
    switch (rng.uniform_int(0, 3)) {
      case 0: {
        // Half the time a byte the syntax or the number readers care
        // about, else any byte.
        static const std::string kSyntax = "()\" \\;\n0123456789-+.xpe";
        const std::size_t i = at(text.size());
        text[i] = rng.uniform_int(0, 1) == 0
                      ? kSyntax[at(kSyntax.size())]
                      : static_cast<char>(rng.uniform_int(0, 255));
        break;
      }
      case 1:
        text.resize(at(text.size()));
        break;
      case 2: {
        static const char* const kTokens[] = {
            "1e300", "-0x1p+1000", "inf", "nan", "-1", "0", "4294967296",
            "99999999999999999999", "0x1p-1080", "()", "(x)", "((x))",
            "\"\"", "\"a\\\"b\\\\\"", "x"};
        const Spans atoms = spans_of(text).second;
        if (!atoms.empty()) {
            const auto [from, to] = atoms[at(atoms.size())];
            text.replace(from, to - from, kTokens[at(std::size(kTokens))]);
        }
        break;
      }
      default: {
        const Spans spans = spans_of(text).first;
        if (spans.size() < 2) {
            return;
        }
        for (int tries = 0; tries < 20; ++tries) {
            auto a = spans[at(spans.size())];
            auto b = spans[at(spans.size())];
            if (a.first > b.first) {
                std::swap(a, b);
            }
            if (a.second <= b.first) {  // disjoint
                text = text.substr(0, a.first) +
                       text.substr(b.first, b.second - b.first) +
                       text.substr(a.second, b.first - a.second) +
                       text.substr(a.first, a.second - a.first) +
                       text.substr(b.second);
                return;
            }
        }
      }
    }
}

/** An envelope holding `env`'s payload under a checksum that matches it. */
std::string
restamped(const service::EnvelopeFields& env)
{
    SexprWriter w;
    w.open("dios-cache-envelope");
    w.field("format-version", env.format_version);
    w.field("rule-set-version", env.rule_set_version);
    w.open("checksum").atom(hash_hex(stable_hash_string(env.payload_text)));
    w.close().open("payload").raw(env.payload_text).close().close();
    return w.take();
}

TEST(CodecMutation, EveryMutantIsRejectedOrRoundTrips)
{
    const std::vector<format_golden::Record> golden =
        format_golden::read_golden();
    ASSERT_FALSE(golden.empty());
    const format_golden::TempDir dir("codec_mutation");
    const service::DiskCache disk(dir.path.string());

    Rng rng(25);
    int rejected = 0, decoded = 0;
    constexpr int kMutants = 3000;
    for (int n = 0; n < kMutants; ++n) {
        const format_golden::Record& record =
            golden[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(golden.size()) - 1))];
        std::string text = record.text;
        for (std::int64_t k = rng.uniform_int(1, 3); k > 0; --k) {
            mutate(text, rng);
        }
        SCOPED_TRACE(record.name + ", mutant " + std::to_string(n));

        if (record.name.ends_with(" payload")) {
            daemon::CompileResponse resp;
            try {
                resp = daemon::decode_compile_response(text);
            } catch (const UserError&) {
                ++rejected;
                continue;
            }
            ++decoded;
            const std::string again = daemon::encode_compile_response(resp);
            EXPECT_EQ(daemon::encode_compile_response(
                          daemon::decode_compile_response(again)),
                      again);
            continue;
        }

        if (rng.uniform_int(0, 1) == 0) {
            const service::EnvelopeFields env = service::read_envelope(text);
            if (env.well_formed) {
                text = restamped(env);
            }
        }
        // File the mutant under the original entry's key, where a load
        // looks for it.
        const service::CacheKey key =
            service::decode_entry(service::read_envelope(record.text)
                                      .payload_text)
                .key;
        fs::create_directories(disk.shard_dir_for(key));
        std::ofstream(disk.path_for(key), std::ios::binary | std::ios::trunc)
            << text;
        const service::LoadResult r = disk.load(key);
        if (r.status != service::LoadStatus::kHit) {
            EXPECT_TRUE(r.status == service::LoadStatus::kCorrupt ||
                        r.status == service::LoadStatus::kMiss);
            ++rejected;
            continue;
        }
        ++decoded;
        const std::string again = service::encode_entry(*r.entry);
        EXPECT_EQ(service::encode_entry(service::decode_entry(again)), again);
    }
    // Both outcomes occur, so neither reader is trivially strict or lax.
    EXPECT_GT(rejected, kMutants / 10);
    EXPECT_GT(decoded, kMutants / 10);
}

}  // namespace
}  // namespace diospyros
