// Plan-identity corpus: "plans are unchanged" as a check.
//
// tests/data/plan_corpus.jsonl is a fixed grid of v2 requests (solves
// over n x q x improve x cycle model x policy, then chained deltas of
// every patch op). Each line runs in-process through
// svc::handle_request or svc::handle_delta against one shared cache, so
// delta lines find their bases. The response is stripped of what varies
// run to run (latency, stage timings, trace id) and its JSONL bytes are
// hashed with FNV-1a; tests/data/plan_digests.txt holds one
// "<id> <digest>" line per request, in corpus order.
//
//   plan_corpus_test             compare every digest (the ctest)
//   plan_corpus_test --rewrite   regenerate plan_digests.txt
//
// A change that alters plans on purpose re-pins only the digests it
// must; a refactor re-pins none.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "svc/delta.hpp"
#include "svc/engine.hpp"
#include "svc/plan_cache.hpp"
#include "svc/wire.hpp"

#ifndef MWC_TEST_DATA_DIR
#error "MWC_TEST_DATA_DIR must name tests/data"
#endif

namespace mwc::svc {
namespace {

const std::string kCorpusPath = std::string(MWC_TEST_DATA_DIR) +
                                "/plan_corpus.jsonl";
const std::string kDigestPath = std::string(MWC_TEST_DATA_DIR) +
                                "/plan_digests.txt";

bool g_rewrite = false;

struct Entry {
  std::string line;     ///< the request, as sent
  std::string id;       ///< its "id"
  std::string digest;   ///< 16 hex digits of the stripped response
};

/// Serves one corpus line the way the server would, minus the transport.
Response serve(const std::string& line, PlanCache& cache) {
  try {
    const ParsedRequest parsed = parse_any_request(line);
    return parsed.is_delta ? handle_delta(parsed.delta, &cache)
                           : handle_request(parsed.full, &cache);
  } catch (const WireError& e) {
    Response r = error_response(e.id, ErrorCode::kBadRequest, e.what());
    r.version = e.version;
    return r;
  }
}

std::string digest_of(Response response) {
  response.latency_ms = 0.0;
  response.has_timings = false;
  response.stages = StageTimings{};
  response.trace_id.clear();
  const std::string bytes = to_jsonl(response);
  Fnv1a h;
  h.bytes(bytes.data(), bytes.size());
  return fingerprint_hex(h.value());
}

std::vector<Entry> run_corpus() {
  std::ifstream in(kCorpusPath);
  EXPECT_TRUE(in) << "cannot read " << kCorpusPath;
  PlanCache cache(4096);
  std::vector<Entry> entries;
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    const Response response = serve(line, cache);
    entries.push_back({line, response.id, digest_of(response)});
  }
  return entries;
}

TEST(PlanCorpus, EveryResponseMatchesItsDigest) {
  const std::vector<Entry> entries = run_corpus();
  ASSERT_FALSE(entries.empty());

  if (g_rewrite) {
    std::ofstream out(kDigestPath, std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << kDigestPath;
    for (const Entry& e : entries) out << e.id << ' ' << e.digest << '\n';
    std::printf("wrote %zu digests to %s\n", entries.size(),
                kDigestPath.c_str());
    return;
  }

  std::ifstream in(kDigestPath);
  ASSERT_TRUE(in) << "cannot read " << kDigestPath;
  std::vector<std::pair<std::string, std::string>> pinned;
  for (std::string id, digest; in >> id >> digest;)
    pinned.emplace_back(id, digest);
  ASSERT_EQ(pinned.size(), entries.size())
      << "corpus and digest file disagree on the number of requests; "
         "rerun with --rewrite after an intended corpus change";

  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    EXPECT_EQ(pinned[i].first, e.id) << "line " << i + 1;
    EXPECT_EQ(pinned[i].second, e.digest)
        << "line " << i + 1 << " (" << e.id << "): pinned " << pinned[i].second
        << ", got " << e.digest << "\nrequest: " << e.line;
  }
}

}  // namespace
}  // namespace mwc::svc

int main(int argc, char** argv) {
  testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rewrite") == 0) {
      mwc::svc::g_rewrite = true;
    } else {
      std::fprintf(stderr, "plan_corpus_test: %s: unknown flag\n", argv[i]);
      return 2;
    }
  }
  return RUN_ALL_TESTS();
}
