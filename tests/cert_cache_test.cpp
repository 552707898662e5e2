// Verified-certificate cache: LRU/GC unit behaviour, and integration with
// Certificate::Verify — the same certificate arriving via two routes must
// cost one signature-set verification plus one cache probe.
#include "src/types/cert_cache.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/runtime/client.h"
#include "src/runtime/cluster.h"
#include "src/runtime/metrics.h"
#include "src/types/types.h"

namespace nt {
namespace {

Digest Key(int i) { return Sha256::Hash("key" + std::to_string(i)); }

TEST(VerifiedCertCacheTest, LookupMissThenHit) {
  VerifiedCertCache cache(4);
  EXPECT_FALSE(cache.Lookup(Key(1)));
  cache.Insert(Key(1), 10);
  EXPECT_TRUE(cache.Lookup(Key(1)));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(VerifiedCertCacheTest, LruEvictsOldestWhenFull) {
  VerifiedCertCache cache(3);
  cache.Insert(Key(1), 1);
  cache.Insert(Key(2), 1);
  cache.Insert(Key(3), 1);
  // Touch 1 so 2 becomes least-recently-used.
  EXPECT_TRUE(cache.Lookup(Key(1)));
  cache.Insert(Key(4), 1);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().lru_evictions, 1u);
  EXPECT_TRUE(cache.Lookup(Key(1)));
  EXPECT_FALSE(cache.Lookup(Key(2)));  // Evicted.
  EXPECT_TRUE(cache.Lookup(Key(3)));
  EXPECT_TRUE(cache.Lookup(Key(4)));
}

TEST(VerifiedCertCacheTest, DuplicateInsertDoesNotGrow) {
  VerifiedCertCache cache(4);
  cache.Insert(Key(1), 5);
  cache.Insert(Key(1), 5);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(VerifiedCertCacheTest, GcEvictsBelowHorizonAndRejectsLateInserts) {
  VerifiedCertCache cache(16);
  cache.Insert(Key(1), 3);
  cache.Insert(Key(2), 7);
  cache.Insert(Key(3), 12);
  cache.OnGcRound(8);
  EXPECT_EQ(cache.stats().gc_evictions, 2u);
  EXPECT_FALSE(cache.Lookup(Key(1)));
  EXPECT_FALSE(cache.Lookup(Key(2)));
  EXPECT_TRUE(cache.Lookup(Key(3)));
  // Entries below the horizon can no longer be presented; don't admit them.
  cache.Insert(Key(4), 5);
  EXPECT_FALSE(cache.Lookup(Key(4)));
  // The horizon is monotone: a stale smaller value must not re-open it.
  cache.OnGcRound(2);
  cache.Insert(Key(5), 5);
  EXPECT_FALSE(cache.Lookup(Key(5)));
}

TEST(VerifiedCertCacheTest, ClearResetsEverything) {
  VerifiedCertCache cache(4);
  cache.Insert(Key(1), 3);
  cache.OnGcRound(2);
  cache.Lookup(Key(1));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  cache.Insert(Key(2), 1);  // Horizon reset: round 1 admissible again.
  EXPECT_TRUE(cache.Lookup(Key(2)));
}

// ---------------------------------------------------------------------------
// Integration with Certificate verification.
// ---------------------------------------------------------------------------

struct CertCacheIntegrationTest : ::testing::Test {
  static constexpr uint32_t kN = 4;

  CertCacheIntegrationTest() {
    std::vector<ValidatorInfo> infos;
    for (uint32_t v = 0; v < kN; ++v) {
      signers.push_back(MakeSigner(SignerKind::kFast, DeriveSeed(137, v)));
      infos.push_back(ValidatorInfo{signers.back()->public_key(), 0});
    }
    committee = Committee(std::move(infos));
    VerifiedCertCache::Narwhal().Clear();
  }

  Certificate Certify(const Digest& digest, Round round, ValidatorId author) const {
    Certificate cert;
    cert.header_digest = digest;
    cert.round = round;
    cert.author = author;
    Bytes preimage = Certificate::VotePreimage(digest, round, author);
    for (uint32_t v = 0; v < committee.quorum_threshold(); ++v) {
      cert.votes.emplace_back(v, signers[v]->Sign(preimage));
    }
    return cert;
  }

  std::vector<std::unique_ptr<Signer>> signers;
  Committee committee;
};

TEST_F(CertCacheIntegrationTest, SecondVerifyIsACacheHit) {
  Certificate cert = Certify(Sha256::Hash("block"), 5, 1);
  EXPECT_TRUE(cert.Verify(committee, *signers[0]));
  auto s1 = VerifiedCertCache::Narwhal().stats();
  EXPECT_EQ(s1.misses, 1u);
  EXPECT_EQ(s1.insertions, 1u);
  EXPECT_EQ(s1.hits, 0u);

  EXPECT_TRUE(cert.Verify(committee, *signers[0]));
  auto s2 = VerifiedCertCache::Narwhal().stats();
  EXPECT_EQ(s2.misses, 1u);  // No second signature verification pass.
  EXPECT_EQ(s2.insertions, 1u);
  EXPECT_EQ(s2.hits, 1u);
}

TEST_F(CertCacheIntegrationTest, TwoRoutesVerifyExactlyOnce) {
  // Route 1: direct Verify (certificate broadcast). Route 2: the same
  // certificate inside a header's parent set, each parent verified in turn
  // (header processing). The vote signatures must be checked exactly once.
  Certificate cert = Certify(Sha256::Hash("parent"), 3, 2);
  EXPECT_TRUE(cert.Verify(committee, *signers[0]));

  std::vector<Certificate> parents;
  parents.push_back(cert);
  parents.push_back(Certify(Sha256::Hash("other-parent"), 3, 0));
  for (const Certificate& parent : parents) {
    EXPECT_TRUE(parent.Verify(committee, *signers[0]));
  }

  auto s = VerifiedCertCache::Narwhal().stats();
  EXPECT_EQ(s.hits, 1u);        // `cert` via route 2.
  EXPECT_EQ(s.misses, 2u);      // `cert` route 1 + the other parent.
  EXPECT_EQ(s.insertions, 2u);  // Each distinct certificate verified once.
}

TEST_F(CertCacheIntegrationTest, ForgedCertificateIsNeverCached) {
  Certificate cert = Certify(Sha256::Hash("forged"), 4, 1);
  cert.votes[1].second[0] ^= 1;
  EXPECT_FALSE(cert.Verify(committee, *signers[0]));
  EXPECT_FALSE(cert.Verify(committee, *signers[0]));
  auto s = VerifiedCertCache::Narwhal().stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 2u);  // Re-checked every time.
  EXPECT_EQ(s.insertions, 0u);
}

TEST_F(CertCacheIntegrationTest, VoteSetVariantIsADistinctEntry) {
  // Two certificates over the same header with different (equally valid)
  // vote sets must not share a cache entry.
  Digest d = Sha256::Hash("same-header");
  Certificate a = Certify(d, 6, 1);
  Certificate b = a;
  Bytes preimage = Certificate::VotePreimage(d, 6, 1);
  b.votes.erase(b.votes.begin());
  b.votes.emplace_back(3, signers[3]->Sign(preimage));
  EXPECT_TRUE(a.Verify(committee, *signers[0]));
  EXPECT_TRUE(b.Verify(committee, *signers[0]));
  auto s = VerifiedCertCache::Narwhal().stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.insertions, 2u);
}

TEST_F(CertCacheIntegrationTest, MetricsSurfaceCacheDeltas) {
  // Metrics snapshots the process-wide counters at construction and reports
  // per-run deltas.
  Certificate warmup = Certify(Sha256::Hash("pre-existing"), 1, 0);
  EXPECT_TRUE(warmup.Verify(committee, *signers[0]));

  Scheduler scheduler;
  Metrics metrics(&scheduler);
  EXPECT_EQ(metrics.cert_cache_hits(), 0u);
  EXPECT_EQ(metrics.cert_cache_misses(), 0u);

  Certificate cert = Certify(Sha256::Hash("during-run"), 2, 1);
  EXPECT_TRUE(cert.Verify(committee, *signers[0]));
  EXPECT_TRUE(cert.Verify(committee, *signers[0]));
  EXPECT_TRUE(warmup.Verify(committee, *signers[0]));
  EXPECT_EQ(metrics.cert_cache_misses(), 1u);
  EXPECT_EQ(metrics.cert_cache_hits(), 2u);
  EXPECT_DOUBLE_EQ(metrics.CertCacheHitRate(), 2.0 / 3.0);
}

TEST_F(CertCacheIntegrationTest, PerValidatorCachesVerifyIndependently) {
  // Two simulated validators each pass their own cache: the second validator
  // must NOT get a hit from the first one's verification — in a real
  // deployment each node does its own crypto work. (Before per-node caches,
  // validators 2..N of a single-process run rode the first one's singleton
  // entries and skipped ~(N-1)/N of the verification workload.)
  VerifiedCertCache cache_a;
  VerifiedCertCache cache_b;
  Certificate cert = Certify(Sha256::Hash("shared-cert"), 5, 1);

  EXPECT_TRUE(cert.Verify(committee, *signers[0], &cache_a));
  EXPECT_TRUE(cert.Verify(committee, *signers[1], &cache_b));
  EXPECT_EQ(cache_a.stats().misses, 1u);
  EXPECT_EQ(cache_a.stats().insertions, 1u);
  EXPECT_EQ(cache_b.stats().misses, 1u);  // Verified again, not shared.
  EXPECT_EQ(cache_b.stats().insertions, 1u);
  // The default singleton saw none of this traffic.
  EXPECT_EQ(VerifiedCertCache::Narwhal().stats().misses, 0u);
  EXPECT_EQ(VerifiedCertCache::Narwhal().stats().insertions, 0u);

  // Re-delivery to each validator is a hit in its own cache.
  EXPECT_TRUE(cert.Verify(committee, *signers[0], &cache_a));
  EXPECT_EQ(cache_a.stats().hits, 1u);
  EXPECT_TRUE(cert.Verify(committee, *signers[1], &cache_b));
  EXPECT_EQ(cache_b.stats().hits, 1u);
}

TEST_F(CertCacheIntegrationTest, MetricsAggregateRegisteredCaches) {
  Scheduler scheduler;
  Metrics metrics(&scheduler);
  VerifiedCertCache cache_a;
  VerifiedCertCache cache_b;
  // Activity before registration is excluded from the run's deltas.
  Certificate pre = Certify(Sha256::Hash("pre-registration"), 1, 0);
  EXPECT_TRUE(pre.Verify(committee, *signers[0], &cache_a));
  metrics.RegisterCertCache(&cache_a);
  metrics.RegisterCertCache(&cache_b);
  EXPECT_EQ(metrics.cert_cache_hits(), 0u);
  EXPECT_EQ(metrics.cert_cache_misses(), 0u);

  Certificate cert = Certify(Sha256::Hash("registered-run"), 2, 1);
  EXPECT_TRUE(cert.Verify(committee, *signers[0], &cache_a));
  EXPECT_TRUE(cert.Verify(committee, *signers[0], &cache_a));
  EXPECT_TRUE(cert.Verify(committee, *signers[1], &cache_b));
  EXPECT_EQ(metrics.cert_cache_misses(), 2u);  // One per validator cache.
  EXPECT_EQ(metrics.cert_cache_hits(), 1u);
}

TEST_F(CertCacheIntegrationTest, MetricsClampWhenCountersMoveBackwards) {
  // Clear()/ResetStats() move a cache's counters below the metrics baseline;
  // the deltas must clamp to zero, not wrap to ~2^64.
  Certificate warmup = Certify(Sha256::Hash("will-be-cleared"), 1, 0);
  EXPECT_TRUE(warmup.Verify(committee, *signers[0]));
  EXPECT_TRUE(warmup.Verify(committee, *signers[0]));  // Baseline: 1 hit, 1 miss.

  Scheduler scheduler;
  Metrics metrics(&scheduler);
  VerifiedCertCache cache_a;
  Certificate cert = Certify(Sha256::Hash("clamped"), 2, 1);
  EXPECT_TRUE(cert.Verify(committee, *signers[0], &cache_a));
  metrics.RegisterCertCache(&cache_a);

  VerifiedCertCache::Narwhal().Clear();  // Singleton counters fall below baseline.
  cache_a.ResetStats();                  // Registered cache falls below its baseline.
  EXPECT_EQ(metrics.cert_cache_hits(), 0u);
  EXPECT_EQ(metrics.cert_cache_misses(), 0u);
  EXPECT_DOUBLE_EQ(metrics.CertCacheHitRate(), 0.0);

  // Counters that climb back past the baseline resume counting.
  EXPECT_TRUE(warmup.Verify(committee, *signers[0]));   // Miss (cache cleared).
  EXPECT_TRUE(warmup.Verify(committee, *signers[0]));   // Hit.
  EXPECT_EQ(metrics.cert_cache_misses(), 0u);  // 1 < baseline 1 clamps... still 0.
  EXPECT_EQ(metrics.cert_cache_hits(), 0u);
  EXPECT_TRUE(Certify(Sha256::Hash("fresh"), 3, 2).Verify(committee, *signers[0]));
  EXPECT_EQ(metrics.cert_cache_misses(), 1u);  // 2 misses vs baseline 1.
}

TEST(CertCacheClusterTest, FaultFreePrimariesVerifyEachCertificateOnce) {
  // A header's parents that are already in the DAG never reach signature
  // verification, and a certificate enters the DAG right after it verifies,
  // so in a fault-free run no primary ever looks up a certificate twice.
  ClusterConfig config;
  config.system = SystemKind::kTusk;
  config.num_validators = 4;
  config.seed = 11;
  Cluster cluster(config);
  LoadGenerator::Options options;
  options.rate_tps = 1000;
  options.stop_at = Seconds(5);
  LoadGenerator client(&cluster, 0, 0, options);
  client.Start();
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(5));
  for (ValidatorId v = 0; v < config.num_validators; ++v) {
    VerifiedCertCache::Stats stats = cluster.primary(v)->cert_cache().stats();
    EXPECT_GT(stats.misses, 10u) << "validator " << v;
    EXPECT_EQ(stats.hits, 0u) << "validator " << v;
  }
}

}  // namespace
}  // namespace nt
