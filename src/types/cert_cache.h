// Per-validator cache of certificates whose signature sets have already been
// verified. Quorum certificates are re-delivered constantly — the same
// Narwhal certificate arrives via its own broadcast, as a parent inside the
// next round's headers, and again inside HotStuff proposals — and each
// delivery used to re-verify 2f+1 signatures. Caching by content digest
// makes every route after the first free. A Narwhal primary looks in its DAG
// before verifying, so in a fault-free run its cache sees only misses.
//
// Each protocol node (Primary, HotStuff) owns its own instance:
// the simulator runs every validator in one process, and a shared cache
// would let validator i skip verification because validator j already did it
// — work no real deployment could share. The static Narwhal()/HotStuff()
// instances are process-wide *defaults* for tools and tests that verify
// certificates outside any node.
//
// Only *positive* results are cached (a certificate that failed to verify is
// simply re-checked), and the key covers the committee fingerprint plus the
// full certificate encoding including its vote set, so an entry can never
// vouch for different signatures or a different committee.
//
// The cache is bounded (LRU) and garbage-collection aware: once the DAG's GC
// horizon passes a round, certificates below it can no longer be presented
// for verification, so their entries are dropped eagerly.
#ifndef SRC_TYPES_CERT_CACHE_H_
#define SRC_TYPES_CERT_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <mutex>

#include "src/crypto/hash.h"

namespace nt {

class VerifiedCertCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t lru_evictions = 0;
    uint64_t gc_evictions = 0;
  };

  static constexpr size_t kDefaultCapacity = 8192;

  explicit VerifiedCertCache(size_t capacity = kDefaultCapacity);

  // True iff `key` was inserted earlier and has not been evicted. Counts a
  // hit or a miss and refreshes the entry's LRU position on hit.
  bool Lookup(const Digest& key);

  // Records a verified certificate. `round` is the GC dimension (Narwhal
  // round or HotStuff view); entries below the observed GC horizon are not
  // admitted.
  void Insert(const Digest& key, uint64_t round);

  // Advances the GC horizon (monotone) and evicts entries below it.
  void OnGcRound(uint64_t gc_round);

  size_t size() const;
  Stats stats() const;
  void ResetStats();
  void Clear();  // Drops entries, stats, and the GC horizon (tests).

  // Process-wide default instances for callers not tied to a simulated
  // validator (tools, tests, the Mempool facade): one keyed by Narwhal
  // rounds, one by HotStuff views (their GC horizons advance independently).
  // Protocol nodes use their own per-instance caches instead.
  static VerifiedCertCache& Narwhal();
  static VerifiedCertCache& HotStuff();
  // Aggregate stats across both default instances (metrics surfacing).
  static Stats Combined();

 private:
  struct Entry {
    Digest key{};
    uint64_t round = 0;
  };
  // ntlint:allow(nondet): guards tool/test access to the static default instances; protocol nodes own per-instance caches and never contend
  mutable std::mutex mu_;
  size_t capacity_;
  uint64_t gc_round_ = 0;
  std::list<Entry> lru_;  // Front = most recently used.
  // Ordered so GC sweeps (which iterate) visit entries in digest order, a
  // deterministic order regardless of insertion history or hash seeding.
  std::map<Digest, std::list<Entry>::iterator> index_;
  Stats stats_;
};

}  // namespace nt

#endif  // SRC_TYPES_CERT_CACHE_H_
