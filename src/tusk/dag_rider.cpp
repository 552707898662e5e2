#include "src/tusk/dag_rider.h"

namespace nt {

DagRider::DagRider(Primary* primary, const Committee& committee, const ThresholdCoin* coin)
    : WaveCommitter(primary, committee, /*gc_depth=*/std::nullopt,
                    {"dag_rider/committed_waves", "dag_rider/skipped_leaders"}),
      coin_(coin) {}

bool DagRider::Decidable(uint64_t wave) const {
  return dag().CertCountAt(WaveLastRound(wave)) >= committee().quorum_threshold();
}

bool DagRider::Supported(uint64_t wave, const Certificate& leader) const {
  uint32_t votes = 0;
  for (const auto& [author, cert] : dag().CertsAt(WaveLastRound(wave))) {
    if (dag().HasPath(cert.header_digest, leader.header_digest)) {
      ++votes;
    }
  }
  return votes >= committee().quorum_threshold();
}

}  // namespace nt
