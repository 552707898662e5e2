#include "src/tusk/tusk.h"

#include "src/common/seeded_bugs.h"

namespace nt {

Tusk::Tusk(Primary* primary, const Committee& committee, const ThresholdCoin* coin,
           Round gc_depth)
    : WaveCommitter(primary, committee, gc_depth,
                    {"tusk/committed_waves", "tusk/skipped_leaders"}),
      coin_(coin) {}

bool Tusk::Decidable(uint64_t wave) const {
  // The coin for wave w is revealed once the third round is populated by a
  // quorum in the local view. Headers of later rounds embed the certificates
  // that fill earlier rounds, so an incomplete wave completes before long.
  return dag().CertCountAt(WaveThirdRound(wave)) >= committee().quorum_threshold();
}

bool Tusk::Supported(uint64_t wave, const Certificate& leader) const {
  // Seeded mutation: skip the paper's §5 f+1 second-round support check and
  // commit every elected leader present in the local view — validators with
  // different views then commit different leader chains (detected by the DST
  // harness's prefix-consistency and oracle invariants).
  if (seeded_bugs::skip_tusk_support) {
    return true;
  }
  return DirectVotes(WaveSecondRound(wave), leader.header_digest) >=
         committee().validity_threshold();
}

}  // namespace nt
