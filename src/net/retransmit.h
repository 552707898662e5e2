// The one retransmission policy. Narwhal gets reliable broadcast by
// re-sending stored messages "until no more needed to make progress" (paper
// §4.1, §6); every resend loop and timeout in the tree waits Delay(k) before
// its k-th retry, from one of the named constants below.
#ifndef SRC_NET_RETRANSMIT_H_
#define SRC_NET_RETRANSMIT_H_

#include <algorithm>
#include <cstdint>

#include "src/common/time.h"

namespace nt {

// Capped exponential backoff: `base` doubled once per retry, at most
// `max_doublings` times.
struct Backoff {
  TimeDelta base;
  uint32_t max_doublings;

  constexpr TimeDelta Delay(uint32_t k) const { return base << std::min(k, max_doublings); }
};

// Primary::RetryBroadcast: resend an uncertified header to the validators
// that have not voted, or re-share its certificate while the round is stuck.
// The 8x cap keeps the interval well under any post-GST liveness bound:
// retransmission is what carries liveness through loss when only 2f+1
// validators survive.
inline constexpr Backoff kHeaderRetry{Seconds(1), 3};
// Primary::RetryHeaderSync: ask the next signer of a certificate for its
// header. The first wait is Delay(1).
inline constexpr Backoff kHeaderSync{Millis(300), 6};
// Worker::RetryBatch: resend an unacknowledged batch to the workers that have
// not acked it.
inline constexpr Backoff kBatchRetry{Millis(500), 6};
// Worker::RetryFetch: pull a missing batch from the next validator's worker.
inline constexpr Backoff kBatchFetch{Millis(300), 6};
// HotStuff::RetryProposal: rebroadcast the leader's proposal within its view.
// A proposal is otherwise sent once per view, so one lost message would waste
// the view.
inline constexpr Backoff kProposalRetry{Millis(300), 3};
// HotStuff::RequestBlock: ask the next validator for a missing ancestor block.
inline constexpr Backoff kBlockFetch{Millis(300), 0};
// HotStuff's pacemaker: the view timeout doubles per consecutive timeout and
// restarts from the base when the view advances (LibraBFT-style).
inline constexpr Backoff kViewTimeout{Seconds(1), 3};

}  // namespace nt

#endif  // SRC_NET_RETRANSMIT_H_
