#include "kamino/core/options.h"

#include <string>

namespace kamino {
namespace {

Status Bad(const std::string& knob, const std::string& why) {
  return Status::InvalidArgument("KaminoOptions." + knob + " " + why);
}

}  // namespace

Status KaminoOptions::Validate() const {
  if (embed_dim == 0) return Bad("embed_dim", "must be >= 1");
  if (quantize_bins <= 0) return Bad("quantize_bins", "must be >= 1");
  if (!(learning_rate > 0.0)) return Bad("learning_rate", "must be > 0");
  if (batch_size == 0) return Bad("batch_size", "must be >= 1");
  if (iterations == 0) return Bad("iterations", "must be >= 1");
  if (!non_private) {
    // The DP parameter set only makes sense with positive noise scales and
    // a positive clipping bound; zero noise on a "private" run would claim
    // a finite epsilon it does not provide.
    if (!(sigma_g > 0.0)) return Bad("sigma_g", "must be > 0 on a private run");
    if (!(sigma_d > 0.0)) return Bad("sigma_d", "must be > 0 on a private run");
    if (!(sigma_w > 0.0)) return Bad("sigma_w", "must be > 0 on a private run");
    if (!(clip_norm > 0.0)) {
      return Bad("clip_norm", "must be > 0 on a private run");
    }
  }
  if (weight_sample == 0) return Bad("weight_sample", "must be >= 1");
  if (weight_batch == 0) return Bad("weight_batch", "must be >= 1");
  if (max_candidates <= 0) return Bad("max_candidates", "must be >= 1");
  if (accept_reject && ar_max_tries == 0) {
    return Bad("ar_max_tries", "must be >= 1 when accept_reject is set");
  }
  if (large_domain_threshold < 1) {
    return Bad("large_domain_threshold", "must be >= 1");
  }
  if (enable_grouping && group_domain_threshold < 1) {
    return Bad("group_domain_threshold",
               "must be >= 1 when enable_grouping is set");
  }
  if (enable_tracing && trace_capacity_events == 0) {
    return Bad("trace_capacity_events",
               "must be >= 1 when enable_tracing is set");
  }
  return Status::OK();
}

}  // namespace kamino
