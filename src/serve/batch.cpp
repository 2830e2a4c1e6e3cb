#include "serve/batch.hpp"

#include <stdexcept>

namespace evolve::serve {

BatchFormer::BatchFormer(BatchConfig config) : config_(config) {
  if (config_.max_batch < 1) {
    throw std::invalid_argument("max_batch must be >= 1");
  }
  if (config_.max_linger < 0) {
    throw std::invalid_argument("max_linger must be >= 0");
  }
}

void BatchFormer::plan(const RequestQueue& queue, util::TimeNs now,
                       BatchPlan& plan) const {
  plan.ready = false;
  plan.release_at = -1;
  plan.take.clear();
  if (queue.empty()) return;
  const int cls = queue.front().cls;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    if (queue[i].cls != cls) continue;
    plan.take.push_back(i);
    if (static_cast<int>(plan.take.size()) >= config_.max_batch) break;
  }
  const util::TimeNs deadline = queue.front().enqueued + config_.max_linger;
  if (static_cast<int>(plan.take.size()) >= config_.max_batch ||
      now >= deadline) {
    plan.ready = true;
    return;
  }
  plan.release_at = deadline;
}

}  // namespace evolve::serve
