#include "serve/model_cache.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "config/param_map.h"
#include "eval/artifact.h"

namespace tgsim::serve {

ModelCache::ModelCache(std::vector<ModelSpec> models, int64_t byte_budget)
    : byte_budget_(byte_budget) {
  TGSIM_CHECK_GT(byte_budget, 0);
  slots_.reserve(models.size());
  for (ModelSpec& spec : models) {
    Slot slot;
    slot.stats.name = spec.name;
    slot.spec = std::move(spec);
    slots_.push_back(std::move(slot));
  }
}

Status ModelCache::Preload() {
  parallel::MutexLock lock(mu_);
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].spec.name.empty())
      return Status::InvalidArgument("model names must be non-empty");
    for (size_t j = i + 1; j < slots_.size(); ++j) {
      if (slots_[i].spec.name == slots_[j].spec.name)
        return Status::InvalidArgument("duplicate model name '" +
                                       slots_[i].spec.name + "'");
    }
  }
  for (Slot& slot : slots_) {
    if (slot.resident != nullptr) continue;
    Status loaded = LoadSlotLocked(slot);
    if (!loaded.ok())
      return Status(loaded.code(),
                    "model '" + slot.spec.name + "': " + loaded.message());
  }
  return Status::Ok();
}

ModelCache::Slot* ModelCache::FindSlotLocked(const std::string& name) {
  for (Slot& slot : slots_)
    if (slot.spec.name == name) return &slot;
  return nullptr;
}

Status ModelCache::LoadSlotLocked(Slot& slot) {
  // Load before admission: block-backed artifacts keep their score blocks
  // on disk, so the true resident footprint is only known once the
  // generator exists.
  Result<eval::LoadedArtifact> loaded = eval::LoadArtifact(slot.spec.path);
  if (!loaded.ok()) return loaded.status();
  const int64_t charge = loaded.value().generator->ResidentStateBytes();
  if (charge > byte_budget_)
    return Status::ResourceExhausted(
        "artifact needs " + std::to_string(charge) +
        " bytes but the cache budget is " + std::to_string(byte_budget_) +
        " bytes");

  EvictUntilFitsLocked(charge);

  auto model = std::make_shared<CachedModel>();
  model->generator = std::move(loaded).value().generator;
  model->method = loaded.value().method;
  model->bytes = charge;
  InstallLocked(slot, std::move(model));
  return Status::Ok();
}

void ModelCache::EvictUntilFitsLocked(int64_t charge) {
  // Evict strictly-least-traffic residents until the newcomer fits. The
  // order is deterministic: ascending requests, ties least-recently-used.
  while (resident_bytes_ + charge > byte_budget_) {
    Slot* victim = nullptr;
    for (Slot& candidate : slots_) {
      if (candidate.resident == nullptr) continue;
      if (victim == nullptr ||
          candidate.stats.requests < victim->stats.requests ||
          (candidate.stats.requests == victim->stats.requests &&
           candidate.last_use_seq < victim->last_use_seq))
        victim = &candidate;
    }
    // The caller's admission check guarantees the newcomer fits an empty
    // cache, so a victim always exists while we are over budget.
    TGSIM_CHECK(victim != nullptr);
    resident_bytes_ -= victim->resident->bytes;
    victim->resident.reset();  // In-flight requests keep their shared_ptr.
    victim->stats.resident = false;
    victim->stats.evictions += 1;
  }
}

void ModelCache::InstallLocked(Slot& slot,
                               std::shared_ptr<CachedModel> model) {
  slot.resident = std::move(model);
  slot.stats.method = slot.resident->method;
  slot.stats.resident = true;
  slot.stats.bytes = slot.resident->bytes;
  slot.stats.loads += 1;
  resident_bytes_ += slot.resident->bytes;
}

Result<std::shared_ptr<CachedModel>> ModelCache::Acquire(
    const std::string& name) {
  parallel::MutexLock lock(mu_);
  Slot* slot = FindSlotLocked(name);
  if (slot == nullptr) {
    std::string message = "unknown model '" + name + "'";
    std::vector<std::string> names;
    names.reserve(slots_.size());
    for (const Slot& s : slots_) names.push_back(s.spec.name);
    std::string suggestion = config::NearestName(name, names);
    if (!suggestion.empty())
      message += "; did you mean '" + suggestion + "'?";
    return Status::NotFound(message);
  }
  slot->stats.requests += 1;
  slot->last_use_seq = ++use_counter_;
  if (slot->resident == nullptr) {
    Status loaded = LoadSlotLocked(*slot);
    if (!loaded.ok())
      return Status(loaded.code(),
                    "model '" + name + "': " + loaded.message());
  }
  return slot->resident;
}

Result<std::string> ModelCache::ArtifactPath(const std::string& name) const {
  parallel::MutexLock lock(mu_);
  for (const Slot& slot : slots_)
    if (slot.spec.name == name) return slot.spec.path;
  std::string message = "unknown model '" + name + "'";
  std::vector<std::string> names;
  names.reserve(slots_.size());
  for (const Slot& s : slots_) names.push_back(s.spec.name);
  std::string suggestion = config::NearestName(name, names);
  if (!suggestion.empty()) message += "; did you mean '" + suggestion + "'?";
  return Status::NotFound(message);
}

Status ModelCache::Swap(
    const std::string& name,
    std::unique_ptr<baselines::TemporalGraphGenerator> generator,
    const std::string& method) {
  TGSIM_CHECK(generator != nullptr);
  parallel::MutexLock lock(mu_);
  Slot* slot = FindSlotLocked(name);
  if (slot == nullptr) return Status::NotFound("unknown model '" + name + "'");

  const int64_t charge = generator->ResidentStateBytes();
  if (charge > byte_budget_)
    return Status::ResourceExhausted(
        "updated model needs " + std::to_string(charge) +
        " bytes but the cache budget is " + std::to_string(byte_budget_) +
        " bytes");

  // Release the old instance first (in-flight holders keep theirs alive),
  // then admit the replacement under the freed budget.
  if (slot->resident != nullptr) {
    resident_bytes_ -= slot->resident->bytes;
    slot->resident.reset();
    slot->stats.resident = false;
  }
  EvictUntilFitsLocked(charge);

  auto model = std::make_shared<CachedModel>();
  model->generator = std::move(generator);
  model->method = method;
  model->bytes = charge;
  InstallLocked(*slot, std::move(model));
  return Status::Ok();
}

void ModelCache::RecordGenerate(const std::string& name, double seconds) {
  parallel::MutexLock lock(mu_);
  Slot* slot = FindSlotLocked(name);
  if (slot == nullptr) return;
  slot->stats.generates += 1;
  slot->stats.busy_seconds += seconds;
}

std::vector<ModelStats> ModelCache::Snapshot() const {
  parallel::MutexLock lock(mu_);
  std::vector<ModelStats> out;
  out.reserve(slots_.size());
  for (const Slot& slot : slots_) out.push_back(slot.stats);
  return out;
}

int64_t ModelCache::resident_bytes() const {
  parallel::MutexLock lock(mu_);
  return resident_bytes_;
}

}  // namespace tgsim::serve
