#include "eval/artifact.h"

#include <cstdio>
#include <fstream>
#include <utility>

#include "baselines/state_io.h"
#include "eval/registry.h"
#include "serialize/serialization.h"

namespace tgsim::eval {

namespace {

/// Descriptor field names of the i-th parameter entry. Built by appending
/// (not `"..." + std::to_string(i)`) to sidestep a GCC 12 -Wrestrict
/// false positive on const char* + std::string&&.
std::string ParamKeyField(int64_t i) {
  std::string name = "param_key";
  name += std::to_string(i);
  return name;
}

std::string ParamValueField(int64_t i) {
  std::string name = "param_value";
  name += std::to_string(i);
  return name;
}

/// Writes the descriptor + generator state; split out so SaveArtifact can
/// close the stream before cleaning up a half-written file on error.
Status WriteArtifactFile(const baselines::TemporalGraphGenerator& gen,
                         const std::string& method,
                         const config::ParamMap& params,
                         const std::string& path,
                         const UpdateLineage& lineage) {
  std::ofstream out(path);
  if (!out.is_open())
    return Status::IoError("cannot write artifact: " + path);

  serialize::ArchiveWriter writer(out);
  writer.BeginSection("artifact");
  writer.WriteInt("artifact_version", kArtifactVersion);
  writer.WriteString("method", method);
  // v2 lineage: fit/update provenance (see UpdateLineage).
  writer.WriteInt("base_fit_seed",
                  static_cast<int64_t>(lineage.base_fit_seed));
  writer.WriteInt("update_count", lineage.update_count);
  writer.WriteInt("update_epochs", lineage.update_epochs);
  // One key/value string pair per parameter: values are length-prefixed
  // raw bytes, so overlays survive whitespace (and anything else) intact.
  std::vector<std::string> keys = params.Keys();
  writer.WriteInt("param_count", static_cast<int64_t>(keys.size()));
  for (size_t i = 0; i < keys.size(); ++i) {
    writer.WriteString(ParamKeyField(static_cast<int64_t>(i)), keys[i]);
    writer.WriteString(ParamValueField(static_cast<int64_t>(i)),
                       *params.FindRaw(keys[i]));
  }
  Status descriptor = writer.Finish();
  if (!descriptor.ok()) return descriptor;

  // The generator's own archive follows in the same stream.
  Status state = gen.SaveState(out);
  if (!state.ok()) return state;
  out.flush();
  if (!out.good()) return Status::IoError("artifact write failed: " + path);
  return Status::Ok();
}

}  // namespace

Status SaveArtifact(const baselines::TemporalGraphGenerator& gen,
                    const std::string& method,
                    const config::ParamMap& params, const std::string& path,
                    const UpdateLineage& lineage) {
  if (FindMethod(method) == nullptr) {
    std::string message = "cannot save artifact: unknown method '" + method +
                          "'";
    std::string suggestion =
        config::NearestName(method, RegisteredMethodNames());
    if (!suggestion.empty()) message += "; did you mean '" + suggestion + "'?";
    return Status::NotFound(message);
  }
  Status written = WriteArtifactFile(gen, method, params, path, lineage);
  // Never leave a half-written artifact behind: a later load would fail
  // with a confusing truncation error instead of "no such artifact".
  if (!written.ok()) std::remove(path.c_str());
  return written;
}

SeedStreams MakeSeedStreams(uint64_t seed) {
  std::vector<Rng> split = Rng(seed).Split(2);
  return SeedStreams{split[0], split[1]};
}

Result<LoadedArtifact> LoadArtifact(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open())
    return Status::IoError("cannot open artifact: " + path);

  Result<serialize::ArchiveReader> descriptor =
      serialize::ArchiveReader::Parse(in);
  if (!descriptor.ok())
    return Status(descriptor.status().code(),
                  "artifact '" + path + "': " + descriptor.status().message());
  const serialize::ArchiveReader& reader = descriptor.value();
  Result<int64_t> version = reader.GetInt("artifact", "artifact_version");
  if (!version.ok()) return version.status();
  if (version.value() != kArtifactVersion)
    return Status::InvalidArgument(
        "artifact '" + path + "' has artifact version " +
        std::to_string(version.value()) + " (this build reads version " +
        std::to_string(kArtifactVersion) +
        "; regenerate it with a matching tgsim)");
  Result<std::string> method = reader.GetString("artifact", "method");
  if (!method.ok()) return method.status();
  UpdateLineage lineage;
  {
    Result<int64_t> fit_seed = reader.GetInt("artifact", "base_fit_seed");
    if (!fit_seed.ok()) return fit_seed.status();
    lineage.base_fit_seed = static_cast<uint64_t>(fit_seed.value());
    Result<int64_t> update_count = reader.GetInt("artifact", "update_count");
    if (!update_count.ok()) return update_count.status();
    lineage.update_count = update_count.value();
    Result<int64_t> update_epochs =
        reader.GetInt("artifact", "update_epochs");
    if (!update_epochs.ok()) return update_epochs.status();
    lineage.update_epochs = update_epochs.value();
  }
  Result<int64_t> param_count = reader.GetInt("artifact", "param_count");
  if (!param_count.ok()) return param_count.status();
  config::ParamMap params;
  for (int64_t i = 0; i < param_count.value(); ++i) {
    Result<std::string> key =
        reader.GetString("artifact", ParamKeyField(i));
    if (!key.ok()) return key.status();
    Result<std::string> value =
        reader.GetString("artifact", ParamValueField(i));
    if (!value.ok()) return value.status();
    Status set = params.Set(key.value(), value.value());
    if (!set.ok())
      return Status(set.code(), "artifact '" + path +
                                    "' parameter overlay: " + set.message());
  }

  // The registry owns construction: unknown names get the usual NotFound
  // with a nearest-name suggestion, parameter errors surface as-is.
  Result<std::unique_ptr<baselines::TemporalGraphGenerator>> generator =
      MakeGenerator(method.value(), params);
  if (!generator.ok()) return generator.status();

  Status state = generator.value()->LoadState(in, path);
  if (!state.ok())
    return Status(state.code(),
                  "artifact '" + path + "' state: " + state.message());

  LoadedArtifact loaded;
  loaded.method = std::move(method).value();
  loaded.params = std::move(params);
  loaded.lineage = lineage;
  loaded.generator = std::move(generator).value();
  return loaded;
}

Status UpdateArtifact(LoadedArtifact& artifact,
                      const graphs::TemporalGraph& delta, uint64_t seed) {
  Rng rng = MakeSeedStreams(seed).fit;
  Status updated = artifact.generator->Update(delta, rng);
  if (!updated.ok()) return updated;
  artifact.lineage.update_count += 1;
  artifact.lineage.update_epochs += baselines::kUpdateWarmSnapshotLimit;
  return Status::Ok();
}

}  // namespace tgsim::eval
